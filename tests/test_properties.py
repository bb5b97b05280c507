"""Properties of `dif`, `eif` and `inner_loop` on any finite input.

hypothesis draws the signals, derandomized and with no example database, so
every run sees the same cases: 3 to 40 samples of any finite double up to
1e308 in magnitude, subnormals and zeros among them, and constants.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from iterfilt import (BoundaryKind, StoppingConfig, convolve_self, dif, eif, inner_loop,
                      raised_cosine_shape, sample_filter)

CFG = StoppingConfig(max_inner=200)
EDGES = [0.0, 1.0, -1.0, 1e308, -1e308, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310]


def signals(bound: float):
    """Finite signals with samples up to ``bound`` in magnitude, and constants."""
    sample = st.floats(-bound, bound) | st.sampled_from([x for x in EDGES if abs(x) <= bound])
    return (st.lists(sample, min_size=3, max_size=40).map(np.array)
            | st.builds(np.full, st.integers(3, 40), sample))


def decompose(s, kind, mode):
    if mode == "dif":
        return dif(s, kind=kind, cfg=CFG)
    return eif(s, kind=kind, cfg=CFG)


KINDS = st.sampled_from(list(BoundaryKind))
MODES = st.sampled_from(["dif", "eif"])
SETTINGS = settings(derandomize=True, database=None, max_examples=150, deadline=None)


@SETTINGS
@given(s=signals(1e308), kind=KINDS, mode=MODES)
@example(s=np.array([0.0, 1.0, 0.0, 1.0, 0.0]), kind=BoundaryKind.ZERO, mode="dif")
@example(s=np.array([1e308, -1e308] * 3), kind=BoundaryKind.ANTIREFLECTIVE, mode="eif")
@example(s=np.array([5e-324, 0.0, -5e-324, 0.0]), kind=BoundaryKind.REFLECTIVE, mode="dif")
@example(s=np.full(5, -1e-310), kind=BoundaryKind.PERIODIC, mode="eif")
def test_decomposition_invariants(s, kind, mode):
    # each filter longer than the last, the trend last, finite components
    # that sum back to the input
    d = decompose(s, kind, mode)
    lengths = [g.filter_length for g in d.diagnostics]
    assert all(a < b for a, b in zip(lengths[:-2], lengths[1:-1]))
    assert lengths[-1] == 0 and d.diagnostics[-1].inner_steps == 0
    assert 1 <= len(d) <= CFG.max_imfs
    assert all(f.shape == s.shape and np.isfinite(f).all() for f in d.imfs)
    tol = 1e-10 * np.abs(s).max() + len(d) * np.finfo(float).smallest_subnormal
    assert np.abs(d.reconstruction() - s).max() <= tol


@SETTINGS
@given(s=signals(2.0**100).map(lambda v: np.where(np.abs(v) < 2.0**-100, 0.0, v)),
       kind=KINDS, mode=MODES, c=st.sampled_from([2.0**-300, 2.0**300]))
def test_power_of_two_scale_is_exact(s, kind, mode, c):
    # samples of 2^-100 to 2^100 stay normal when scaled by 2^-300 or 2^300
    base, scaled = decompose(s, kind, mode), decompose(c * s, kind, mode)
    assert scaled.diagnostics == base.diagnostics
    assert all(np.array_equal(f, c * g) for f, g in zip(scaled.imfs, base.imfs, strict=True))


def steps(d):
    """The (inner steps, filter length) of each component."""
    return [(g.inner_steps, g.filter_length) for g in d.diagnostics]


def close(a, b, s):
    """a and b agree to round-off relative to max|s|."""
    return np.abs(a - b).max() <= 1e-14 * np.abs(s).max() + np.finfo(float).smallest_subnormal


@SETTINGS
@given(s=signals(1e308), kind=st.sampled_from([BoundaryKind.REFLECTIVE,
                                                BoundaryKind.ANTIREFLECTIVE]), mode=MODES)
def test_reversal_symmetry(s, kind, mode):
    # both rules extend the two ends alike, so reversing the input reverses
    # every component and keeps every step count (the last step change
    # agrees only to round-off, so it is not compared)
    base, reversed_ = decompose(s, kind, mode), decompose(s[::-1], kind, mode)
    assert steps(reversed_) == steps(base)
    assert all(close(f, g[::-1], s) for f, g in zip(reversed_.imfs, base.imfs, strict=True))


@SETTINGS
@given(data=st.data(), s=signals(1e308).filter(lambda v: v.size >= 5))
def test_periodic_roll(data, s):
    # the periodic operator commutes with a cyclic shift; inner_loop, not
    # dif, since a shift moves the interior extrema and so dif's filter
    n = s.size
    filt = convolve_self(sample_filter(raised_cosine_shape(),
                                       data.draw(st.integers(1, (n - 1) // 4))))
    shift = data.draw(st.integers(1, n - 1))
    imf, k, _ = inner_loop(s, filt, BoundaryKind.PERIODIC, CFG)
    rolled, k_rolled, _ = inner_loop(np.roll(s, shift), filt, BoundaryKind.PERIODIC, CFG)
    assert k_rolled == k
    assert close(rolled, np.roll(imf, shift), s)
