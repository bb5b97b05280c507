"""Properties of `dif` and `eif` on any finite input.

hypothesis draws the signals, derandomized and with no example database, so
every run sees the same cases: 3 to 40 samples of any finite double up to
1e308 in magnitude, subnormals and zeros among them, and constants.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from iterfilt import BoundaryKind, StoppingConfig, dif, eif

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
