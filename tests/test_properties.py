"""Properties of `dif`, `eif` and `inner_loop` on any finite input, and
the eigenbasis contract of `StructuredOperator`.

hypothesis draws the signals, derandomized and with no example database, so
every run sees the same cases: 3 to 40 samples of any finite double,
subnormals, zeros and the largest float among them, and constants; 40 to
80 samples that are all subnormal or zero; and, for
the zero kind's kernels and Lanczos sift and the propagation's two kernels,
a few seeded chirps of 300 to 5,000 samples.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from iterfilt import (BoundaryKind, StoppingConfig, StructuredOperator, convolve_self, dif, eif,
                      error_propagation, inner_loop, make_sine_trend_generator, phase_sweep,
                      raised_cosine_shape, sample_filter)
from iterfilt.signal import unit_exponent
from conftest import kept_and_regenerated, same_sift

CFG = StoppingConfig(max_inner=200)
MAX = float(np.finfo(float).max)
EDGES = [0.0, 1.0, -1.0, 1e308, -1e308, MAX, -MAX, 5e-324, -5e-324, 2.2250738585072014e-308,
         -1e-310]
# a first component of this input exceeds MAX under the three transform kinds
PAST_MAX = np.array([MAX, -MAX] * 5 + [MAX])
# up to 8 ulps of the least subnormal: each component rounds by a share of
# max|s| when scaled back, and the components must still sum to s exactly
SUBNORMAL = 5e-324 * np.round(8 * np.sin(0.7 * np.arange(40) ** 1.3))


def signals(bound: float):
    """Finite signals with samples up to ``bound`` in magnitude, and constants."""
    sample = st.floats(-bound, bound) | st.sampled_from([x for x in EDGES if abs(x) <= bound])
    return (st.lists(sample, min_size=3, max_size=40).map(np.array)
            | st.builds(np.full, st.integers(3, 40), sample))


def decompose(s, kind, mode):
    if mode == "dif":
        return dif(s, kind=kind, cfg=CFG)
    return eif(s, kind=kind, cfg=CFG)


def subnormal_signals():
    """40 to 80 samples, each subnormal or zero: up to 2^20 ulps of the
    least subnormal, where one ulp is more than 1e-10 of max|s|."""
    ulps = st.integers(-(1 << 20), 1 << 20)
    return st.lists(ulps, min_size=40, max_size=80).map(lambda k: 5e-324 * np.array(k, dtype=float))


KINDS = st.sampled_from(list(BoundaryKind))
MODES = st.sampled_from(["dif", "eif"])
SETTINGS = settings(derandomize=True, database=None, max_examples=150, deadline=None)


@pytest.mark.filterwarnings("error")
@SETTINGS
@given(s=signals(MAX) | subnormal_signals(), kind=KINDS, mode=MODES)
@example(s=np.array([0.0, 1.0, 0.0, 1.0, 0.0]), kind=BoundaryKind.ZERO, mode="dif")
@example(s=np.array([1e308, -1e308] * 3), kind=BoundaryKind.ANTIREFLECTIVE, mode="eif")
@example(s=np.array([5e-324, 0.0, -5e-324, 0.0]), kind=BoundaryKind.REFLECTIVE, mode="dif")
@example(s=np.full(5, -1e-310), kind=BoundaryKind.PERIODIC, mode="eif")
@example(s=PAST_MAX, kind=BoundaryKind.PERIODIC, mode="dif")
@example(s=PAST_MAX, kind=BoundaryKind.ANTIREFLECTIVE, mode="eif")
@example(s=SUBNORMAL, kind=BoundaryKind.REFLECTIVE, mode="dif")
@example(s=SUBNORMAL, kind=BoundaryKind.PERIODIC, mode="eif")
def test_decomposition_invariants(s, kind, mode):
    # each filter longer than the last, the trend last, finite components
    # that sum back to the input; or, where a component exceeds the largest
    # float, a ValueError that names it, never inf, NaN or a warning
    try:
        d = decompose(s, kind, mode)
    except ValueError as exc:
        assert "exceeds the largest float" in str(exc)
        return
    lengths = [g.filter_length for g in d.diagnostics]
    assert all(a < b for a, b in zip(lengths[:-2], lengths[1:-1]))
    assert lengths[-1] == 0 and d.diagnostics[-1].inner_steps == 0
    assert 1 <= len(d) <= CFG.max_imfs
    assert all(f.shape == s.shape and np.isfinite(f).all() for f in d.imfs)
    # summed at the input's unit scale, where no partial sum overflows
    e = unit_exponent(s)
    tol = 1e-10 * np.abs(np.ldexp(s, -e)).max() + len(d) * np.finfo(float).smallest_subnormal
    rebuilt = np.sum([np.ldexp(f, -e) for f in d.imfs], axis=0)
    assert np.abs(rebuilt - np.ldexp(s, -e)).max() <= tol


@pytest.mark.parametrize("mode", ["dif", "eif"])
@pytest.mark.parametrize("kind", list(BoundaryKind), ids=lambda k: k.value)
def test_all_subnormal_signal_rebuilds_exactly(kind, mode):
    # each component rounds when scaled back, by up to an eighth of max|s|
    # here, but sums of subnormals are exact, so with the trend taken at
    # the input's own scale the components sum back to it bit for bit
    d = decompose(SUBNORMAL, kind, mode)
    assert len(d) > 2
    assert np.array_equal(d.reconstruction(), SUBNORMAL)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", [BoundaryKind.PERIODIC, BoundaryKind.REFLECTIVE,
                                  BoundaryKind.ANTIREFLECTIVE], ids=lambda k: k.value)
def test_component_past_the_float_range_raises(kind):
    with pytest.raises(ValueError, match="component 1 exceeds the largest float"):
        dif(PAST_MAX, kind=kind)
    assert all(np.isfinite(f).all() for f in dif(PAST_MAX, kind=BoundaryKind.ZERO).imfs)


@pytest.mark.filterwarnings("error")
@SETTINGS
@given(data=st.data(), s=signals(MAX).filter(lambda v: v.size >= 5), steps=st.integers(1, 300))
def test_propagation_at_the_top_of_the_float_range(data, s, steps):
    # the bound and the last error are finite, or a ValueError names them
    n = s.size
    filt = convolve_self(sample_filter(raised_cosine_shape(),
                                       data.draw(st.integers(1, (n - 1) // 4))))
    pad = data.draw(st.integers(0, 3 * n))
    try:
        last, bound = error_propagation(s, filt, steps, pad)
    except ValueError as exc:
        assert "exceeds the largest float" in str(exc)
        return
    assert np.isfinite(last).all() and np.isfinite(bound).all()
    assert np.all(bound >= np.abs(last))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("amplitude, trend", [(MAX, 0.0), (0.9 * MAX, 0.0), (MAX / 2, MAX / 4),
                                              (MAX / 4, -MAX / 2)])
def test_phase_sweep_at_the_top_of_the_float_range(amplitude, trend):
    # finite relative errors and bounds, or a ValueError that names the
    # component or bound past the float range
    generator = make_sine_trend_generator(amplitude=amplitude, trend=trend)
    try:
        points = phase_sweep(generator, 0.05, 0.2)
    except ValueError as exc:
        assert "exceeds the largest float" in str(exc)
        return
    assert len(points) == 4
    assert all(np.isfinite([p.ub_rel, *p.err_rel.values()]).all() for p in points)


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


@SETTINGS
@given(data=st.data(), x=st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=64).map(np.array),
       kind=st.sampled_from([BoundaryKind.PERIODIC, BoundaryKind.REFLECTIVE,
                             BoundaryKind.ANTIREFLECTIVE]))
def test_eigenbasis_contract(data, x, kind):
    # to_eigenbasis gives (c, lam, weight): from_eigenbasis inverts it, W x
    # is from_eigenbasis(lam c), and ||x||^2 = sum weight |c|^2, which holds
    # for the anti-reflective kind once its ramp coefficients vanish
    n = x.size
    filt = sample_filter(raised_cosine_shape(), data.draw(st.integers(1, (n - 1) // 2)))
    op = StructuredOperator(filt, kind, n)
    c, lam, weight = op.to_eigenbasis(x)
    tol = 1e-12 * max(1.0, np.abs(x).max())
    assert np.abs(op.from_eigenbasis(c) - x).max() <= tol
    assert np.abs(op.apply(x) - op.from_eigenbasis(lam * c)).max() <= tol
    if kind is BoundaryKind.ANTIREFLECTIVE:
        c[[0, -1]] = 0.0
        x = op.from_eigenbasis(c)
    assert abs(np.sum(weight * np.abs(c) ** 2) - x @ x) <= 1e-12 * max(1.0, x @ x)


# -- the fast paths, on 320 to 5,000 samples --------------------------------

FAST = settings(derandomize=True, database=None, max_examples=6, deadline=None)


def long_signal(n, seed):
    """A chirp of 5 to 60 cycles on a trend, with 10 % noise: its sifts
    take the blocked and FFT kernels and, with a small delta, the Lanczos
    basis."""
    rng = np.random.default_rng([seed, n])
    x = np.linspace(0.0, 1.0, n)
    clean = np.sin(2.0 * np.pi * (5.0 * x + 27.5 * x**2)) + 2.0 * x - 1.0
    return clean + 0.1 * rng.standard_normal(n)


def kernel(n, base):
    """The zero kind's kernel for the doubled filter of this base length."""
    return StructuredOperator(convolve_self(sample_filter(raised_cosine_shape(), base)),
                              BoundaryKind.ZERO, n).kernel


@FAST
@given(n=st.integers(640, 5000), base=st.integers(6, 160), seed=st.integers(0, 2**32 - 1),
       delta=st.sampled_from([1e-3, 1e-6]))
@example(n=2048, base=9, seed=1, delta=1e-6)     # blocked kernel, a Lanczos basis
@example(n=1500, base=100, seed=2, delta=1e-6)   # FFT kernel, a Lanczos basis
@example(n=700, base=40, seed=3, delta=1e-3)     # convolution kernel below n = 1,024
def test_zero_kind_fast_paths(n, base, seed, delta):
    # the sift scales exactly by powers of two and commutes with reversal,
    # a kept Lanczos basis gives the regenerated basis's bits, and dif's
    # finite components rebuild the input
    base = min(base, (n - 1) // 4)
    s, cfg = long_signal(n, seed), StoppingConfig(delta=delta)
    filt = convolve_self(sample_filter(raised_cosine_shape(), base))
    imf, k, d = inner_loop(s, filt, BoundaryKind.ZERO, cfg)
    assert np.isfinite(imf).all() and 1 <= k <= cfg.max_inner
    kept, again = kept_and_regenerated(StructuredOperator(filt, BoundaryKind.ZERO, n),
                                       np.ldexp(s, -unit_exponent(s)), cfg)
    assert again is None or same_sift(kept, again)
    for c in (2.0**-300, 2.0**300):
        scaled, k_c, d_c = inner_loop(c * s, filt, BoundaryKind.ZERO, cfg)
        assert (k_c, d_c) == (k, d) and np.array_equal(scaled, c * imf)
    reversed_, k_r, _ = inner_loop(s[::-1], filt, BoundaryKind.ZERO, cfg)
    assert k_r == k
    assert np.abs(reversed_[::-1] - imf).max() <= 1e-12 * np.abs(s).max()
    dec = dif(s, kind=BoundaryKind.ZERO, cfg=StoppingConfig(delta=delta, max_imfs=3))
    assert all(np.isfinite(f).all() for f in dec.imfs)
    assert np.abs(dec.reconstruction() - s).max() <= 1e-10 * np.abs(s).max()


def test_zero_kind_fast_path_examples_reach_every_route(apply_calls):
    # the explicit examples above reach each kernel, and the two with
    # delta 1e-6 sift in a Lanczos basis: fewer products than steps, and a
    # regenerated basis too, so the kept one is compared with it
    assert [kernel(2048, 9), kernel(1500, 100), kernel(700, 40)] == ["gemm", "fft", "convolve"]
    for n, base, seed in ((2048, 9, 1), (1500, 100, 2)):
        apply_calls.clear()
        s, cfg = long_signal(n, seed), StoppingConfig(delta=1e-6)
        filt = convolve_self(sample_filter(raised_cosine_shape(), base))
        _, k, _ = inner_loop(s, filt, BoundaryKind.ZERO, cfg)
        assert len(apply_calls) < k
        op = StructuredOperator(filt, BoundaryKind.ZERO, n)
        assert kept_and_regenerated(op, np.ldexp(s, -unit_exponent(s)), cfg)[1] is not None


@FAST
@given(n=st.integers(320, 2500), base=st.integers(1, 40), pad=st.integers(0, 400),
       steps=st.integers(1, 700), seed=st.integers(0, 2**32 - 1))
@example(n=600, base=6, pad=24, steps=500, seed=4)   # N = 648: the batched irfft
@example(n=300, base=4, pad=16, steps=700, seed=5)   # N = 332: the dense core basis
def test_propagation_fast_paths(n, base, pad, steps, seed):
    # finite, exactly symmetric, exactly scaled by powers of two, and the
    # same for the reversed input (only max|s| enters)
    s = long_signal(n, seed)
    filt = convolve_self(sample_filter(raised_cosine_shape(), min(base, (n - 1) // 4)))
    last, bound = error_propagation(s, filt, steps, pad)
    assert np.isfinite(last).all() and np.isfinite(bound).all()
    assert np.array_equal(last, last[::-1]) and np.array_equal(bound, bound[::-1])
    assert np.all(bound >= np.abs(last))
    for c in (2.0**-300, 2.0**300):
        scaled = error_propagation(c * s, filt, steps, pad)
        assert np.array_equal(scaled[0], c * last) and np.array_equal(scaled[1], c * bound)
    again = error_propagation(s[::-1], filt, steps, pad)
    assert np.array_equal(again[0], last) and np.array_equal(again[1], bound)
