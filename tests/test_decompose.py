import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from iterfilt import (
    BoundaryKind,
    Filter,
    FilterShape,
    StoppingConfig,
    StructuredOperator,
    build_filter,
    convolve_self,
    count_extrema,
    diagonalized_power_apply,
    dif,
    eif,
    filter_length,
    inner_loop,
    normalize,
    raised_cosine_shape,
    sample_filter,
    stopping_bound_k0,
)
from iterfilt.decompose import (_decay_rows, _first_true, _search_stop, _strip_sums,
                                _strips_pay)
from conftest import (bench_chirp, kept_and_regenerated, noise_trend, outputs_by_blas_threads,
                      random_doubled_filter, same_sift, sine_trend)
from oracles import (closed_form_eigenvalues, dense_eigenbasis, dense_matrix, direct_apply,
                     reference_sift, scan_stop, unit_eigenvectors)

TRANSFORM_KINDS = [BoundaryKind.PERIODIC, BoundaryKind.REFLECTIVE, BoundaryKind.ANTIREFLECTIVE]
# stopping_bound_k0 at delta = 1e-1, 1e-3, 1e-8 and 1e-12 for the n = 64
# case of TestStoppingBound.test_least_k0_at_50_digits
K0_AT_SEED_11 = {
    BoundaryKind.PERIODIC: [49, 4915, 491524419, 4915244191133],
    BoundaryKind.REFLECTIVE: [54, 5357, 535729092, 5357290915176],
    BoundaryKind.ANTIREFLECTIVE: [213, 21252, 2125179774, 21251797739175],
}


# (period, n) of null-tuned operators with zero eigenvalues: periodic at
# even n = 32 and 36 and odd n = 35, reflective at 32 and 35,
# anti-reflective at 33 and 36
NULL_TUNED = [(8, 32), (8, 33), (7, 35), (7, 36)]
# the closed forms' zero count of each NULL_TUNED case by n, periodic,
# reflective and anti-reflective with the null-tuned filter, then with the
# edge-null filter
ZETA_NULL_TUNED = {32: [13, 6, 0, 1, 0, 0], 33: [0, 0, 6, 2, 1, 0], 35: [6, 5, 0, 2, 1, 0],
                   36: [1, 0, 5, 1, 0, 0]}


def null_tuned_filter(period):
    """Doubled raised-cosine filter whose response vanishes at 1/period.

    Sampling the raised cosine at j/(l+1) with l = period-1 puts an exact
    zero of the tap spectrum at frequency 1/period, so an integer-period
    sine passes through I - W untouched away from the boundaries.
    """
    return convolve_self(sample_filter(raised_cosine_shape(), period - 1))


def edge_null_filter(n):
    """Doubled three-tap filter whose periodic symbol vanishes at the last
    bin of n samples, (n - 1) / 2 for odd n (which stands for its mirror
    image too) and the Nyquist bin n / 2 for even n (which does not)."""
    c = math.cos(math.pi / n) if n % 2 else 1.0
    return convolve_self(Filter(np.array([c, 0.5]) / (1.0 + c)))


class TestInnerLoop:
    @pytest.mark.parametrize("field,value,message", [
        ("delta", 0.0, "delta must be finite and positive"),
        ("delta", math.nan, "delta must be finite and positive"),
        ("xi", math.inf, "xi must be finite and positive"),
        ("max_inner", 0, "iteration caps must be at least 1"),
        ("max_imfs", 0, "iteration caps must be at least 1"),
    ])
    def test_stopping_config_rejects(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            StoppingConfig(**{field: value})

    def test_kernel_vector_is_fixed_point(self):
        # integer-period sine at the filter's spectral zero: W s = 0
        period, reps = 8, 4
        n = period * reps
        filt = null_tuned_filter(period)
        s = np.sin(2.0 * np.pi * np.arange(n) / period)
        imf, k, _ = inner_loop(s, filt, BoundaryKind.PERIODIC, StoppingConfig(delta=1e-3))
        assert k == 1
        assert np.abs(imf - s).max() <= 1e-12

    def test_unit_eigenvector_hits_zero_guard(self, rng):
        filt = random_doubled_filter(rng, 16)
        s = np.ones(16)
        imf, k, _ = inner_loop(s, filt, BoundaryKind.PERIODIC, StoppingConfig(delta=1e-3))
        assert k == 1
        assert np.abs(imf).max() <= 1e-14

    def test_matches_spectral_path(self, rng):
        for kind in TRANSFORM_KINDS:
            for k in (37, 200):
                filt = random_doubled_filter(rng, 24)
                s = rng.standard_normal(24)
                cfg = StoppingConfig(delta=1e-300, max_inner=k)
                imf, used, _ = inner_loop(s, filt, kind, cfg)
                # the loop may quit early only through the zero-iterate guard,
                # which is relative to the input's norm
                assert used == k or np.linalg.norm(imf) <= 1e-14 * np.linalg.norm(s)
                direct = s.copy()
                for _ in range(used):
                    direct = direct - direct_apply(filt, kind, direct)
                assert np.abs(imf - direct).max() <= 1e-8

    def test_iteration_cap(self, rng):
        filt = random_doubled_filter(rng, 20)
        s = rng.standard_normal(20)
        _, k, _ = inner_loop(s, filt, BoundaryKind.REFLECTIVE, StoppingConfig(delta=1e-300, max_inner=5))
        assert k == 5

    @pytest.mark.parametrize("start", ["chirp", "residual"])
    def test_zero_kind_fft_sift_matches_direct_iteration(self, start):
        # the longest zero-kind filter of a decomposition of this chirp: on
        # the chirp the sift meets delta, on the residual left after seven
        # components it runs to the cap
        s = chirp(2048)
        if start == "residual":
            s = dif(s, kind=BoundaryKind.ZERO, cfg=StoppingConfig(max_imfs=8)).imfs[-1]
        filt = plain_or_doubled(142, True)
        assert filt.length == 284
        assert StructuredOperator(filt, BoundaryKind.ZERO, s.size).fft_length is not None
        cfg = StoppingConfig()
        imf, k, d = inner_loop(s, filt, BoundaryKind.ZERO, cfg)
        ref, k_ref, d_ref = reference_sift(s, filt, BoundaryKind.ZERO, cfg)
        assert k == k_ref
        assert np.abs(imf - ref).max() <= 1e-12 * np.abs(s).max()
        assert abs(d - d_ref) <= 1e-12
        assert (k == cfg.max_inner) == (start == "residual")

    @pytest.mark.parametrize("half", [3, 14, 30, 48])
    def test_zero_kind_blocked_sift_matches_direct_iteration(self, half):
        # doubled filters of 13 to 193 taps, in all three block sizes
        s = chirp(2048)
        filt = plain_or_doubled(half, True)
        assert StructuredOperator(filt, BoundaryKind.ZERO, s.size).kernel == "gemm"
        cfg = StoppingConfig()
        imf, k, d = inner_loop(s, filt, BoundaryKind.ZERO, cfg)
        ref, k_ref, d_ref = reference_sift(s, filt, BoundaryKind.ZERO, cfg)
        assert k == k_ref > 1
        assert np.abs(imf - ref).max() <= 1e-12 * np.abs(s).max()
        assert abs(d - d_ref) <= 1e-12

    @pytest.mark.parametrize("kind, n, half", [
        *[(kind, 256, 6) for kind in TRANSFORM_KINDS],
        (BoundaryKind.ZERO, 256, 2),      # the loop
        (BoundaryKind.ZERO, 2048, 30),    # a Lanczos basis
        (BoundaryKind.ZERO, 50_000, 2),   # strips
    ], ids=lambda v: getattr(v, "value", v))
    def test_unit_scale_input_is_left_as_it_was(self, kind, n, half, apply_calls):
        # with max|s| in [0.5, 1) the sift reads s itself, unscaled
        s = chirp(n)
        s *= 0.75 / np.abs(s).max()
        before = s.copy()
        _, k, _ = inner_loop(s, plain_or_doubled(half, True), kind, StoppingConfig())
        assert k > 1 and np.array_equal(s, before)
        if kind is BoundaryKind.ZERO:
            assert (len(apply_calls) == k) == (n == 256)
            assert (max(op.n for op in apply_calls) < n) == (n == 50_000)


class TestDif:
    def test_constant_signal_single_residual(self):
        d = dif(np.full(32, 2.5))
        assert len(d) == 1
        assert np.array_equal(d.imfs[0], np.full(32, 2.5))
        assert d.diagnostics[0].inner_steps == 0

    def test_monotone_ramp_single_residual(self):
        d = dif(np.linspace(0.0, 3.0, 25))
        assert len(d) == 1

    @pytest.mark.parametrize("kind", list(BoundaryKind))
    def test_short_signal_is_its_trend(self, kind):
        # two extrema but no admissible doubled filter length below 5 samples
        s = np.array([0.0, 1.0, 0.0, 1.0])
        for d in (dif(s, kind=kind), eif(s, kind=kind, p=0)):
            assert len(d) == 1
            assert np.array_equal(d.imfs[0], s)
            assert d.diagnostics[0].inner_steps == 0

    @pytest.mark.parametrize("kind", list(BoundaryKind))
    @pytest.mark.parametrize("scale", [2.0**-66, 1e-20], ids=["2^-66", "1e-20"])
    def test_tiny_scale_sifts_like_unit_scale(self, kind, scale):
        # the zero-iterate guard is relative, so tiny inputs are not skipped
        x = np.linspace(0.0, 1.0, 300)
        s = np.sin(40 * np.pi * x) + np.sin(7 * np.pi * x) + x
        cfg = StoppingConfig(max_inner=200)
        steps = [g.inner_steps for g in dif(s, kind=kind, cfg=cfg).diagnostics]
        scaled = dif(scale * s, kind=kind, cfg=cfg)
        assert [g.inner_steps for g in scaled.diagnostics] == steps
        assert len(steps) > 2

    @pytest.mark.parametrize("kind", list(BoundaryKind))
    @pytest.mark.parametrize("mode", ["dif", "eif"])
    def test_power_of_two_scale_is_exact(self, kind, mode):
        # the loops run on the input scaled into [0.5, 1), so norms neither
        # overflow (1e160, 2^600) nor underflow (2^-600)
        cfg = StoppingConfig(max_inner=200, max_imfs=6)

        def decompose(v):
            if mode == "dif":
                return dif(v, kind=kind, cfg=cfg)
            return eif(v, kind=kind, p=16, cfg=cfg)

        s = chirp(300)
        base = decompose(s)
        steps = [g.inner_steps for g in base.diagnostics]
        assert len(steps) == 6
        for c in (2.0**-600, 2.0**600):
            scaled = decompose(c * s)
            assert [g.inner_steps for g in scaled.diagnostics] == steps
            assert all(np.array_equal(f, c * g) for f, g in zip(scaled.imfs, base.imfs))
        assert [g.inner_steps for g in decompose(1e160 * s).diagnostics] == steps

    @pytest.mark.parametrize("kind", list(BoundaryKind), ids=lambda k: k.value)
    def test_no_longer_filter_ends_with_the_trend(self, kind):
        # the zigzag takes the one admissible base length, 1; the next must
        # be longer and none fits 5 samples, so the residual is the trend
        # (with repeated lengths it took 16 components of 1,000 steps)
        d = dif([0.0, 1.0, 0.0, 1.0, 0.0], kind=kind)
        assert [g.filter_length for g in d.diagnostics] == [2, 0]

    def test_each_filter_longer_than_the_last(self):
        # after base length b_last, one of at most b_last becomes
        # max(b_last + 1, ceil(1.1 b_last)), and none is past (n - 1) // 4
        shape, cfg = raised_cosine_shape(), StoppingConfig()
        zigzag = np.tile([0.0, 1.0], 50)  # 98 extrema: base length 1, cap 24
        sine, _ = sine_trend(200, 20)     # 19 extrema: base length 16

        def base(s, last):
            prev = None if last is None else convolve_self(sample_filter(shape, last))
            filt = build_filter(s, shape, cfg, prev)
            return None if filt is None else filt.length // 2

        assert [base(zigzag, b) for b in (None, 1, 10, 20, 21, 22)] == [1, 2, 11, 22, 24, None]
        assert [base(sine, b) for b in (None, 5, 16)] == [16, 16, 18]
        grown = build_filter(zigzag, shape, cfg, convolve_self(sample_filter(shape, 20)))
        assert np.array_equal(grown.half_weights,
                              convolve_self(sample_filter(shape, 22)).half_weights)

    @pytest.mark.parametrize("kind", list(BoundaryKind), ids=lambda k: k.value)
    def test_shape_that_vanishes_at_a_tap_raises(self, kind):
        # only a missing filter ends the loop: a filter the shape cannot
        # give is an error
        clipped = FilterShape("clip", lambda t: np.maximum(1.0 - 2.0 * np.abs(t), 0.0))
        for decompose in (dif, eif):
            with pytest.raises(ValueError, match="vanishes"):
                decompose(chirp(256), clipped, kind)

    @pytest.mark.parametrize("kind", list(BoundaryKind), ids=lambda k: k.value)
    def test_benchmark_chirp_tone_recovered(self, kind):
        # with each filter longer than the last, one component carries the
        # 12-cycle tone to a relative error of 0.15-0.60 on seed 7; repeated
        # lengths left every kind at 0.96-1.00
        s = bench_chirp(7, 2048)
        tone = 0.5 * np.sin(2.0 * np.pi * 12.0 * np.linspace(0.0, 1.0, s.size) + 1.1)
        d = dif(s, kind=kind)
        assert min(np.linalg.norm(f - tone) for f in d.imfs) < 0.7 * np.linalg.norm(tone)

    @pytest.mark.parametrize("kind", TRANSFORM_KINDS)
    def test_no_progress_ends_with_the_trend(self, kind):
        # a constant with a rounding-level ripple: the first step removes the
        # constant, the ripple left is zero relative to the input, and that
        # empty component ends the decomposition
        s = 1.0 + np.finfo(float).eps * (np.arange(64) % 2)
        assert count_extrema(s) == 62
        d = dif(s, kind=kind)
        assert len(d) == 1
        assert np.array_equal(d.imfs[0], s)

    def test_known_component_recovered_linear_trend(self):
        # high-frequency sine plus a linear trend on an integer-period grid:
        # the first component tracks the sine, the trend leaks only through
        # the wrap discontinuity
        n = 1000
        exact = np.sin(2.0 * np.pi * np.arange(n) / 20)
        s = exact + np.arange(n) / (n - 1)
        d = dif(s, kind=BoundaryKind.PERIODIC, cfg=StoppingConfig(xi=1.9))
        rel = np.linalg.norm(d.imfs[0] - exact) / np.linalg.norm(exact)
        assert rel < 0.1

    def test_known_component_recovered_exactly(self):
        # constant trend instead: period 20 with xi=1.9 locks the base length
        # to 19, placing the sine in the operator kernel, so recovery is exact
        s, exact = sine_trend(1000, 20)
        d = dif(s, kind=BoundaryKind.PERIODIC, cfg=StoppingConfig(xi=1.9))
        rel = np.linalg.norm(d.imfs[0] - exact) / np.linalg.norm(exact)
        assert rel < 1e-10

    def test_reconstruction(self, rng):
        s, _ = sine_trend(400, 16, amplitude=1.2, trend=0.7)
        for kind in BoundaryKind:
            d = dif(s, kind=kind, cfg=StoppingConfig(max_inner=50, max_imfs=6))
            assert np.abs(d.reconstruction() - s).max() <= 1e-10

    def test_max_imfs_cap(self, rng):
        s = rng.standard_normal(200)
        d = dif(s, cfg=StoppingConfig(max_imfs=4, max_inner=20))
        assert len(d) <= 4

    def test_normalize_flag(self):
        s, _ = sine_trend(200, 20)
        d = dif(normalize(s), cfg=StoppingConfig(max_inner=20, max_imfs=4))
        assert np.abs(d.reconstruction() - s / np.linalg.norm(s)).max() <= 1e-10

    def test_diagnostics_recorded(self):
        s, _ = sine_trend(200, 20)
        d = dif(s, kind=BoundaryKind.REFLECTIVE, cfg=StoppingConfig(max_inner=30, max_imfs=4))
        assert len(d.diagnostics) == len(d.imfs)
        first = d.diagnostics[0]
        assert first.inner_steps >= 1 and first.filter_length >= 1
        assert d.diagnostics[-1].inner_steps == 0  # trend entry


class TestEif:
    def test_p0_periodic_identical_to_dif(self):
        s, _ = sine_trend(300, 20, amplitude=0.9, trend=1.1)
        cfg = StoppingConfig(max_inner=40, max_imfs=5)
        a = dif(s, kind=BoundaryKind.PERIODIC, cfg=cfg)
        b = eif(s, kind=BoundaryKind.PERIODIC, p=0, cfg=cfg)
        assert len(a) == len(b)
        for fa, fb in zip(a.imfs, b.imfs):
            assert np.abs(fa - fb).max() <= 1e-12

    def test_constant_any_kind_any_pad(self):
        for kind in BoundaryKind:
            d = eif(np.full(20, 3.0), kind=kind, p=5)
            assert len(d) == 1
            assert np.abs(d.imfs[0] - 3.0).max() <= 1e-12

    def test_core_reconstruction_with_reflective_pad(self):
        s, _ = sine_trend(240, 16)
        from iterfilt import filter_length
        l1 = 2 * filter_length(s, 1.6)  # doubled operator width
        d = eif(s, kind=BoundaryKind.REFLECTIVE, p=2 * l1,
                cfg=StoppingConfig(max_inner=40, max_imfs=5))
        assert all(f.size == 240 for f in d.imfs)
        assert np.abs(d.reconstruction() - s).max() <= 1e-10

    def test_inadmissible_pad(self):
        with pytest.raises(ValueError):
            eif(np.arange(10.0), kind=BoundaryKind.ANTIREFLECTIVE, p=10)

    @pytest.mark.parametrize("kind", list(BoundaryKind), ids=lambda k: k.value)
    def test_default_pad_is_twice_the_first_filter(self, kind):
        s, _ = sine_trend(200, 20)
        cfg = StoppingConfig(max_inner=40, max_imfs=4)
        first = dif(s, kind=kind, cfg=cfg).diagnostics[0].filter_length
        d = eif(s, kind=kind, cfg=cfg)
        assert d.pad == 2 * first > 0
        padded = eif(s, kind=kind, p=2 * first, cfg=cfg)
        assert all(np.array_equal(a, b) for a, b in zip(d.imfs, padded.imfs, strict=True))
        if kind is BoundaryKind.REFLECTIVE:
            unpadded = eif(s, kind=kind, p=0, cfg=cfg)
            assert not all(np.array_equal(a, b) for a, b in zip(d.imfs, unpadded.imfs))

    @pytest.mark.parametrize("kind", list(BoundaryKind), ids=lambda k: k.value)
    @pytest.mark.parametrize("s", [[1.5e308, 0.0, 1.0, -1.0, 2.0, 0.5, -1.7e308],
                                   [1e308, -1e308] * 5], ids=["spikes", "alternating"])
    def test_extreme_finite_input_is_scaled_before_extension(self, kind, s):
        # unscaled, the anti-reflective 2 s(0) - s(j) overflows to infinity
        s = np.array(s)
        k = math.frexp(np.abs(s).max())[1]
        d, unit = eif(s, kind=kind), eif(np.ldexp(s, -k), kind=kind)
        assert all(np.isfinite(f).all() for f in d.imfs)
        assert all(np.array_equal(f, np.ldexp(g, k)) for f, g in zip(d.imfs, unit.imfs, strict=True))

    def test_pad_record(self):
        s, _ = sine_trend(200, 20)
        assert dif(s).pad == 0
        assert eif(s, p=7, cfg=StoppingConfig(max_imfs=2)).pad == 7
        short = eif(np.array([0.0, 1.0, 0.0, 1.0]), kind=BoundaryKind.REFLECTIVE)
        assert short.pad == 0 and len(short) == 1  # no first filter: the signal is its trend


def closed_form_zeta(op):
    """The zero eigenvalues, |lambda| <= 1e-10, among all n of the paper's
    closed forms, summed from a cosine table, not from the transform."""
    return int(np.count_nonzero(np.abs(closed_form_eigenvalues(op)) <= 1e-10))


def assert_least_k0(op, s, delta, k0):
    """k0 meets k^k / (k+1)^(k+1) < delta / (alpha c sqrt(n - beta - zeta))
    and k0 - 1 does not, both sides at 50 digits; alpha and beta per kind,
    zeta the closed forms' zero count, c read off the bins as the bound
    reads it, |c| / sqrt(n) for the periodic rfft and sqrt(weight) |c| for
    the extended kinds, and within 1e-12 of the dense unitary eigenbasis's
    max-norm."""
    n = op.n
    alpha, beta = (3, 2) if op.kind is BoundaryKind.ANTIREFLECTIVE else (1, 1)
    c, _, weight = op.to_eigenbasis(s)
    c_dense = float(np.abs(dense_eigenbasis(op)[1] @ s).max())
    with localcontext(prec=50):
        if op.kind is BoundaryKind.PERIODIC:
            c = Decimal(float(np.abs(c).max())) / Decimal(n).sqrt()
        else:
            c = Decimal(float((np.sqrt(weight) * np.abs(c)).max()))
        assert abs(float(c) - c_dense) <= 1e-12 * c_dense
        m = n - beta - closed_form_zeta(op)
        rhs = Decimal(delta) / (Decimal(alpha) * c * Decimal(m).sqrt())

        def holds(k):
            k = Decimal(k)
            return (k / (k + 1)) ** k / (k + 1) < rhs

        assert holds(k0) and (k0 == 1 or not holds(k0 - 1))


class TestStoppingBound:
    def test_large_threshold_gives_one(self, rng):
        filt = random_doubled_filter(rng, 16)
        op = StructuredOperator(filt, BoundaryKind.PERIODIC, 16)
        s = rng.standard_normal(16)
        # k^k/(k+1)^(k+1) at k=1 is 1/4; any threshold making the rhs
        # exceed that must return 1
        assert stopping_bound_k0(1e6, op, s) == 1
        # and so must a zero signal, whose every step change is zero
        assert stopping_bound_k0(1e-3, op, np.zeros(16)) == 1

    def test_bound_past_2_62_rejected(self, rng):
        # at delta = 1e-300 the least k0 is about 10^300
        op = StructuredOperator(random_doubled_filter(rng, 16), BoundaryKind.PERIODIC, 16)
        with pytest.raises(ValueError, match="out of range"):
            stopping_bound_k0(1e-300, op, rng.standard_normal(16))

    def test_monotone_in_delta(self, rng):
        filt = random_doubled_filter(rng, 32)
        op = StructuredOperator(filt, BoundaryKind.REFLECTIVE, 32)
        s = rng.standard_normal(32)
        deltas = [1e-8, 1e-6, 1e-4, 1e-2]
        bounds = [stopping_bound_k0(d, op, s) for d in deltas]
        assert all(a >= b for a, b in zip(bounds, bounds[1:]))

    def test_direct_iteration_guarantee(self, rng):
        # measure the step change at the predicted iteration by brute force,
        # iterating I - W with W materialized from its circulant structure
        n = 64
        filt = random_doubled_filter(rng, n)
        op = StructuredOperator(filt, BoundaryKind.PERIODIC, n)
        s = rng.standard_normal(n)
        s /= np.linalg.norm(s)
        delta = 1e-6
        k0 = stopping_bound_k0(delta, op, s)
        step = np.eye(n) - dense_matrix(op)
        cur = s.copy()
        prev = None
        for k in range(1, k0 + 2):
            prev, cur = cur, step @ cur
        assert np.linalg.norm(cur - prev) < delta

    def test_spectral_guarantee_all_kinds(self, rng):
        n, delta = 64, 1e-6
        for kind in TRANSFORM_KINDS:
            for _ in range(5):
                filt = random_doubled_filter(rng, n)
                op = StructuredOperator(filt, kind, n)
                s = rng.standard_normal(n)
                s /= np.linalg.norm(s)
                k0 = stopping_bound_k0(delta, op, s)
                for k in (k0, k0 + 10):
                    diff = diagonalized_power_apply(op, s, k) - diagonalized_power_apply(op, s, k + 1)
                    assert np.linalg.norm(diff) < delta

    @pytest.mark.parametrize("kind", TRANSFORM_KINDS, ids=lambda k: k.value)
    @pytest.mark.parametrize("delta", [1e-1, 1e-3, 1e-8, 1e-12, 1e-15])
    def test_least_k0_at_50_digits(self, kind, delta):
        # k0 is the least k at 50 digits (assert_least_k0). It runs from
        # about 50 at delta = 1e-1 to 5e15-2e16 at 1e-15, where doubles no
        # longer tell k0 from k0 - 1 (one ulp of c moves it by a few); the
        # cases take both floor(1/(e rhs)) and the next integer. Down to
        # 1e-12, k0 is pinned to the values of the DCT-II and DST-I
        # transforms that the bins replaced
        rng = np.random.default_rng(11)
        n = 64
        op = StructuredOperator(random_doubled_filter(rng, n), kind, n)
        s = rng.standard_normal(n)
        k0 = stopping_bound_k0(delta, op, s)
        if delta >= 1e-12:
            assert k0 == K0_AT_SEED_11[kind][[1e-1, 1e-3, 1e-8, 1e-12].index(delta)]
        assert_least_k0(op, s, delta, k0)

    @pytest.mark.parametrize("period,n", NULL_TUNED)
    @pytest.mark.parametrize("delta", [1e-3, 1e-8])
    def test_least_k0_with_zero_eigenvalues(self, period, n, delta):
        # k0 at 50 digits with zeta from the closed forms: a zeta off by one
        # moves k0 (far above 2n at 1e-8), so this pins the bound's count of
        # zeros among its bins, each periodic bin 1..(n - 1)//2 counted for
        # its mirror image too. The edge-null filter's one periodic zero is
        # such a bin, (n - 1)/2, for odd n (zeta 2) and the Nyquist bin,
        # which has no mirror image, for even n (zeta 1). The sorted
        # spectrum's zero count is the same
        rng = np.random.default_rng(n)
        zetas = []
        for filt in (null_tuned_filter(period), edge_null_filter(n)):
            for kind in TRANSFORM_KINDS:
                op = StructuredOperator(filt, kind, n)
                s = rng.standard_normal(n)
                assert_least_k0(op, s, delta, stopping_bound_k0(delta, op, s))
                zetas.append(closed_form_zeta(op))
                assert op.eigenvalues().zero_multiplicity == zetas[-1]
        assert zetas == ZETA_NULL_TUNED[n]

    def test_zero_kind_rejected(self, rng):
        op = StructuredOperator(random_doubled_filter(rng, 16), BoundaryKind.ZERO, 16)
        with pytest.raises(ValueError, match="zero"):
            stopping_bound_k0(1e-3, op, np.ones(16))

    def test_invalid_delta(self, rng):
        op = StructuredOperator(random_doubled_filter(rng, 16), BoundaryKind.PERIODIC, 16)
        with pytest.raises(ValueError):
            stopping_bound_k0(0.0, op, np.ones(16))

    @pytest.mark.parametrize("delta,sample", [(math.nan, 0.0), (math.inf, 0.0), (1e-3, math.nan),
                                              (1e-3, math.inf), (1e-3, -math.inf)])
    def test_non_finite_input_rejected(self, rng, delta, sample):
        # rejected before any transform, so numpy warns of nothing
        op = StructuredOperator(random_doubled_filter(rng, 16), BoundaryKind.PERIODIC, 16)
        s = rng.standard_normal(16)
        s[3] = sample
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                stopping_bound_k0(delta, op, s)

    def test_bracket_at_50_digits(self):
        # 1/(e (k+1)) < k^k / (k+1)^(k+1) < 1/(e k), in logarithms as the
        # bound compares them: every k >= 1/(e rhs) meets the bound and no
        # k <= 1/(e rhs) - 1 does, which leaves two candidates for k0
        with localcontext(prec=50):
            for k in [*range(1, 2001), *(1 << j for j in range(1, 63))]:
                k = Decimal(k)
                log_f = k * k.ln() - (k + 1) * (k + 1).ln()
                assert -1 - (k + 1).ln() < log_f < -1 - k.ln()


class TestLimitBehavior:
    def test_trivial_kernel_converges_to_zero(self):
        # narrow filter keeps the smallest nonzero eigenvalue large, so the
        # iterate must essentially vanish after many steps
        filt = convolve_self(Filter(np.array([0.7, 0.15])))
        n = 16
        for kind in TRANSFORM_KINDS:
            op = StructuredOperator(filt, kind, n)
            spec = op.eigenvalues()
            positive = spec.eigenvalues[np.abs(spec.eigenvalues) > 1e-10]
            assert (1.0 - positive[positive < 1.0 - 1e-10]).min() >= 0  # sanity
            rng = np.random.default_rng(5)
            s = rng.standard_normal(n)
            # remove the eigenvalue-one component, which survives forever
            for u in unit_eigenvectors(kind, n):
                s = s - (s @ u) / (u @ u) * u
            iterate = diagonalized_power_apply(op, s, 2000)
            smallest = positive[positive < 1.0 - 1e-10].min()
            assert smallest > 5e-3
            assert np.linalg.norm(iterate) < 1e-6

    def test_kernel_projection_is_limit(self):
        # tuned spectral zero: the limit is the projection onto the kernel
        period, reps = 8, 4
        n = period * reps
        filt = null_tuned_filter(period)
        op = StructuredOperator(filt, BoundaryKind.PERIODIC, n)
        sine = np.sin(2.0 * np.pi * np.arange(n) / period)
        s = sine + 1.5  # constant sits at eigenvalue one, vanishing from the imf
        iterate = diagonalized_power_apply(op, s, 2000)
        assert np.linalg.norm(iterate - sine) < 1e-6


def chirp(n, seed=7):
    """Chirp, two tones, linear trend and 10 % noise."""
    x = np.linspace(0.0, 1.0, n)
    clean = (np.sin(2.0 * np.pi * (20.0 * x + 40.0 * x**2) + 0.3)
             + 0.5 * np.sin(2.0 * np.pi * 12.0 * x + 1.1)
             + 0.8 * np.sin(2.0 * np.pi * x + 2.0) + 1.5 * x - 0.5)
    return clean + 0.1 * clean.std() * np.random.default_rng(seed).standard_normal(n)


def kernel_vector(kind, period):
    """A vector the null-tuned filter of this period maps to zero under
    ``kind``, with the length it needs: the basis vector of the kind's
    transform at the filter's spectral zero."""
    if kind is BoundaryKind.PERIODIC:
        j = np.arange(4 * period)
        return np.sin(2.0 * np.pi * j / period)
    if kind is BoundaryKind.REFLECTIVE:
        j = np.arange(4 * period)
        return np.cos(np.pi * (2 * j + 1) / period)
    j = np.arange(4 * period + 1)
    return np.sin(2.0 * np.pi * j / period)


def plain_or_doubled(l, doubled):
    filt = sample_filter(raised_cosine_shape(), l)
    return convolve_self(filt) if doubled else filt


# (kind, doubled filter, n, stop case); the doubled filter needs n >= 5
SIFT_CASES = [
    (kind, doubled, n, stop)
    for kind in TRANSFORM_KINDS
    for doubled in (True, False)
    for n in (3, 4, 5, 64, 301)
    for stop in ("delta", "cap", "one_step", "zero_guard")
    if n >= 5 or not doubled
] + [
    (kind, doubled, n, stop)
    for kind in TRANSFORM_KINDS
    for doubled in (True, False)
    for n, stop in ((32, "kernel"), (2048, "chirp"))
]


def stop_reason(imf, k, cfg):
    if np.linalg.norm(imf) < 1e-14:
        return "zero iterate"
    return "cap" if k == cfg.max_inner else "delta"


def in_unit_interval(filt, kind, n):
    lam = StructuredOperator(filt, kind, n).eigenvalues().eigenvalues
    return lam.min() >= -1e-12 and lam.max() <= 1.0 + 1e-12


class TestSpectralSift:
    """The eigenbasis sift against one operator application per step; a
    filter whose spectrum leaves [0, 1] is rejected."""

    @pytest.mark.parametrize("kind,doubled,n,stop", SIFT_CASES)
    def test_matches_reference_sift(self, kind, doubled, n, stop):
        rng = np.random.default_rng([n, len(stop), int(doubled)])
        cfg = StoppingConfig()
        s = rng.standard_normal(n)
        cap = (n - 1) // 4 if doubled else (n - 1) // 2
        if stop == "kernel":
            s = kernel_vector(kind, 8)
            filt = plain_or_doubled(7, doubled)
        elif stop == "chirp":
            s = chirp(n)
            filt = plain_or_doubled(filter_length(s, cfg.xi), doubled)
        else:
            filt = plain_or_doubled(int(rng.integers(1, cap + 1)), doubled)
        if stop == "zero_guard":
            s = np.ones(n)  # eigenvalue one for every kind: zero after one step
        elif stop == "cap":
            cfg = StoppingConfig(delta=1e-12, max_inner=20)
        elif stop == "one_step":
            cfg = StoppingConfig(max_inner=1)

        # a plain filter sifts only where its spectrum is a doubled one's:
        # the one-tap raised cosine, whose symbol (1 + cos)/2 is a square
        sifts = in_unit_interval(filt, kind, n)
        assert sifts == (doubled or filt.length == 1)
        if not sifts:
            with pytest.raises(ValueError, match=r"is not in \[0, 1\]"):
                inner_loop(s, filt, kind, cfg)
            return
        ref, k_ref, d_ref = reference_sift(s, filt, kind, cfg)
        imf, k, d = inner_loop(s, filt, kind, cfg)
        assert k == k_ref
        assert np.abs(imf - ref).max() <= 1e-12 * max(np.abs(s).max(), np.abs(ref).max())
        assert abs(d - d_ref) <= 1e-12

        # the case exercises the stop it is named for: a wide doubled filter
        # has eigenvalues near zero, so delta is met
        expected = {
            "cap": "cap",
            "one_step": "cap",
            "zero_guard": "zero iterate",
            "kernel": "delta",
            "delta": "delta" if doubled and n >= 64 else None,
            "chirp": "delta",
        }[stop]
        if expected:
            assert stop_reason(ref, k_ref, cfg) == expected
        if stop in ("one_step", "zero_guard", "kernel"):
            assert k == 1

    @pytest.mark.parametrize("kind", TRANSFORM_KINDS, ids=lambda k: k.value)
    def test_plain_filter_rejected(self, kind):
        # the plain filter's spectrum reaches below zero, where the search's
        # monotonicity fails; the zero kind's loop still takes the filter
        s, cfg = chirp(2048), StoppingConfig()
        filt = plain_or_doubled(filter_length(s, cfg.xi), False)
        for values in (s, np.zeros(s.size)):  # a zero input too
            with pytest.raises(ValueError, match=r"is not in \[0, 1\]"):
                inner_loop(values, filt, kind, cfg)
        imf, k, d = inner_loop(s, filt, BoundaryKind.ZERO, cfg)
        ref, k_ref, d_ref = reference_sift(s, filt, BoundaryKind.ZERO, cfg)
        assert k == k_ref
        assert np.abs(imf - ref).max() <= 1e-12 * max(np.abs(s).max(), np.abs(ref).max())
        assert abs(d - d_ref) <= 1e-12

    @pytest.mark.parametrize("kind", list(BoundaryKind), ids=lambda k: k.value)
    def test_zero_input_is_its_own_component(self, apply_calls, kind):
        # a zero input is returned as a new array, signs and all, after no
        # step and no product, under every kind
        s = np.zeros(5000)
        s[::2] = -0.0
        imf, k, d = inner_loop(s, plain_or_doubled(30, True), kind)
        assert (k, d, apply_calls) == (0, None, []) and imf is not s
        assert np.array_equal(np.signbit(imf), np.signbit(s)) and not imf.any()


def assert_sifts_match_reference(d, s, cfg):
    """Each sifted component of the zero-kind decomposition d of s against
    ``reference_sift`` on the same residual: filter lengths that strictly
    increase, the same steps, the component within 1e-12 of the residual's
    max|s| and the last change within 1e-12. Each filter is the doubled
    raised cosine of the recorded length."""
    residual, last = s, 0
    for imf, diag in zip(d.imfs[:-1], d.diagnostics):
        assert diag.filter_length > last and diag.filter_length % 2 == 0
        filt = convolve_self(sample_filter(raised_cosine_shape(), diag.filter_length // 2))
        ref, k_ref, d_ref = reference_sift(residual, filt, BoundaryKind.ZERO, cfg)
        assert diag.inner_steps == k_ref
        assert np.abs(imf - ref).max() <= 1e-12 * np.abs(residual).max()
        assert abs(diag.final_delta - d_ref) <= 1e-12
        residual, last = residual - imf, diag.filter_length


def loop_sift(monkeypatch, s, filt, cfg):
    """The zero kind's sift with its Krylov path switched off."""
    with monkeypatch.context() as m:
        m.setattr("iterfilt.decompose._KRYLOV_MIN_LENGTH", 1 << 62)
        return inner_loop(s, filt, BoundaryKind.ZERO, cfg)


class TestKrylovSift:
    """The zero kind sifts long filters in a Lanczos basis, kept up to
    n = 2,621 and above regenerated for long sifts: the loop's steps, its
    component to 1e-12 of max|s|, and the loop's own bits wherever the loop
    runs instead."""

    @pytest.mark.parametrize("seed", [7, 11, 203])
    def test_benchmark_chirp_matches_reference_sift(self, seed, apply_calls):
        # the loop would take one product per step; the ten or eleven sifts
        # with l >= 16 per seed end in kept bases of 60 to 140 vectors
        s, cfg = bench_chirp(seed, 2048), StoppingConfig()
        d = dif(s, kind=BoundaryKind.ZERO, cfg=cfg)
        steps = sum(diag.inner_steps for diag in d.diagnostics)
        assert (steps, len(apply_calls)) == {7: (3799, 1105), 11: (3422, 982),
                                             203: (3821, 1105)}[seed]
        assert_sifts_match_reference(d, s, cfg)

    @pytest.mark.parametrize("seed", [7, 11, 203])
    def test_kept_basis_is_the_regenerated_basis(self, seed, monkeypatch):
        # with no budget a second pass regenerates each basis; the four
        # sifts of more than 240 steps that then still take it give the
        # same bits and the same (k, d) with their basis kept
        pairs = []

        def both(op, values, norm, cfg):
            kept, again = kept_and_regenerated(op, values, cfg)
            pairs.append((kept, again))
            return kept and (kept[0].copy(), *kept[1:])  # inner_loop scales it in place

        monkeypatch.setattr("iterfilt.decompose._sift_krylov", both)
        dif(bench_chirp(seed, 2048), kind=BoundaryKind.ZERO)
        compared = [(kept, again) for kept, again in pairs if again is not None]
        assert len(compared) == 4
        assert all(kept is not None and same_sift(kept, again) for kept, again in compared)

    @pytest.mark.parametrize("base,delta,max_inner,products", [
        (142, 0.01, 1000, 20), (30, 0.01, 1000, 20), (9, 0.01, 1000, 20), (30, 1e-3, 60, 80)])
    def test_short_sift_ends_in_its_kept_basis(self, base, delta, max_inner, products,
                                               apply_calls):
        # k < m - 1 puts the loop's iterate in the basis, where a kept basis
        # ends: the loop's steps, its component to 1e-12 of max|s| and its
        # last change to 1e-12, in at most k + 21 products
        s, cfg = chirp(2048), StoppingConfig(delta=delta, max_inner=max_inner)
        filt = plain_or_doubled(base, True)
        imf, k, d = inner_loop(s, filt, BoundaryKind.ZERO, cfg)
        ref, k_ref, d_ref = reference_sift(s, filt, BoundaryKind.ZERO, cfg)
        assert len(apply_calls) == products and k == k_ref and k < products - 1
        assert np.abs(imf - ref).max() <= 1e-12 * np.abs(s).max()
        assert abs(d - d_ref) <= 1e-12

    @pytest.mark.parametrize("n,base", [(64, 15), (255, 20), (700, 40), (1023, 60)])
    def test_small_signals_sift_in_a_kept_basis(self, n, base, monkeypatch, apply_calls):
        # every filter of l >= 16 takes the Lanczos route, on whichever
        # kernel: fewer products than steps, the loop's steps, its component
        # to 1e-12 of max|s| and its last change to 1e-12
        s, cfg = chirp(n), StoppingConfig(delta=1e-4)
        filt = plain_or_doubled(base, True)
        imf, k, d = inner_loop(s, filt, BoundaryKind.ZERO, cfg)
        assert len(apply_calls) < k
        ref, k_ref, d_ref = loop_sift(monkeypatch, s, filt, cfg)
        assert k == k_ref
        assert np.abs(imf - ref).max() <= 1e-12 * np.abs(s).max()
        assert abs(d - d_ref) <= 1e-12

    def test_acceptance_cases_match_reference_sift(self):
        # criterion 7's zero-kind signals: n = 1,000 with l = 38 and 60
        # steps, in a kept Lanczos basis
        rng = np.random.default_rng(707)
        cfg = StoppingConfig(max_inner=60, max_imfs=6, xi=1.9)
        for trial in range(20):
            amplitude = float(rng.uniform(0.5, 2.0))
            trend = float(rng.uniform(-1.5, 1.5))
            phase = float(rng.uniform(0.0, 2.0 * np.pi))
            if list(BoundaryKind)[trial % len(BoundaryKind)] is BoundaryKind.ZERO:
                s, _ = sine_trend(1000, 20, amplitude=amplitude, trend=trend, phase=phase)
                assert_sifts_match_reference(dif(s, kind=BoundaryKind.ZERO, cfg=cfg), s, cfg)

    def test_plain_filter_takes_the_loop(self, monkeypatch, apply_calls):
        # a plain filter's Ritz values leave [0, 1] at the first check, after
        # 20 products; the loop then returns its own bits
        s, cfg = chirp(2048), StoppingConfig()
        filt = plain_or_doubled(30, False)
        assert StructuredOperator(filt, BoundaryKind.ZERO, s.size).kernel == "gemm"
        imf, k, d = inner_loop(s, filt, BoundaryKind.ZERO, cfg)
        assert len(apply_calls) == k + 20
        ref, k_ref, d_ref = loop_sift(monkeypatch, s, filt, cfg)
        assert np.array_equal(imf, ref) and (k, d) == (k_ref, d_ref)

    def test_breakdown_takes_the_loop(self, monkeypatch, apply_calls):
        # an eigenvector of W ends the recurrence after one product (beta at
        # most 1e-14), before any check: the loop runs and keeps its bits
        filt, n, cfg = plain_or_doubled(8, True), 1024, StoppingConfig()
        op = StructuredOperator(filt, BoundaryKind.ZERO, n)
        assert filt.length >= 16
        lam, vectors = np.linalg.eigh(dense_matrix(op))
        s = vectors[:, np.argmin(np.abs(lam - 0.5))]
        imf, k, d = inner_loop(s, filt, BoundaryKind.ZERO, cfg)
        assert len(apply_calls) == 1 + k and k > 1
        ref, k_ref, d_ref = loop_sift(monkeypatch, s, filt, cfg)
        assert np.array_equal(imf, ref) and (k, d) == (k_ref, d_ref)

    def test_basis_cap_takes_the_loop(self, monkeypatch, apply_calls):
        # the cap-hit sift's basis needs 100 vectors: capped at 60, the
        # loop runs after 60 products and returns its own bits
        s, cfg = chirp(2048), StoppingConfig(delta=1e-12)
        filt = plain_or_doubled(142, True)
        monkeypatch.setattr("iterfilt.decompose._KRYLOV_MAX", 60)
        imf, k, d = inner_loop(s, filt, BoundaryKind.ZERO, cfg)
        assert len(apply_calls) == 60 + k == 1060
        ref, k_ref, d_ref = loop_sift(monkeypatch, s, filt, cfg)
        assert np.array_equal(imf, ref) and (k, d) == (k_ref, d_ref)

    def test_eigenvector_round_off_leaves_no_trace(self, monkeypatch):
        # OpenBLAS rounds the tridiagonal eigenvectors differently with 1 and
        # 2 threads at some sizes (m = 280 among m = 20, 40, ..., 400); the
        # component and change come from the recurrence on T, not from them
        s, cfg = chirp(2048), StoppingConfig(delta=1e-12)
        filt = plain_or_doubled(142, True)
        imf, k, d = inner_loop(s, filt, BoundaryKind.ZERO, cfg)
        eigh = np.linalg.eigh

        def nudged(a):
            theta, u = eigh(a)
            return theta, u * (1.0 + 2.0**-52)

        monkeypatch.setattr(np.linalg, "eigh", nudged)
        again, k2, d2 = inner_loop(s, filt, BoundaryKind.ZERO, cfg)
        assert np.array_equal(imf, again) and (k, d) == (k2, d2)

    def test_long_sift_does_not_depend_on_blas_threads(self):
        # OpenBLAS splits dot products of more than 10,000 samples among its
        # threads; the basis sums its own, so n = 12,000 rounds alike
        code = ("import sys, numpy as np; from conftest import bench_chirp; "
                "from iterfilt import *; "
                "f = convolve_self(sample_filter(raised_cosine_shape(), 60)); "
                "imf, k, d = inner_loop(bench_chirp(7, 12000), f, 'zero', "
                "StoppingConfig(delta=1e-12)); print(imf.tobytes().hex(), k, repr(d))")
        outputs = outputs_by_blas_threads(code)
        assert outputs[0] == outputs[1] and outputs[0].split()[1] == "1000"


# (n, l, D, strips) of the table in _sift_strips's docstring
STRIP_RULE = [
    (200_000, 4, 196, True), (200_000, 24, 78, True), (200_000, 6, 593, True),
    (200_000, 60, 143, True), (100_000, 4, 195, True), (100_000, 6, 594, True),
    (100_000, 24, 219, True), (100_000, 60, 144, False), (50_000, 4, 198, True),
    (50_000, 24, 78, True), (50_000, 6, 595, False), (50_000, 24, 225, False),
    (20_000, 4, 199, False), (20_000, 10, 113, False),
]


def sift_without_strips(monkeypatch, s, filt, cfg):
    """The zero kind's sift with its strip route switched off."""
    with monkeypatch.context() as m:
        m.setattr("iterfilt.decompose._STRIP_MIN_SIZE", 1 << 62)
        return inner_loop(s, filt, BoundaryKind.ZERO, cfg)


@pytest.fixture
def strip_depths(monkeypatch):
    """The depths at which the strip route runs its windows."""
    depths = []

    def counted(values, filt, depth):
        depths.append(depth)
        return _strip_sums(values, filt, depth)

    monkeypatch.setattr("iterfilt.decompose._strip_sums", counted)
    return depths


class TestStripSift:
    """The zero kind sifts a long signal's shallow sifts as a periodic
    interior plus two boundary strips: the loop's steps and its component
    to 1e-12 of max|s|, with no product of full length."""

    @pytest.mark.parametrize("seed", [5, 7])
    def test_noise_trend_matches_reference_sift(self, seed, apply_calls):
        # the benchmark's io-200k input: two sifts, l = 4 and 6, of 151 to
        # 253 steps, whose windows of 8 D l samples the rule keeps within n/2
        s, cfg = noise_trend(seed, 200_000), StoppingConfig(max_imfs=3)
        d = dif(s, kind=BoundaryKind.ZERO, cfg=cfg)
        assert [g.filter_length for g in d.diagnostics] == [4, 6, 0]
        assert apply_calls and max(op.n for op in apply_calls) <= s.size // 2
        assert_sifts_match_reference(d, s, cfg)

    def test_benchmark_chirp_matches_reference_sift(self, apply_calls):
        # the n = 10^5 chirp's first five sifts, l = 4 to 16, take the strips
        s, cfg = bench_chirp(7, 100_000), StoppingConfig(max_imfs=6)
        d = dif(s, kind=BoundaryKind.ZERO, cfg=cfg)
        assert [g.filter_length for g in d.diagnostics] == [4, 6, 8, 12, 16, 0]
        assert apply_calls and max(op.n for op in apply_calls) <= s.size // 2
        assert_sifts_match_reference(d, s, cfg)

    @pytest.mark.parametrize("noise,half,depth,steps", [(1e-3, 3, 154, 185), (1e-4, 2, 199, 582)])
    def test_deep_sift_takes_one_strip_pass(self, monkeypatch, strip_depths, noise, half, depth,
                                            steps):
        # a constant under noise: the periodic sift stops after about 117
        # (1e-3) or 153 (1e-4) steps, the zero rule's edges take 185 or 582,
        # past the one depth the estimate gives, so the windows run once and
        # the loop runs after them, with its own bits
        s = 1.0 + noise * np.random.default_rng(1).standard_normal(50_000)
        filt, cfg = plain_or_doubled(half, True), StoppingConfig()
        imf, k, d = inner_loop(s, filt, BoundaryKind.ZERO, cfg)
        assert strip_depths == [depth]
        ref, k_ref, d_ref = sift_without_strips(monkeypatch, s, filt, cfg)
        assert np.array_equal(imf, ref) and (k, d) == (k_ref, d_ref) and k == steps

    def test_plain_filter_takes_the_loop(self, monkeypatch, strip_depths, apply_calls):
        # a plain filter's periodic spectrum leaves [0, 1]: the route runs no
        # window and the loop, with its full-length products, keeps its bits
        s, cfg = noise_trend(7, 50_000), StoppingConfig(max_inner=40)
        filt = plain_or_doubled(3, False)
        imf, k, d = inner_loop(s, filt, BoundaryKind.ZERO, cfg)
        assert strip_depths == [] and len(apply_calls) == k
        assert {op.n for op in apply_calls} == {s.size}
        ref, k_ref, d_ref = sift_without_strips(monkeypatch, s, filt, cfg)
        assert np.array_equal(imf, ref) and (k, d) == (k_ref, d_ref)

    def test_strips_do_not_depend_on_blas_threads(self, apply_calls):
        # the window products run on the blocked kernel and the sums by
        # numpy, so a routed sift rounds alike under 1 and 2 threads
        inner_loop(noise_trend(7, 60_000), plain_or_doubled(4, True), BoundaryKind.ZERO)
        assert {op.kernel for op in apply_calls} == {"gemm"}
        assert max(op.n for op in apply_calls) < 60_000
        code = ("from conftest import noise_trend; from iterfilt import *; "
                "f = convolve_self(sample_filter(raised_cosine_shape(), 4)); "
                "imf, k, d = inner_loop(noise_trend(7, 60_000), f, 'zero'); "
                "print(imf.tobytes().hex(), k, repr(d))")
        outputs = outputs_by_blas_threads(code)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("n,l,depth,strips", STRIP_RULE)
    def test_rule_table(self, n, l, depth, strips):
        # the rows of _sift_strips's documented table
        assert _strips_pay(n, l, depth) == strips


def energy_rows(energy, z, m):
    """Norm N and step change D of rows 0..m-1: the iterate with squared
    coefficients energy z^(2j), and the change ||lambda c|| / ||c|| of the
    step it takes next."""
    lam2 = (1.0 - z) ** 2
    rows = np.empty((m, energy.size))
    rows[0] = energy
    for j in range(1, m):
        rows[j] = rows[j - 1] * z**2
    norms = np.sqrt(rows.sum(axis=1))
    return norms, np.sqrt(rows @ lam2) / norms


def random_spectrum(rng, n):
    """Eigenvalues in [0, 1], both ends included, and squared coefficients
    spread over ten decades."""
    lam = rng.uniform(0.0, 1.0, n)
    lam[:3] = 0.0, 1.0, 1e-3
    return lam, 10.0 ** rng.uniform(-10.0, 0.0, n)


def exact_spectrum():
    """Powers of two whose rows are summed exactly (up to about 10 rows),
    so the search and the scan compute the same bits."""
    return np.array([0.0, 0.5, 0.75]), np.array([2.0**-10, 1.0, 1.0])


def stop_case(name):
    """(eigenvalues, squared coefficients, step 1's change, tiny, cfg, the
    expected steps or None) of one row of the search table."""
    rng = np.random.default_rng(list(map(ord, name)))
    lam, energy = random_spectrum(rng, 257)
    tiny = 1e-14 * np.sqrt(energy.sum())
    if name.startswith("random"):
        delta = float(10.0 ** rng.uniform(-6.0, -1.0))
        return lam, energy, 1.0, tiny, StoppingConfig(delta=delta), None
    if name.startswith("max_inner"):
        cfg = StoppingConfig(delta=1e-4, max_inner=int(name.split("_")[-1]))
        return lam, energy, 1.0, tiny, cfg, None
    if name == "cap":  # no eigenvalue below 1e-3: the change stays above delta
        return np.maximum(lam, 1e-3), energy, 1.0, tiny, StoppingConfig(delta=1e-4), 1000
    if name == "round_off_z":  # z = 1 + 2^-52 for a few coefficients
        lam[3:9] = -(2.0**-52)
        return lam, energy, 1.0, tiny, StoppingConfig(delta=1e-5), None
    lam, energy = exact_spectrum()
    if name == "delta_exact":
        # delta equals row 3's change, which the rule needs to undercut:
        # rows 0-3 step on, row 4 stops, after 1 + 4 + 1 steps
        _, changes = energy_rows(energy, 1.0 - lam, 5)
        assert changes[4] < changes[3]
        return lam, energy, 1.0, 0.0, StoppingConfig(delta=float(changes[3])), 6
    if name == "zero_row_0":  # row 0 is already at the zero-iterate level
        return lam, energy, 0.25, float(np.sqrt(energy.sum())), StoppingConfig(), 1
    # zero_row_5: one coefficient halves each step with change 1/2 > delta,
    # so the norm reaches tiny = 2^-5 at row 5, after 1 + 5 steps
    return np.array([0.5, 1.0]), np.array([1.0, 0.0]), 0.75, 2.0**-5, StoppingConfig(), 6


STOP_CASES = ["random_1", "random_2", "random_3", "random_4", "cap", "delta_exact",
              "zero_row_0", "zero_row_5", "round_off_z", "max_inner_1", "max_inner_2",
              "max_inner_1000"]


# (end, least j that holds, or None for never)
FIRST_TRUE_CASES = [(1, None), (1, 0), (1000, None), (1000, 0), (4096, 1), (4096, 2),
                    (4096, 5), (4096, 1000), (1001, 1000)]


@pytest.mark.parametrize("end,first", FIRST_TRUE_CASES)
def test_first_true(end, first):
    # guided by a line in log(j + 1) through zero at the first j that holds,
    # and by a flat margin, which leaves plain bisection
    least = end if first is None else first
    for margin in (lambda j: math.log1p(least) - math.log1p(j), lambda j: 1.0):
        calls = []

        def holds(j):
            assert 0 <= j < end
            calls.append(j)
            return j >= least

        assert _first_true(holds, end, margin) == least
        assert len(set(calls)) == len(calls)  # no index evaluated twice
        assert len(calls) <= 2 * math.ceil(math.log2(end)) + 2


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(end=st.integers(1, 5000), first=st.integers(0, 5000), slope=st.floats(-4.0, 4.0),
       noise=st.lists(st.floats(-1e3, 1e3) | st.just(-math.inf), min_size=1, max_size=40))
def test_first_true_by_margin(end, first, slope, noise):
    # margins about a line in log(j + 1) through zero at the first j that
    # holds, with random noise (-inf among it): the probes they guide find
    # the plain search's j, with no j twice and no more calls than it allows
    first, calls = min(first, end), []

    def holds(j):
        assert 0 <= j < end
        calls.append(j)
        return j >= first

    def margin(j):
        assert calls[-1] == j  # read after holds(j)
        return slope * (math.log1p(first) - math.log1p(j)) + noise[j % len(noise)]

    assert _first_true(holds, end, margin) == min((j for j in range(end) if j >= first),
                                                  default=end) == first
    assert len(set(calls)) == len(calls)
    assert len(calls) <= 2 * math.ceil(math.log2(end)) + 2


class TestStopSearch:
    """The search for the stopping step on a spectrum in [0, 1] against the
    row-by-row scan."""

    @pytest.mark.parametrize("seed", range(8))
    def test_norm_and_step_change_are_nonincreasing(self, seed):
        lam, energy = random_spectrum(np.random.default_rng(seed), 64 + 97 * seed)
        norms, changes = energy_rows(energy, 1.0 - lam, 400)
        assert np.all(np.diff(norms) <= 0.0)
        assert np.all(changes[1:] <= changes[:-1] * (1.0 + 1e-12))
        assert changes[-1] < 0.5 * changes[0]  # the test is not vacuous

    @pytest.mark.parametrize("name", STOP_CASES)
    def test_search_matches_scan(self, name):
        lam, energy, d, tiny, cfg, expected = stop_case(name)
        z = 1.0 - lam
        k_scan, d_scan = scan_stop(energy, z, lam, 1, d, tiny, cfg)
        k, d_found = _search_stop(_decay_rows(energy, z, lam), 1, d, tiny, cfg)
        assert k == k_scan
        assert abs(d_found - d_scan) <= 1e-12
        if expected is not None:
            assert k == expected
        if name == "zero_row_0":
            assert d_found == d  # no later step, so step 1's change stands
        if name == "zero_row_5":
            assert d_found == 0.5
        if name.startswith("max_inner"):
            assert k <= cfg.max_inner
        if name == "max_inner_1":
            assert (k, d_found) == (1, d)
