import numpy as np
import pytest

from iterfilt import (
    BoundaryKind,
    ConvergenceConstants,
    Filter,
    StoppingConfig,
    StructuredOperator,
    convolve_self,
    delta_metric,
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
from conftest import random_doubled_filter, sine_trend
from oracles import reference_sift

TRANSFORM_KINDS = [BoundaryKind.PERIODIC, BoundaryKind.REFLECTIVE, BoundaryKind.ANTIREFLECTIVE]


def null_tuned_filter(period):
    """Doubled raised-cosine filter whose response vanishes at 1/period.

    Sampling the raised cosine at j/(l+1) with l = period-1 puts an exact
    zero of the tap spectrum at frequency 1/period, so an integer-period
    sine passes through I - W untouched away from the boundaries.
    """
    return convolve_self(sample_filter(raised_cosine_shape(), period - 1))


class TestDeltaMetric:
    def test_identical(self, rng):
        v = rng.standard_normal(10)
        assert delta_metric(v, v) == 0.0

    def test_double(self, rng):
        v = rng.standard_normal(10)
        assert delta_metric(2.0 * v, v) == pytest.approx(1.0, abs=1e-15)

    def test_unit_perturbation(self, rng):
        v = rng.standard_normal(10)
        v /= np.linalg.norm(v)
        eps = 1e-4
        pert = v.copy()
        pert[0] += eps
        assert delta_metric(pert, v) == pytest.approx(eps, rel=1e-12)

    def test_zero_current_iterate(self):
        with pytest.raises(ValueError):
            delta_metric(np.ones(4), np.zeros(4))


class TestInnerLoop:
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
                op = StructuredOperator(filt, kind, 24)
                s = rng.standard_normal(24)
                cfg = StoppingConfig(delta=1e-300, max_inner=k)
                imf, used, _ = inner_loop(s, filt, kind, cfg)
                # the loop may quit early only through the zero-iterate guard
                assert used == k or np.linalg.norm(imf) < 1e-14
                direct = s.copy()
                for _ in range(used):
                    direct = direct - op.apply(direct)
                assert np.abs(imf - direct).max() <= 1e-8

    def test_iteration_cap(self, rng):
        filt = random_doubled_filter(rng, 20)
        s = rng.standard_normal(20)
        _, k, _ = inner_loop(s, filt, BoundaryKind.REFLECTIVE, StoppingConfig(delta=1e-300, max_inner=5))
        assert k == 5


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
        l1 = 2 * filter_length(s, 1.6, doubled=True)  # doubled operator width
        d = eif(s, kind=BoundaryKind.REFLECTIVE, p=2 * l1,
                cfg=StoppingConfig(max_inner=40, max_imfs=5))
        assert all(f.size == 240 for f in d.imfs)
        assert np.abs(d.reconstruction() - s).max() <= 1e-10

    def test_inadmissible_pad(self):
        with pytest.raises(ValueError):
            eif(np.arange(10.0), kind=BoundaryKind.ANTIREFLECTIVE, p=10)


class TestConvergenceConstants:
    def test_values_per_kind(self, rng):
        filt = random_doubled_filter(rng, 16)
        for kind, alpha, beta in [
            (BoundaryKind.PERIODIC, 1.0, 1),
            (BoundaryKind.REFLECTIVE, 1.0, 1),
            (BoundaryKind.ANTIREFLECTIVE, 3.0, 2),
        ]:
            c = ConvergenceConstants.for_operator(StructuredOperator(filt, kind, 16))
            assert (c.alpha, c.beta) == (alpha, beta)
            assert c.zeta >= 0

    def test_zero_kind_rejected(self, rng):
        op = StructuredOperator(random_doubled_filter(rng, 16), BoundaryKind.ZERO, 16)
        with pytest.raises(ValueError):
            ConvergenceConstants.for_operator(op)

    def test_zeta_counts_kernel(self):
        period, reps = 8, 4
        op = StructuredOperator(null_tuned_filter(period), BoundaryKind.PERIODIC, period * reps)
        c = ConvergenceConstants.for_operator(op)
        assert c.zeta >= 1  # the tuned spectral zero


class TestStoppingBound:
    def test_large_threshold_gives_one(self, rng):
        filt = random_doubled_filter(rng, 16)
        op = StructuredOperator(filt, BoundaryKind.PERIODIC, 16)
        s = rng.standard_normal(16)
        # k^k/(k+1)^(k+1) at k=1 is 1/4; any threshold making the rhs
        # exceed that must return 1
        assert stopping_bound_k0(1e6, op, s) == 1

    def test_monotone_in_delta(self, rng):
        filt = random_doubled_filter(rng, 32)
        op = StructuredOperator(filt, BoundaryKind.REFLECTIVE, 32)
        s = rng.standard_normal(32)
        deltas = [1e-8, 1e-6, 1e-4, 1e-2]
        bounds = [stopping_bound_k0(d, op, s) for d in deltas]
        assert all(a >= b for a, b in zip(bounds, bounds[1:]))

    def test_direct_iteration_guarantee(self, rng):
        # measure the step change at the predicted iteration by brute force
        n = 64
        filt = random_doubled_filter(rng, n)
        op = StructuredOperator(filt, BoundaryKind.PERIODIC, n)
        s = rng.standard_normal(n)
        s /= np.linalg.norm(s)
        delta = 1e-6
        k0 = stopping_bound_k0(delta, op, s)
        cur = s.copy()
        prev = None
        for k in range(1, k0 + 2):
            prev, cur = cur, cur - op.apply(cur)
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

    def test_invalid_delta(self, rng):
        op = StructuredOperator(random_doubled_filter(rng, 16), BoundaryKind.PERIODIC, 16)
        with pytest.raises(ValueError):
            stopping_bound_k0(0.0, op, np.ones(16))


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
            from iterfilt import unit_eigenvectors
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


class TestSpectralSift:
    """The eigenbasis sift against one operator application per step."""

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
            filt = plain_or_doubled(filter_length(s, cfg.xi, doubled=doubled), doubled)
        else:
            filt = plain_or_doubled(int(rng.integers(1, cap + 1)), doubled)
        if stop == "zero_guard":
            s = np.ones(n)  # eigenvalue one for every kind: zero after one step
        elif stop == "cap":
            cfg = StoppingConfig(delta=1e-12, max_inner=20)
        elif stop == "one_step":
            cfg = StoppingConfig(max_inner=1)

        ref, k_ref, d_ref = reference_sift(s, filt, kind, cfg)
        imf, k, d = inner_loop(s, filt, kind, cfg)
        assert k == k_ref
        # without doubling, eigenvalues below zero make both iterates grow
        assert np.abs(imf - ref).max() <= 1e-12 * max(np.abs(s).max(), np.abs(ref).max())
        assert abs(d - d_ref) <= 1e-12

        # the case exercises the stop it is named for: a wide doubled filter
        # has eigenvalues near zero, so delta is met; without doubling the
        # chirp's iterate grows and runs to the cap
        expected = {
            "cap": "cap",
            "one_step": "cap",
            "zero_guard": "zero iterate",
            "kernel": "delta",
            "delta": "delta" if doubled and n >= 64 else None,
            "chirp": "delta" if doubled else "cap",
        }[stop]
        if expected:
            assert stop_reason(ref, k_ref, cfg) == expected
        if stop in ("one_step", "zero_guard", "kernel"):
            assert k == 1
