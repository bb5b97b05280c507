import numpy as np
import pytest

from iterfilt import (
    BoundaryKind,
    StoppingConfig,
    StructuredOperator,
    actual_error,
    boundary_error_estimate,
    constant_error_extension,
    dominant_period,
    error_propagation,
    error_upper_bound,
    inner_loop,
    make_sine_trend_generator,
    phase_sweep,
    relative_error,
)
from conftest import random_doubled_filter, sine_trend
from test_decompose import null_tuned_filter

TRANSFORM_KINDS = [BoundaryKind.PERIODIC, BoundaryKind.REFLECTIVE, BoundaryKind.ANTIREFLECTIVE]


class TestErrorPropagation:
    def test_zero_chi_stays_zero(self, rng):
        filt = random_doubled_filter(rng, 20)
        u = constant_error_extension(np.zeros(20), 6)
        op = StructuredOperator(filt, BoundaryKind.PERIODIC, 32)
        steps = error_propagation(op, u, 4)
        assert np.abs(steps).max() == 0.0

    def test_core_of_input_is_zero(self, rng):
        u = constant_error_extension(rng.standard_normal(15), 4)
        assert np.abs(u.core).max() == 0.0

    def test_single_step_support(self, rng):
        # one application reaches exactly l cells into the core
        n, p = 40, 10
        filt = random_doubled_filter(rng, n)
        l = filt.length
        u = constant_error_extension(rng.standard_normal(n) + 0.5, p)
        op = StructuredOperator(filt, BoundaryKind.PERIODIC, n + 2 * p)
        err1 = error_propagation(op, u, 1)[0]
        inside = err1[l: n - l]
        assert np.abs(inside).max() == 0.0
        assert np.abs(err1[:l]).min() > 0.0
        assert np.abs(err1[n - l:]).min() > 0.0

    def test_support_growth_bound(self, rng):
        n, p, k = 60, 8, 3
        filt = random_doubled_filter(rng, 24)
        l = filt.length
        u = constant_error_extension(rng.standard_normal(n) + 1.0, p)
        op = StructuredOperator(filt, BoundaryKind.PERIODIC, n + 2 * p)
        per_step = error_propagation(op, u, k)
        for j in range(k):
            depth = (j + 1) * l
            if depth < n - depth:
                assert np.abs(per_step[j][depth: n - depth]).max() == 0.0

    def test_pad_zero_identically_zero(self, rng):
        n = 30
        filt = random_doubled_filter(rng, n)
        u = constant_error_extension(rng.standard_normal(n), 0)
        op = StructuredOperator(filt, BoundaryKind.PERIODIC, n)
        assert np.abs(error_propagation(op, u, 5)).max() == 0.0

    def test_requires_periodic_operator(self, rng):
        filt = random_doubled_filter(rng, 20)
        u = constant_error_extension(np.ones(20), 5)
        op = StructuredOperator(filt, BoundaryKind.REFLECTIVE, 30)
        with pytest.raises(ValueError, match="periodic"):
            error_propagation(op, u, 2)

    def test_size_mismatch(self, rng):
        filt = random_doubled_filter(rng, 20)
        u = constant_error_extension(np.ones(20), 5)
        op = StructuredOperator(filt, BoundaryKind.PERIODIC, 31)
        with pytest.raises(ValueError, match="match"):
            error_propagation(op, u, 2)


class TestErrorUpperBound:
    def test_single_step(self, rng):
        e = rng.standard_normal((1, 12))
        assert np.array_equal(error_upper_bound(e), np.abs(e[0]))

    def test_monotone_in_steps(self, rng):
        e = rng.standard_normal((6, 12))
        for k in range(1, 6):
            ub_k = error_upper_bound(e[:k])
            ub_next = error_upper_bound(e[: k + 1])
            assert np.all(ub_next >= ub_k)

    def test_componentwise_max(self):
        ub = error_upper_bound([[1.0, -2.0], [-3.0, 1.0]])
        assert np.array_equal(ub, [3.0, 2.0])

    def test_permutation_invariant(self, rng):
        e = rng.standard_normal((5, 9))
        shuffled = e[rng.permutation(5)]
        assert np.array_equal(error_upper_bound(e), error_upper_bound(shuffled))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            error_upper_bound(np.empty((0, 4)))


class TestActualError:
    def test_identical(self, rng):
        v = rng.standard_normal(8)
        assert np.abs(actual_error(v, v)).max() == 0.0

    def test_constant_shift(self, rng):
        v = rng.standard_normal(8)
        assert np.allclose(actual_error(v + 0.25, v), 0.25, atol=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            actual_error(np.ones(3), np.ones(4))

    def test_bound_dominates_on_periodic_integer_grid(self):
        # full pipeline: known sine plus trend, filter tuned to its period,
        # exact periodic wrap; the propagated bound covers the measured error
        period, reps, k = 16, 9, 3
        n = period * reps
        s, exact = sine_trend(n, period)
        filt = null_tuned_filter(period)
        imf, _, _ = inner_loop(s, filt, BoundaryKind.PERIODIC, StoppingConfig(delta=1e-300, max_inner=k))
        err = actual_error(imf, exact)
        est = boundary_error_estimate(s, filt, 2 * filt.length, k)
        interior = slice(1, n - 1)
        frac = np.mean(est.upper_bound[interior] >= err[interior])
        assert frac >= 0.95


class TestRelativeError:
    def test_identical(self, rng):
        v = rng.standard_normal(8)
        assert relative_error(v, v) == 0.0

    def test_scaling(self, rng):
        v = rng.standard_normal(8)
        assert relative_error(1.1 * v, v) == pytest.approx(0.1, rel=1e-12)

    def test_scale_invariance(self, rng):
        a, b = rng.standard_normal(8), rng.standard_normal(8)
        assert relative_error(3.0 * a, 3.0 * b) == pytest.approx(relative_error(a, b), rel=1e-12)

    def test_zero_reference(self):
        with pytest.raises(ValueError):
            relative_error(np.ones(4), np.zeros(4))


class TestBoundaryErrorEstimate:
    def test_fields(self, rng):
        s = rng.standard_normal(30) + 2.0
        filt = random_doubled_filter(rng, 30)
        est = boundary_error_estimate(s, filt, 6, 4)
        assert est.per_step.shape == (4, 30)
        assert est.upper_bound.shape == (30,)
        assert est.chi == pytest.approx(np.abs(s).max())
        assert est.pad == 6 and est.steps == 4
        assert np.array_equal(est.upper_bound, np.abs(est.per_step).max(axis=0))


class TestDominantPeriod:
    def test_pure_cosine(self):
        t = np.arange(200) * 0.1
        assert dominant_period(np.cos(2 * np.pi * t / 4.0), 0.1) == pytest.approx(4.0, abs=0.1)

    def test_detrends_linear_drift(self):
        t = np.arange(200) * 0.1
        curve = np.cos(2 * np.pi * t / 4.0) + 0.8 * t
        assert dominant_period(curve, 0.1) == pytest.approx(4.0, abs=0.1)

    def test_too_short(self):
        with pytest.raises(ValueError):
            dominant_period([1.0, 2.0], 1.0)


class TestPhaseSweep:
    # fixture frozen after verification: centre-anchored phase keeps the
    # boundary-error curves at the full signal period for every kind
    DT = 0.05
    SPAN = 4.0
    CFG = StoppingConfig(delta=1e-12, max_inner=5, xi=1.9)

    def _run(self, trend=1.5):
        gen = make_sine_trend_generator(amplitude=1.0, period=1.0, trend=trend,
                                        start=-8.0, phase=0.4)
        return phase_sweep(gen, self.DT, self.SPAN, None, self.CFG)

    def test_columns_and_best_kind(self):
        points = self._run()
        assert len(points) == int(round(self.SPAN / self.DT))
        for pt in points:
            assert set(pt.err_rel) == {"periodic", "reflective", "antireflective"}
            assert pt.best_kind in pt.err_rel
            assert pt.err_rel[pt.best_kind] == min(pt.err_rel.values())

    def test_periodic_exact_at_integer_periods(self):
        # pure sine: where the sample count is a whole number of periods the
        # wrap is exact and the tuned filter passes the sine untouched
        gen = make_sine_trend_generator(amplitude=1.0, period=1.0, trend=0.0,
                                        start=-8.0, phase=0.4)
        points = phase_sweep(gen, self.DT, self.SPAN, [BoundaryKind.PERIODIC], self.CFG)
        errs = np.array([pt.err_rel["periodic"] for pt in points])
        period_samples = round(1.0 / self.DT)
        wrap_exact = [
            i for i, pt in enumerate(points)
            if len(np.arange(-8.0, pt.endpoint + 0.5 * self.DT, self.DT)) % period_samples == 0
        ]
        assert len(wrap_exact) >= 3
        assert errs[wrap_exact].max() <= 1e-10
        assert errs[wrap_exact].min() <= errs.min() + 1e-15  # sweep minimum

    def test_dominant_period_matches_signal(self):
        points = self._run()
        for kind in ("periodic", "reflective", "antireflective"):
            curve = [pt.err_rel[kind] for pt in points]
            assert dominant_period(curve, self.DT) == pytest.approx(1.0, abs=self.DT)

    def test_upper_bound_dominates(self):
        points = self._run()
        for kind in ("periodic", "reflective", "antireflective"):
            hold = np.mean([pt.ub_rel >= pt.err_rel[kind] for pt in points])
            assert hold >= 0.95

    def test_degenerate_generator_rejected(self):
        flat = lambda endpoint, dt: (np.full(50, 2.0), np.full(50, 1.0))
        with pytest.raises(ValueError):
            phase_sweep(flat, 0.1, 0.3, None, self.CFG)
