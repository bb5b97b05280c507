import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from iterfilt import (
    BoundaryKind,
    Filter,
    StoppingConfig,
    StructuredOperator,
    actual_error,
    convolve_self,
    error_analysis,
    error_propagation,
    inner_loop,
    make_sine_trend_generator,
    phase_sweep,
    raised_cosine_shape,
    relative_error,
    sample_filter,
)
from conftest import (bench_chirp, outputs_by_blas_threads, random_doubled_filter, random_filter,
                      sine_trend)
from oracles import dense_propagation, dominant_period
from test_decompose import null_tuned_filter

TRANSFORM_KINDS = [BoundaryKind.PERIODIC, BoundaryKind.REFLECTIVE, BoundaryKind.ANTIREFLECTIVE]


def propagation_case(rng, n, filt=None):
    """(signal, filter) for a random signal of n samples."""
    return rng.standard_normal(n) + 0.5, filt or random_doubled_filter(rng, n)


class TestErrorPropagation:
    def test_zero_chi_stays_zero(self, rng):
        filt = random_doubled_filter(rng, 20)
        last, bound = error_propagation(np.zeros(20), filt, 4, 6)
        assert np.abs(last).max() == 0.0 and bound.max() == 0.0

    def test_single_step_support(self, rng):
        # one application reaches exactly l cells into the core
        n, p = 40, 10
        s, filt = propagation_case(rng, n)
        l = filt.length
        err1, _ = error_propagation(s, filt, 1, p)
        inside = err1[l: n - l]
        assert np.abs(inside).max() == 0.0
        assert np.abs(err1[:l]).min() > 0.0
        assert np.abs(err1[n - l:]).min() > 0.0

    def test_support_growth_bound(self, rng):
        n, p, k = 60, 8, 3
        s, filt = propagation_case(rng, n, random_doubled_filter(rng, 24))
        l = filt.length
        for j in range(1, k + 1):
            depth = j * l
            if depth < n - depth:
                last, bound = error_propagation(s, filt, j, p)
                assert np.abs(last[depth: n - depth]).max() == 0.0
                assert bound[depth: n - depth].max() == 0.0

    def test_pad_zero_identically_zero(self, rng):
        s, filt = propagation_case(rng, 30)
        last, bound = error_propagation(s, filt, 5, 0)
        assert np.abs(last).max() == 0.0 and bound.max() == 0.0

    def test_plain_filter_rejected(self):
        # a plain filter's eigenvalues reach below zero, where |1 - lambda| > 1:
        # unchecked, this case grows to 1.5e227 in 20,000 steps and to NaN in 40,000
        s, _ = sine_trend(200, 20)
        with pytest.raises(ValueError, match=r"^spectrum \[-.*\] is not in \[0, 1\]$"):
            error_propagation(s, sample_filter(raised_cosine_shape(), 9), 100, 18)

    def test_negative_pad_rejected(self, rng):
        s, filt = propagation_case(rng, 20)
        with pytest.raises(ValueError, match="pad must be nonnegative"):
            error_propagation(s, filt, 2, -1)

    # extended sizes on both sides of the dense-basis crossover at N = 640,
    # primes among them (pocketfft's Bluestein lengths)
    @pytest.mark.parametrize("n,p,steps", [
        (41, 10, 70), (293, 19, 150), (300, 25, 64), (833, 31, 129),
        (880, 7, 3), (886, 5, 150), (895, 6, 100), (1001, 40, 140),
        (599, 20, 100), (601, 20, 100),
    ])
    def test_matches_dense_oracle(self, rng, n, p, steps):
        # both kernels against iterating the dense operator step by step
        s, filt = propagation_case(rng, n, random_doubled_filter(rng, min(n, 120)))
        chi = float(np.abs(s).max())
        last, bound = error_propagation(s, filt, steps, p)
        oracle_last, oracle_bound = dense_propagation(s, filt, steps, p)
        assert np.abs(last - oracle_last).max() <= 1e-13 * chi
        assert np.abs(bound - oracle_bound).max() <= 1e-13 * chi

    # the dense kernel splits the bins of its blocks of 128 steps at
    # 128 lambda = 1/4: a sweep-like case with both kinds of bin, one whose
    # bins are all fast (lambda >= 0.36) and one whose bins past DC are all
    # slow (uniform taps over the whole period, lambda = 0 there)
    SPLIT_CASES = {
        "split": (200, convolve_self(sample_filter(raised_cosine_shape(), 16)), 64),
        "all_fast": (150, convolve_self(Filter([0.8, 0.1])), 10),
        "slow_past_dc": (31, Filter(np.full(21, 1.0 / 41)), 5),
    }

    @pytest.mark.parametrize("case", list(SPLIT_CASES))
    @pytest.mark.parametrize("steps", [127, 128, 129, 257])
    def test_split_kernel_matches_dense_oracle(self, rng, case, steps):
        n, filt, p = self.SPLIT_CASES[case]
        size = n + 2 * p
        op = StructuredOperator(filt, BoundaryKind.PERIODIC, size)
        fast = 128 * op.to_eigenbasis(np.zeros(size))[1] > 0.25
        assert fast[0] and {"split": fast[1:].any() and not fast[1:].all(),
                            "all_fast": fast.all(), "slow_past_dc": not fast[1:].any()}[case]
        s = rng.standard_normal(n) + 0.5
        chi = float(np.abs(s).max())
        last, bound = error_propagation(s, filt, steps, p)
        oracle_last, oracle_bound = dense_propagation(s, filt, steps, p)
        assert np.abs(last - oracle_last).max() <= 1e-13 * chi
        assert np.abs(bound - oracle_bound).max() <= 1e-13 * chi

    def test_flushed_powers_write_the_same_bytes(self, monkeypatch):
        # a short filter: the powers of the low bins, z from 0.001, fall
        # below the least normal float within 300 steps (146 of them are
        # flushed to zero); left in, they write the same bytes
        n, filt, p = 200, convolve_self(sample_filter(raised_cosine_shape(), 2)), 8
        size = n + 2 * p
        z = 1.0 - StructuredOperator(filt, BoundaryKind.PERIODIC, size).to_eigenbasis(
            np.zeros(size))[1]
        powers = z ** np.arange(1, 301)[:, None]
        assert ((powers > 0.0) & (powers < np.finfo(float).tiny)).any()
        s = bench_chirp(3, n)
        flushed = error_propagation(s, filt, 300, p)
        monkeypatch.setattr(error_analysis, "_TINY", 0.0)
        kept = error_propagation(s, filt, 300, p)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(flushed, kept))

    # (extended size N, kernel) from the table in error_propagation's docstring
    @pytest.mark.parametrize("size,kernel", [
        (9, "dense"), (293, "dense"), (512, "dense"), (639, "dense"), (640, "irfft"),
        (895, "irfft"), (896, "irfft"), (907, "irfft"), (1024, "irfft"), (4099, "irfft"),
    ])
    def test_kernel_choice(self, rng, monkeypatch, size, kernel):
        batches = []
        irfft = np.fft.irfft

        def counted(a, *args, **kwargs):
            batches.append(len(a))
            return irfft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "irfft", counted)
        p = 2
        s, filt = propagation_case(rng, size - 2 * p, random_doubled_filter(rng, 9))
        error_propagation(s, filt, 100, p)
        if kernel == "dense":
            assert batches == []
        else:  # blocks of 2^16 coefficients' worth of steps
            rows = max(1, (1 << 16) // size)
            assert batches == [min(rows, 100 - j0) for j0 in range(0, 100, rows)]

    def test_dense_kernel_does_not_depend_on_blas_threads(self):
        # (n, base length, pad) of chirps: six whose core widths 99-155 are
        # rounded up to 8 columns (a product over every bin at widths
        # rounded to 4, or not at all, rounds by the OpenBLAS thread count
        # on each of them), and five more splits, of 5-122 fast bins among
        # 87-318
        cases = [(198, 18, 72), (216, 13, 52), (231, 5, 20), (264, 6, 24), (273, 1, 4),
                 (309, 2, 8), (241, 16, 64), (60, 14, 56), (150, 37, 30), (395, 30, 120),
                 (500, 3, 12)]
        code = ("import hashlib; from conftest import bench_chirp; from iterfilt import *\n"
                f"for n, l, p in {cases}:\n"
                "    f = convolve_self(sample_filter(raised_cosine_shape(), l))\n"
                "    last, bound = error_propagation(bench_chirp(n, n), f, 300 + n % 5, p)\n"
                "    print(hashlib.sha1(last.tobytes() + bound.tobytes()).hexdigest())")
        outputs = outputs_by_blas_threads(code)
        assert outputs[0] == outputs[1] and len(outputs[0].split()) == len(cases)


class TestErrorUpperBound:
    """The pointwise bound that error_propagation folds over its steps."""

    def test_single_step(self, rng):
        s, filt = propagation_case(rng, 12)
        last, bound = error_propagation(s, filt, 1, 4)
        assert np.array_equal(bound, np.abs(last))

    def test_monotone_in_steps(self, rng):
        # each step's error is computed the same way whatever the step
        # count, so the running maximum grows exactly
        for n, p in ((12, 4), (200, 60), (900, 20)):
            s, filt = propagation_case(rng, n)
            ub_k = error_propagation(s, filt, 1, p)[1]
            for k in (2, 3, 63, 64, 65, 130):
                last, ub_next = error_propagation(s, filt, k, p)
                assert last.shape == ub_next.shape == (n,)
                assert np.all(ub_next >= ub_k)
                assert np.all(ub_next >= np.abs(last))
                ub_k = ub_next

    def test_componentwise_max(self, rng):
        # the bound is the componentwise max of the single steps' errors:
        # exactly those of shorter calls, and the dense oracle's to round-off
        s, filt = propagation_case(rng, 30)
        chi = float(np.abs(s).max())
        _, bound = error_propagation(s, filt, 6, 8)
        lasts = [error_propagation(s, filt, k, 8)[0] for k in range(1, 7)]
        assert np.array_equal(bound, np.abs(lasts).max(axis=0))
        oracle = [dense_propagation(s, filt, k, 8)[0] for k in range(1, 7)]
        assert np.abs(bound - np.abs(oracle).max(axis=0)).max() <= 1e-13 * chi

    def test_permutation_invariant(self, rng):
        # the bound sees the signal only through chi = max |s|
        s = rng.standard_normal(40)
        filt = random_doubled_filter(rng, 40)
        last, bound = error_propagation(s, filt, 7, 9)
        shuffled_last, shuffled_bound = error_propagation(s[rng.permutation(40)], filt, 7, 9)
        assert np.array_equal(bound, shuffled_bound)
        assert np.array_equal(last, shuffled_last)

    def test_empty_rejected(self, rng):
        s, filt = propagation_case(rng, 12)
        for steps in (0, -3):
            with pytest.raises(ValueError, match="steps must be at least 1"):
                error_propagation(s, filt, steps, 4)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(n=st.integers(3, 64), base=st.integers(1, 15), pad=st.floats(0.0, 1.0),
       steps=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
def test_propagation_properties(n, base, pad, steps, seed):
    rng = np.random.default_rng(seed)
    filt = convolve_self(random_filter(rng, min(base, max(1, (n - 1) // 4))))
    l = filt.length
    p = int(pad * 3 * l)
    assume(2 * l + 1 <= n + 2 * p)
    s, filt = propagation_case(rng, n, filt)
    last, bound = error_propagation(s, filt, steps, p)
    assert np.array_equal(bound, bound[::-1])
    if steps > 1:
        assert np.all(bound >= error_propagation(s, filt, steps - 1, p)[1])
    depth = steps * l
    assert not last[depth: n - depth].any() and not bound[depth: n - depth].any()
    chi = float(np.abs(s).max())
    oracle_last, oracle_bound = dense_propagation(s, filt, steps, p)
    assert np.abs(last - oracle_last).max() <= 1e-13 * chi
    assert np.abs(bound - oracle_bound).max() <= 1e-13 * chi
    for c in (2.0**-600, 2.0**600):  # chi is propagated at a power-of-two scale
        scaled = error_propagation(c * s, filt, steps, p)
        assert np.array_equal(scaled[0], c * last) and np.array_equal(scaled[1], c * bound)


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

    @pytest.mark.filterwarnings("error")
    def test_difference_past_the_float_range_raises(self):
        big = np.finfo(float).max
        with pytest.raises(ValueError, match="exceeds the largest float"):
            actual_error([big], [-big])
        assert np.array_equal(actual_error([big, -big], [big / 2, -big / 2]), [big / 2] * 2)

    def test_bound_dominates_on_periodic_integer_grid(self):
        # full pipeline: known sine plus trend, filter tuned to its period,
        # exact periodic wrap; the propagated bound covers the measured error
        period, reps, k = 16, 9, 3
        n = period * reps
        s, exact = sine_trend(n, period)
        filt = null_tuned_filter(period)
        imf, _, _ = inner_loop(s, filt, BoundaryKind.PERIODIC, StoppingConfig(delta=1e-300, max_inner=k))
        err = actual_error(imf, exact)
        bound = error_propagation(s, filt, k, 2 * filt.length)[1]
        interior = slice(1, n - 1)
        frac = np.mean(bound[interior] >= err[interior])
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

    @pytest.mark.filterwarnings("error")
    def test_error_past_the_float_range_raises(self):
        # f1 past the float range at the reference's unit scale, and an
        # error that fits it but whose ratio does not
        big = np.finfo(float).max
        for f1, exact in (([big, 0.0], [1e-300, 0.0]), ([big], [0.5])):
            with pytest.raises(ValueError, match="exceeds the largest float"):
                relative_error(f1, exact)
        assert relative_error([big], [1.0]) == pytest.approx(big, rel=1e-15)


class TestBoundaryErrorEstimate:
    def test_fields(self, rng):
        # (last, bound) over the core, bound >= |last|, and both scaled by
        # chi = max |s| as in the dense oracle
        s = rng.standard_normal(30) + 2.0
        filt = random_doubled_filter(rng, 30)
        chi = float(np.abs(s).max())
        last, bound = error_propagation(s, filt, 4, 6)
        assert last.shape == bound.shape == (30,)
        assert np.all(bound >= np.abs(last))
        oracle_last, oracle_bound = dense_propagation(s, filt, 4, 6)
        assert np.abs(last - oracle_last).max() <= 1e-13 * chi
        assert np.abs(bound - oracle_bound).max() <= 1e-13 * chi
        unit_last, unit_bound = error_propagation(s / chi, filt, 4, 6)
        assert np.abs(last - chi * unit_last).max() <= 1e-13 * chi
        assert np.abs(bound - chi * unit_bound).max() <= 1e-13 * chi


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

    @pytest.mark.parametrize("amplitude,period", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0),
                                                  (1.0, -2.0)])
    def test_generator_needs_positive_amplitude_and_period(self, amplitude, period):
        with pytest.raises(ValueError, match="amplitude and period must be positive"):
            make_sine_trend_generator(amplitude=amplitude, period=period)

    def test_degenerate_generator_rejected(self):
        flat = lambda endpoint, dt: (np.full(50, 2.0), np.full(50, 1.0))
        with pytest.raises(ValueError):
            phase_sweep(flat, 0.1, 0.3, None, self.CFG)
