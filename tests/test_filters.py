import numpy as np
import pytest

from iterfilt import (
    Filter,
    FilterShape,
    Signal,
    convolve_self,
    filter_length,
    get_shape,
    raised_cosine_shape,
    sample_filter,
    triangle_shape,
    uniform_shape,
)
from conftest import random_filter


class TestFilterShape:
    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            FilterShape("bad", lambda t: 1.0 + t)

    def test_increasing_rejected(self):
        with pytest.raises(ValueError, match="nonincreasing"):
            FilterShape("bad", lambda t: 1.0 + t * t)

    def test_zero_at_origin_rejected(self):
        with pytest.raises(ValueError, match="positive at 0"):
            FilterShape("bad", lambda t: np.zeros_like(t))

    def test_builtin_lookup(self):
        assert get_shape("raised-cosine").name == "raised-cosine"
        with pytest.raises(ValueError, match="unknown shape"):
            get_shape("nope")


class TestFilterInvariants:
    def test_positive_required(self):
        with pytest.raises(ValueError, match="positive"):
            Filter(np.array([0.5, 0.25, 0.0]))

    def test_decreasing_required(self):
        with pytest.raises(ValueError, match="decreasing"):
            Filter(np.array([0.2, 0.3, 0.1]))

    def test_unit_sum_required(self):
        with pytest.raises(ValueError, match="sum to 1"):
            Filter(np.array([0.5, 0.3]))

    def test_full_vector_sums_to_one(self, rng):
        for l in (1, 2, 5, 9):
            f = random_filter(rng, l)
            assert abs(f.full().sum() - 1.0) <= 1e-13
            assert f.full().size == 2 * l + 1


class TestSampleFilter:
    def test_uniform_l1(self):
        f = sample_filter(uniform_shape(), 1)
        assert np.allclose(f.half_weights, [1 / 3, 1 / 3], atol=1e-15)

    def test_uniform_l2(self):
        f = sample_filter(uniform_shape(), 2)
        assert np.allclose(f.half_weights, [0.2, 0.2, 0.2], atol=1e-15)

    def test_halfheight_triangle_l2(self):
        # h(t) = 1 - |t|/2 evaluated at 0, 1/2, 1 gives (1, 3/4, 1/2)
        shape = FilterShape("halftri", lambda t: 1.0 - np.abs(t) / 2.0)
        f = sample_filter(shape, 2)
        expected = np.array([1.0, 0.75, 0.5])
        expected /= expected[0] + 2.0 * expected[1:].sum()
        assert np.abs(f.half_weights - expected).max() <= 1e-15

    def test_vanishing_shape_sampled_inside(self):
        # raised cosine vanishes at t=1, so taps sit at j/(l+1)
        f = sample_filter(raised_cosine_shape(), 3)
        expected = 0.5 * (1.0 + np.cos(np.pi * np.arange(4) / 4.0))
        expected /= expected[0] + 2.0 * expected[1:].sum()
        assert np.abs(f.half_weights - expected).max() <= 1e-15
        assert np.all(f.half_weights > 0.0)

    def test_triangle_shape_positive_weights(self):
        f = sample_filter(triangle_shape(), 4)
        assert np.all(f.half_weights > 0.0)

    def test_scaling_invariance(self):
        a = sample_filter(FilterShape("one", lambda t: 1.0 - np.abs(t) / 3.0), 3)
        b = sample_filter(FilterShape("five", lambda t: 5.0 * (1.0 - np.abs(t) / 3.0)), 3)
        assert np.abs(a.half_weights - b.half_weights).max() <= 1e-15

    def test_interior_zero_rejected(self):
        clipped = FilterShape("clip", lambda t: np.maximum(1.0 - 2.0 * np.abs(t), 0.0))
        with pytest.raises(ValueError, match="vanishes"):
            sample_filter(clipped, 3)

    def test_bad_length(self):
        with pytest.raises(ValueError):
            sample_filter(uniform_shape(), 0)


class TestConvolveSelf:
    def test_three_equal_taps(self):
        w = convolve_self(Filter(np.array([1 / 3, 1 / 3])))
        assert np.abs(w.half_weights - [3 / 9, 2 / 9, 1 / 9]).max() <= 1e-15

    def test_matches_numpy_convolution(self, rng):
        v = random_filter(rng, 4)
        w = convolve_self(v)
        oracle = np.convolve(v.full(), v.full())
        assert np.abs(w.full() - oracle).max() <= 1e-13

    def test_unit_sum_closure(self, rng):
        near_delta = Filter(np.array([0.9, 0.05]))
        assert abs(convolve_self(near_delta).full().sum() - 1.0) <= 1e-13

    def test_length_doubles(self, rng):
        assert convolve_self(random_filter(rng, 3)).length == 6

    def test_preserves_symmetric_decreasing(self, rng):
        for _ in range(20):
            l = int(rng.integers(1, 8))
            w = convolve_self(random_filter(rng, l))
            assert np.all(np.diff(w.half_weights) <= 1e-15)
            assert np.all(w.half_weights > 0.0)


class TestFilterLength:
    def _signal_with_extrema(self, n, count):
        # sine with count interior peaks/troughs over n samples
        period = 2 * n // count
        return np.sin(2.0 * np.pi * np.arange(n) / period)

    def test_formula(self):
        s = self._signal_with_extrema(100, 10)
        from iterfilt import count_extrema
        assert count_extrema(s) == 10
        assert filter_length(s, 1.6) == 16
        assert filter_length(s, 1.6) <= 24

    def test_upper_clamp(self):
        s = np.array([0.0, 1.0, 2.0, 1.0, 0.0, 1.0, 2.0, 3.0, 4.0])
        assert filter_length(s, 1.6) == 2  # raw 7 clamps to floor(8/4)

    def test_lower_clamp(self):
        s = self._signal_with_extrema(100, 10)
        assert filter_length(s, 1e-6) == 1

    def test_doubled_clamp(self):
        s = self._signal_with_extrema(100, 4)
        assert filter_length(s, 3.0) == 24  # floor(99/4)

    def test_too_few_extrema(self):
        with pytest.raises(ValueError, match="extrema"):
            filter_length(np.arange(10.0), 1.6)

    def test_accepts_signal_objects(self):
        s = Signal(self._signal_with_extrema(100, 10))
        assert filter_length(s, 1.6) == 16
