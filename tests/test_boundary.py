import itertools

import numpy as np
import pytest

from iterfilt import BoundaryKind, error_propagation, extend

from conftest import random_doubled_filter

S4 = np.array([1.0, 2.0, 3.0, 4.0])
# np.pad's keyword arguments for each rule, and each rule's largest p;
# the zero rule has no limit and is checked up to 2n
PAD_MODES = {
    BoundaryKind.ZERO: {"mode": "constant"},
    BoundaryKind.PERIODIC: {"mode": "wrap"},
    BoundaryKind.REFLECTIVE: {"mode": "symmetric"},
    BoundaryKind.ANTIREFLECTIVE: {"mode": "reflect", "reflect_type": "odd"},
}
PAD_ORACLE = [(BoundaryKind.ZERO, lambda n: 2 * n), (BoundaryKind.PERIODIC, lambda n: n),
              (BoundaryKind.REFLECTIVE, lambda n: n), (BoundaryKind.ANTIREFLECTIVE, lambda n: n - 1)]


class TestExtend:
    def test_periodic(self):
        assert np.array_equal(extend(S4, BoundaryKind.PERIODIC, 2), [3.0, 4.0, *S4, 1.0, 2.0])

    def test_reflective(self):
        assert np.array_equal(extend(S4, BoundaryKind.REFLECTIVE, 2), [2.0, 1.0, *S4, 4.0, 3.0])

    def test_antireflective(self):
        assert np.array_equal(extend(S4, BoundaryKind.ANTIREFLECTIVE, 2),
                              [-1.0, 0.0, *S4, 5.0, 6.0])

    def test_zero(self):
        assert np.array_equal(extend(S4, BoundaryKind.ZERO, 3), [0.0] * 3 + [*S4] + [0.0] * 3)

    def test_core_round_trip(self, rng):
        v = rng.standard_normal(17)
        for kind in BoundaryKind:
            assert np.array_equal(extend(v, kind, 0), v)
            assert np.array_equal(extend(v, kind, 4)[4:-4], v)

    def test_total_length(self, rng):
        v = rng.standard_normal(11)
        for kind in BoundaryKind:
            assert extend(v, kind, 4).shape == (11 + 8,)

    def test_kind_accepts_strings(self):
        assert np.array_equal(extend(S4, "periodic", 1)[:1], [4.0])

    @pytest.mark.parametrize("kind,pmax", [
        (BoundaryKind.PERIODIC, 4),
        (BoundaryKind.REFLECTIVE, 4),
        (BoundaryKind.ANTIREFLECTIVE, 3),
    ])
    def test_pad_limits(self, kind, pmax):
        extend(S4, kind, pmax)  # admissible
        with pytest.raises(ValueError):
            extend(S4, kind, pmax + 1)
        with pytest.raises(ValueError, match="pad must be nonnegative"):
            extend(S4, kind, -1)

    def test_matches_numpy_pad_oracle(self, rng):
        # bit for bit, signed zeros included, at every p up to each rule's
        # limit, for odd and even n and at scales near both ends of the
        # float range
        for n, scale in itertools.product((3, 4, 23), (1.0, 1e300, 1e-300)):
            v = scale * rng.standard_normal(n)
            v[n // 2] = -0.0
            for kind, limit in PAD_ORACLE:
                for p in range(limit(n) + 1):
                    assert extend(v, kind, p).tobytes() == np.pad(v, p, **PAD_MODES[kind]).tobytes()

    def test_periodic_exact_for_wrap_periodic_signal(self):
        # integer-frequency sinusoid on the wrap grid continues exactly
        n, q, p = 24, 3, 10
        f = lambda j: np.sin(2.0 * np.pi * q * j / n)
        ext = extend(f(np.arange(n)), BoundaryKind.PERIODIC, p)
        j_all = np.arange(-p, n + p)
        assert np.abs(ext - f(j_all)).max() <= 1e-12

    def test_reflective_even_across_boundary(self, rng):
        v = rng.standard_normal(9)
        full, p = extend(v, BoundaryKind.REFLECTIVE, 5), 5
        for j in range(1, 6):
            assert full[p - j] == full[p + j - 1]
            assert full[p + v.size - 1 + j] == full[p + v.size - j]

    def test_antireflective_odd_about_boundary_value(self, rng):
        v = rng.standard_normal(9)
        full, p = extend(v, BoundaryKind.ANTIREFLECTIVE, 5), 5
        for j in range(1, 6):
            # bit-exact against the defining formula; oddness itself holds to
            # the one rounding of the subtraction
            assert full[p - j] == 2.0 * v[0] - v[j]
            assert full[p - j] + full[p + j] == pytest.approx(2.0 * full[p], rel=1e-15, abs=1e-15)


class TestConstantErrorExtension:
    """The worst-case extension error error_propagation starts from: chi =
    max |s| on the p samples outside each boundary, zero inside."""

    def test_zero_pad(self, rng):
        # no samples outside the boundaries, so nothing to propagate
        s = np.array([-2.0, 1.0, 0.5] * 10)
        filt = random_doubled_filter(rng, s.size)
        for steps in (1, 5, 80):
            last, bound = error_propagation(s, filt, steps, 0)
            assert last.shape == bound.shape == s.shape
            assert not last.any() and not bound.any()

    def test_zero_signal(self, rng):
        # chi = 0 whatever the pad
        filt = random_doubled_filter(rng, 20)
        for p in (1, 3, 25):
            last, bound = error_propagation(np.zeros(20), filt, 3, p)
            assert not last.any() and not bound.any()
