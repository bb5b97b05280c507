import warnings

import numpy as np
import pytest

from iterfilt import ParseError, Signal, count_extrema, load_signal, normalize


class TestLoadSignal:
    def test_plain_numbers(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text("1.0\n2.0\n3.0\n")
        assert np.array_equal(load_signal(f).values, [1.0, 2.0, 3.0])

    def test_header_skipped(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text("value\n1.0\n2.0\n3.0\n")
        assert load_signal(f).n == 3

    def test_malformed_row_reports_position(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text("1.0\nabc\n3.0\n")
        with pytest.raises(ParseError, match="row 2"):
            load_signal(f)

    def test_too_short(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text("1.0\n2.0\n")
        with pytest.raises(ParseError, match="at least 3"):
            load_signal(f)

    def test_non_finite_rejected(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text("1.0\ninf\n3.0\n")
        with pytest.raises(ParseError, match="row 2"):
            load_signal(f)

    @pytest.mark.parametrize("token", ["nan", "-inf", "Infinity", "1e400"])
    def test_non_finite_message(self, tmp_path, token):
        f = tmp_path / "s.csv"
        f.write_text(f"x\n1.0\n2.0\n{token}\n")
        with pytest.raises(ParseError, match=rf"^row 4: non-finite value '{token}'$") as exc:
            load_signal(f)
        assert exc.value.row == 4

    def test_byte_order_mark_before_number(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text("\ufeff1.5\n2\n3\n4\n", encoding="utf-8")
        assert np.array_equal(load_signal(f).values, [1.5, 2.0, 3.0, 4.0])

    def test_byte_order_mark_before_header(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text("\ufeffvalue\n1.5\n2\n3\n", encoding="utf-8")
        assert np.array_equal(load_signal(f).values, [1.5, 2.0, 3.0])

    def test_crlf_and_scientific_notation(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_bytes(b"1.5e-3\r\n-2E+1\r\n0.0\r\n")
        assert np.allclose(load_signal(f).values, [1.5e-3, -20.0, 0.0])


class TestSignal:
    def test_minimum_length(self):
        with pytest.raises(ValueError):
            Signal(np.array([1.0, 2.0]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Signal(np.array([1.0, np.nan, 2.0]))

    def test_values_immutable(self):
        s = Signal(np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError):
            s.values[0] = 9.0


class TestNormalize:
    def test_three_four_five(self):
        out = normalize([3.0, 4.0, 0.0])
        assert np.allclose(out.values, [0.6, 0.8, 0.0], atol=1e-15)

    def test_unit_norm_within_tolerance(self, rng):
        out = normalize(rng.standard_normal(40))
        assert abs(np.linalg.norm(out.values) - 1.0) <= 1e-12

    def test_idempotent(self, rng):
        once = normalize(rng.standard_normal(25))
        twice = normalize(once)
        assert np.abs(twice.values - once.values).max() <= 1e-12

    def test_zero_signal_rejected(self):
        with pytest.raises(ValueError):
            normalize([0.0, 0.0, 0.0])


class TestCountExtrema:
    def test_single_peak(self):
        assert count_extrema([0.0, 1.0, 0.0]) == 1

    def test_monotone_ramp(self):
        assert count_extrema([0.0, 1.0, 2.0, 3.0]) == 0

    def test_zigzag(self):
        assert count_extrema([0.0, 1.0, 0.0, 1.0, 0.0]) == 3

    def test_brute_force_oracle(self, rng):
        # tie-free samples; each strict interior triple is one extremum
        for _ in range(20):
            v = rng.permutation(np.arange(50, dtype=float))
            expected = sum(
                1
                for i in range(1, 49)
                if (v[i] > v[i - 1] and v[i] > v[i + 1]) or (v[i] < v[i - 1] and v[i] < v[i + 1])
            )
            assert count_extrema(v) == expected

    def test_plateau_counts_once(self):
        assert count_extrema([0.0, 1.0, 1.0, 1.0, 0.0]) == 1
        assert count_extrema([1.0, 0.0, 0.0, 2.0]) == 1

    def test_endpoint_plateau_not_extremum(self):
        assert count_extrema([1.0, 1.0, 0.0, 1.0]) == 1
        assert count_extrema([2.0, 2.0, 1.0, 1.0]) == 0

    def test_shoulder_not_extremum(self):
        assert count_extrema([0.0, 1.0, 1.0, 2.0]) == 0

    def test_shift_and_scale_invariance(self, rng):
        v = rng.standard_normal(60)
        base = count_extrema(v)
        assert count_extrema(v + 7.25) == base
        assert count_extrema(3.5 * v) == base

    def test_extreme_neighbours_raise_no_warning(self):
        # neighbours are compared, not subtracted: 1e308 - (-1e308) overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert count_extrema([1e308, -1e308] * 5) == 8
            assert count_extrema([1.5e308, 0.0, 1.0, -1.0, 2.0, 0.5, -1.7e308]) == 4

    def test_reversal_invariance(self, rng):
        v = rng.standard_normal(60)
        assert count_extrema(v[::-1]) == count_extrema(v)
