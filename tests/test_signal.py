import operator
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from iterfilt import ParseError, count_extrema, load_signal, normalize, signal
from conftest import outputs_by_blas_threads
from oracles import whole_file_parse


def outcome(parse, path):
    """What ``parse`` makes of a file: its samples' bytes, or the type and
    message of its error."""
    try:
        return parse(path).tobytes()
    except ValueError as exc:
        return type(exc), str(exc)


# files parsed with a chunk boundary after every character
CHUNK_FILES = {
    "crlf": b"value\r\n1.5e-3\r\n-2E+1\r\n0.0\r\n",
    "header": "\ufeffvalue\n1.5\n2\n3\n".encode(),
    "trailing-blank-run": b"1\n2\n3\n\n  \n\t\n\n",
    "separators": "1\x1c2\n3\x854\u2028 5\n\x1c6\x1f\n7\n".encode(),
    "bad-row": b"x\n" + b"1\n" * 12 + b"abc\n2\n",
    "non-finite-row": b"1\n" * 12 + b"1e400\n2\n",
}
# tokens and line ends of the files the parse is checked on against the oracle
TOKENS = st.floats().map(repr) | st.sampled_from(
    ["value", "abc", "", " ", "\t7\t", "\x1f3", "3\x1f", "1e400", "-inf", "1_0", "\u0663"])
ENDS = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                        "\u2028", "\u2029"])
FILES = st.builds(lambda bom, rows, last: ("\ufeff" if bom else "") + "".join(rows) + last,
                  st.booleans(), st.lists(st.builds(operator.add, TOKENS, ENDS), max_size=30),
                  TOKENS | ENDS)


@pytest.fixture(scope="module")
def temp_csv(tmp_path_factory):
    return tmp_path_factory.mktemp("parse") / "s.csv"


class TestLoadSignal:
    def test_plain_numbers(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text("1.0\n2.0\n3.0\n")
        values = load_signal(f)
        assert type(values) is np.ndarray and values.dtype == np.float64
        assert np.array_equal(values, [1.0, 2.0, 3.0])

    def test_header_skipped(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text("value\n1.0\n2.0\n3.0\n")
        assert load_signal(f).size == 3

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
        assert np.array_equal(load_signal(f), [1.5, 2.0, 3.0, 4.0])

    def test_byte_order_mark_before_header(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text("\ufeffvalue\n1.5\n2\n3\n", encoding="utf-8")
        assert np.array_equal(load_signal(f), [1.5, 2.0, 3.0])

    def test_crlf_and_scientific_notation(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_bytes(b"1.5e-3\r\n-2E+1\r\n0.0\r\n")
        assert np.allclose(load_signal(f), [1.5e-3, -20.0, 0.0])


    def test_trailing_blank_lines_dropped(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text("1.0\n2.0\n3.0\n\n  \n")
        assert np.array_equal(load_signal(f), [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("text, message", [
        ("x\n1\ninf\n2\nabc\n", "row 3: non-finite value 'inf'"),
        ("x\n1\n2\nabc\nnan\n", "row 4: could not parse 'abc' as a number"),
        ("1\n2\n3\n\n4\n", "row 4: could not parse '' as a number"),
    ])
    def test_first_bad_row_reported(self, tmp_path, text, message):
        f = tmp_path / "s.csv"
        f.write_text(text)
        with pytest.raises(ParseError, match=rf"^{message}$"):
            load_signal(f)

    def test_separator_whitespace_stripped(self, tmp_path):
        # str.strip removes U+001F, which float() alone rejects
        f = tmp_path / "s.csv"
        f.write_text("1.5\x1f\n2\n\x1f3\n")
        assert np.array_equal(load_signal(f), [1.5, 2.0, 3.0])

    def test_chunks_list_the_lines_of_the_text(self, monkeypatch):
        # a chunk ends just after a "\n", never between "\r" and "\n"
        text = "a\r\nb\rc\n\nd\x1ce\x85f\u2028g\r\n\r\nh"
        for chunk in range(len(text) + 1):
            monkeypatch.setattr(signal, "_CHUNK", chunk)
            assert list(signal._lines(text)) == text.splitlines()

    @pytest.mark.parametrize("content", CHUNK_FILES.values(), ids=CHUNK_FILES)
    def test_chunk_boundaries(self, tmp_path, monkeypatch, content):
        f = tmp_path / "s.csv"
        f.write_bytes(content)
        expected = outcome(whole_file_parse, f)
        for chunk in range(len(content) + 1):
            monkeypatch.setattr(signal, "_CHUNK", chunk)
            assert outcome(load_signal, f) == expected

    def test_bad_row_past_the_first_chunk(self, tmp_path, monkeypatch):
        f = tmp_path / "s.csv"
        f.write_text("x\n" + "1\n" * 40 + "abc\n2\n")
        monkeypatch.setattr(signal, "_CHUNK", 8)
        with pytest.raises(ParseError, match=r"^row 42: could not parse 'abc' as a number$") as exc:
            load_signal(f)
        assert exc.value.row == 42


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(content=FILES, chunk=st.integers(0, 64))
def test_load_signal_matches_the_whole_file_parse(temp_csv, content, chunk):
    # values, exception types and messages, at any chunk size
    temp_csv.write_bytes(content.encode("utf-8"))
    with mock.patch.object(signal, "_CHUNK", chunk):
        assert outcome(load_signal, temp_csv) == outcome(whole_file_parse, temp_csv)


class TestNormalize:
    def test_three_four_five(self):
        out = normalize([3.0, 4.0, 0.0])
        assert np.allclose(out, [0.6, 0.8, 0.0], atol=1e-15)

    def test_unit_norm_within_tolerance(self, rng):
        out = normalize(rng.standard_normal(40))
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-12

    def test_idempotent(self, rng):
        once = normalize(rng.standard_normal(25))
        twice = normalize(once)
        assert np.abs(twice - once).max() <= 1e-12

    def test_zero_signal_rejected(self):
        with pytest.raises(ValueError):
            normalize([0.0, 0.0, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            normalize([1.0, bad, 2.0])

    def test_returns_a_float_array(self):
        out = normalize([3, 4, 0])
        assert type(out) is np.ndarray and out.dtype == np.float64

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e200, 1e-200, 5e-324], ids=["1e200", "1e-200", "subnormal"])
    def test_extreme_scales_give_the_unit_vector(self, scale):
        # the norm is taken at a power of two that brings max|s| into [0.5, 1):
        # unscaled, the squares of 1e200 overflow and those of 1e-200 vanish
        base = np.array([1.0, -3.0, 2.0])
        out = normalize(scale * base)
        assert np.abs(out - base / np.sqrt(14.0)).max() <= 1e-15

    def test_does_not_depend_on_blas_threads(self):
        # OpenBLAS splits dot products of more than 10,000 samples among its
        # threads; the norm is summed by numpy, so n = 20,000 rounds alike
        code = ("import hashlib; from conftest import bench_chirp; from iterfilt import normalize\n"
                "for seed in range(20):\n"
                "    unit = normalize(bench_chirp(seed, 20_000))\n"
                "    print(hashlib.sha1(unit.tobytes()).hexdigest())")
        outputs = outputs_by_blas_threads(code)
        assert outputs[0] == outputs[1] and len(outputs[0].split()) == 20


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
