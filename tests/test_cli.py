import argparse
import json
from dataclasses import fields

import numpy as np
import pytest

from iterfilt import BoundaryKind, StoppingConfig, cli, dif, load_signal
from iterfilt.cli import (_FLOAT, _add_filter_flags, _add_stopping_flags, _stopping_config,
                          _write_columns, build_parser, run)
from conftest import bench_chirp, outputs_by_blas_threads, sine_trend


@pytest.fixture
def signal_file(tmp_path):
    s, _ = sine_trend(200, 20)
    f = tmp_path / "input.csv"
    f.write_text("\n".join(f"{x:.17g}" for x in s) + "\n")
    return f


def read_table(path):
    lines = path.read_text().strip().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def cli_outputs_by_blas_threads(tmp_path, signal, argv):
    """The CSV and sidecar bytes that the command writes for ``signal`` in a
    fresh interpreter with OpenBLAS on 1 and on 2 threads."""
    inp = tmp_path / "input.csv"
    inp.write_text("\n".join(map(repr, signal.tolist())) + "\n")
    code = "import sys; from iterfilt.cli import run; sys.exit(run(sys.argv[1:]))"
    outputs_by_blas_threads(code, *argv, str(inp), "out.csv", cwd=tmp_path)
    return [[(tmp_path / threads / name).read_bytes() for name in ("out.csv", "out.csv.meta.json")]
            for threads in ("1", "2")]


class TestDecomposeCommand:
    def test_happy_path_writes_csv_and_meta(self, tmp_path, signal_file):
        out = tmp_path / "out.csv"
        code = run(["decompose", "--bc", "periodic", "--max-inner", "50",
                    "--max-imfs", "4", str(signal_file), str(out)])
        assert code == 0
        header, rows = read_table(out)
        assert header[0] == "imf_1" and len(rows) == 200
        meta = json.loads((tmp_path / "out.csv.meta.json").read_text())
        assert meta["config"]["bc"] == "periodic"
        assert meta["config"]["delta"] == 1e-3  # defaults echoed
        assert len(meta["imfs"]) == len(header)
        assert meta["imfs"][0]["inner_steps"] >= 1

    def test_reconstruction_from_csv(self, tmp_path, signal_file):
        out = tmp_path / "out.csv"
        assert run(["decompose", "--max-inner", "50", "--max-imfs", "4",
                    str(signal_file), str(out)]) == 0
        _, rows = read_table(out)
        total = np.array([[float(x) for x in row] for row in rows]).sum(axis=1)
        original = np.array([float(x) for x in signal_file.read_text().split()])
        assert np.abs(total - original).max() <= 1e-10

    def test_eif_mode_with_pad(self, tmp_path, signal_file):
        out = tmp_path / "out.csv"
        code = run(["decompose", "--mode", "eif", "--bc", "reflective", "--pad", "10",
                    "--max-inner", "30", "--max-imfs", "3", str(signal_file), str(out)])
        assert code == 0
        meta = json.loads((tmp_path / "out.csv.meta.json").read_text())
        assert meta["config"]["pad"] == 10 and meta["config"]["mode"] == "eif"

    def test_deterministic_output(self, tmp_path, signal_file):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["decompose", "--max-inner", "40", "--max-imfs", "4"]
        assert run([*args, str(signal_file), str(out1)]) == 0
        assert run([*args, str(signal_file), str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_unknown_bc_usage_error(self, tmp_path, signal_file):
        assert run(["decompose", "--bc", "nonsense", str(signal_file), str(tmp_path / "o.csv")]) == 2

    def test_pad_requires_eif(self, tmp_path, signal_file):
        assert run(["decompose", "--pad", "4", str(signal_file), str(tmp_path / "o.csv")]) == 2

    def test_missing_input(self, tmp_path):
        assert run(["decompose", str(tmp_path / "absent.csv"), str(tmp_path / "o.csv")]) == 3

    def test_malformed_input(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0\noops\n2.0\n")
        assert run(["decompose", str(bad), str(tmp_path / "o.csv")]) == 3

    def test_zero_signal_normalize_domain_error(self, tmp_path):
        zeros = tmp_path / "z.csv"
        zeros.write_text("0.0\n0.0\n0.0\n0.0\n")
        assert run(["decompose", "--normalize", str(zeros), str(tmp_path / "o.csv")]) == 4

    @pytest.mark.filterwarnings("error")
    def test_normalize_extreme_scale(self, tmp_path):
        # unscaled, the norm of these samples overflows to inf and the
        # normalized signal reads all zero
        inp, out = tmp_path / "big.csv", tmp_path / "out.csv"
        inp.write_text("1e200\n-3e200\n2e200\n")
        assert run(["decompose", "--normalize", str(inp), str(out)]) == 0
        header, rows = read_table(out)
        assert header == ["imf_1"]
        expected = np.array([1.0, -3.0, 2.0]) / np.sqrt(14.0)
        assert np.abs(np.array(rows, dtype=float)[:, 0] - expected).max() <= 1e-15

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bc", ["periodic", "reflective", "antireflective"])
    def test_component_past_the_float_range_domain_error(self, tmp_path, bc, capsys):
        # a first component of these finite samples exceeds the largest
        # float: no float64 CSV can hold it, so nothing is written
        big = float(np.finfo(float).max)
        inp, out = tmp_path / "big.csv", tmp_path / "out.csv"
        inp.write_text("\n".join(repr(x) for x in [big, -big] * 5 + [big]) + "\n")
        assert run(["decompose", "--bc", bc, str(inp), str(out)]) == 4
        assert "component 1 exceeds the largest float" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "out.csv.meta.json").exists()

    def test_sidecar_contract(self, tmp_path, signal_file):
        out = tmp_path / "out.csv"
        assert run(["decompose", "--mode", "eif", "--max-inner", "30", "--max-imfs", "4",
                    str(signal_file), str(out)]) == 0
        meta = json.loads((tmp_path / "out.csv.meta.json").read_text())
        assert all(set(d) == {"imf", "inner_steps", "filter_length", "final_delta"}
                   for d in meta["imfs"])
        assert meta["imfs"][-1]["filter_length"] == 0  # the trend entry
        assert {"bc", "mode", "pad", "normalize"} <= set(meta["config"])

    @pytest.mark.parametrize("bc", ["zero", "periodic", "reflective", "antireflective"])
    def test_short_signal_is_its_trend(self, tmp_path, bc):
        short = tmp_path / "short.csv"
        short.write_text("0\n1\n0\n1\n")
        out = tmp_path / "o.csv"
        assert run(["decompose", "--mode", "dif", "--bc", bc, str(short), str(out)]) == 0
        header, rows = read_table(out)
        assert header == ["imf_1"] and [float(r[0]) for r in rows] == [0.0, 1.0, 0.0, 1.0]


    @pytest.mark.parametrize("bc", ["zero", "periodic", "reflective", "antireflective"])
    def test_short_signal_eif_default_pad(self, tmp_path, bc):
        # no admissible filter length, so no first filter to size the pad
        short = tmp_path / "short.csv"
        short.write_text("0\n1\n0\n1\n")
        out = tmp_path / "o.csv"
        assert run(["decompose", "--mode", "eif", "--bc", bc, str(short), str(out)]) == 0
        header, rows = read_table(out)
        assert header == ["imf_1"] and [float(r[0]) for r in rows] == [0.0, 1.0, 0.0, 1.0]
        assert json.loads((tmp_path / "o.csv.meta.json").read_text())["config"]["pad"] == 0

    def test_csv_bytes_match_per_float_formatting(self, tmp_path):
        # more entries than one formatting block, with extreme and signed zeros
        special = [1e300, -1e300, -0.0, 0.0, 5e-324, -2.5e-310, 1.0 / 3.0, 0.1, -123456789.125]
        rng = np.random.default_rng(3)
        imfs = [rng.choice(special, 7001), rng.choice(special, 7001),
                rng.choice(special, 7001) * rng.standard_normal(7001)]
        out = tmp_path / "d.csv"
        _write_columns(str(out), "imf_1,imf_2,imf_3", imfs, [_FLOAT] * 3)
        rows = [",".join(f"{x:.17g}" for x in row) for row in np.column_stack(imfs)]
        expected = "\n".join(["imf_1,imf_2,imf_3", *rows]) + "\n"
        assert out.read_bytes() == expected.encode("utf-8")
        tokens = set(expected.replace("\n", ",").split(","))
        assert {"-0", "0", "4.9406564584124654e-324", "-1.0000000000000001e+300"} <= tokens

    def test_zero_kind_outputs_do_not_depend_on_blas_threads(self, tmp_path):
        # the zero kind's long sifts solve tridiagonal eigenproblems, whose
        # eigenvectors OpenBLAS rounds by its thread count at some sizes;
        # the written components and changes must not, on either kernel
        for n, flags in ((300, ["--delta", "1e-6"]), (700, ["--delta", "1e-6"]), (2048, [])):
            where = tmp_path / str(n)
            where.mkdir()
            outputs = cli_outputs_by_blas_threads(where, bench_chirp(7, n),
                                                  ["decompose", "--bc", "zero", *flags])
            assert outputs[0] == outputs[1], n

    def test_zero_kind_loop_norms_do_not_depend_on_blas_threads(self, tmp_path):
        # OpenBLAS splits dot products of more than 10,000 samples among its
        # threads; the loop's norms, and so each final_delta, are summed by
        # numpy, so n = 20,000 writes the same sidecar
        outputs = cli_outputs_by_blas_threads(tmp_path, bench_chirp(7, 20_000),
                                              ["decompose", "--bc", "zero", "--max-imfs", "4"])
        assert outputs[0] == outputs[1]


class TestSpectrumCommand:
    def test_periodic_spectrum(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert run(["spectrum", "--bc", "periodic", "--n", "16", "--length", "3", str(out)]) == 0
        header, rows = read_table(out)
        assert header == ["index", "value"]
        assert len(rows) == 16
        values = [float(r[1]) for r in rows]
        assert values[0] == pytest.approx(1.0, abs=1e-12)
        assert values == sorted(values, reverse=True)

    def test_zero_kind_falls_back_to_dense(self, tmp_path, capsys):
        out = tmp_path / "spec.csv"
        assert run(["spectrum", "--bc", "zero", "--n", "12", "--length", "2", str(out)]) == 0
        assert "dense" in capsys.readouterr().err
        _, rows = read_table(out)
        assert len(rows) == 12

    def test_inadmissible_length_domain_error(self, tmp_path):
        assert run(["spectrum", "--bc", "periodic", "--n", "8", "--length", "4",
                    str(tmp_path / "s.csv")]) == 4

    def test_zero_kind_size_guard(self, tmp_path, capsys, monkeypatch):
        solves = []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **k: solves.append(a))
        out = tmp_path / "s.csv"
        assert run(["spectrum", "--bc", "zero", "--n", "4097", "--length", "2", str(out)]) == 4
        assert "limited to n <= 4096" in capsys.readouterr().err
        assert solves == [] and not out.exists()

    @pytest.mark.parametrize("bc", ["periodic", "reflective", "antireflective"])
    def test_double_filter_keeps_the_spectrum_in_unit_interval(self, tmp_path, bc):
        # the paper's reason for doubling: the plain filter's spectrum
        # reaches below zero, the self-convolved one's lies in [0, 1]
        lowest = {}
        for double in ("on", "off"):
            out = tmp_path / f"{double}.csv"
            assert run(["spectrum", "--bc", bc, "--n", "64", "--length", "7",
                        "--double-filter", double, str(out)]) == 0
            values = np.array([float(r[1]) for r in read_table(out)[1]])
            assert values.max() <= 1.0 + 1e-12
            lowest[double] = values.min()
        assert lowest["on"] >= -1e-12
        assert lowest["off"] < 0.0

    def test_xi_is_not_a_spectrum_flag(self, tmp_path):
        # spectrum takes --length itself; --xi was parsed and never read
        out = tmp_path / "s.csv"
        assert run(["spectrum", "--bc", "periodic", "--n", "16", "--length", "3",
                    "--xi", "nan", str(out)]) == 2
        assert not out.exists()


class TestErrorboundCommand:
    def test_explicit_steps(self, tmp_path, signal_file):
        out = tmp_path / "eb.csv"
        assert run(["errorbound", "--pad", "8", "--steps", "3",
                    str(signal_file), str(out)]) == 0
        header, rows = read_table(out)
        assert header == ["x_index", "err_k", "ub_k"]
        assert len(rows) == 200
        ub = np.array([float(r[2]) for r in rows])
        err = np.array([float(r[1]) for r in rows])
        assert np.all(ub >= np.abs(err) - 1e-15)  # bound includes the last step

    def test_default_steps_from_decomposition(self, tmp_path, signal_file):
        out = tmp_path / "eb.csv"
        assert run(["errorbound", "--bc", "reflective", "--max-inner", "25",
                    str(signal_file), str(out)]) == 0
        meta = json.loads((tmp_path / "eb.csv.meta.json").read_text())
        assert 1 <= meta["config"]["steps"] <= 25
        assert meta["config"]["pad"] >= 2
        assert meta["config"]["chi"] == np.abs(load_signal(signal_file)).max()

    @pytest.mark.parametrize("bc", ["zero", "periodic", "reflective", "antireflective"])
    @pytest.mark.parametrize("double", ["on", "off"])
    def test_default_steps_match_first_component(self, tmp_path, signal_file, bc, double):
        # the sift always doubles the filter: --double-filter is gone, with
        # either of its old values, and the steps are the doubled filter's
        out = tmp_path / "eb.csv"
        argv = ["errorbound", "--bc", bc, "--max-inner", "200", str(signal_file), str(out)]
        assert run([*argv, "--double-filter", double]) == 2
        assert not out.exists()
        assert run(argv) == 0
        steps = json.loads((tmp_path / "eb.csv.meta.json").read_text())["config"]["steps"]
        cfg = StoppingConfig(max_inner=200)
        reference = dif(load_signal(signal_file), kind=BoundaryKind(bc), cfg=cfg)
        assert steps == max(reference.diagnostics[0].inner_steps, 1)

    @pytest.mark.parametrize("bc", ["zero", "periodic", "reflective", "antireflective"])
    def test_short_signal_domain_error(self, tmp_path, bc, capsys):
        # unlike decompose, there is no filter whose error could propagate
        short = tmp_path / "short.csv"
        short.write_text("0\n1\n0\n1\n")
        assert run(["errorbound", "--bc", bc, str(short), str(tmp_path / "o.csv")]) == 4
        assert "no admissible doubled filter length for n=4" in capsys.readouterr().err

    @pytest.mark.parametrize("steps", ["0", "-3"])
    def test_steps_below_one_rejected(self, tmp_path, signal_file, steps, capsys):
        out = tmp_path / "eb.csv"
        assert run(["errorbound", "--steps", steps, str(signal_file), str(out)]) == 4
        assert "steps must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_flat_signal_domain_error(self, tmp_path):
        flat = tmp_path / "flat.csv"
        flat.write_text("1.0\n1.0\n1.0\n1.0\n")
        assert run(["errorbound", str(flat), str(tmp_path / "o.csv")]) == 4

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("pad", ["8", "400"], ids=["dense", "irfft"])
    def test_extreme_finite_input_stays_finite(self, tmp_path, pad):
        # the DFT of the outside chi = 1.7e308 would sum p copies of it; the
        # propagation runs on chi scaled by a power of two and scales back
        inp, out = tmp_path / "big.csv", tmp_path / "eb.csv"
        inp.write_text("1.5e308\n0\n1\n-1\n2\n0.5\n-1.7e308\n0.3\n-0.2\n0.9\n")
        assert run(["errorbound", "--pad", pad, str(inp), str(out)]) == 0
        _, rows = read_table(out)
        assert np.isfinite(np.array(rows, dtype=float)).all()

    def test_dense_propagation_does_not_depend_on_blas_threads(self, tmp_path):
        # n = 300 with pad 16: N = 332, below 640 the dense core basis, whose
        # width is rounded up to 32 columns so the product rounds the same
        # with 1 and 2 threads
        outputs = cli_outputs_by_blas_threads(tmp_path, bench_chirp(11, 300),
                                              ["errorbound", "--pad", "16", "--steps", "700"])
        assert outputs[0] == outputs[1]

    def test_irfft_propagation_does_not_depend_on_blas_threads(self, tmp_path):
        # n = 600 with pad 24: N = 648, from 640 on the batched irfft, whose
        # rounding is the same with 1 and 2 threads (the dense basis's is not)
        outputs = cli_outputs_by_blas_threads(
            tmp_path, bench_chirp(7, 600), ["errorbound", "--bc", "reflective", "--steps", "500"])
        assert b'"pad": 24' in outputs[0][1]
        assert outputs[0] == outputs[1]



class TestPhasesweepCommand:
    def test_small_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run(["phasesweep", "--dt", "0.05", "--span", "1.0", "--base", "-6.0",
                    "--delta", "1e-12", "--max-inner", "5", "--xi", "1.9", str(out)])
        assert code == 0
        header, rows = read_table(out)
        assert header == ["endpoint", "ub_rel", "err_rel_periodic",
                          "err_rel_reflective", "err_rel_antireflective", "best_kind"]
        assert len(rows) == 20
        assert all(r[5] in ("periodic", "reflective", "antireflective") for r in rows)

    def test_period_too_short_for_the_support(self, tmp_path, capsys):
        # the sine's phase would overflow: a domain error naming the period
        # and no CSV; a period of 1e-300 still sweeps to finite errors
        out = tmp_path / "sweep.csv"
        assert run(["phasesweep", "--span", "0.1", "--period", "1e-307", str(out)]) == 4
        assert capsys.readouterr().err.startswith("error: period 1e-307 is too short")
        assert not out.exists()
        assert run(["phasesweep", "--span", "0.1", "--period", "1e-300", str(out)]) == 0
        _, rows = read_table(out)
        assert all(np.isfinite(float(x)) for row in rows for x in row[:5])

    def test_deterministic(self, tmp_path):
        args = ["phasesweep", "--dt", "0.1", "--span", "0.5", "--max-inner", "4"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run([*args, str(out1)]) == 0
        assert run([*args, str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


# the stopping and filter flags of errorbound and phasesweep; decompose
# also takes max_imfs
STOPPING_KEYS = {"delta", "max_inner", "xi", "shape"}


class TestSidecarConfig:
    """Each command echoes exactly its parsed flags, with the values it
    fills in itself (pad, steps) resolved, plus errorbound's chi."""

    @pytest.mark.parametrize("argv,keys", [
        (["decompose", "--max-inner", "20", "IN"],
         {"command", "input", "output", "bc", "mode", "pad", "normalize", "max_imfs"}
         | STOPPING_KEYS),
        (["spectrum", "--bc", "zero", "--n", "16", "--length", "2"],
         {"command", "output", "bc", "n", "length", "shape", "double_filter"}),
        (["errorbound", "--max-inner", "20", "IN"],
         {"command", "input", "output", "bc", "pad", "steps", "chi"} | STOPPING_KEYS),
        (["phasesweep", "--span", "0.1", "--max-inner", "5"],
         {"command", "output", "dt", "span", "period", "amplitude", "trend", "base",
          "phase"} | STOPPING_KEYS),
    ], ids=["decompose", "spectrum", "errorbound", "phasesweep"])
    def test_config_keys(self, tmp_path, signal_file, argv, keys):
        out = tmp_path / "out.csv"
        argv = [str(signal_file) if a == "IN" else a for a in argv]
        assert run([*argv, str(out)]) == 0
        config = json.loads((tmp_path / "out.csv.meta.json").read_text())["config"]
        assert set(config) == keys
        assert config["command"] == argv[0] and config["output"] == str(out)
        assert all(config[k] is not None for k in ("pad", "steps") if k in config)


class TestTopLevel:
    def test_version(self, capsys):
        assert run(["--version"]) == 0
        assert "iterfilt" in capsys.readouterr().out

    def test_no_command_usage_error(self):
        assert run([]) == 2

    def test_unknown_flag(self, tmp_path, signal_file):
        assert run(["decompose", "--frobnicate", str(signal_file), str(tmp_path / "o.csv")]) == 2

    def test_unexpected_exception_exits_one(self, tmp_path, capsys, monkeypatch):
        # an error none of the domain or I/O rules names is reported, not raised
        def broken(args):
            raise RuntimeError("no such state")

        monkeypatch.setitem(cli._COMMANDS, "spectrum", broken)
        argv = ["spectrum", "--bc", "periodic", "--n", "8", "--length", "1"]
        assert run([*argv, str(tmp_path / "a.csv")]) == 1
        assert capsys.readouterr().err == "internal error: no such state\n"


class TestNumericFlags:
    # each non-finite numeric flag, or phasesweep's amplitude + |trend|, is
    # a domain error naming its fields, and no CSV is written
    @pytest.mark.parametrize("argv,field", [
        (["decompose", "--delta", "nan", "IN"], "delta"),
        (["decompose", "--xi", "inf", "IN"], "xi"),
        (["decompose", "--xi", "nan", "IN"], "xi"),
        (["phasesweep", "--span", "inf"], "span"),
        (["phasesweep", "--dt", "nan"], "dt"),
        (["phasesweep", "--period", "nan"], "period"),
        (["phasesweep", "--amplitude", "1.7e308", "--trend", "1.7e308"], "amplitude + |trend|"),
    ], ids=["delta-nan", "xi-inf", "xi-nan", "span-inf", "dt-nan", "period-nan",
            "amplitude-plus-trend-past-max"])
    def test_non_finite_flag_rejected(self, tmp_path, signal_file, capsys, argv, field):
        out = tmp_path / "out.csv"
        argv = [str(signal_file) if a == "IN" else a for a in argv]
        assert run([*argv, str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field} must be finite")
        assert not out.exists()

    def test_stopping_defaults_are_the_library_defaults(self):
        args = build_parser().parse_args(["decompose", "a", "b"])
        assert _stopping_config(args) == StoppingConfig()

    def test_run_builds_its_parser_once(self, tmp_path, monkeypatch):
        argv = ["spectrum", "--bc", "periodic", "--n", "8", "--length", "1"]
        assert run([*argv, str(tmp_path / "a.csv")]) == 0

        def rebuilt():
            raise AssertionError("the parser was built again")

        monkeypatch.setattr(cli, "build_parser", rebuilt)
        assert run([*argv, str(tmp_path / "b.csv")]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestFlags:
    """Every stopping knob has one flag with the library's default on each
    sifting command that reads it, and no command parses a knob it does not
    read: only decompose emits more than one component, so only it takes
    --max-imfs."""

    FIELDS = {f.name: f.default for f in fields(StoppingConfig)}
    ONE_COMPONENT = {f.name: f.default for f in fields(StoppingConfig) if f.name != "max_imfs"}

    def test_knob_flags_are_the_config_fields(self):
        p = argparse.ArgumentParser()
        _add_stopping_flags(p)
        _add_filter_flags(p)
        assert vars(p.parse_args([])).keys() == self.FIELDS.keys() | {"shape"}

    @pytest.mark.parametrize("argv", [["decompose", "IN", "OUT"], ["errorbound", "IN", "OUT"],
                                      ["phasesweep", "OUT"]], ids=lambda a: a[0])
    def test_sifting_commands_parse_every_field(self, argv):
        args = build_parser().parse_args(argv)
        fields_read = self.FIELDS if argv[0] == "decompose" else self.ONE_COMPONENT
        assert {name: v for name, v in vars(args).items() if name in self.FIELDS} == fields_read
        assert _stopping_config(args) == StoppingConfig()

    @pytest.mark.parametrize("argv", [["errorbound", "IN"], ["phasesweep"]], ids=lambda a: a[0])
    def test_max_imfs_is_a_decompose_flag(self, tmp_path, signal_file, argv):
        out = tmp_path / "out.csv"
        argv = [str(signal_file) if a == "IN" else a for a in argv]
        assert run([*argv, "--max-imfs", "3", str(out)]) == 2
        assert not out.exists()

    def test_spectrum_parses_no_field(self):
        parsed = vars(build_parser().parse_args(
            ["spectrum", "--bc", "zero", "--n", "8", "--length", "1", "OUT"]))
        assert parsed.keys() & self.FIELDS.keys() == set()

    @pytest.mark.parametrize("argv", [["decompose", "IN"], ["errorbound", "IN"], ["phasesweep"]],
                             ids=lambda a: a[0])
    def test_double_filter_is_a_spectrum_flag(self, tmp_path, signal_file, argv):
        out = tmp_path / "out.csv"
        argv = [str(signal_file) if a == "IN" else a for a in argv]
        assert run([*argv, "--double-filter", "off", str(out)]) == 2
        assert not out.exists()
