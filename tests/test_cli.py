import json

import numpy as np
import pytest

from iterfilt import BoundaryKind, StoppingConfig, dif, load_signal
from iterfilt.cli import run
from conftest import sine_trend


@pytest.fixture
def signal_file(tmp_path):
    s, _ = sine_trend(200, 20)
    f = tmp_path / "input.csv"
    f.write_text("\n".join(f"{x:.17g}" for x in s) + "\n")
    return f


def read_table(path):
    lines = path.read_text().strip().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


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

    @pytest.mark.parametrize("bc", ["zero", "periodic", "reflective", "antireflective"])
    @pytest.mark.parametrize("double", ["on", "off"])
    def test_default_steps_match_first_component(self, tmp_path, signal_file, bc, double):
        out = tmp_path / "eb.csv"
        assert run(["errorbound", "--bc", bc, "--double-filter", double, "--max-inner", "200",
                    str(signal_file), str(out)]) == 0
        steps = json.loads((tmp_path / "eb.csv.meta.json").read_text())["config"]["steps"]
        cfg = StoppingConfig(max_inner=200, double_filter=double == "on")
        reference = dif(load_signal(signal_file), kind=BoundaryKind(bc), cfg=cfg)
        assert steps == max(reference.diagnostics[0].inner_steps, 1)

    def test_flat_signal_domain_error(self, tmp_path):
        flat = tmp_path / "flat.csv"
        flat.write_text("1.0\n1.0\n1.0\n1.0\n")
        assert run(["errorbound", str(flat), str(tmp_path / "o.csv")]) == 4


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

    def test_deterministic(self, tmp_path):
        args = ["phasesweep", "--dt", "0.1", "--span", "0.5", "--max-inner", "4"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run([*args, str(out1)]) == 0
        assert run([*args, str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestTopLevel:
    def test_version(self, capsys):
        assert run(["--version"]) == 0
        assert "iterfilt" in capsys.readouterr().out

    def test_no_command_usage_error(self):
        assert run([]) == 2

    def test_unknown_flag(self, tmp_path, signal_file):
        assert run(["decompose", "--frobnicate", str(signal_file), str(tmp_path / "o.csv")]) == 2
