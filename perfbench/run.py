"""The iterfilt benchmark: seeded CLI workloads, checked outputs, metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload sift-2k --seed 1 --seconds 44 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 44 --trace 1
    python3 perfbench/selftest.py        # tiny sizes, about a minute
    python3 perfbench/spec.py            # rewrite BENCHMARK.json from spec.py

The benchmark generates each workload's input signals from ``--seed`` and
hands the program only CSV files. One fresh worker process (``worker.py``)
drives ``iterfilt.cli.run(argv)`` in-process as a closed loop with a single
caller, in whole passes that fit in ``--seconds``; the BLAS thread count of
every process is pinned to one, so a run never uses more threads than cores.

With ``--trace 0`` the end-to-end metrics of ``spec.py`` are reported
(plus ``failed_frac`` on its own line). With ``--trace 1`` the worker
alternates untraced and traced passes, writes its spans to
``.perfbench_out/<workload>.spans.npz`` and the per-layer metrics are
derived from that file. Every output of every call is checked; a call
fails when it exits non-zero, when the first pass's output fails the
check, or when a later pass's output differs from the first pass's bytes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A record with the
provenance of the run goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import os

# pin native thread pools before numpy is imported here or in a child
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import io
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from functools import partial
from importlib import metadata
from pathlib import Path
from typing import Callable

import numpy as np

import spec
from tracing import read_spans, self_times, span_mask

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
WORKER = Path(__file__).resolve().parent / "worker.py"

SETUP_PROBES = 8
MIN_PASSES = 2
RUN_LIMIT_S = 170.0
MAX_IMFS = 16          # the CLI default
MAX_INNER = 1000       # the CLI default
DELTA = 1e-3           # the CLI default
KINDS = ("zero", "periodic", "reflective", "antireflective")
SWEEP_KINDS = ("periodic", "reflective", "antireflective")
SWEEP_HEADER = "endpoint,ub_rel,err_rel_periodic,err_rel_reflective,err_rel_antireflective,best_kind"


class BenchError(RuntimeError):
    """The benchmark could not measure (missing program, worker crash)."""


@dataclass(frozen=True)
class Call:
    argv: list[str]
    output: str
    check: Callable[[str], list[str]]   # output path -> problems found

    @property
    def files(self) -> list[str]:
        return [self.output, f"{self.output}.meta.json"]


# -- inputs -----------------------------------------------------------------


def chirp_signal(seed: int, n: int) -> np.ndarray:
    """Chirp (20 -> 100 cycles), tones of 12 and 1 cycles, linear trend and
    Gaussian noise of 10 % of the clean signal's standard deviation.

    The seed draws the noise only. Drawing the phases too made the work of a
    pass (multiply-adds) differ by up to 15 % between seeds, against 9 % for
    the noise alone, and the benchmark's spread is taken across seeds."""
    rng = np.random.default_rng([seed, 2048])
    x = np.linspace(0.0, 1.0, n)
    clean = (np.sin(2.0 * np.pi * (20.0 * x + 40.0 * x**2) + 0.3)
             + 0.5 * np.sin(2.0 * np.pi * 12.0 * x + 1.1)
             + 0.8 * np.sin(2.0 * np.pi * x + 2.0)
             + 1.5 * x - 0.5)
    return clean + 0.1 * clean.std() * rng.standard_normal(n)


def noise_trend_signal(seed: int, n: int) -> np.ndarray:
    """Unit Gaussian noise on a linear trend from -1 to 2."""
    rng = np.random.default_rng([seed, 200_000])
    return rng.standard_normal(n) + np.linspace(-1.0, 2.0, n)


def write_signal(path: Path, values: np.ndarray) -> str:
    # repr round-trips every float, so the program parses exactly `values`
    path.write_text("\n".join(map(repr, values.tolist())) + "\n", encoding="utf-8")
    return str(path)


# -- output checks ----------------------------------------------------------


def check_decomposition(path: str, signal: np.ndarray, max_imfs: int) -> list[str]:
    """Header imf_1..imf_M with M <= max_imfs, n finite rows whose sums
    rebuild the input within 1e-9 max|s|, and a sidecar listing M components."""
    try:
        text = Path(path).read_text(encoding="utf-8")
        meta = json.loads(Path(f"{path}.meta.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    header, _, body = text.partition("\n")
    names = header.split(",")
    m = len(names)
    problems = []
    if names != [f"imf_{j + 1}" for j in range(m)]:
        problems.append(f"bad header {header[:80]!r}")
    if m > max_imfs:
        problems.append(f"{m} components exceed max_imfs={max_imfs}")
    try:
        data = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    except ValueError as exc:
        return problems + [f"unparsable values: {exc}"]
    if data.shape != (signal.size, m):
        return problems + [f"shape {data.shape}, expected {(signal.size, m)}"]
    if not np.isfinite(data).all():
        problems.append("non-finite values")
    err = float(np.abs(data.sum(axis=1) - signal).max())
    if not err <= 1e-9 * float(np.abs(signal).max()):
        problems.append(f"reconstruction error {err:.3g}")
    if len(meta.get("imfs", [])) != m:
        problems.append(f"sidecar lists {len(meta.get('imfs', []))} components, CSV has {m}")
    return problems


def check_phasesweep(path: str, rows: int, dt: float = 0.05) -> list[str]:
    """`rows` finite rows of six columns at endpoints dt, 2 dt, ..., whose
    best_kind is the argmin of the three error columns."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        return [f"unreadable output: {exc}"]
    problems = []
    if not lines or lines[0] != SWEEP_HEADER:
        problems.append("bad header")
    if len(lines) - 1 != rows:
        problems.append(f"{len(lines) - 1} rows, expected {rows}")
    for r, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        try:
            if len(fields) != 6:
                raise ValueError(f"{len(fields)} columns")
            values = np.array(fields[:5], dtype=float)
            if not np.isfinite(values).all():
                raise ValueError("non-finite value")
            if abs(values[0] - (r - 1) * dt) > 1e-9:
                raise ValueError(f"endpoint {float(values[0])!r}, expected {(r - 1) * dt!r}")
            if fields[5] != SWEEP_KINDS[int(np.argmin(values[2:]))]:
                raise ValueError(f"best_kind {fields[5]!r} is not the argmin")
        except ValueError as exc:
            problems.append(f"line {r}: {exc}")
    return problems


# -- workloads --------------------------------------------------------------


def _decompose(inp: str, out: Path, flags: list[str], signal: np.ndarray,
               max_imfs: int = MAX_IMFS) -> Call:
    return Call(["decompose", *flags, inp, str(out)], str(out),
                partial(check_decomposition, signal=signal, max_imfs=max_imfs))


def sift_2k(seed: int, work: Path, tiny: bool) -> list[Call]:
    signal = chirp_signal(seed, 256 if tiny else 2048)
    inp = write_signal(work / "sift.csv", signal)
    calls = [_decompose(inp, work / f"dif-{k}.csv", ["--bc", k, "--mode", "dif"], signal)
             for k in KINDS]
    calls += [_decompose(inp, work / f"eif-{k}.csv", ["--bc", k, "--mode", "eif"], signal)
              for k in ("reflective", "antireflective")]
    return calls


def io_200k(seed: int, work: Path, tiny: bool) -> list[Call]:
    signal = noise_trend_signal(seed, 2000 if tiny else 200_000)
    inp = write_signal(work / "record.csv", signal)
    flags = ["--bc", "zero", "--mode", "dif", "--max-imfs", "3"]
    return [_decompose(inp, work / "record-imfs.csv", flags, signal, max_imfs=3)]


def sweep_small(seed: int, work: Path, tiny: bool) -> list[Call]:
    # default flags (dt 0.05, span 4.0: 80 supports); the seed is unused
    # because the sweep generates its own signal family
    out = work / "sweep.csv"
    argv = ["phasesweep", str(out)] + (["--span", "0.2"] if tiny else [])
    return [Call(argv, str(out), partial(check_phasesweep, rows=4 if tiny else 80))]


WORKLOADS = {"sift-2k": sift_2k, "io-200k": io_200k, "sweep-small": sweep_small}
assert list(WORKLOADS) == [w["name"] for w in spec.WORKLOADS]


# -- processes --------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(probes: int) -> list[float]:
    """Seconds from starting a fresh interpreter until iterfilt.cli is
    imported, once per probe. The clock is the system-wide monotonic one,
    read by this process before the start and by the child after the import."""
    code = "import iterfilt.cli, time; print(repr(time.monotonic()))"
    times = []
    for _ in range(probes):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"cannot import iterfilt.cli:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]) - t0)
    return times


def run_worker(calls: list[Call], work: Path, seconds: float, trace: bool,
               spans: Path, timeout: float) -> dict:
    ref = work / "ref"
    ref.mkdir()
    plan = {
        "calls": [c.argv for c in calls], "outputs": [c.files for c in calls],
        "seconds": seconds, "min_passes": MIN_PASSES, "trace": trace,
        "ref_dir": str(ref), "spans": str(spans), "result": str(work / "worker.json"),
    }
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    try:
        proc = subprocess.run([sys.executable, str(WORKER), str(plan_path)], env=child_env(),
                              cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker failed with code {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads((work / "worker.json").read_text(encoding="utf-8"))


# -- verdicts and metrics ---------------------------------------------------


def call_verdicts(calls: list[Call], ref: Path, passes: list[dict]) -> tuple[list[bool], list[str]]:
    """One failed flag per invocation made, pass by pass, and the problems.

    The first pass's outputs are checked in full. A later output is judged
    by its bytes: identical to the first pass's means the same verdict,
    different breaks the byte-determinism requirement."""
    problems = []
    ref_ok = []
    for j, call in enumerate(calls):
        found = call.check(str(ref / Path(call.output).name))
        problems += [f"{' '.join(call.argv[:5])}: {p}" for p in found]
        ref_ok.append(not found)
    first = passes[0]["hashes"]
    failed = []
    for p, rec in enumerate(passes):
        for j in range(len(calls)):
            bad = rec["rc"][j] != 0 or not ref_ok[j] or None in rec["hashes"][j]
            if p and rec["hashes"][j] != first[j]:
                bad = True
                problems.append(f"pass {p + 1} call {j + 1}: output differs from pass 1")
            if rec["rc"][j] != 0:
                problems.append(f"pass {p + 1} call {j + 1}: exit code {rec['rc'][j]}")
            failed.append(bad)
    return failed, problems


def sidecar_counts(calls: list[Call], ref: Path) -> dict[str, float]:
    """Sifted components, inner steps and cap hits over one pass, read from
    the first pass's .meta.json sidecars (the trend is not sifted)."""
    components = steps = caps = 0
    for call in calls:
        if call.argv[0] != "decompose":
            continue
        meta = json.loads((ref / f"{Path(call.output).name}.meta.json").read_text(encoding="utf-8"))
        for d in meta["imfs"]:
            if d["filter_length"] == 0:
                continue
            components += 1
            steps += d["inner_steps"]
            if d["inner_steps"] >= MAX_INNER and not (d["final_delta"] or 0.0) < DELTA:
                caps += 1
    return {
        "decompose.components": components,
        "decompose.inner_steps": steps,
        "decompose.cap_hits": caps,
        "decompose.cap_hit_ratio": caps / components if components else 0.0,
    }


# span name -> (time metric, call-count metric, work metric)
SPAN_METRICS = {
    "cli.run": ("cli.self_s", None, "cli.bytes_written"),
    "signal.load_signal": ("signal.load_signal_s", "signal.load_signal_calls", None),
    "signal.count_extrema": ("signal.count_extrema_s", "signal.count_extrema_calls", None),
    "filters.filter_length": ("filters.build_s", "filters.build_calls", None),
    "filters.sample_filter": ("filters.build_s", "filters.build_calls", None),
    "filters.convolve_self": ("filters.build_s", "filters.build_calls", None),
    "boundary.extend": ("boundary.extend_s", "boundary.extend_calls", None),
    "operators.apply": ("operators.apply_s", "operators.apply_calls", "operators.apply_mac"),
    "operators.eigenvalues": ("operators.eigenvalues_s", "operators.eigenvalues_calls", None),
    "operators.power_apply": ("operators.power_apply_s", "operators.power_apply_calls", None),
    "decompose.dif": ("decompose.self_s", None, None),
    "decompose.eif": ("decompose.self_s", None, None),
    "error_analysis.phase_sweep": ("error_analysis.phase_sweep_self_s", None, None),
    "error_analysis.propagate": ("error_analysis.propagate_s", None,
                                 "error_analysis.propagate_steps"),
}


def layer_metrics(spans: dict[str, np.ndarray], call_ids: list[int]) -> dict[str, float]:
    """Per-layer self times, call counts and work counts of one pass."""
    out = {m["name"]: 0 for m in spec.PER_LAYER if m["layer"] not in ("decompose", "trace")}
    out["decompose.self_s"] = 0.0
    selves = self_times(spans)
    mine = np.isin(spans["call"], call_ids)
    for name, (t_metric, n_metric, w_metric) in SPAN_METRICS.items():
        sel = mine & span_mask(spans, name)
        out[t_metric] += float(selves[sel].sum())
        if n_metric:
            out[n_metric] += int(sel.sum())
        if w_metric:
            out[w_metric] += int(spans["work"][sel].sum())
    return out


# -- provenance -------------------------------------------------------------


def _getconf(name: str):
    try:
        proc = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
        return int(proc.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None   # not a git checkout


def _version(dist: str):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def provenance(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    sources = sorted((SRC / "iterfilt").glob("*.py"))
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": _version("scipy"),
        "l2_bytes": _getconf("LEVEL2_CACHE_SIZE"), "l3_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "git_commit": _git_commit(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sources),
        "threads_pinned": {var: os.environ[var] for var in THREAD_VARS},
    }


# -- one workload -----------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, *, tiny: bool = False) -> dict:
    """Run one workload; return the result line plus details for the record."""
    started = time.monotonic()
    WORK.mkdir(exist_ok=True)
    OUT.mkdir(exist_ok=True)
    tag = f"{name}-tiny" if tiny else name
    work = WORK / f"{tag}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        calls = WORKLOADS[name](seed, work, tiny)
        # an untimed probe writes the bytecode cache (and proves the program
        # imports); the timed ones are split around the worker so they
        # sample two moments of the run
        measure_setup(1)
        probes = 0 if trace else SETUP_PROBES
        setup = measure_setup(probes // 2)
        spans_path = OUT / f"{tag}.spans.npz"
        budget = RUN_LIMIT_S - (time.monotonic() - started)
        result = run_worker(calls, work, seconds, trace, spans_path, budget)
        setup += measure_setup(probes - probes // 2)
        passes = result["passes"]
        failed, problems = call_verdicts(calls, work / "ref", passes)

        if trace:
            untraced = [p["seconds"] for p in passes if not p["traced"]]
            traced_passes = [p for p in passes if p["traced"]]
            spans = read_spans(spans_path)
            units = {m["name"]: m["unit"] for m in spec.PER_LAYER}
            per_pass = [layer_metrics(spans, p["calls"]) for p in traced_passes]
            values = {}
            for k in per_pass[0]:
                # counts repeat exactly between passes; median_low keeps them whole
                pick = statistics.median_low if units[k] == "count" else statistics.median
                values[k] = pick(d[k] for d in per_pass)
            values.update(sidecar_counts(calls, work / "ref"))
            traced_s = statistics.median(p["seconds"] for p in traced_passes)
            values["trace.overhead_frac"] = traced_s / statistics.median(untraced) - 1.0
        else:
            values = {
                "wall_s": statistics.median(p["seconds"] for p in passes),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": result["peak_rss_kib"] / 1024.0,
            }
            units = {m["name"]: m["unit"] for m in spec.END_TO_END}
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
        line = {"correct": not any(failed), "attempted": len(failed),
                "failed": sum(failed), "metrics": metrics}
        record = {
            "provenance": provenance(name, seed, seconds, trace),
            "result": line, "problems": problems,
            "passes": [{k: p[k] for k in ("traced", "seconds", "rc")} for p in passes],
            "setup_samples": setup,
        }
        (OUT / f"{tag}-seed{seed}-trace{int(trace)}.json").write_text(
            json.dumps(record, indent=2) + "\n", encoding="utf-8")
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(record: dict):
    """Print the provenance, each metric by name and unit, and the problems."""
    prov, line = record["provenance"], record["result"]
    name = prov["workload"]
    print("provenance " + json.dumps(prov, sort_keys=True))
    for problem in record["problems"][:20]:
        print(f"{name}: check failed: {problem}")
    n_untraced = sum(1 for p in record["passes"] if not p["traced"])
    for metric, m in line["metrics"].items():
        print(f"{name} {metric} = {m['value']:.6g} {m['unit']}")
    if not prov["trace"]:
        print(f"{name} failed_frac = {line['failed'] / line['attempted']:.6g} fraction "
              f"({line['failed']} of {line['attempted']} invocations; "
              f"wall_s is the median of {n_untraced} passes)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="iterfilt benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "iterfilt" / "cli.py").is_file():
        print(f"error: no iterfilt sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        records = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for record in records:
        report(record)
        print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
