"""Self-test of the benchmark at tiny sizes (about a minute).

Usage, from the repository root:

    python3 perfbench/selftest.py

Checks that BENCHMARK.json matches spec.py; that every workload, run at a
tiny size, emits every end-to-end metric (untraced) and every per-layer
metric (traced) with its unit and no failed call; that the self times of a
traced pass add up to its CLI call spans; that the checker counts a
deliberately corrupted output file, and an output that differs between
passes, as failed; and that the benchmark exits non-zero without a result
in a directory holding only BENCHMARK.json and the benchmark. The program
under test is never altered.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import spec
from tracing import read_spans, self_times, span_mask


def check(cond: bool, what: str):
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def check_spec():
    text = (run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8")
    check(json.loads(text) == spec.benchmark_json(), "BENCHMARK.json matches spec.py")


def check_metrics(name: str, trace: bool):
    record = run.run_workload(name, 1, 0.5, trace, tiny=True)
    line = record["result"]
    table = spec.PER_LAYER if trace else spec.END_TO_END
    want = {m["name"]: m["unit"] for m in table}
    got = {k: v["unit"] for k, v in line["metrics"].items()}
    label = f"{name} trace={int(trace)}"
    check(got == want, f"{label}: every metric emitted with its unit")
    check(line["correct"] and line["failed"] == 0 and line["attempted"] >= 2,
          f"{label}: {line['attempted']} calls, none failed")
    if trace:
        spans = read_spans(run.OUT / f"{name}-tiny.spans.npz")
        roots = span_mask(spans, "cli.run")
        total = float((spans["end"] - spans["start"])[roots].sum())
        check(abs(float(self_times(spans).sum()) - total) <= 1e-6 * max(total, 1.0),
              f"{label}: self times add up to the CLI call spans")
    else:
        check(all(v["value"] > 0 for v in line["metrics"].values()),
              f"{label}: end-to-end metrics are positive")


def corrupt_number(path: Path):
    """Replace the first value of the second data row with a wrong one."""
    lines = path.read_text(encoding="utf-8").splitlines()
    fields = lines[2].split(",")
    fields[0] = repr(float(fields[0]) + 1.0)
    lines[2] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def check_corruption(name: str):
    """Run two real passes, then corrupt the first pass's output and, apart,
    the second pass's digest: both must count as failed calls."""
    work = run.WORK / f"selftest-corrupt-{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        calls = run.WORKLOADS[name](1, work, True)
        result = run.run_worker(calls, work, 0.0, False, work / "spans.csv", 120.0)
        ref = work / "ref"
        failed, _ = run.call_verdicts(calls, ref, result["passes"])
        check(not any(failed), f"{name}: untouched outputs pass the check")

        passes = json.loads(json.dumps(result["passes"]))
        passes[1]["hashes"][0][0] = "0" * 64
        failed, _ = run.call_verdicts(calls, ref, passes)
        check(sum(failed) == 1, f"{name}: an output that differs between passes fails")

        corrupt_number(ref / Path(calls[0].output).name)
        failed, problems = run.call_verdicts(calls, ref, result["passes"])
        check(sum(failed) == len(result["passes"]),
              f"{name}: a corrupted output file fails every pass of its call ({problems[0]})")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_sweep_argmin():
    """A best_kind that is not the argmin of the error columns fails."""
    path = run.WORK / "selftest-sweep.csv"
    row = "0.050000000000000003,1.0,0.3,0.1,0.2,{}"
    path.write_text("\n".join([run.SWEEP_HEADER, row.format("reflective")]) + "\n")
    ok = not run.check_phasesweep(str(path), rows=1)
    path.write_text("\n".join([run.SWEEP_HEADER, row.format("periodic")]) + "\n")
    bad = bool(run.check_phasesweep(str(path), rows=1))
    path.unlink()
    check(ok and bad, "phasesweep: best_kind must be the argmin")


def check_bare_directory():
    """Only BENCHMARK.json and the benchmark's files: exit non-zero, no result."""
    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in Path(__file__).resolve().parent.iterdir():
            if path.is_file():
                shutil.copy(path, bare / "perfbench")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sift-2k", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        check(proc.returncode != 0 and '"correct"' not in proc.stdout,
              f"bare directory: exit code {proc.returncode}, no result printed")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    run.OUT.mkdir(exist_ok=True)
    check_spec()
    for name in run.WORKLOADS:
        check_metrics(name, trace=False)
        check_metrics(name, trace=True)
    for name in run.WORKLOADS:
        check_corruption(name)
    check_sweep_argmin()
    check_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
