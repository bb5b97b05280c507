"""What the benchmark measures: workloads, metrics, bounds and layers.

This table is the single source of ``BENCHMARK.json``. The file keeps only
the keys its format allows; the layer of each per-layer metric and the
end-to-end metric and workloads it is expected to move are recorded here,
so later performance changes can name them. Run this file to rewrite
``BENCHMARK.json`` from the table:

    python3 perfbench/spec.py
"""

from __future__ import annotations

import json
from pathlib import Path

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 44

WORKLOADS = [
    {"name": "sift-2k",
     "why": "six decompose calls (dif x4 kinds, eif x2) on one n=2048 chirp+tones+trend+noise "
            "signal: ~58k operator applications, half the sifts hit the step cap; apply is ~85%"},
    {"name": "io-200k",
     "why": "one zero-rule dif, max 3 components, on n=200,000 noise+trend: CSV parse and write "
            "are ~40% of a pass, filters stay short; I/O changes move it, spectral sifting must not"},
    {"name": "sweep-small",
     "why": "phasesweep with default flags: 240 sifts on 162-241 samples, ~212k tiny operator "
            "applications; fixed per-call cost (extend, set-up) and error_analysis dominate"},
]

# failed_frac is printed per workload but is not listed here: it is 0 on
# working code, and a bound relative to a zero median means nothing. The
# result line carries it as ``failed`` / ``attempted``.
END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25,
     "what": "median wall time of one pass, tracing off, CSV parse and write included"},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25,
     "what": "median time from a fresh interpreter until iterfilt.cli is imported"},
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.1,
     "what": "peak resident memory of a fresh process after its first pass"},
]

_IO = ["io-200k"]
_SIFT = ["sift-2k", "sweep-small"]
_SWEEP = ["sweep-small"]

# (name, unit, layer, moves, workloads). Every time is a self time: the
# span's duration minus the time covered by its child spans, per pass.
_LAYER_ROWS = [
    ("cli.self_s", "s", "cli", "wall_s", _IO),
    ("cli.bytes_written", "count", "cli", "wall_s", _IO),
    ("signal.load_signal_s", "s", "signal", "wall_s", _IO),
    ("signal.load_signal_calls", "count", "signal", "wall_s", _IO),
    ("signal.count_extrema_s", "s", "signal", "wall_s", _IO),
    ("signal.count_extrema_calls", "count", "signal", "wall_s", _IO),
    ("filters.build_s", "s", "filters", "wall_s", _SWEEP),
    ("filters.build_calls", "count", "filters", "wall_s", _SWEEP),
    ("boundary.extend_s", "s", "boundary", "wall_s", ["sweep-small", "sift-2k"]),
    ("boundary.extend_calls", "count", "boundary", "wall_s", ["sweep-small", "sift-2k"]),
    ("operators.apply_s", "s", "operators", "wall_s", _SIFT),
    ("operators.apply_calls", "count", "operators", "wall_s", _SIFT),
    ("operators.apply_mac", "count", "operators", "wall_s", _SIFT),
    ("operators.eigenvalues_s", "s", "operators", "wall_s", _SIFT),
    ("operators.eigenvalues_calls", "count", "operators", "wall_s", _SIFT),
    ("operators.power_apply_s", "s", "operators", "wall_s", _SIFT),
    ("operators.power_apply_calls", "count", "operators", "wall_s", _SIFT),
    ("decompose.self_s", "s", "decompose", "wall_s", ["sift-2k", "io-200k"]),
    ("decompose.components", "count", "decompose", "wall_s", ["sift-2k"]),
    ("decompose.inner_steps", "count", "decompose", "wall_s", ["sift-2k"]),
    ("decompose.cap_hits", "count", "decompose", "wall_s", ["sift-2k"]),
    ("decompose.cap_hit_ratio", "fraction", "decompose", "wall_s", ["sift-2k"]),
    ("error_analysis.phase_sweep_self_s", "s", "error_analysis", "wall_s", _SWEEP),
    ("error_analysis.propagate_s", "s", "error_analysis", "wall_s", _SWEEP),
    ("error_analysis.propagate_steps", "count", "error_analysis", "wall_s", _SWEEP),
    ("trace.overhead_frac", "fraction", "trace", None, []),
]

PER_LAYER = [
    {"name": name, "unit": unit, "better": "lower", "layer": layer,
     "moves": moves, "workloads": list(workloads)}
    for name, unit, layer, moves, workloads in _LAYER_ROWS
]


def benchmark_json() -> dict:
    """The contents of BENCHMARK.json, restricted to the keys it allows."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w["name"], "why": w["why"]} for w in WORKLOADS],
        "end_to_end": [{k: m[k] for k in ("name", "unit", "better", "bound")} for m in END_TO_END],
        "per_layer": [{k: m[k] for k in ("name", "unit", "better")} for m in PER_LAYER],
    }


def render() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"


if __name__ == "__main__":
    target = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    target.write_text(render(), encoding="utf-8")
    print(f"wrote {target.name}")
