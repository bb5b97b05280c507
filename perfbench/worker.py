"""Closed loop of iterfilt CLI calls in one fresh process.

Usage: python3 perfbench/worker.py PLAN.json

The plan lists the CLI argument vectors of one pass, the output files each
call writes, how long to keep running and whether to trace. The worker runs
whole passes, one call at a time, and starts another only when a pass of the
median length so far still ends within the time (at least two passes, so
outputs can be compared between them). With tracing on, passes
alternate untraced and traced, starting untraced.

After every pass it hashes and removes the outputs, so each pass writes
fresh files at the same paths; the first pass's outputs are moved to the
reference directory for the correctness check. The peak resident size is
read right after the first pass. The result goes to the plan's result file.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import iterfilt.cli as cli


def _digest(path: str) -> str | None:
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


def _size(path: str) -> int:
    try:
        return os.path.getsize(path)
    except FileNotFoundError:
        return 0


def _peak_rss_kib() -> int:
    """High-water resident size of this process image in KiB.

    ``ru_maxrss`` is not used where VmHWM exists: Linux carries it over
    from the parent across fork and exec, so it would report the parent's
    peak when that is larger.
    """
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    calls, outputs = plan["calls"], plan["outputs"]
    tracer = None
    if plan["trace"]:
        import tracing

        tracer = tracing.Tracer()

    passes = []
    peak_rss_kib = None
    call_id = 0
    t0 = time.perf_counter()
    while len(passes) < plan["min_passes"] or (
            time.perf_counter() - t0 + statistics.median(p["seconds"] for p in passes)
            <= plan["seconds"]):
        traced = tracer is not None and len(passes) % 2 == 1
        rcs, ids = [], []
        if traced:
            replaced = tracing.install(tracer)
        start = time.perf_counter()
        for argv, outs in zip(calls, outputs):
            if traced:
                tracer.current_call = call_id
                span = tracer.open("cli.run")
                rcs.append(cli.run(argv))
                tracer.close(span)
                tracer.work[span] = sum(_size(p) for p in outs)
            else:
                rcs.append(cli.run(argv))
            ids.append(call_id)
            call_id += 1
        seconds = time.perf_counter() - start
        if traced:
            tracing.uninstall(replaced)

        if peak_rss_kib is None:
            peak_rss_kib = _peak_rss_kib()
        hashes = [[_digest(p) for p in outs] for outs in outputs]
        for outs in outputs:
            for p in outs:
                if os.path.exists(p):
                    if len(passes) == 0:
                        os.replace(p, Path(plan["ref_dir"]) / Path(p).name)
                    else:
                        os.remove(p)
        passes.append({"traced": traced, "seconds": seconds, "rc": rcs,
                       "hashes": hashes, "calls": ids})

    if tracer is not None:
        tracer.write(plan["spans"])
    result = {"passes": passes, "peak_rss_kib": peak_rss_kib}
    Path(plan["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
