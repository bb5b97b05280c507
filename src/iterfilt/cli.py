"""Command-line front end.

Four subcommands: ``decompose`` (direct or extended iterative filtering),
``spectrum`` (operator eigenvalues), ``errorbound`` (worst-case boundary
error propagation) and ``phasesweep`` (boundary-phase study on growing
supports). Output files are byte-deterministic: floats are printed with 17
significant digits and every run writes a JSON sidecar echoing the full
effective configuration.

Exit codes: 0 success, 2 usage error, 3 input/output error, 4 numeric
domain error (for example a zero signal or an inadmissible pad).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .boundary import BoundaryKind
from .decompose import Decomposition, StoppingConfig, build_filter, dif, eif, inner_loop
from .error_analysis import boundary_error_estimate, make_sine_trend_generator, phase_sweep
from .filters import SHAPE_NAMES, get_shape, sample_filter, convolve_self
from .operators import StructuredOperator
from .signal import ParseError, load_signal, normalize

USAGE_ERROR = 2
IO_ERROR = 3
DOMAIN_ERROR = 4

_KINDS = [k.value for k in BoundaryKind]


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _add_filter_flags(p: argparse.ArgumentParser):
    p.add_argument("--shape", default="raised-cosine", choices=SHAPE_NAMES,
                   help="filter shape (default: raised-cosine)")
    p.add_argument("--xi", type=float, default=1.6, help="filter length factor (default: 1.6)")
    p.add_argument("--double-filter", choices=("on", "off"), default="on",
                   help="use the self-convolved filter (default: on)")


def _add_stopping_flags(p: argparse.ArgumentParser):
    p.add_argument("--delta", type=float, default=1e-3,
                   help="relative step-change threshold (default: 1e-3)")
    p.add_argument("--max-inner", type=int, default=1000,
                   help="inner iteration cap (default: 1000)")
    p.add_argument("--max-imfs", type=int, default=16,
                   help="cap on emitted components, trend included (default: 16)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iterfilt",
        description="Iterative filtering decomposition with selectable boundary conditions.",
    )
    parser.add_argument("--version", action="version", version=f"iterfilt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    d = sub.add_parser("decompose", help="decompose a signal into oscillatory components")
    d.add_argument("input", help="input CSV, one sample per line")
    d.add_argument("output", help="output CSV (components as columns imf_1..imf_M)")
    d.add_argument("--bc", default="periodic", choices=_KINDS, help="boundary conditions")
    d.add_argument("--mode", default="dif", choices=("dif", "eif"),
                   help="dif re-imposes boundary conditions every step; eif extends once")
    d.add_argument("--pad", type=int, default=None,
                   help="extension width per side (eif only; default: twice the first filter length)")
    d.add_argument("--normalize", action="store_true", help="rescale input to unit norm first")
    _add_stopping_flags(d)
    _add_filter_flags(d)

    sp = sub.add_parser("spectrum", help="eigenvalues of a structured operator")
    sp.add_argument("output", help="output CSV (index,value)")
    sp.add_argument("--bc", required=True, choices=_KINDS, help="boundary conditions")
    sp.add_argument("--n", type=int, required=True, help="operator dimension")
    sp.add_argument("--length", type=int, required=True, help="filter half length before doubling")
    _add_filter_flags(sp)

    e = sub.add_parser("errorbound", help="propagate the worst-case boundary error")
    e.add_argument("input", help="input CSV, one sample per line")
    e.add_argument("output", help="output CSV (x_index,err_k,ub_k)")
    e.add_argument("--bc", default="periodic", choices=_KINDS,
                   help="boundary conditions for the first-component sift that "
                        "fixes the default step count (the propagation itself is "
                        "extension-rule independent)")
    e.add_argument("--pad", type=int, default=None,
                   help="extension width per side (default: twice the first filter length)")
    e.add_argument("--steps", type=int, default=None,
                   help="propagation steps (default: iterations used by the first component)")
    _add_stopping_flags(e)
    _add_filter_flags(e)

    ps = sub.add_parser("phasesweep", help="boundary-phase error study on growing supports")
    ps.add_argument("output", help="output CSV")
    ps.add_argument("--dt", type=float, default=0.05, help="support growth step (default: 0.05)")
    ps.add_argument("--span", type=float, default=4.0, help="total support growth (default: 4.0)")
    ps.add_argument("--period", type=float, default=1.0, help="test sine period (default: 1.0)")
    ps.add_argument("--amplitude", type=float, default=1.0, help="test sine amplitude (default: 1.0)")
    ps.add_argument("--trend", type=float, default=1.5, help="constant trend level (default: 1.5)")
    ps.add_argument("--base", type=float, default=-8.0, help="left end of the base support (default: -8)")
    ps.add_argument("--phase", type=float, default=0.4, help="sine phase at the support centre")
    _add_stopping_flags(ps)
    _add_filter_flags(ps)

    return parser


def _stopping_config(args) -> StoppingConfig:
    return StoppingConfig(
        delta=args.delta,
        max_inner=args.max_inner,
        max_imfs=args.max_imfs,
        xi=args.xi,
        double_filter=args.double_filter == "on",
    )


def _stopping_fields(args) -> dict:
    """The stopping and filter settings every sifting command echoes."""
    return {
        "delta": args.delta, "max_inner": args.max_inner, "max_imfs": args.max_imfs,
        "xi": args.xi, "double_filter": args.double_filter, "shape": args.shape,
    }


def _write_meta(output: str, config: dict, extra: dict | None = None):
    meta = {"config": config}
    if extra:
        meta.update(extra)
    Path(f"{output}.meta.json").write_text(
        json.dumps(meta, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def _write_csv(output: str, header: str, rows: list[str]):
    Path(output).write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")


def _cmd_decompose(args) -> int:
    if args.pad is not None and args.mode != "eif":
        print("error: --pad is only valid with --mode eif", file=sys.stderr)
        return USAGE_ERROR
    signal = load_signal(args.input)
    if args.normalize:
        signal = normalize(signal)
    cfg = _stopping_config(args)
    shape = get_shape(args.shape)
    kind = BoundaryKind(args.bc)

    if args.mode == "dif":
        pad = 0
        result = dif(signal, shape, kind, cfg)
    else:
        pad = args.pad if args.pad is not None else 2 * build_filter(signal, shape, cfg).length
        result = eif(signal, shape, kind, pad, cfg)

    _write_decomposition(args.output, result)
    config = {
        "command": "decompose", "input": args.input, "output": args.output,
        "bc": args.bc, "mode": args.mode, "pad": pad, "normalize": args.normalize,
        **_stopping_fields(args),
    }
    diagnostics = [{"imf": m + 1, **asdict(d)} for m, d in enumerate(result.diagnostics)]
    _write_meta(args.output, config, {"imfs": diagnostics})
    return 0


def _write_decomposition(output: str, result: Decomposition):
    header = ",".join(f"imf_{m + 1}" for m in range(len(result)))
    matrix = np.column_stack(result.imfs)
    rows = [",".join(_fmt(x) for x in row) for row in matrix]
    _write_csv(output, header, rows)


def _cmd_spectrum(args) -> int:
    shape = get_shape(args.shape)
    filt = sample_filter(shape, args.length)
    if args.double_filter == "on":
        filt = convolve_self(filt)
    op = StructuredOperator(filt, BoundaryKind(args.bc), args.n)
    if op.kind is BoundaryKind.ZERO:
        print("note: zero boundary conditions have no closed-form spectrum; "
              "falling back to a dense eigensolve", file=sys.stderr)
        spectrum = op.dense_spectrum()
    else:
        spectrum = op.eigenvalues()
    rows = [f"{i + 1},{_fmt(v)}" for i, v in enumerate(spectrum.eigenvalues)]
    _write_csv(args.output, "index,value", rows)
    config = {
        "command": "spectrum", "output": args.output, "bc": args.bc, "n": args.n,
        "length": args.length, "shape": args.shape, "double_filter": args.double_filter,
        "xi": args.xi,
    }
    _write_meta(args.output, config, {
        "unit_multiplicity": spectrum.unit_multiplicity,
        "zero_multiplicity": spectrum.zero_multiplicity,
    })
    return 0


def _cmd_errorbound(args) -> int:
    signal = load_signal(args.input)
    cfg = _stopping_config(args)
    filt = build_filter(signal, get_shape(args.shape), cfg)
    steps = args.steps
    if steps is None:
        steps = max(inner_loop(signal, filt, BoundaryKind(args.bc), cfg)[1], 1)
    pad = args.pad if args.pad is not None else 2 * filt.length
    estimate = boundary_error_estimate(signal.values, filt, pad, steps)
    err_last = estimate.per_step[-1]
    rows = [
        f"{i},{_fmt(e)},{_fmt(u)}"
        for i, (e, u) in enumerate(zip(err_last, estimate.upper_bound))
    ]
    _write_csv(args.output, "x_index,err_k,ub_k", rows)
    config = {
        "command": "errorbound", "input": args.input, "output": args.output,
        "bc": args.bc, "pad": pad, "steps": steps, "chi": estimate.chi,
        **_stopping_fields(args),
    }
    _write_meta(args.output, config)
    return 0


def _cmd_phasesweep(args) -> int:
    cfg = _stopping_config(args)
    generator = make_sine_trend_generator(
        amplitude=args.amplitude, period=args.period, trend=args.trend,
        start=args.base, phase=args.phase,
    )
    kinds = (BoundaryKind.PERIODIC, BoundaryKind.REFLECTIVE, BoundaryKind.ANTIREFLECTIVE)
    points = phase_sweep(generator, args.dt, args.span, kinds, cfg, get_shape(args.shape))
    rows = [
        ",".join([
            _fmt(pt.endpoint),
            _fmt(pt.ub_rel),
            _fmt(pt.err_rel["periodic"]),
            _fmt(pt.err_rel["reflective"]),
            _fmt(pt.err_rel["antireflective"]),
            pt.best_kind,
        ])
        for pt in points
    ]
    header = "endpoint,ub_rel,err_rel_periodic,err_rel_reflective,err_rel_antireflective,best_kind"
    _write_csv(args.output, header, rows)
    config = {
        "command": "phasesweep", "output": args.output, "dt": args.dt, "span": args.span,
        "period": args.period, "amplitude": args.amplitude, "trend": args.trend,
        "base": args.base, "phase": args.phase, **_stopping_fields(args),
    }
    _write_meta(args.output, config)
    return 0


_COMMANDS = {
    "decompose": _cmd_decompose,
    "spectrum": _cmd_spectrum,
    "errorbound": _cmd_errorbound,
    "phasesweep": _cmd_phasesweep,
}


def run(argv=None) -> int:
    """Parse arguments, dispatch, and map failures to exit codes."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors itself
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"error: {args.input}: {exc}", file=sys.stderr)
        return IO_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return IO_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DOMAIN_ERROR
    except Exception as exc:  # never crash on malformed input
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
