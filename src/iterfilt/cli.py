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
import inspect
import json
import sys
from dataclasses import asdict, fields
from functools import cache
from pathlib import Path

import numpy as np

from . import __version__
from .boundary import BoundaryKind
from .decompose import StoppingConfig, build_filter, dif, eif, inner_loop
from .error_analysis import error_propagation, make_sine_trend_generator, phase_sweep
from .filters import (SHAPE_NAMES, convolve_self, filter_length, get_shape, raised_cosine_shape,
                      sample_filter)
from .operators import TRANSFORM_KINDS, StructuredOperator
from .signal import ParseError, load_signal, normalize

USAGE_ERROR = 2
IO_ERROR = 3
DOMAIN_ERROR = 4

_KINDS = [k.value for k in BoundaryKind]
# entries (rows x columns) of a CSV formatted at once
_CSV_BLOCK = 1 << 14
# every float is printed with 17 significant digits
_FLOAT = "%.17g"
# flag defaults are the library's own
_STOPPING = StoppingConfig()
_SINE_TREND = {name: param.default for name, param
               in inspect.signature(make_sine_trend_generator).parameters.items()}


def _add_filter_flags(p: argparse.ArgumentParser):
    p.add_argument("--shape", default=raised_cosine_shape().name, choices=SHAPE_NAMES,
                   help="filter shape (default: %(default)s)")
    p.add_argument("--xi", type=float, default=_STOPPING.xi,
                   help="filter length factor (default: %(default)s)")


def _add_stopping_flags(p: argparse.ArgumentParser, max_imfs: bool = True):
    p.add_argument("--delta", type=float, default=_STOPPING.delta,
                   help="relative step-change threshold (default: %(default)s)")
    p.add_argument("--max-inner", type=int, default=_STOPPING.max_inner,
                   help="inner iteration cap (default: %(default)s)")
    if max_imfs:  # only decompose emits more than one component
        p.add_argument("--max-imfs", type=int, default=_STOPPING.max_imfs,
                       help="cap on emitted components, trend included (default: %(default)s)")


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
    sp.add_argument("--shape", default=raised_cosine_shape().name, choices=SHAPE_NAMES,
                    help="filter shape (default: %(default)s)")
    sp.add_argument("--double-filter", choices=("on", "off"), default="on",
                    help="self-convolve the filter, as sifting does (default: %(default)s); "
                         "off shows the plain filter's eigenvalues below zero")

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
    _add_stopping_flags(e, max_imfs=False)
    _add_filter_flags(e)

    ps = sub.add_parser("phasesweep", help="boundary-phase error study on growing supports")
    ps.add_argument("output", help="output CSV")
    ps.add_argument("--dt", type=float, default=0.05, help="support growth step (default: 0.05)")
    ps.add_argument("--span", type=float, default=4.0, help="total support growth (default: 4.0)")
    for flag, param, text in (("period", "period", "test sine period"),
                              ("amplitude", "amplitude", "test sine amplitude"),
                              ("trend", "trend", "constant trend level"),
                              ("base", "start", "left end of the base support"),
                              ("phase", "phase", "sine phase at the support centre")):
        ps.add_argument(f"--{flag}", type=float, default=_SINE_TREND[param],
                        help=f"{text} (default: %(default)s)")
    _add_stopping_flags(ps, max_imfs=False)
    _add_filter_flags(ps)

    return parser


def _stopping_config(args) -> StoppingConfig:
    """The parsed stopping flags, each field without a flag at its default."""
    return StoppingConfig(**{f.name: getattr(args, f.name) for f in fields(StoppingConfig)
                             if hasattr(args, f.name)})


def _write_meta(args, resolved: dict | None = None, extra: dict | None = None):
    """Write the JSON sidecar of ``args.output``: every parsed flag under
    ``config``, with the values the command filled in itself (``resolved``)
    in place of their defaults, and ``extra`` beside it."""
    meta = {"config": {**vars(args), **(resolved or {})}, **(extra or {})}
    Path(f"{args.output}.meta.json").write_text(
        json.dumps(meta, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


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

    result = (dif(signal, shape, kind, cfg) if args.mode == "dif"
              else eif(signal, shape, kind, args.pad, cfg))

    header = ",".join(f"imf_{j + 1}" for j in range(len(result)))
    _write_columns(args.output, header, result.imfs, [_FLOAT] * len(result))
    diagnostics = [{"imf": m + 1, **asdict(d)} for m, d in enumerate(result.diagnostics)]
    _write_meta(args, {"pad": result.pad}, {"imfs": diagnostics})
    return 0


def _write_columns(output: str, header: str, columns: list, formats: list[str]):
    """Equal-length columns as CSV, each entry printed with its column's
    %-format, formatted and written in blocks of about _CSV_BLOCK entries
    so no whole-file string or list is built. Numeric columns stack into
    floats (so "%d" columns hold integers exactly up to 2^53); a column of
    strings makes the block an object array."""
    row_fmt = ",".join(formats) + "\n"
    rows = max(1, _CSV_BLOCK // len(columns))
    with open(output, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for i in range(0, len(columns[0]), rows):
            block = np.column_stack([col[i: i + rows] for col in columns])
            fh.write((row_fmt * len(block)) % tuple(block.ravel().tolist()))


def _cmd_spectrum(args) -> int:
    shape = get_shape(args.shape)
    filt = sample_filter(shape, args.length)
    if args.double_filter == "on":
        filt = convolve_self(filt)
    op = StructuredOperator(filt, BoundaryKind(args.bc), args.n)
    if op.kind is BoundaryKind.ZERO:
        print("note: zero boundary conditions have no closed-form spectrum; "
              "falling back to a dense eigensolve", file=sys.stderr)
    spectrum = op.eigenvalues()
    values = spectrum.eigenvalues
    _write_columns(args.output, "index,value", [np.arange(1, values.size + 1), values],
                   ["%d", _FLOAT])
    _write_meta(args, extra={
        "unit_multiplicity": spectrum.unit_multiplicity,
        "zero_multiplicity": spectrum.zero_multiplicity,
    })
    return 0


def _cmd_errorbound(args) -> int:
    signal = load_signal(args.input)
    cfg = _stopping_config(args)
    if (filt := build_filter(signal, get_shape(args.shape), cfg)) is None:
        filter_length(signal, cfg.xi)  # raises ValueError: why there is no filter
    steps = args.steps
    if steps is None:
        steps = max(inner_loop(signal, filt, BoundaryKind(args.bc), cfg)[1], 1)
    pad = args.pad if args.pad is not None else 2 * filt.length
    last, bound = error_propagation(signal, filt, steps, pad)
    _write_columns(args.output, "x_index,err_k,ub_k",
                   [np.arange(bound.size), last, bound], ["%d", _FLOAT, _FLOAT])
    _write_meta(args, {"pad": pad, "steps": steps, "chi": float(np.abs(signal).max())})
    return 0


def _cmd_phasesweep(args) -> int:
    cfg = _stopping_config(args)
    generator = make_sine_trend_generator(amplitude=args.amplitude, period=args.period,
                                          trend=args.trend, start=args.base, phase=args.phase)
    points = phase_sweep(generator, args.dt, args.span, TRANSFORM_KINDS, cfg, get_shape(args.shape))
    columns = [np.array([pt.endpoint for pt in points]), np.array([pt.ub_rel for pt in points])]
    columns += [np.array([pt.err_rel[kind.value] for pt in points]) for kind in TRANSFORM_KINDS]
    columns.append(np.array([pt.best_kind for pt in points], dtype=object))
    header = ",".join(["endpoint,ub_rel", *(f"err_rel_{k.value}" for k in TRANSFORM_KINDS),
                       "best_kind"])
    _write_columns(args.output, header, columns, [_FLOAT] * (len(columns) - 1) + ["%s"])
    _write_meta(args)
    return 0


_COMMANDS = {
    "decompose": _cmd_decompose,
    "spectrum": _cmd_spectrum,
    "errorbound": _cmd_errorbound,
    "phasesweep": _cmd_phasesweep,
}


@cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process, built by :func:`build_parser`."""
    return build_parser()


def run(argv=None) -> int:
    """Parse arguments, dispatch, and map failures to exit codes."""
    try:
        args = _parser().parse_args(argv)
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
