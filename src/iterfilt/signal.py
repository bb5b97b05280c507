"""CSV ingestion, power-of-two scaling, normalization and the extrema
census used by the outer loop. Signals are plain float arrays."""

from __future__ import annotations

import math
from itertools import islice
from pathlib import Path

import numpy as np

__all__ = ["ParseError", "load_signal", "normalize", "count_extrema"]

MIN_SAMPLES = 3


class ParseError(ValueError):
    """A signal file could not be parsed. Carries the 1-based offending row."""

    def __init__(self, message: str, row: int | None = None):
        self.row = row
        super().__init__(message if row is None else f"row {row}: {message}")


def load_signal(path) -> np.ndarray:
    """Read the samples of a CSV file with one sample per line as a float array.

    A single leading header line is tolerated: if the first line does not
    parse as a number it is skipped. Decimal point is '.', scientific
    notation is accepted, line endings may be LF or CRLF, and a leading
    UTF-8 byte-order mark is dropped. Malformed rows, fewer than three
    samples and non-finite values are rejected with the 1-based row number.
    """
    text = Path(path).read_text(encoding="utf-8-sig")
    lines = text.splitlines()
    while lines and lines[-1].strip() == "":
        lines.pop()

    header = 0
    if lines:
        try:
            float(lines[0].strip())
        except ValueError:
            header = 1  # a header line
    try:
        values = np.fromiter(map(float, islice(lines, header, None)), float,
                             count=len(lines) - header)
    except ValueError:
        values = None
    if values is None or not np.isfinite(values).all():
        values = np.array(_parse_rows(lines, header))
    if values.size < MIN_SAMPLES:
        raise ParseError(f"need at least {MIN_SAMPLES} samples, found {values.size}")
    return values


def _parse_rows(lines: list[str], header: int) -> list[float]:
    """The samples row by row, each line stripped as ``str.strip`` does
    (float() keeps the separators U+001C-U+001F); raises ParseError with
    the 1-based row of the first row that is not a finite number."""
    values = []
    for idx, line in enumerate(lines[header:], start=header + 1):
        token = line.strip()
        try:
            x = float(token)
        except ValueError:
            raise ParseError(f"could not parse {token!r} as a number", row=idx) from None
        if not math.isfinite(x):
            raise ParseError(f"non-finite value {token!r}", row=idx)
        values.append(x)
    return values


def unit_exponent(values: np.ndarray) -> int:
    """The e with max|values| 2^-e in [0.5, 1), 0 for a zero signal.

    Scaling by 2^-e is exact in binary floating point, so the loops run on
    the same numbers at every power-of-two scale, and their norms neither
    overflow nor underflow.
    """
    return math.frexp(float(np.max(np.abs(values), initial=0.0)))[1]


def dot(x: np.ndarray, y: np.ndarray) -> float:
    """x . y summed by numpy, not BLAS: OpenBLAS splits dot products of
    more than 10,000 samples among its threads, which would round every
    norm, and all that follows from it, by the thread count."""
    return float(np.einsum("i,i", x, y))


def l2_norm(x: np.ndarray) -> float:
    """||x||_2 by :func:`dot`."""
    return math.sqrt(dot(x, x))


def normalize(s) -> np.ndarray:
    """Rescale a signal to unit Euclidean norm, as a float array.

    The norm is taken of the signal scaled by 2^-e (:func:`unit_exponent`),
    so it neither overflows nor underflows on finite samples, and summed by
    :func:`dot`, so its bits do not depend on the BLAS thread count. Raises
    ValueError for a non-finite sample and for the all-zero signal, whose
    direction is undefined.
    """
    v = np.asarray(s, dtype=float)
    if not np.isfinite(v).all():
        raise ValueError("cannot normalize a non-finite signal")
    v = np.ldexp(v, -unit_exponent(v))
    nrm = l2_norm(v)
    if nrm == 0.0:
        raise ValueError("cannot normalize the zero signal")
    return v / nrm


def count_extrema(s) -> int:
    """Count strict interior local extrema of a signal.

    A maximal run of equal samples strictly above (below) both of its
    neighbours counts as exactly one extremum; the endpoint samples never
    qualify because they lack a two-sided neighbourhood.
    """
    v = np.asarray(s, dtype=float)
    # collapse runs of equal samples, then count turns (compared, not subtracted: no overflow)
    r = v[np.concatenate([[True], v[1:] != v[:-1]])]
    if r.size < 3:
        return 0
    rising = r[1:] > r[:-1]
    return int(np.count_nonzero(rising[:-1] != rising[1:]))
