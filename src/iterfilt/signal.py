"""Signal container, CSV ingestion and the extrema census used by the outer loop."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

__all__ = ["ParseError", "Signal", "load_signal", "normalize", "count_extrema"]

MIN_SAMPLES = 3


class ParseError(ValueError):
    """A signal file could not be parsed. Carries the 1-based offending row."""

    def __init__(self, message: str, row: int | None = None):
        self.row = row
        super().__init__(message if row is None else f"row {row}: {message}")


@dataclass(frozen=True)
class Signal:
    """A real signal sampled on the uniform unit-interval grid x_j = j/(n-1).

    Values are stored as an immutable float array; at least three samples
    are required so that a filter of length >= 1 is admissible.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1:
            raise ValueError(f"signal must be one-dimensional, got shape {v.shape}")
        if v.size < MIN_SAMPLES:
            raise ValueError(f"signal needs at least {MIN_SAMPLES} samples, got {v.size}")
        bad = np.flatnonzero(~np.isfinite(v))
        if bad.size:
            raise ValueError(f"non-finite sample at position {bad[0]}")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.size


def as_values(s) -> np.ndarray:
    """Accept a Signal or any 1-D array-like and return a float ndarray."""
    return np.asarray(getattr(s, "values", s), dtype=float)


def load_signal(path) -> Signal:
    """Read a signal from a CSV file with one sample per line.

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
        values = np.array(list(map(float, islice(lines, header, None))))
    except ValueError:
        values = None
    if values is None or not np.isfinite(values).all():
        values = np.array(_parse_rows(lines, header))
    if values.size < MIN_SAMPLES:
        raise ParseError(f"need at least {MIN_SAMPLES} samples, found {values.size}")
    return Signal(values)


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


def normalize(s) -> Signal:
    """Rescale a signal to unit Euclidean norm.

    Raises ValueError for the all-zero signal, whose direction is undefined.
    """
    v = as_values(s)
    nrm = float(np.linalg.norm(v))
    if nrm == 0.0:
        raise ValueError("cannot normalize the zero signal")
    return Signal(v / nrm)


def count_extrema(s) -> int:
    """Count strict interior local extrema of a signal.

    A maximal run of equal samples strictly above (below) both of its
    neighbours counts as exactly one extremum; the endpoint samples never
    qualify because they lack a two-sided neighbourhood.
    """
    v = as_values(s)
    # collapse runs of equal samples, then count turns (compared, not subtracted: no overflow)
    r = v[np.concatenate([[True], v[1:] != v[:-1]])]
    if r.size < 3:
        return 0
    rising = r[1:] > r[:-1]
    return int(np.count_nonzero(rising[:-1] != rising[1:]))
