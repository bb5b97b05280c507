"""CSV ingestion, power-of-two scaling, normalization and the extrema
census used by the outer loop. Signals are plain float arrays."""

from __future__ import annotations

import math
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

__all__ = ["ParseError", "load_signal", "normalize", "count_extrema"]

MIN_SAMPLES = 3
_CHUNK = 1 << 18  # characters of the text split into lines at a time (see _lines)


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
    The text is split into lines a chunk at a time (:func:`_lines`).
    """
    text = Path(path).read_text(encoding="utf-8-sig").rstrip()  # no trailing blank lines
    header = 0
    for first in islice(_lines(text), 1):
        try:
            float(first.strip())
        except ValueError:
            header = 1  # a header line
    try:
        values = np.fromiter(map(float, islice(_lines(text), header, None)), float)
    except ValueError:
        values = None
    if values is None or not np.isfinite(values).all():
        values = np.array(_parse_rows(_lines(text), header))
    if values.size < MIN_SAMPLES:
        raise ParseError(f"need at least {MIN_SAMPLES} samples, found {values.size}")
    return values


def _lines(text: str) -> Iterator[str]:
    """``text.splitlines()``, split from chunks of about _CHUNK characters
    that each end just after a "\\n", which ends a line there too, so no
    list of all the lines is built."""
    cuts = [0]
    while cuts[-1] < len(text):
        cuts.append(text.find("\n", cuts[-1] + _CHUNK) + 1 or len(text))
    return chain.from_iterable(text[a:b].splitlines() for a, b in zip(cuts, cuts[1:]))


def _parse_rows(lines: Iterable[str], header: int) -> list[float]:
    """The samples row by row, each line stripped as ``str.strip`` does
    (float() keeps the separators U+001C-U+001F); raises ParseError with
    the 1-based row of the first row that is not a finite number."""
    values = []
    for idx, line in enumerate(islice(lines, header, None), start=header + 1):
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


def scale_back(x: np.ndarray, e: int, what: str) -> np.ndarray:
    """x 2^e in place; ValueError naming ``what`` where max|x| 2^e would
    exceed the largest float, decided from exponents, so nothing overflows."""
    if unit_exponent(x) + e > np.finfo(float).maxexp:
        raise ValueError(f"{what} exceeds the largest float at the input's scale")
    return np.ldexp(x, e, out=x)


def scale_back_parts(parts: list[np.ndarray], e: int, s: np.ndarray) -> list[np.ndarray]:
    """Parts computed on s 2^-e whose sum is s, the last one the remainder,
    each scaled back by :func:`scale_back` as "component j". Below scale 1
    the last is s less the others in turn, at s's scale: the bits of the
    scaled-back remainder wherever the others scale back exactly, and where
    they round to subnormals, a sum back to an all-subnormal s that is
    exact, as every sum of subnormals is."""
    parts = [scale_back(f, e, f"component {j}") for j, f in enumerate(parts, 1)]
    if e < 0:
        np.copyto(rest := parts[-1], s)
        for f in parts[:-1]:
            rest -= f
    return parts


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
