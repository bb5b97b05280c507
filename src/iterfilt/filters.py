"""Symmetric decreasing smoothing filters built from a shape function.

A filter is stored through its half weights (w_0, w_1, ..., w_l); the full
symmetric vector (w_l, ..., w_1, w_0, w_1, ..., w_l) is positive on its
support, decreasing away from the centre and sums to one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .signal import count_extrema

__all__ = [
    "FilterShape",
    "Filter",
    "sample_filter",
    "convolve_self",
    "filter_length",
    "raised_cosine_shape",
    "triangle_shape",
    "uniform_shape",
    "get_shape",
    "SHAPE_NAMES",
]

_SUM_TOL = 1e-14
_SHAPE_TOL = 1e-12


@dataclass(frozen=True)
class FilterShape:
    """A symmetric weight profile h on [-1, 1].

    The evaluator must accept numpy arrays. It has to be symmetric,
    nonincreasing on [0, 1] and strictly positive at the origin; this is
    checked on a sampled grid at construction time.
    """

    name: str
    evaluator: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        t = np.linspace(0.0, 1.0, 129)
        left = np.asarray(self.evaluator(-t), dtype=float)
        right = np.asarray(self.evaluator(t), dtype=float)
        if np.max(np.abs(left - right)) > _SHAPE_TOL:
            raise ValueError(f"shape {self.name!r} is not symmetric")
        if np.any(np.diff(right) > _SHAPE_TOL):
            raise ValueError(f"shape {self.name!r} is not nonincreasing on [0, 1]")
        if right[0] <= 0.0:
            raise ValueError(f"shape {self.name!r} must be positive at 0")

    def __call__(self, t) -> np.ndarray:
        return np.asarray(self.evaluator(np.asarray(t, dtype=float)), dtype=float)


def raised_cosine_shape() -> FilterShape:
    """Default smooth shape h(t) = (1 + cos(pi t)) / 2."""
    return FilterShape("raised-cosine", lambda t: 0.5 * (1.0 + np.cos(np.pi * t)))


def triangle_shape() -> FilterShape:
    """Triangular shape h(t) = 1 - |t|."""
    return FilterShape("triangle", lambda t: 1.0 - np.abs(t))


def uniform_shape() -> FilterShape:
    """Flat shape h(t) = 1, giving a moving-average filter."""
    return FilterShape("uniform", lambda t: np.ones_like(t))


_SHAPE_FACTORIES = {
    "raised-cosine": raised_cosine_shape,
    "triangle": triangle_shape,
    "uniform": uniform_shape,
}

SHAPE_NAMES = tuple(sorted(_SHAPE_FACTORIES))


def get_shape(name: str) -> FilterShape:
    """Look up a built-in shape by name."""
    try:
        return _SHAPE_FACTORIES[name]()
    except KeyError:
        raise ValueError(f"unknown shape {name!r}; choose from {', '.join(SHAPE_NAMES)}") from None


@dataclass(frozen=True)
class Filter:
    """Symmetric positive decreasing weights stored as (w_0, ..., w_l)."""

    half_weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.half_weights, dtype=float)
        if w.ndim != 1 or w.size < 2:
            raise ValueError("filter needs half weights (w_0, ..., w_l) with l >= 1")
        if np.any(w <= 0.0):
            raise ValueError("filter weights must be strictly positive on the support")
        if np.any(np.diff(w) > 1e-13):
            raise ValueError("filter weights must be decreasing away from the centre")
        total = w[0] + 2.0 * w[1:].sum()
        if abs(total - 1.0) > _SUM_TOL:
            raise ValueError(f"filter weights must sum to 1, got {total!r}")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "half_weights", w)

    @property
    def length(self) -> int:
        """Half length l; the full support spans 2l + 1 taps."""
        return self.half_weights.size - 1

    def full(self) -> np.ndarray:
        """Full symmetric tap vector (w_l, ..., w_0, ..., w_l)."""
        w = self.half_weights
        return np.concatenate([w[:0:-1], w])


def sample_filter(shape: FilterShape, l: int) -> Filter:
    """Build a length-l filter by linear scaling of a shape.

    Weights are proportional to h(j/l) / l for j = 0..l and renormalized so
    the full symmetric vector sums to exactly one. Shapes that vanish at the
    endpoints t = +-1 are sampled at j/(l+1) instead, which keeps every
    weight strictly positive.

    Parameters
    ----------
    shape : FilterShape
        Weight profile on [-1, 1].
    l : int
        Half length, l >= 1.
    """
    if l < 1:
        raise ValueError("filter length must be at least 1")
    denom = l + 1 if float(shape(1.0)) <= _SHAPE_TOL else l
    raw = shape(np.arange(l + 1) / denom) / l
    if np.any(raw <= 0.0):
        j = int(np.flatnonzero(raw <= 0.0)[0])
        raise ValueError(f"shape {shape.name!r} vanishes at tap {j}; weights must stay positive")
    total = raw[0] + 2.0 * raw[1:].sum()
    return Filter(raw / total)


def convolve_self(v: Filter) -> Filter:
    """Convolve a filter with itself, doubling its length.

    The convolution of two unit-sum symmetric decreasing filters is again
    symmetric decreasing with unit sum; the result is renormalized to remove
    the last few ulps of accumulation error.
    """
    f = v.full()
    conv = np.convolve(f, f)
    half = conv[conv.size // 2:]
    total = half[0] + 2.0 * half[1:].sum()
    return Filter(half / total)


def filter_length(s, xi: float) -> int:
    """Pick a base filter half length from the oscillation density of a signal.

    Uses l = max(1, floor(xi * n / n_extrema)) clamped to floor((n-1)/4),
    so that the filter :func:`convolve_self` makes of it stays admissible.

    Raises ValueError when the signal has fewer than two extrema or when no
    admissible doubled length exists (n < 5); the outer decomposition loop
    ends there.
    """
    v = np.asarray(s, dtype=float)
    n = v.size
    n_ext = count_extrema(v)
    if n_ext < 2:
        raise ValueError(f"filter length needs at least 2 extrema, found {n_ext}")
    cap = (n - 1) // 4  # the largest admissible base half length
    if cap < 1:
        raise ValueError(f"no admissible doubled filter length for n={n}")
    raw = max(1, math.floor(xi * n / n_ext))
    return min(raw, cap)
