"""Signal extension rules outside the field of view.

Four named rules (zero, periodic, reflective, anti-reflective) plus the
constant worst-case extension used by the boundary-error model.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .signal import as_values

__all__ = ["BoundaryKind", "ExtendedSignal", "extend", "constant_error_extension"]


class BoundaryKind(str, Enum):
    ZERO = "zero"
    PERIODIC = "periodic"
    REFLECTIVE = "reflective"
    ANTIREFLECTIVE = "antireflective"


@dataclass(frozen=True)
class ExtendedSignal:
    """A signal together with p extrapolated samples on each side.

    ``left`` holds positions -p..-1 in index order, ``right`` positions
    n..n-1+p; ``core`` is the untouched original signal.
    """

    left: np.ndarray
    core: np.ndarray
    right: np.ndarray

    @property
    def pad(self) -> int:
        return self.left.size

    @property
    def n(self) -> int:
        return self.core.size

    @property
    def values(self) -> np.ndarray:
        return np.concatenate([self.left, self.core, self.right])


def extend(s, kind: BoundaryKind, p: int) -> ExtendedSignal:
    """Extend a signal by p samples per side under a boundary rule.

    The rules, for j = 1..p (writing s_j for the core samples):

    * zero:            s(-j) = 0,               s(n-1+j) = 0
    * periodic:        s(-j) = s(n-j),          s(n-1+j) = s(j-1)
    * reflective:      s(-j) = s(j-1),          s(n-1+j) = s(n-j)
    * anti-reflective: s(-j) = 2 s(0) - s(j),   s(n-1+j) = 2 s(n-1) - s(n-1-j)

    Periodic and reflective need p <= n; anti-reflective needs p <= n-1
    because it indexes sample j = p.
    """
    v = as_values(s)
    n = v.size
    kind = BoundaryKind(kind)
    if p < 0:
        raise ValueError("pad must be nonnegative")

    if kind is BoundaryKind.ZERO:
        left = np.zeros(p)
        right = np.zeros(p)
    elif kind is BoundaryKind.PERIODIC:
        if p > n:
            raise ValueError(f"periodic extension needs p <= n, got p={p}, n={n}")
        left = v[n - p:n].copy()
        right = v[:p].copy()
    elif kind is BoundaryKind.REFLECTIVE:
        if p > n:
            raise ValueError(f"reflective extension needs p <= n, got p={p}, n={n}")
        left = v[:p][::-1].copy()
        right = v[n - p:][::-1].copy()
    else:  # anti-reflective
        if p > n - 1:
            raise ValueError(f"anti-reflective extension needs p <= n-1, got p={p}, n={n}")
        left = 2.0 * v[0] - v[1:p + 1][::-1]
        right = 2.0 * v[-1] - v[n - 1 - p:n - 1][::-1]

    return ExtendedSignal(left=left, core=v.copy(), right=right)


def constant_error_extension(s, p: int) -> ExtendedSignal:
    """Worst-case extension: zero core, pads filled with chi = max |s|.

    This is the input vector of the boundary-error propagation model; chi
    bounds the assumed constant discrepancy between any extension rule and
    the unknown true continuation.
    """
    v = as_values(s)
    if p < 0:
        raise ValueError("pad must be nonnegative")
    chi = float(np.abs(v).max())
    return ExtendedSignal(left=np.full(p, chi), core=np.zeros(v.size), right=np.full(p, chi))
