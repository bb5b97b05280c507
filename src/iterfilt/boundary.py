"""Signal extension rules outside the field of view.

Four named rules (zero, periodic, reflective, anti-reflective), each one of
numpy's pad modes: :func:`extend` returns the n + 2p samples of the
extended signal as one array, the original samples at positions p..p+n-1.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

__all__ = ["BoundaryKind", "extend"]


class BoundaryKind(str, Enum):
    ZERO = "zero"
    PERIODIC = "periodic"
    REFLECTIVE = "reflective"
    ANTIREFLECTIVE = "antireflective"


# np.pad's keyword arguments for each rule
_PAD_MODES = {
    BoundaryKind.ZERO: {"mode": "constant"},
    BoundaryKind.PERIODIC: {"mode": "wrap"},
    BoundaryKind.REFLECTIVE: {"mode": "symmetric"},
    BoundaryKind.ANTIREFLECTIVE: {"mode": "reflect", "reflect_type": "odd"},
}


def extend(s, kind: BoundaryKind, p: int) -> np.ndarray:
    """The n + 2p samples of a signal extended by p per side under a rule.

    The rules, for j = 1..p (writing s_j for the samples):

    * zero:            s(-j) = 0,               s(n-1+j) = 0
    * periodic:        s(-j) = s(n-j),          s(n-1+j) = s(j-1)
    * reflective:      s(-j) = s(j-1),          s(n-1+j) = s(n-j)
    * anti-reflective: s(-j) = 2 s(0) - s(j),   s(n-1+j) = 2 s(n-1) - s(n-1-j)

    Element p + i of the result is s_i. Periodic and reflective need
    p <= n; anti-reflective needs p <= n-1 because it indexes sample j = p.
    """
    v = np.asarray(s, dtype=float)
    n = v.size
    kind = BoundaryKind(kind)
    if p < 0:
        raise ValueError("pad must be nonnegative")
    if kind is BoundaryKind.PERIODIC and p > n:
        raise ValueError(f"periodic extension needs p <= n, got p={p}, n={n}")
    if kind is BoundaryKind.REFLECTIVE and p > n:
        raise ValueError(f"reflective extension needs p <= n, got p={p}, n={n}")
    if kind is BoundaryKind.ANTIREFLECTIVE and p > n - 1:
        raise ValueError(f"anti-reflective extension needs p <= n-1, got p={p}, n={n}")
    return np.pad(v, p, **_PAD_MODES[kind])
