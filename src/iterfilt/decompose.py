"""Inner/outer decomposition loops and the iteration-count bound.

The direct method re-imposes boundary conditions at every inner step; the
extended variant pads the signal once, iterates a circulant operator on the
padded vector and restricts the results back to the field of view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .boundary import BoundaryKind, extend
from .filters import (Filter, FilterShape, convolve_self, filter_length, max_filter_length,
                      raised_cosine_shape, sample_filter)
from .operators import StructuredOperator
from .signal import as_values, count_extrema

__all__ = [
    "StoppingConfig",
    "ImfDiagnostics",
    "Decomposition",
    "ConvergenceConstants",
    "delta_metric",
    "inner_loop",
    "build_filter",
    "dif",
    "eif",
    "stopping_bound_k0",
]

# below this iterate norm the relative step change is undefined
_ZERO_ITERATE = 1e-14
# entries of the (steps, coefficients) block scanned at once by the spectral sift
_SCAN_BLOCK = 1 << 16


@dataclass(frozen=True)
class StoppingConfig:
    """Knobs shared by the decomposition loops.

    delta is the relative step-change threshold of the inner loop,
    max_inner caps inner iterations, max_imfs caps the total number of
    components (trend included), xi scales the filter length and
    double_filter selects the self-convolved filter needed by the
    convergence theory.
    """

    delta: float = 1e-3
    max_inner: int = 1000
    max_imfs: int = 16
    xi: float = 1.6
    double_filter: bool = True

    def __post_init__(self):
        if self.delta <= 0.0:
            raise ValueError("delta must be positive")
        if self.max_inner < 1 or self.max_imfs < 1:
            raise ValueError("iteration caps must be at least 1")
        if self.xi <= 0.0:
            raise ValueError("xi must be positive")


@dataclass(frozen=True)
class ImfDiagnostics:
    """Per-component record: inner steps, filter width, final step change."""

    inner_steps: int
    filter_length: int
    final_delta: float | None


@dataclass(frozen=True)
class Decomposition:
    """Ordered components f_1..f_M; the last entry is the residual trend."""

    imfs: list[np.ndarray]
    diagnostics: list[ImfDiagnostics] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.imfs)

    def reconstruction(self) -> np.ndarray:
        """Sum of all components; telescopes back to the decomposed input."""
        return np.sum(self.imfs, axis=0)


@dataclass(frozen=True)
class ConvergenceConstants:
    """Boundary-dependent constants of the iteration-count bound.

    alpha bounds the Euclidean norm of the diagonalizing transform (1 for
    the orthogonal/unitary kinds, 3 for anti-reflective whose transform
    splits into three unit-norm pieces), beta is the multiplicity of
    eigenvalue one, zeta the number of zero eigenvalues.
    """

    alpha: float
    beta: int
    zeta: int

    @classmethod
    def for_operator(cls, op: StructuredOperator) -> "ConvergenceConstants":
        kind = BoundaryKind(op.kind)
        if kind is BoundaryKind.ANTIREFLECTIVE:
            alpha, beta = 3.0, 2
        elif kind in (BoundaryKind.PERIODIC, BoundaryKind.REFLECTIVE):
            alpha, beta = 1.0, 1
        else:
            raise ValueError("convergence constants are defined for periodic, "
                             "reflective and anti-reflective kinds only")
        return cls(alpha=alpha, beta=beta, zeta=op.eigenvalues().zero_multiplicity)


def delta_metric(s_next, s_cur) -> float:
    """Relative step change ||s_next - s_cur||_2 / ||s_cur||_2."""
    s_next = np.asarray(s_next, dtype=float)
    s_cur = np.asarray(s_cur, dtype=float)
    denom = float(np.linalg.norm(s_cur))
    if denom == 0.0:
        raise ValueError("step change undefined for a zero current iterate")
    return float(np.linalg.norm(s_next - s_cur)) / denom


def inner_loop(s, filt: Filter, kind: BoundaryKind,
               cfg: StoppingConfig | None = None) -> tuple[np.ndarray, int, float | None]:
    """Extract one component: iterate s <- s - W s until the step change
    drops below delta.

    Boundary conditions are re-imposed by every application. Stops early
    when the iterate is numerically zero (the step change is undefined
    there). Returns (iterate, steps, last step change), the change being
    None when no step was taken. The zero kind applies W once per step; the
    others take the same steps in the eigenbasis (:func:`_sift_spectral`).
    """
    cfg = cfg or StoppingConfig()
    values = as_values(s)
    op = StructuredOperator(filt, BoundaryKind(kind), values.size)
    if op.kind is not BoundaryKind.ZERO:
        return _sift_spectral(op, values, cfg)
    cur = values.copy()
    k = 0
    d = None
    while k < cfg.max_inner:
        norm_cur = float(np.linalg.norm(cur))
        if norm_cur < _ZERO_ITERATE:
            break
        nxt = cur - op.apply(cur)
        k += 1
        d = float(np.linalg.norm(nxt - cur)) / norm_cur
        cur = nxt
        if d < cfg.delta:
            break
    return cur, k, d


def _sift_spectral(op: StructuredOperator, values: np.ndarray,
                   cfg: StoppingConfig) -> tuple[np.ndarray, int, float | None]:
    """:func:`inner_loop` in the eigenbasis: one transform round trip plus O(n)
    per step, since a step scales each coefficient c by 1 - lambda and
    changes the iterate by ||lambda c||.

    Step 1 runs in signal space: the anti-reflective transform is not
    orthogonal, but its ramp coefficients (eigenvalue one) vanish in that
    step, after which coefficient norms equal signal norms for every kind.
    Later steps are scanned in blocks whose row j holds the squared
    coefficients before step k + j + 1. The steps agree with the loop's for
    any delta above the iterate's round-off (about 1e-15), below which the
    loop's step change is rounding noise.
    """
    norm_cur = float(np.linalg.norm(values))
    if norm_cur < _ZERO_ITERATE:
        return values.copy(), 0, None
    c, lam = op.to_eigenbasis(values)
    z = 1.0 - lam
    c = z * c
    cur = op.from_eigenbasis(c)
    k, d = 1, float(np.linalg.norm(cur - values)) / norm_cur
    energy, decay = np.abs(c) ** 2, z**2
    rows = max(1, _SCAN_BLOCK // c.size)
    while not d < cfg.delta and k < cfg.max_inner:
        block = np.empty((min(rows, cfg.max_inner - k), c.size))
        block[0] = energy
        for i in range(1, len(block)):
            np.multiply(block[i - 1], decay, out=block[i])
        norms = np.sqrt(block.sum(axis=1))
        with np.errstate(divide="ignore", invalid="ignore"):
            changes = np.sqrt(block @ lam**2) / norms
        stop = np.flatnonzero((norms < _ZERO_ITERATE) | (changes < cfg.delta))
        if stop.size:
            j = int(stop[0])
            if norms[j] < _ZERO_ITERATE:
                k, d = k + j, (float(changes[j - 1]) if j else d)
            else:
                k, d = k + j + 1, float(changes[j])
            break
        k, d = k + len(block), float(changes[-1])
        energy = block[-1] * decay
    if k > 1:
        cur = op.from_eigenbasis(z ** (k - 1) * c)
    return cur, k, d


def build_filter(values, shape: FilterShape, cfg: StoppingConfig) -> Filter:
    """The filter an outer step uses on ``values``: its length comes from
    the extrema count and ``cfg.xi``, and it is self-convolved when
    ``cfg.double_filter`` is set."""
    l = filter_length(values, cfg.xi, doubled=cfg.double_filter)
    filt = sample_filter(shape, l)
    return convolve_self(filt) if cfg.double_filter else filt


def _outer_loop(values: np.ndarray, shape: FilterShape | None, kind: BoundaryKind,
                cfg: StoppingConfig | None):
    cfg = cfg or StoppingConfig()
    shape = shape or raised_cosine_shape()
    imfs: list[np.ndarray] = []
    diags: list[ImfDiagnostics] = []
    residual = values.copy()
    # without an admissible filter length the residual is the trend
    admissible = max_filter_length(values.size, doubled=cfg.double_filter) >= 1
    while admissible and len(imfs) < cfg.max_imfs - 1 and count_extrema(residual) >= 2:
        filt = build_filter(residual, shape, cfg)
        imf, k, d = inner_loop(residual, filt, kind, cfg)
        imfs.append(imf)
        diags.append(ImfDiagnostics(k, filt.length, d))
        residual = residual - imf
    imfs.append(residual)
    diags.append(ImfDiagnostics(0, 0, None))
    return imfs, diags


def dif(s, shape: FilterShape | None = None,
        kind: BoundaryKind = BoundaryKind.PERIODIC,
        cfg: StoppingConfig | None = None) -> Decomposition:
    """Decompose a signal by direct iterative filtering.

    Each outer step picks a filter length from the residual's extrema
    count, extracts one component with :func:`inner_loop` (re-imposing the
    chosen boundary conditions every iteration) and subtracts it. The loop
    ends when fewer than two extrema remain or max_imfs is reached; the
    final residual is appended as the trend, so the components always sum
    back to the input. A signal too short for any admissible filter length
    (fewer than 5 samples with the doubled filter) is returned as its trend.

    Parameters
    ----------
    s : Signal or array-like
        Input samples, length >= 3.
    shape : FilterShape, optional
        Filter profile; defaults to the raised cosine.
    kind : BoundaryKind
        Extension rule imposed inside the inner loop.
    cfg : StoppingConfig, optional
    """
    imfs, diags = _outer_loop(as_values(s), shape, BoundaryKind(kind), cfg)
    return Decomposition(imfs=imfs, diagnostics=diags)


def eif(s, shape: FilterShape | None = None,
        kind: BoundaryKind = BoundaryKind.PERIODIC, p: int = 0,
        cfg: StoppingConfig | None = None) -> Decomposition:
    """Decompose with a single up-front extension instead of re-imposition.

    The signal is extended once by p samples per side under ``kind``; every
    inner and outer iteration then runs a periodic (circulant) operator of
    size n + 2p on the extended vector, and the components are restricted
    back to the central n samples on output. With p = 0 and periodic
    conditions this reproduces :func:`dif` exactly.
    """
    extended = extend(s, kind, p)
    imfs_ext, diags = _outer_loop(extended.values, shape, BoundaryKind.PERIODIC, cfg)
    imfs = [f[p: p + extended.n].copy() for f in imfs_ext]
    return Decomposition(imfs=imfs, diagnostics=diags)


def stopping_bound_k0(delta: float, op: StructuredOperator, s) -> int:
    """Smallest k0 guaranteeing step changes below delta from k0 onwards.

    Returns the minimum natural k0 with

        k0^k0 / (k0+1)^(k0+1) < delta / (alpha * c * sqrt(n - beta - zeta))

    where c is the max-norm of the signal's eigenbasis coefficients. The
    left side is evaluated in logarithms and the minimum located by
    bisection, so very small thresholds are handled without overflow.
    Requires a doubled (self-convolved) filter for the guarantee to be
    meaningful, since the bound rests on a spectrum inside [0, 1].
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    consts = ConvergenceConstants.for_operator(op)
    s = np.asarray(s, dtype=float)
    coeffs, _ = op.to_eigenbasis(s)
    c_inf = float(np.abs(coeffs).max())
    m = op.n - consts.beta - consts.zeta
    if m <= 0 or c_inf == 0.0:
        return 1  # every step change is already zero

    log_rhs = math.log(delta) - math.log(consts.alpha * c_inf) - 0.5 * math.log(m)

    def log_lhs(k: int) -> float:
        return k * math.log(k) - (k + 1) * math.log(k + 1)

    if log_lhs(1) < log_rhs:
        return 1
    hi = 2
    while log_lhs(hi) >= log_rhs:
        hi *= 2
        if hi > 2**62:
            raise ValueError("stopping bound out of range")
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if log_lhs(mid) < log_rhs:
            hi = mid
        else:
            lo = mid
    return hi
