"""Propagation of boundary errors into the field of view.

The worst-case extension error is modelled as a constant of magnitude
chi = max |s| outside the boundaries; iterating the padded circulant
operator on that vector and restricting to the core tracks how deep the
error has travelled after k steps, and the running componentwise max gives
a pointwise upper bound to compare against measured errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .boundary import BoundaryKind
from .decompose import StoppingConfig, build_filter, inner_loop
from .filters import Filter, FilterShape, raised_cosine_shape
from .operators import TRANSFORM_KINDS, StructuredOperator, spectrum_outside_unit
from .signal import unit_exponent

__all__ = [
    "error_propagation",
    "actual_error",
    "relative_error",
    "make_sine_trend_generator",
    "phase_sweep",
    "SweepPoint",
]

# entries of the (steps, coefficients) block of one batched irfft
_BLOCK = 1 << 16
# extended sizes below this take the dense core basis, in blocks of this
# many steps and at a multiple of this many columns (see error_propagation)
_DENSE_MAX_SIZE = 640
_DENSE_ROWS = 64
_DENSE_COLS = 8


def error_propagation(s, filt: Filter, steps: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Propagate the worst-case boundary error of a signal for a number of steps.

    The step-j error is the core restriction of (I - W)^j u: u is the
    array of N = n + 2p samples that holds chi = max |s| at the p outer
    ones on each side and zero at the n core ones, and W is the periodic
    operator of ``filt`` of size N. All steps come from one real DFT of u
    (:meth:`StructuredOperator.to_real_eigenbasis`), whose coefficient k
    scales by z_k^j at step j, z = 1 - lambda. One loop runs over
    blocks of steps, whose powers are z^j0 times one table z^1..z^rows
    (each within a few ulps whatever j), and folds each block into the
    result, so memory stays O(block + n). W is banded, so the step-j error
    is exactly zero deeper than j*l samples into the core, and the
    round-off is cleared there.

    W and u are both reversal-symmetric, so only the first (n + 1) // 2
    core samples are computed and the rest mirrored. Only the map from a
    block's powers to those errors depends on N. Below N = 640 a block of
    64 steps is one matrix product with the real core basis of
    :func:`_core_basis`, its width rounded up to a multiple of 8 columns
    and the product trimmed: at such widths OpenBLAS rounds the product
    the same under 1 and 2 threads (on 561 sizes below 640; at multiples
    of 4, or unrounded, about half of them round by the thread count).
    From N = 640 on a block of 2^16
    coefficients is one batched irfft of the powers times the
    coefficients, fast only at lengths without large prime factors. Time
    of the dense basis over the batched irfft for 300 steps, at every 5th
    N, for doubled filters of l = 10 (p = 20) and l = 60 (p = 120)
    (geometric mean and range of the per-size ratios, interleaved medians
    of 15, on a 2-vCPU x86-64 host, numpy 2.4, OpenBLAS on one thread):

    ============  =====  =========  ============
    N             mean   range      dense faster
    ============  =====  =========  ============
    256-319       0.40   0.16-0.72  26 of 26
    320-383       0.43   0.12-0.88  26 of 26
    384-447       0.47   0.17-1.00  26 of 26
    448-511       0.57   0.21-1.04  24 of 26
    512-575       0.59   0.20-1.19  20 of 24
    576-639       0.72   0.33-1.50  18 of 26
    640-703       0.81   0.38-1.37  12 of 26
    704-767       0.86   0.44-1.88  16 of 26
    768-831       0.83   0.35-1.94  16 of 26
    832-895       1.16   0.42-1.94  7 of 24
    ============  =====  =========  ============

    640 is where the dense basis stops winning on most sizes; it stays
    faster on average up to about 830, at sizes with large prime factors,
    while the irfft already wins at 5-smooth sizes from 512 (1.22 at 512,
    1.74 at 640 for l = 10).

    Returns (last, upper_bound): the step-``steps`` core error and the
    pointwise maximum of |err_j| over j = 1..steps, both arrays of length n.
    With p = 0 both are zero. They are computed for chi scaled by the power
    of two that brings it into [0.5, 1) and scaled back, exactly, so no sum
    of the DFT overflows on finite samples. Raises ValueError, as
    :func:`inner_loop` does, for a spectrum outside [0, 1], where some
    |z_k| > 1 would grow the error without bound.
    """
    if p < 0:
        raise ValueError("pad must be nonnegative")
    values = np.asarray(s, dtype=float)
    n, l = values.size, filt.length
    size = n + 2 * p
    chi, e = float(np.abs(values).max()), unit_exponent(values)
    u = np.zeros(size)
    u[:p] = u[p + n:] = math.ldexp(chi, -e)
    op = StructuredOperator(filt, BoundaryKind.PERIODIC, size)
    if steps < 1:
        raise ValueError("steps must be at least 1")
    c, lam, weight = op.to_real_eigenbasis(u)
    if problem := spectrum_outside_unit(lam):
        raise ValueError(problem)
    z, width = 1.0 - lam, (n + 1) // 2
    if size < _DENSE_MAX_SIZE:
        cols = -(-width // _DENSE_COLS) * _DENSE_COLS
        rows, basis = _DENSE_ROWS, _core_basis(c, weight, size, p, cols)
    else:
        rows, basis = max(1, _BLOCK // size), None
    table = z ** np.arange(1, rows + 1)[:, None]
    bound = np.zeros(width)
    for j0 in range(0, steps, rows):
        powers = table * z ** j0 if j0 else table
        if basis is not None:  # all rows, so no step's error depends on ``steps``
            err = (powers @ basis)[: steps - j0, :width]
        else:
            err = np.fft.irfft(powers[: steps - j0] * c, size)[:, p: p + width]
        if 2 * l * (j0 + 1) < n:
            depth = l * np.arange(j0 + 1, j0 + len(err) + 1)[:, None]
            err[np.arange(width) >= depth] = 0.0
        np.maximum(bound, np.abs(err).max(axis=0), out=bound)
    last, bound = (np.concatenate([v, v[: n // 2][::-1]]) for v in (err[-1], bound))
    return np.ldexp(last, e), np.ldexp(bound, e)


def _core_basis(c: np.ndarray, weight: np.ndarray, size: int, p: int,
                width: int) -> np.ndarray:
    """Real (size//2 + 1, width) matrix A with irfft(c * z^j)[p + i] =
    sum_k z_k^j A[k, i] for i < width, c being the rfft of a real vector:
    the irfft's weights, which are the norm weights of
    :meth:`StructuredOperator.to_real_eigenbasis` (1/N at DC and Nyquist,
    whose c is real, and 2/N between), times Re(c_k e^{2 pi i k m / N}),
    m = p + i, from one cos/sin table of length N indexed by (k m) mod N."""
    re, im = c.real * weight, c.imag * weight
    angle = 2.0 * np.pi / size * np.arange(size)
    # k m < size^2 fits int32, whose remainder is about 4x faster than int64's
    index = np.multiply.outer(np.arange(c.size, dtype=np.int32),
                              np.arange(p, p + width, dtype=np.int32))
    index %= np.int32(size)
    basis = np.cos(angle)[index]
    basis *= re[:, None]
    sine = np.sin(angle)[index]
    sine *= im[:, None]
    basis -= sine
    return basis


def actual_error(f1, f1_exact) -> np.ndarray:
    """Pointwise absolute difference |f1 - f1_exact|."""
    a = np.asarray(f1, dtype=float)
    b = np.asarray(f1_exact, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    return np.abs(a - b)


def relative_error(f1, f1_exact) -> float:
    """Max-norm relative error ||f1 - f1_exact||_inf / ||f1_exact||_inf."""
    err = actual_error(f1, f1_exact)
    denom = float(np.abs(np.asarray(f1_exact, dtype=float)).max())
    if denom == 0.0:
        raise ValueError("relative error undefined for a zero reference component")
    return float(err.max()) / denom


@dataclass(frozen=True)
class SweepPoint:
    """One endpoint of the support sweep."""

    endpoint: float
    ub_rel: float
    err_rel: dict[str, float]
    best_kind: str


def make_sine_trend_generator(amplitude: float = 1.0, period: float = 1.0,
                              trend: float = 1.5, start: float = -8.0,
                              phase: float = 0.4) -> Callable:
    """Family of sine-plus-constant signals on a growing support.

    ``generator(endpoint, dt)`` samples [start, endpoint] with step dt and
    returns (samples, exact oscillatory component). The sine phase is
    anchored to the centre of the current support, so both boundary phases
    advance as the support grows and the boundary-error curves keep the full
    signal period instead of collapsing onto its half.
    """
    for name, value in (("amplitude", amplitude), ("period", period), ("trend", trend),
                        ("start", start), ("phase", phase)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite")
    if period <= 0.0 or amplitude <= 0.0:
        raise ValueError("amplitude and period must be positive")

    def generator(endpoint: float, dt: float):
        t = np.arange(start, endpoint + 0.5 * dt, dt)
        centre = 0.5 * (start + endpoint)
        exact = amplitude * np.sin(2.0 * np.pi * (t - centre) / period + phase)
        return exact + trend, exact

    return generator


def phase_sweep(generator: Callable, dt: float, span: float,
                kinds: Sequence[BoundaryKind] | Iterable[BoundaryKind] | None = None,
                cfg: StoppingConfig | None = None,
                shape: FilterShape | None = None) -> list[SweepPoint]:
    """Re-decompose a signal family on growing supports and track errors.

    For every endpoint (multiples of dt up to span) the first component is
    extracted under each boundary kind and compared with the known exact
    component; the worst-case upper bound is propagated for as many steps as
    the slowest of those runs actually took. Each sweep point records the
    relative errors, the relative upper bound and the best-performing kind.
    """
    for name, value in (("dt", dt), ("span", span)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and positive")
    cfg = cfg or StoppingConfig()
    shape = shape or raised_cosine_shape()
    kinds = [BoundaryKind(k) for k in (TRANSFORM_KINDS if kinds is None else kinds)]

    points: list[SweepPoint] = []
    for step in range(1, int(round(span / dt)) + 1):
        endpoint = step * dt
        samples, exact = generator(endpoint, dt)
        samples = np.asarray(samples, dtype=float)
        exact = np.asarray(exact, dtype=float)
        filt = build_filter(samples, shape, cfg)

        errs: dict[str, float] = {}
        k_used = 0
        for kind in kinds:
            imf, k, _ = inner_loop(samples, filt, kind, cfg)
            k_used = max(k_used, k)
            errs[kind.value] = relative_error(imf, exact)

        bound = error_propagation(samples, filt, max(k_used, 1), 2 * filt.length)[1]
        ub_rel = float(bound.max()) / float(np.abs(exact).max())
        best = min(errs, key=errs.get)
        points.append(SweepPoint(endpoint=endpoint, ub_rel=ub_rel, err_rel=errs, best_kind=best))
    return points

