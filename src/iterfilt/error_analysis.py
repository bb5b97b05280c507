"""Propagation of boundary errors into the field of view.

The worst-case extension error is modelled as a constant of magnitude
chi = max |s| outside the boundaries; iterating the padded circulant
operator on that vector and restricting to the core tracks how deep the
error has travelled after k steps, and the running componentwise max gives
a pointwise upper bound to compare against measured errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .boundary import BoundaryKind, ExtendedSignal, constant_error_extension
from .decompose import StoppingConfig, build_filter, inner_loop
from .filters import Filter, FilterShape, raised_cosine_shape
from .operators import StructuredOperator
from .signal import as_values

__all__ = [
    "ErrorEstimate",
    "error_propagation",
    "error_upper_bound",
    "actual_error",
    "relative_error",
    "boundary_error_estimate",
    "make_sine_trend_generator",
    "phase_sweep",
    "SweepPoint",
    "dominant_period",
]

# entries of the (steps, coefficients) block inverted at once by error_propagation
_BLOCK = 1 << 16


@dataclass(frozen=True)
class ErrorEstimate:
    """Per-step propagated errors and their pointwise upper bound."""

    per_step: np.ndarray          # (steps, n)
    upper_bound: np.ndarray       # (n,)
    chi: float
    pad: int
    steps: int


def error_propagation(op_ext: StructuredOperator, u: ExtendedSignal, steps: int) -> np.ndarray:
    """Propagate the worst-case boundary error for a number of steps.

    Computes (I - W)^j u for j = 1..steps, u the constant-outside/zero-inside
    vector on the extended domain and W periodic of size n + 2p, and records
    each core restriction. All steps come from one DFT of u, whose
    coefficient k step j scales by (1 - lambda_k)^j; u is real, so the
    coefficients up to the Nyquist index suffice. Steps are inverted in
    fixed-size blocks, which keeps the temporaries small. W is banded, so
    the step-j error is exactly zero deeper than j*l samples into the core,
    and the transform's round-off is cleared there.

    Returns an array of shape (steps, n).
    """
    if BoundaryKind(op_ext.kind) is not BoundaryKind.PERIODIC:
        raise ValueError("error propagation runs on the periodic extended operator")
    full = u.values
    size = full.size
    if op_ext.n != size:
        raise ValueError(f"operator size {op_ext.n} does not match extended length {size}")
    p, n, l = u.pad, u.n, op_ext.filter.length
    c, lam = op_ext.to_eigenbasis(full)
    half = size // 2 + 1
    c, z = c[:half] * np.sqrt(size), 1.0 - lam[:half]
    out = np.empty((steps, n))
    rows, col = max(1, _BLOCK // size), np.arange(n)
    for j0 in range(0, steps, rows):
        coeffs = np.empty((min(rows, steps - j0), half), dtype=complex)
        coeffs[0] = z ** (j0 + 1) * c
        for i in range(1, len(coeffs)):
            np.multiply(coeffs[i - 1], z, out=coeffs[i])
        block = out[j0: j0 + len(coeffs)]
        block[:] = np.fft.irfft(coeffs, size)[:, p: p + n]
        depth = l * np.arange(j0 + 1, j0 + len(coeffs) + 1)[:, None]
        block[(col >= depth) & (col < n - depth)] = 0.0
    return out


def error_upper_bound(per_step) -> np.ndarray:
    """Componentwise running maximum of |err_j| over all recorded steps."""
    arr = np.asarray(per_step, dtype=float)
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ValueError("need a nonempty sequence of per-step error vectors")
    return np.abs(arr).max(axis=0)


def actual_error(f1, f1_exact) -> np.ndarray:
    """Pointwise absolute difference |f1 - f1_exact|."""
    a = np.asarray(f1, dtype=float)
    b = np.asarray(f1_exact, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    return np.abs(a - b)


def relative_error(f1, f1_exact) -> float:
    """Max-norm relative error ||f1 - f1_exact||_inf / ||f1_exact||_inf."""
    a = np.asarray(f1, dtype=float)
    b = np.asarray(f1_exact, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    denom = float(np.abs(b).max())
    if denom == 0.0:
        raise ValueError("relative error undefined for a zero reference component")
    return float(np.abs(a - b).max()) / denom


def boundary_error_estimate(s, filt: Filter, p: int, steps: int) -> ErrorEstimate:
    """Run the full worst-case propagation for a signal and filter."""
    values = as_values(s)
    u = constant_error_extension(values, p)
    op = StructuredOperator(filt, BoundaryKind.PERIODIC, values.size + 2 * p)
    per_step = error_propagation(op, u, steps)
    return ErrorEstimate(
        per_step=per_step,
        upper_bound=error_upper_bound(per_step),
        chi=float(np.abs(values).max()),
        pad=p,
        steps=steps,
    )


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
    if period <= 0.0 or amplitude <= 0.0:
        raise ValueError("amplitude and period must be positive")

    def generator(endpoint: float, dt: float):
        t = np.arange(start, endpoint + 0.5 * dt, dt)
        centre = 0.5 * (start + endpoint)
        exact = amplitude * np.sin(2.0 * np.pi * (t - centre) / period + phase)
        return exact + trend, exact

    generator.period = period
    generator.start = start
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
    if dt <= 0.0 or span <= 0.0:
        raise ValueError("dt and span must be positive")
    cfg = cfg or StoppingConfig()
    shape = shape or raised_cosine_shape()
    if kinds is None:
        kinds = (BoundaryKind.PERIODIC, BoundaryKind.REFLECTIVE, BoundaryKind.ANTIREFLECTIVE)
    kinds = [BoundaryKind(k) for k in kinds]

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

        estimate = boundary_error_estimate(samples, filt, 2 * filt.length, max(k_used, 1))
        ub_rel = float(estimate.upper_bound.max()) / float(np.abs(exact).max())
        best = min(errs, key=errs.get)
        points.append(SweepPoint(endpoint=endpoint, ub_rel=ub_rel, err_rel=errs, best_kind=best))
    return points


def dominant_period(values, step: float) -> float:
    """Dominant period of a sampled curve from its spectrum peak.

    The curve is detrended with a linear fit before the Fourier transform so
    slow drift does not mask the oscillation.
    """
    v = np.asarray(values, dtype=float)
    if v.size < 4:
        raise ValueError("need at least 4 samples to estimate a period")
    x = np.arange(v.size)
    v = v - np.polyval(np.polyfit(x, v, 1), x)
    spectrum = np.abs(np.fft.rfft(v))
    peak = 1 + int(np.argmax(spectrum[1:]))
    return v.size * step / peak
