"""Propagation of boundary errors into the field of view.

The worst-case extension error is modelled as a constant of magnitude
chi = max |s| outside the boundaries; iterating the padded circulant
operator on that vector and restricting to the core tracks how deep the
error has travelled after k steps, and the running componentwise max gives
a pointwise upper bound to compare against measured errors.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .boundary import BoundaryKind
from .decompose import StoppingConfig, inner_loop
from .filters import (Filter, FilterShape, convolve_self, filter_length, raised_cosine_shape,
                      sample_filter)
from .operators import TRANSFORM_KINDS, StructuredOperator, spectrum_outside_unit
from .signal import scale_back, unit_exponent

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
# extended sizes below this take the dense split kernel, in blocks of this
# many steps and at a multiple of this many columns (see error_propagation)
_DENSE_MAX_SIZE = 640
_DENSE_ROWS = 128
_DENSE_COLS = 8
# terms of a slow bin's binomial series, (-1)^t C(r, t) for the steps
# r = 1..R of a block, and the least normal float (smaller powers are flushed)
_SLOW_TERMS = 13
_BINOMIALS = np.array([[(-1) ** t * math.comb(r, t) for t in range(_SLOW_TERMS)]
                       for r in range(1, _DENSE_ROWS + 1)], dtype=float)
_TINY = np.finfo(float).tiny


def error_propagation(s, filt: Filter, steps: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Propagate the worst-case boundary error of a signal for a number of steps.

    The step-j error is the core restriction of (I - W)^j u: u is the
    array of N = n + 2p samples that holds chi = max |s| at the p outer
    ones on each side and zero at the n core ones, and W is the periodic
    operator of ``filt`` of size N. All steps come from one real DFT of u
    (:meth:`StructuredOperator.to_eigenbasis`), whose coefficient k
    scales by z_k^j at step j, z = 1 - lambda. One loop runs over
    blocks of steps, whose powers are z^j0 times one table z^1..z^rows
    (each within a few ulps whatever j), and folds each block into the
    result, so memory stays O(block + n). W is banded, so the step-j error
    is exactly zero deeper than j*l samples into the core, and the
    round-off is cleared there.

    W and u are both reversal-symmetric, so only the first (n + 1) // 2
    core samples are computed and the rest mirrored. Only the map from a
    block's powers to those errors depends on N. Below N = 640 a block of
    R = 128 steps is one matrix product (:func:`_dense_blocks`) with the
    real core basis of :func:`_core_basis`, its width rounded up to a
    multiple of 8 columns and the product trimmed. The product splits the
    bins by rho = R lambda: a fast bin, rho > 1/4 (about 20 of the 146-185
    bins of the phase sweep), enters by its powers; the slow bins enter by
    13 moment rows, since the binomial series of z^r = (1 - lambda)^r,
    r <= R, cut after (-lambda)^12 misses at most rho^13 / 13! <=
    0.25^13 / 13! = 2.4e-18 of a bin's term. Powers and moments below the
    least normal float are flushed to zero: a subnormal operand costs
    about 1 us a product, and a flushed term is below 1e-290 chi.
    At such widths OpenBLAS rounds the products the same under 1 and 2
    threads (checked on 1,189 random cases below 768; at multiples of 4,
    or unrounded, about half of them round by the thread count, and from
    N = 817, where about 400 slow bins make the moments' inner dimension,
    some do at any width). From N = 640 on a block of 2^16 coefficients
    is one batched irfft of the powers times the coefficients, fast only
    at lengths without large prime factors. Time of the dense product over
    the batched irfft for 300 steps, at every 5th N, for doubled filters
    of l = 10 (p = 20) and l = 60 (p = 120) (geometric mean and range of
    the per-size ratios, interleaved medians of 15, on a 2-vCPU x86-64
    host, numpy 2.4, OpenBLAS on one thread):

    ============  =====  =========  ============
    N             mean   range      dense faster
    ============  =====  =========  ============
    256-319       0.37   0.14-0.69  26 of 26
    320-383       0.35   0.13-0.78  26 of 26
    384-447       0.35   0.11-0.82  26 of 26
    448-511       0.44   0.12-1.08  23 of 26
    512-575       0.44   0.12-1.06  22 of 24
    576-639       0.56   0.21-1.35  21 of 26
    640-703       0.64   0.20-1.48  18 of 26
    704-767       0.72   0.26-2.47  19 of 26
    768-831       0.71   0.21-2.52  17 of 26
    832-895       0.97   0.20-5.90  14 of 24
    896-959       0.77   0.23-2.75  18 of 26
    960-1023      1.00   0.35-2.67  13 of 26
    1024-1087     1.10   0.46-3.43  14 of 26
    ============  =====  =========  ============

    The dense product wins on most sizes up to about 1,000, the ones with
    large prime factors, while at 5-smooth sizes the irfft wins from about
    480 for l = 10 (1.67 at 640, 2.49 at 720); from N = 817 its products
    can round by the thread count. The crossover is at 640, well below
    those sizes.

    Returns (last, upper_bound): the step-``steps`` core error and the
    pointwise maximum of |err_j| over j = 1..steps, both arrays of length n.
    With p = 0 both are zero. They are computed for chi scaled by the power
    of two that brings it into [0.5, 1) and scaled back, exactly, so no sum
    of the DFT overflows on finite samples. Raises ValueError where the
    bound exceeds the largest float and, as :func:`inner_loop` does, for a
    spectrum outside [0, 1], where some |z_k| > 1 would grow the error
    without bound.
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
    c, lam, weight = op.to_eigenbasis(u)
    if problem := spectrum_outside_unit(lam):
        raise ValueError(problem)
    z, width = 1.0 - lam, (n + 1) // 2
    if size < _DENSE_MAX_SIZE:
        rows, block = _DENSE_ROWS, _dense_blocks(c, lam, weight, size, p, width)
    else:
        rows = max(1, _BLOCK // size)
        table = z ** np.arange(1, rows + 1)[:, None]

        def block(j0: int, count: int) -> np.ndarray:
            powers = table[:count] * z ** j0 if j0 else table[:count]
            return np.fft.irfft(powers * c, size)[:, p: p + width]
    bound = np.zeros(width)
    for j0 in range(0, steps, rows):
        err = block(j0, min(rows, steps - j0))
        if 2 * l * (j0 + 1) < n:
            depth = l * np.arange(j0 + 1, j0 + len(err) + 1)[:, None]
            err[np.arange(width) >= depth] = 0.0
        np.maximum(bound, np.abs(err).max(axis=0), out=bound)
    last, bound = (np.concatenate([v, v[: n // 2][::-1]]) for v in (err[-1], bound))
    return scale_back(last, e, "the last step's error"), scale_back(bound, e, "the error bound")


def _dense_blocks(c: np.ndarray, lam: np.ndarray, weight: np.ndarray, size: int, p: int,
                  width: int):
    """block(j0, count) -> the errors of steps j0 + 1..j0 + count at the
    first ``width`` core samples, for j0 a multiple of R: the first rows of
    one product over all R steps, the fast bins' powers and the slow bins'
    moments times the basis (see :func:`error_propagation`), so no step's
    error depends on ``count``."""
    cols = -(-width // _DENSE_COLS) * _DENSE_COLS
    basis = _core_basis(c, weight, size, p, cols)
    fast, z = _DENSE_ROWS * lam > 0.25, 1.0 - lam
    nf, zf, zs = np.count_nonzero(fast), z[fast], z[~fast]
    table = _flushed(zf ** np.arange(1, _DENSE_ROWS + 1)[:, None])
    lam_powers, slow = _flushed(lam[~fast] ** np.arange(_SLOW_TERMS)[:, None]), basis[~fast]
    left = np.empty((_DENSE_ROWS, nf + _SLOW_TERMS))  # [z^(j0 + r) | (-1)^t C(r, t)]
    right = np.empty((nf + _SLOW_TERMS, cols))        # [A of the fast bins; moment rows]
    left[:, nf:], right[:nf] = _BINOMIALS, basis[fast]

    def block(j0: int, count: int) -> np.ndarray:
        _flushed(np.multiply(table, zf ** j0, out=left[:, :nf]))
        np.matmul(_flushed(lam_powers * zs ** j0), slow, out=right[nf:])
        return (left @ right)[:count, :width]

    return block


def _flushed(x: np.ndarray) -> np.ndarray:
    """x with its subnormal entries set to zero, in place."""
    x[np.abs(x) < _TINY] = 0.0
    return x


def _core_basis(c: np.ndarray, weight: np.ndarray, size: int, p: int,
                width: int) -> np.ndarray:
    """Real (size//2 + 1, width) matrix A with irfft(c * z^j)[p + i] =
    sum_k z_k^j A[k, i] for i < width, c being the rfft of a real vector:
    the irfft's weights, which are the periodic norm weights of
    :meth:`StructuredOperator.to_eigenbasis` (1/N at DC and Nyquist,
    whose c is real, and 2/N between), times Re(c_k e^{2 pi i k m / N}),
    m = p + i, from one cos/sin table of length N indexed by (k m) mod N."""
    re, im = c.real * weight, c.imag * weight
    angle = 2.0 * np.pi / size * np.arange(size)
    # k m < size^2 fits int32, whose remainder is about 4x faster than int64's
    index = np.multiply.outer(np.arange(c.size, dtype=np.int32),
                              np.arange(p, p + width, dtype=np.int32))
    index %= np.int32(size)
    basis = np.cos(angle).take(index)
    basis *= re[:, None]
    sine = np.sin(angle).take(index)
    sine *= im[:, None]
    basis -= sine
    return basis


def actual_error(f1, f1_exact) -> np.ndarray:
    """Pointwise absolute difference |f1 - f1_exact|; ValueError past the largest float."""
    a = np.asarray(f1, dtype=float)
    b = np.asarray(f1_exact, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    try:
        with np.errstate(over="raise"):
            return np.abs(a - b)
    except FloatingPointError:
        raise ValueError("the pointwise error exceeds the largest float") from None


def relative_error(f1, f1_exact) -> float:
    """Max-norm relative error ||f1 - f1_exact||_inf / ||f1_exact||_inf, at
    the unit scale of f1_exact (:func:`unit_exponent`); ValueError where f1
    at that scale, or the error, exceeds the largest float."""
    e = unit_exponent(np.asarray(f1_exact, dtype=float))
    try:
        with np.errstate(over="raise"):
            a, b = (np.ldexp(np.asarray(v, dtype=float), -e) for v in (f1, f1_exact))
            err, denom = actual_error(a, b).max(), np.abs(b).max()
            if denom == 0.0:
                raise ValueError("relative error undefined for a zero reference component")
            return float(err / denom)
    except FloatingPointError:
        raise ValueError("the relative error exceeds the largest float") from None


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
    if not math.isfinite(amplitude + abs(trend)):  # the largest |sample|
        raise ValueError("amplitude + |trend| must be finite")

    def generator(endpoint: float, dt: float):
        t = np.arange(start, endpoint + 0.5 * dt, dt)
        centre = 0.5 * (start + endpoint)
        with np.errstate(over="ignore"):
            angle = 2.0 * np.pi * (t - centre) / period
        if not np.isfinite(angle).all():
            raise ValueError(f"period {period!r} is too short: the sine's phase overflows")
        exact = amplitude * np.sin(angle + phase)
        return exact + trend, exact

    return generator


def phase_sweep(generator: Callable, dt: float, span: float,
                kinds: Sequence[BoundaryKind] | Iterable[BoundaryKind] | None = None,
                cfg: StoppingConfig | None = None,
                shape: FilterShape | None = None) -> list[SweepPoint]:
    """Re-decompose a signal family on growing supports and track errors.

    For every endpoint (multiples of dt up to span) the first component is
    extracted under each boundary kind, with the self-convolved filter of
    the base length that :func:`filter_length` reads off the samples (built
    again only where that length changes), and compared with the
    known exact component; the worst-case upper bound is propagated for as
    many steps as the slowest of those runs actually took. Each sweep point records the
    relative errors, the relative upper bound and the best-performing kind.

    Under glibc the sweep keeps 1 MiB free at the heap top (``mallopt``,
    M_TOP_PAD) for the rest of the process, not just for the sweep, and
    that also switches off glibc's dynamic mmap threshold: after one sweep,
    each ``decompose`` of n = 200,000 noise on a trend in the same process
    took 17,100-19,000 minor page faults, against 5,300-5,700 without it.
    """
    for name, value in (("dt", dt), ("span", span)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and positive")
    cfg = cfg or StoppingConfig()
    shape = shape or raised_cosine_shape()
    kinds = [BoundaryKind(k) for k in (TRANSFORM_KINDS if kinds is None else kinds)]

    # glibc keeps 1 MiB free at the heap top (M_TOP_PAD) from here on, or
    # whether error_propagation's 410-670 kB of temporaries a call are
    # trimmed and faulted back in hangs on the heap's layout, which any edit
    # moves (0 to about 5,000 minor faults, 4-9 % of a default sweep)
    with contextlib.suppress(AttributeError, OSError, TypeError):
        ctypes.CDLL(None).mallopt(-2, 1 << 20)
    points: list[SweepPoint] = []
    base = None
    for step in range(1, int(round(span / dt)) + 1):
        endpoint = step * dt
        samples, exact = generator(endpoint, dt)
        if (length := filter_length(samples, cfg.xi)) != base:
            base, filt = length, convolve_self(sample_filter(shape, length))

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

