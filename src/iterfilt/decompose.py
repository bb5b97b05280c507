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
from .filters import (Filter, FilterShape, convolve_self, filter_length, raised_cosine_shape,
                      sample_filter)
from .operators import StructuredOperator, unit_eigenvectors
from .signal import as_values

__all__ = [
    "StoppingConfig",
    "ImfDiagnostics",
    "Decomposition",
    "ConvergenceConstants",
    "inner_loop",
    "build_filter",
    "dif",
    "eif",
    "stopping_bound_k0",
]

# below this fraction of the input's norm an iterate counts as zero: its
# relative step change is rounding noise
_ZERO_ITERATE = 1e-14
# eigenvalues this far outside [0, 1] are round-off of a spectrum inside it
_SPECTRUM_SLACK = 1e-12
# the zero kind's Krylov sift (see _sift_krylov): the least filter length
# that tries it, the steps between its checks, its largest basis, the most
# steps that the loop takes instead and the agreement of two checks'
# component coordinates, relative to ||s||
_KRYLOV_MIN_LENGTH = 16
_KRYLOV_CHECK = 20
_KRYLOV_MAX = 400
_KRYLOV_LOOP_STEPS = 240
_KRYLOV_TOL = 1e-14


@dataclass(frozen=True)
class StoppingConfig:
    """Knobs shared by the decomposition loops.

    delta is the relative step-change threshold of the inner loop,
    max_inner caps inner iterations, max_imfs caps the total number of
    components (trend included) and xi scales the base length of the
    self-convolved filter that every sift uses.
    """

    delta: float = 1e-3
    max_inner: int = 1000
    max_imfs: int = 16
    xi: float = 1.6

    def __post_init__(self):
        for name in ("delta", "xi"):
            if not (math.isfinite(getattr(self, name)) and getattr(self, name) > 0.0):
                raise ValueError(f"{name} must be finite and positive")
        if self.max_inner < 1 or self.max_imfs < 1:
            raise ValueError("iteration caps must be at least 1")


@dataclass(frozen=True)
class ImfDiagnostics:
    """Per-component record: inner steps, filter width, final step change."""

    inner_steps: int
    filter_length: int
    final_delta: float | None


@dataclass(frozen=True)
class Decomposition:
    """Ordered components f_1..f_M; the last entry is the residual trend.
    ``pad`` is the extension width per side (0 for :func:`dif`)."""

    imfs: list[np.ndarray]
    diagnostics: list[ImfDiagnostics] = field(default_factory=list)
    pad: int = 0

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
        """Raises ValueError for the zero kind, which has no unit eigenvalue."""
        beta = len(unit_eigenvectors(op.kind, op.n))
        alpha = 3.0 if op.kind is BoundaryKind.ANTIREFLECTIVE else 1.0
        return cls(alpha=alpha, beta=beta, zeta=op.eigenvalues().zero_multiplicity)


def inner_loop(s, filt: Filter, kind: BoundaryKind,
               cfg: StoppingConfig | None = None) -> tuple[np.ndarray, int, float | None]:
    """Extract one component: iterate s <- s - W s until the step change
    ||s_next - s_cur||_2 / ||s_cur||_2 drops below delta.

    Boundary conditions are re-imposed by every application. Stops early
    when the iterate is numerically zero, at most 1e-14 times the norm of s
    (the step change is rounding noise there). Returns (iterate, steps,
    last step change), the change being None when no step was taken. The
    kinds with a diagonalizing transform take the same steps in the
    eigenbasis (:func:`_sift_spectral`), in one transform round trip plus
    O(n log K), K being max_inner, and raise ValueError for a spectrum
    outside [0, 1], which no self-convolved filter has. The zero kind takes
    any filter and applies W once per step, except that a filter of
    l >= 16 on the blocked or FFT kernel first tries a two-pass Lanczos
    basis (:func:`_sift_krylov`): a sift of more than 240 steps then takes
    about 2m products for a basis of m vectors, typically 80-140, in O(n)
    memory, with the loop's steps and its component within about 5e-13
    of max|s|. All run on s scaled by the power of two that brings max|s| into
    [0.5, 1), so ``inner_loop(c*s)`` is ``c`` times ``inner_loop(s)`` for
    any power of two c that keeps the samples normal.
    """
    cfg = cfg or StoppingConfig()
    values = as_values(s)
    op = StructuredOperator(filt, BoundaryKind(kind), values.size)
    e = _unit_exponent(values)
    if op.kind is not BoundaryKind.ZERO:
        imf, k, d = _sift_spectral(op, np.ldexp(values, -e), cfg)
        return np.ldexp(imf, e, out=imf), k, d
    cur = np.ldexp(values, -e)
    if (found := _sift_krylov(op, cur, cfg)) is not None:
        imf, k, d = found
        return np.ldexp(imf, e, out=imf), k, d
    norm_cur = float(np.linalg.norm(cur))
    tiny = _ZERO_ITERATE * norm_cur
    k = 0
    d = None
    while k < cfg.max_inner and norm_cur > tiny:
        step = op.apply(cur)  # the step changes the iterate by W x
        cur -= step
        k += 1
        d = float(np.linalg.norm(step)) / norm_cur
        norm_cur = float(np.linalg.norm(cur))
        if d < cfg.delta:
            break
    return np.ldexp(cur, e, out=cur), k, d


def _unit_exponent(values: np.ndarray) -> int:
    """The e with max|values| 2^-e in [0.5, 1), 0 for a zero signal.

    Scaling by 2^-e is exact in binary floating point, so the loops run on
    the same numbers at every power-of-two scale, and their norms neither
    overflow nor underflow.
    """
    return math.frexp(float(np.max(np.abs(values), initial=0.0)))[1]


def _sift_spectral(op: StructuredOperator, values: np.ndarray,
                   cfg: StoppingConfig) -> tuple[np.ndarray, int, float | None]:
    """:func:`inner_loop` in the eigenbasis: one transform round trip plus
    the search for the stopping step, since a step scales each coefficient
    c by z = 1 - lambda and changes the iterate by ||lambda c||.

    Step 1 runs in signal space: the anti-reflective transform is not
    orthogonal, but its ramp coefficients (eigenvalue one) vanish in that
    step, after which coefficient norms equal signal norms for every kind.
    Row j of the later steps holds the squared coefficients before step
    k + j + 1. On a spectrum in [0, 1] (every doubled filter) the stopping
    rule holds from some row on, which :func:`_search_stop` finds in
    O(log K) rows of O(n); a spectrum outside it raises ValueError. The
    steps agree with the loop's for any delta above the iterate's round-off
    (about 1e-15), below which the loop's step change is rounding noise.
    """
    c, lam = op.to_eigenbasis(values)
    if lam.min() < -_SPECTRUM_SLACK or lam.max() > 1.0 + _SPECTRUM_SLACK:
        raise ValueError(f"spectrum [{lam.min():.3g}, {lam.max():.3g}] is not in [0, 1]")
    norm_cur = float(np.linalg.norm(values))
    tiny = _ZERO_ITERATE * norm_cur
    if norm_cur == 0.0:
        return values.copy(), 0, None
    z = 1.0 - lam
    c = z * c
    cur = op.from_eigenbasis(c)
    k, d = 1, float(np.linalg.norm(cur - values)) / norm_cur
    k, d = _search_stop(np.abs(c) ** 2, z, lam, k, d, tiny, cfg)
    if k > 1:
        cur = op.from_eigenbasis(z ** (k - 1) * c)
    return cur, k, d


def _sift_krylov(op: StructuredOperator, values: np.ndarray,
                 cfg: StoppingConfig) -> tuple[np.ndarray, int, float | None] | None:
    """:func:`inner_loop` for the zero kind in a Lanczos basis of W and s,
    or None where the loop is to run instead.

    Pass 1 runs the three-term recurrence without reorthogonalization and
    keeps alpha, beta and two vectors. Every 20 steps the m x m
    tridiagonal T = U diag(theta) U^T gives the sift in the Ritz basis, as
    :func:`_sift_spectral` does in the eigenbasis: coefficients
    c = ||s|| z U[0, :] after step 1, z = 1 - theta, step 1's change
    ||W s|| / ||s|| = ||T e_1|| exact, and :func:`_search_stop` for the
    stopping step k (Gallopoulos and Saad 1992 for such Krylov
    approximations of f(W) s); a doubled filter's Toeplitz spectrum, and so
    every Ritz value, lies in [0, 1]. Pass 1 ends when two successive
    checks agree on k and the component's coordinates U z^(k-1) c on the
    20 newest vectors are within 1e-14 ||s|| (older coordinates drift by
    about 1e-13 ||s|| once the basis loses orthogonality). Pass 2
    regenerates the same basis and sums its vectors times the coordinates:
    O(n) memory, no m x n basis. The coordinates and the last change come
    from k steps y <- y - T y on ||s|| e_1, elementwise, so their bits do
    not depend on the thread count of the eigensolve's BLAS; nor do the
    basis's, whose dot products :func:`_dot` sums.

    Like :attr:`StructuredOperator.kernel`, a fixed rule picks the loop
    where a product costs little next to a Lanczos step's O(n) vector work:
    the convolve kernel and l < 16. The loop also runs where a Ritz value
    leaves [0, 1] (a filter that is not doubled), at m = 400, at a
    breakdown and where k <= m or k <= 240, max_inner included: a basis
    took 80-140 vectors on chirps of n = 2,048 and 10^5, so two passes
    cost about what 240 loop steps do.
    """
    if (op.kernel == "convolve" or op.filter.length < _KRYLOV_MIN_LENGTH
            or cfg.max_inner <= _KRYLOV_LOOP_STEPS):
        return None
    norm_s = math.sqrt(_dot(values, values))
    if norm_s == 0.0:
        return None
    tiny = _ZERO_ITERATE * norm_s
    alpha: list[float] = []
    beta: list[float] = []
    last_k = 0
    for v in _lanczos(op, values / norm_s, alpha, beta):
        m = len(alpha)
        if m == 0 or m % _KRYLOV_CHECK:
            continue
        off = beta[:-1]
        theta, u = np.linalg.eigh(np.diag(alpha) + np.diag(off, 1) + np.diag(off, -1))
        if theta[0] < -_SPECTRUM_SLACK or theta[-1] > 1.0 + _SPECTRUM_SLACK:
            return None
        z = 1.0 - theta
        c = norm_s * z * u[0]
        k, _ = _search_stop(c * c, z, theta, 1, math.hypot(alpha[0], beta[0]), tiny, cfg)
        if k <= max(m, _KRYLOV_LOOP_STEPS):
            return None
        added = np.abs(u[-_KRYLOV_CHECK:] @ (z ** (k - 1) * c)).max()
        if k == last_k and added <= _KRYLOV_TOL * norm_s:
            break
        if m >= _KRYLOV_MAX:
            return None
        last_k = k
    else:
        return None
    y, d = _tridiagonal_steps(np.array(alpha), np.array(beta[:-1]), norm_s, k)
    imf, scaled = np.zeros_like(values), np.empty_like(values)
    # y first: zip then stops before asking the basis for a vector beyond v_m
    for coord, v in zip(y, _lanczos(op, values / norm_s, [], [])):
        imf += np.multiply(v, coord, out=scaled)
    return imf, k, d


def _lanczos(op: StructuredOperator, v: np.ndarray, alpha: list[float], beta: list[float]):
    """Yield the Lanczos vectors v_1 = v, v_2, ... of W by the three-term
    recurrence, appending alpha_j and beta_j to the lists as v_(j+1) is
    made; v_(j+1) takes the j-th product. Two vectors are kept. Ends at a
    breakdown, a beta at most 1e-14, before yielding its vector."""
    prev, scaled, b = np.zeros_like(v), np.empty_like(v), 0.0
    while True:
        yield v
        w = op.apply(v)
        a = _dot(v, w)
        w -= np.multiply(v, a, out=scaled)
        w -= np.multiply(prev, b, out=scaled)
        b = math.sqrt(_dot(w, w))
        alpha.append(a)
        beta.append(b)
        if b <= _ZERO_ITERATE:
            return
        prev, v = v, np.divide(w, b, out=w)


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    """x . y summed by numpy, not BLAS: OpenBLAS splits long dot products
    among its threads, which would round the Lanczos basis, and so the
    component, by the thread count."""
    return float(np.einsum("i,i", x, y))


def _tridiagonal_steps(diag: np.ndarray, off: np.ndarray, norm: float,
                       k: int) -> tuple[np.ndarray, float]:
    """y = (I - T)^k (norm e_1) for the tridiagonal T and the change
    ||T y'|| / ||y'|| of its last step from y', by k elementwise steps."""
    y = np.zeros(diag.size)
    y[0] = norm
    for _ in range(k):
        step = diag * y
        step[:-1] += off * y[1:]
        step[1:] += off * y[:-1]
        prev, y = y, y - step
    return y, math.sqrt(_dot(step, step) / _dot(prev, prev))


def _search_stop(energy: np.ndarray, z: np.ndarray, lam: np.ndarray, k: int, d: float,
                 tiny: float, cfg: StoppingConfig) -> tuple[int, float]:
    """The loop's (steps, last step change) after step k left the squared
    coefficients ``energy`` and the change d, on a spectrum in [0, 1].

    Row j holds energy z^(2j), the squared coefficients before step
    k + j + 1; the loop stops at the first row whose norm is at most tiny
    (after k + j steps) or whose step change is below delta (after
    k + j + 1 steps), and at max_inner steps. That row is found by
    :func:`_first_true`.

    With every z in [0, 1], the norm of row j and its step change are both
    nonincreasing in j: going to row j + 1 multiplies each weight by z^2,
    which rises with z while lambda^2 = (1 - z)^2 falls, so by Chebyshev's
    sum inequality the weighted mean of lambda^2 cannot rise. The stopping
    rule, once met, therefore holds for every later row, and its first row
    takes O(log K) evaluations of O(n) for K = max_inner - k rows, each
    row evaluated once. A z just above one is the round-off of an
    eigenvalue that is zero, so the decay z^2 is clamped to one here.
    """
    count = cfg.max_inner - k
    if d < cfg.delta or count < 1:
        return k, d
    decay, lam2 = np.minimum(z * z, 1.0), lam * lam
    rows: dict[int, tuple[float, float]] = {}

    def row(j: int) -> tuple[float, float]:
        """The norm and step change of row j."""
        if j not in rows:
            e = energy * np.power(decay, j)
            norm = math.sqrt(e.sum())
            rows[j] = (norm, math.sqrt(e @ lam2) / norm if norm else math.nan)
        return rows[j]

    def stops(j: int) -> bool:
        norm, change = row(j)
        return norm <= tiny or change < cfg.delta

    # with no stopping row the cap ends the loop, after the last row's step
    j = min(_first_true(stops, count), count - 1)
    norm, change = row(j)
    if norm <= tiny:
        return k + j, (row(j - 1)[1] if j else d)
    return k + j + 1, change


def _first_true(holds, end: int) -> int:
    """The least j in [0, end) with ``holds(j)``, or end if there is none,
    for a ``holds`` that stays true once it is true: galloping over
    j = 0, 1, 3, 7, ... and then bisection, O(log end) calls with no j
    evaluated twice."""
    lo, hi = -1, 0  # holds(lo) is false (-1: before the first j)
    while not holds(hi):
        if hi == end - 1:
            return end
        lo, hi = hi, min(2 * hi + 1, end - 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if holds(mid) else (mid, hi)
    return hi


def build_filter(values, shape: FilterShape, cfg: StoppingConfig) -> Filter:
    """The filter an outer step uses on ``values``: the self-convolved
    filter of the base length that the extrema count and ``cfg.xi`` give."""
    return convolve_self(sample_filter(shape, filter_length(values, cfg.xi)))


def _next_filter(values: np.ndarray, shape: FilterShape, cfg: StoppingConfig) -> Filter | None:
    """The filter of the outer step on ``values``, or None where the outer
    loop ends: :func:`filter_length` finds fewer than two extrema or no
    admissible filter length, counting the extrema once."""
    try:
        return build_filter(values, shape, cfg)
    except ValueError:
        return None


def _outer_loop(values: np.ndarray, shape: FilterShape, kind: BoundaryKind,
                cfg: StoppingConfig):
    imfs: list[np.ndarray] = []
    diags: list[ImfDiagnostics] = []
    e = _unit_exponent(values)
    residual = np.ldexp(values, -e)
    while len(imfs) < cfg.max_imfs - 1 and (filt := _next_filter(residual, shape, cfg)) is not None:
        imf, k, d = inner_loop(residual, filt, kind, cfg)
        if np.linalg.norm(imf) <= _ZERO_ITERATE * np.linalg.norm(residual):
            break  # the extraction removed nothing: the residual is the trend
        imfs.append(imf)
        diags.append(ImfDiagnostics(k, filt.length, d))
        residual = residual - imf
    imfs.append(residual)
    diags.append(ImfDiagnostics(0, 0, None))
    return [np.ldexp(f, e, out=f) for f in imfs], diags


def dif(s, shape: FilterShape | None = None,
        kind: BoundaryKind = BoundaryKind.PERIODIC,
        cfg: StoppingConfig | None = None) -> Decomposition:
    """Decompose a signal by direct iterative filtering.

    Each outer step picks a filter length from the residual's extrema
    count, extracts one component with :func:`inner_loop` (re-imposing the
    chosen boundary conditions every iteration) and subtracts it. The loop
    ends when fewer than two extrema remain, max_imfs is reached or a
    component is numerically zero (at most 1e-14 times the residual's norm,
    and then dropped); the final residual is appended as the trend, so the
    components always sum back to the input. A signal too short for any
    admissible filter length (fewer than 5 samples) is returned as its
    trend. The loops run on s scaled by a power of two
    (see :func:`inner_loop`), so ``dif(c*s)`` is exactly ``c`` times
    ``dif(s)`` for powers of two c that keep the samples normal.

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
    imfs, diags = _outer_loop(as_values(s), shape or raised_cosine_shape(), BoundaryKind(kind),
                              cfg or StoppingConfig())
    return Decomposition(imfs=imfs, diagnostics=diags)


def eif(s, shape: FilterShape | None = None,
        kind: BoundaryKind = BoundaryKind.PERIODIC, p: int | None = None,
        cfg: StoppingConfig | None = None) -> Decomposition:
    """Decompose with a single up-front extension instead of re-imposition.

    The signal is extended once by p samples per side under ``kind``; every
    inner and outer iteration then runs a periodic (circulant) operator of
    size n + 2p on the extended vector, and the components are restricted
    back to the central n samples on output. By default p is twice the
    length of the filter that :func:`dif` would take first, and 0 when
    there is none (then the signal is its own trend). The result's ``pad``
    records p. The signal is scaled by a power of two before it is
    extended, so no extension rule overflows on finite samples. With p = 0
    and periodic conditions this reproduces :func:`dif` exactly.
    """
    values = as_values(s)
    shape, cfg = shape or raised_cosine_shape(), cfg or StoppingConfig()
    if p is None:
        first = _next_filter(values, shape, cfg)
        p = 0 if first is None else 2 * first.length
    e = _unit_exponent(values)
    imfs_ext, diags = _outer_loop(extend(np.ldexp(values, -e), kind, p), shape,
                                  BoundaryKind.PERIODIC, cfg)
    imfs = [np.ldexp(f[p: p + values.size], e) for f in imfs_ext]
    return Decomposition(imfs=imfs, diagnostics=diags, pad=p)


def stopping_bound_k0(delta: float, op: StructuredOperator, s) -> int:
    """Smallest k0 guaranteeing step changes below delta from k0 onwards.

    Returns the minimum natural k0 with

        k0^k0 / (k0+1)^(k0+1) < delta / (alpha * c * sqrt(n - beta - zeta))

    where c is the max-norm of the signal's eigenbasis coefficients. The
    left side is evaluated in logarithms and the minimum located by
    galloping and bisection (:func:`_first_true`), so very small thresholds
    are handled without overflow.
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

    k0 = 1 + _first_true(lambda j: log_lhs(j + 1) < log_rhs, 1 << 62)
    if k0 > 1 << 62:
        raise ValueError("stopping bound out of range")
    return k0
