"""Inner/outer decomposition loops.

The direct method re-imposes boundary conditions at every inner step; the
extended variant pads the signal once, iterates a circulant operator on the
padded vector and restricts the results back to the field of view. A sift
takes one of four routes by a fixed rule (see :func:`inner_loop`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .boundary import BoundaryKind, extend
from .filters import (Filter, FilterShape, convolve_self, filter_length, raised_cosine_shape,
                      sample_filter)
from .operators import StructuredOperator, spectrum_outside_unit
from .signal import dot, l2_norm, scale_back, scale_back_parts, unit_exponent

__all__ = [
    "StoppingConfig",
    "ImfDiagnostics",
    "Decomposition",
    "inner_loop",
    "build_filter",
    "dif",
    "eif",
]

# below this fraction of the input's norm an iterate counts as zero: its
# relative step change is rounding noise
_ZERO_ITERATE = 1e-14
# the zero kind's Krylov sift (see _sift_krylov): least filter length,
# steps between checks, largest basis, samples of a kept basis, most steps
# the loop takes instead of two passes, coordinates' agreement over ||s||
_KRYLOV_MIN_LENGTH = 16
_KRYLOV_CHECK = 20
_KRYLOV_MAX = 400
_KRYLOV_BUDGET = 1 << 20
_KRYLOV_LOOP_STEPS = 240
_KRYLOV_TOL = 1e-14
# the zero kind's strip sift (see _sift_strips): the least n that tries
# it, and the least n / (D l) that takes it
_STRIP_MIN_SIZE = 50_000
_STRIP_COST = 16


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


def inner_loop(s, filt: Filter, kind: BoundaryKind,
               cfg: StoppingConfig | None = None) -> tuple[np.ndarray, int, float | None]:
    """Extract one component: iterate s <- s - W s, re-imposing the
    boundary conditions at every step, until the step change
    ||s_next - s_cur||_2 / ||s_cur||_2 drops below delta or the iterate is
    at most 1e-14 ||s||, where that change is rounding noise. Returns
    (iterate, steps, last change), the change None if no step was taken.

    The kinds with a diagonalizing transform take the same steps in the
    eigenbasis (:func:`_sift_spectral`), one transform round trip plus
    O(n log K) for K = max_inner, and raise ValueError for a spectrum
    outside [0, 1], which no self-convolved filter has. The zero kind takes
    any filter and one of three routes, each with the loop's steps and its
    component within about 5e-13 of max|s|:

    * strips (:func:`_sift_strips`) for a shallow sift where n >= 50,000:
      one real FFT round trip and the loop on short windows at the ends;
    * a Lanczos basis of m vectors (:func:`_sift_krylov`), typically
      60-140, for l >= 16: m products where n <= 2,621, else 2m for sifts
      of more than 240 steps;
    * otherwise the loop, one product per step.

    All run on s scaled by the power of two that brings max|s| into
    [0.5, 1), so ``inner_loop(c*s)`` is ``c`` times ``inner_loop(s)`` for
    any power of two c that keeps the samples normal; a component past the
    largest float raises ValueError.
    """
    cfg = cfg or StoppingConfig()
    values = np.asarray(s, dtype=float)
    op = StructuredOperator(filt, BoundaryKind(kind), values.size)
    e = unit_exponent(values)
    cur = np.ldexp(values, -e) if e else values  # no copy at scale 1: only the loop writes
    norm = l2_norm(cur)
    if op.kind is not BoundaryKind.ZERO:
        imf, k, d = _sift_spectral(op, cur, norm, cfg)
    elif norm == 0.0:
        imf, k, d = cur.copy(), 0, None
    else:
        imf, k, d = (_sift_strips(op, cur, norm, cfg) or _sift_krylov(op, cur, norm, cfg)
                     or _sift_loop(op, cur.copy() if cur is values else cur, norm, cfg))
    return scale_back(imf, e, "the component"), k, d


def _sift_loop(op: StructuredOperator, cur: np.ndarray, norm: float,
               cfg: StoppingConfig) -> tuple[np.ndarray, int, float | None]:
    """:func:`inner_loop` by one product per step, in place on ``cur``,
    whose norm is ``norm``."""
    norm_cur, tiny = norm, _ZERO_ITERATE * norm
    k = 0
    d = None
    while k < cfg.max_inner and norm_cur > tiny:
        step = op.apply(cur)  # the step changes the iterate by W x
        cur -= step
        k += 1
        d = l2_norm(step) / norm_cur
        norm_cur = l2_norm(cur)
        if d < cfg.delta:
            break
    return cur, k, d


def _sift_spectral(op: StructuredOperator, values: np.ndarray, norm: float,
                   cfg: StoppingConfig) -> tuple[np.ndarray, int, float | None]:
    """:func:`inner_loop` in the eigenbasis: one transform round trip plus
    the search for the stopping step, since a step scales each coefficient
    c by z = 1 - lambda and changes the iterate by ||lambda c||.

    The transform is :meth:`StructuredOperator.to_eigenbasis`, the real FFT
    of one period of the kind's extension, whose weights give each bin its
    share of the norm. Step 1 runs in signal space: the
    anti-reflective basis is not orthogonal, but its ramp coefficients
    (eigenvalue one) vanish in that step, after which coefficient norms
    equal signal norms for every kind. Row j of the later steps holds the
    weighted squared coefficients before step k + j + 1. On a spectrum in
    [0, 1] (every doubled filter) the stopping rule holds from some row on,
    which :func:`_search_stop` finds in O(log K) rows of O(n); a spectrum
    outside it raises ValueError. The steps agree with the loop's for any
    delta above the iterate's round-off (about 1e-15), below which the
    loop's step change is rounding noise.
    """
    c, lam, weight = op.to_eigenbasis(values)
    if problem := spectrum_outside_unit(lam):
        raise ValueError(problem)
    if norm == 0.0:
        return values.copy(), 0, None
    z = 1.0 - lam
    c = z * c
    cur = op.from_eigenbasis(c)
    k, d = 1, l2_norm(cur - values) / norm
    k, d = _search_stop(_decay_rows(weight * np.abs(c) ** 2, z, lam), k, d,
                        _ZERO_ITERATE * norm, cfg)
    if k > 1:
        cur = op.from_eigenbasis(z ** (k - 1) * c)
    return cur, k, d


def _sift_strips(op: StructuredOperator, values: np.ndarray, norm: float,
                 cfg: StoppingConfig) -> tuple[np.ndarray, int, float | None] | None:
    """:func:`inner_loop` for the zero kind as a periodic interior plus two
    boundary strips, or None where another route is to run.

    The zero rule's step and the periodic rule's step differ only within
    l samples of the ends, and each step carries a difference l samples
    further in, so after m steps the two iterates agree deeper than m*l
    from both ends. For m up to a depth D, the periodic iterate comes from
    the periodic eigenbasis (:meth:`StructuredOperator.to_eigenbasis`), the
    strips of w = D*l samples at each end from the loop on a window of 8w
    (:func:`_strip_sums`), and the norms of the zero iterate and of its
    step are the periodic rows of :func:`_decay_rows` corrected on the
    strips. :func:`_search_stop` finds the stopping step k on those rows,
    since a doubled filter's Toeplitz spectrum lies in [0, 1] as the
    periodic one does; the component is irfft(z^k c) with its strips from
    the loop run again to depth k.

    D is the periodic search's stopping step plus a quarter plus 8. A search
    that needs rows past D, like a filter whose periodic spectrum leaves
    [0, 1], leaves the sift to the other routes. A fixed rule
    (:func:`_strips_pay`), like :attr:`StructuredOperator.kernel`'s, takes
    this route for n >= 50,000 where 16 D l <= n: its window products cost
    about 3 * 8 D l D multiply-adds against the loop's n k, on top of two
    transforms of n and the search. Time of this route over the one that
    runs otherwise, for one sift of unit noise on a trend with
    delta = 1e-3, or 3e-4 where k is marked * (interleaved medians of 7,
    2-vCPU x86-64, numpy 2.4, OpenBLAS on one thread):

    ========  ===  ====  ===  =====  =====  ======
    n         l    k     D    D l/n  ratio  rule
    ========  ===  ====  ===  =====  =====  ======
    200,000   4    151   196  0.004  0.40   strips
    200,000   24   56    78   0.009  0.28   strips
    200,000   6    468*  593  0.018  0.34   strips
    200,000   60   108*  143  0.043  0.54   strips
    100,000   4    150   195  0.008  0.47   strips
    100,000   6    469*  594  0.036  0.70   strips
    100,000   24   169*  219  0.053  0.81   strips
    100,000   60   109*  144  0.086  1.01   other
    50,000    4    152   198  0.016  0.71   strips
    50,000    24   56    78   0.037  0.56   strips
    50,000    6    469*  595  0.071  1.13   other
    50,000    24   174*  225  0.108  1.32   other
    20,000    4    153   199  0.040  1.17   other
    20,000    10   84    113  0.057  1.25   other
    ========  ===  ====  ===  =====  =====  ======
    """
    n, l = values.size, op.filter.length
    if not _strips_pay(n, l, 8):  # no depth is below 8
        return None
    periodic = StructuredOperator(op.filter, BoundaryKind.PERIODIC, n)
    c, lam, weight = periodic.to_eigenbasis(values)
    if spectrum_outside_unit(lam):
        return None
    z, tiny = 1.0 - lam, _ZERO_ITERATE * norm
    rows = _decay_rows(weight * np.abs(c) ** 2, z, lam)
    del lam, weight  # the rows keep what they read of these
    estimate, _ = _search_stop(rows, 0, math.inf, tiny, cfg)
    depth = min(estimate + estimate // 4 + 8, cfg.max_inner)
    if not _strips_pay(n, l, depth):
        return None
    fix_norm, fix_step = _strip_sums(values, op.filter, depth)

    def fixed(j: int) -> tuple[float, float]:
        norm2, step2 = rows(j)
        return norm2 + fix_norm[j], step2 + fix_step[j]

    if (found := _search_stop(fixed, 0, math.inf, tiny, cfg, depth)) is None:
        return None
    k, d = found
    del rows, fixed  # their spectra, before the component's transform
    c *= z ** k
    imf = periodic.from_eigenbasis(c)
    strips = _strip_vector(values, k * l)[: 4 * k * l]  # the two zero-rule windows
    window = StructuredOperator(op.filter, BoundaryKind.ZERO, strips.size)
    for _ in range(k):
        strips -= window.apply(strips)
    imf[: k * l], imf[n - k * l:] = strips[: k * l], strips[3 * k * l:]
    return imf, k, d


def _strips_pay(n: int, l: int, depth: int) -> bool:
    """The rule of :func:`_sift_strips`: n >= 50,000 and 16 D l <= n."""
    return n >= _STRIP_MIN_SIZE and _STRIP_COST * depth * l <= n


def _strip_vector(values: np.ndarray, w: int) -> np.ndarray:
    """The ends a = values[:2w] and b = values[n-2w:] as [a, b, a, b]: a
    zero-rule window at each end of the vector and, across the middle
    junction, a window of the periodic wrap."""
    a, b = values[: 2 * w], values[values.size - 2 * w:]
    return np.concatenate([a, b, a, b])


def _strip_sums(values: np.ndarray, filt: Filter, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """The zero-rule iterate's squared norm minus the periodic one's on the
    strips of w = depth*l samples at the two ends, and the same for their
    steps, after m = 0..depth-1 steps.

    The loop runs on :func:`_strip_vector`: its first and last w samples
    are the zero iterate's strips, its middle 2w the periodic iterate's.
    Each window reaches w samples past its strips, and a junction's wrong
    neighbours travel l samples a step, so for m < depth neither they nor
    the step's products reach a strip."""
    w = depth * filt.length
    v = _strip_vector(values, w)
    window = StructuredOperator(filt, BoundaryKind.ZERO, v.size)
    zero_l, zero_r, wrap = slice(0, w), slice(7 * w, 8 * w), slice(3 * w, 5 * w)
    fix_norm, fix_step = np.empty(depth), np.empty(depth)
    for m in range(depth):
        step = window.apply(v)
        for fix, x in ((fix_norm, v), (fix_step, step)):
            fix[m] = (dot(x[zero_l], x[zero_l]) + dot(x[zero_r], x[zero_r])
                      - dot(x[wrap], x[wrap]))
        v -= step
    return fix_norm, fix_step


def _sift_krylov(op: StructuredOperator, values: np.ndarray, norm_s: float,
                 cfg: StoppingConfig) -> tuple[np.ndarray, int, float | None] | None:
    """:func:`inner_loop` for the zero kind in a Lanczos basis of W and s,
    or None where the loop is to run instead.

    Every 20 steps of the recurrence (no reorthogonalization) the m x m
    tridiagonal T = U diag(theta) U^T gives the sift in the Ritz basis as
    :func:`_sift_spectral` does in the eigenbasis (Gallopoulos and Saad
    1992): c = ||s|| z U[0, :] after step 1, z = 1 - theta, step 1's change
    ||T e_1||, and :func:`_search_stop` for the stopping step k; a doubled
    filter's Ritz values lie in [0, 1]. The basis is done when two checks
    agree on k and the coordinates U z^(k-1) c on the 20 newest vectors are
    within 1e-14 ||s|| (older ones drift by 1e-13 ||s|| as orthogonality
    goes), or, kept, where k < m - 1 puts the loop's iterate in it. The
    coordinates and last change come from k steps y <- y - T y on
    ||s|| e_1, not from U, so no bit depends on the BLAS thread count.

    A basis of up to 400 n <= 2^20 samples (8 MiB, n <= 2,621) is kept, m
    products for m vectors; above, a second pass regenerates it, 2m
    products in O(n) memory, and the loop runs where k <= m or k <= 240,
    max_inner included. Time of a kept 1,000-step sift (delta 1e-12) over
    two passes', and its MiB (medians of 9, 2-vCPU x86-64, numpy 2.4, one
    BLAS thread):

    ======  ===  ===  =====  ====
    n       l    m    ratio  MiB
    ======  ===  ===  =====  ====
    1,024   60   140  0.63   1.1
    1,024   284  80   0.64   0.6
    2,621   60   180  0.71   3.6
    2,621   284  100  0.67   2.0
    20,000  60   180  0.90   27.5
    20,000  284  200  0.60   30.5
    ======  ===  ===  =====  ====

    The loop runs for l < 16, where a Ritz value leaves [0, 1], at m = 400
    and at a breakdown.
    """
    kept = _KRYLOV_MAX * op.n <= _KRYLOV_BUDGET
    if op.filter.length < _KRYLOV_MIN_LENGTH or not kept and cfg.max_inner <= _KRYLOV_LOOP_STEPS:
        return None
    tiny = _ZERO_ITERATE * norm_s
    alpha, beta, basis, last_k = [], [], [], 0
    for v in _lanczos(op, values / norm_s, alpha, beta):
        if kept:
            basis.append(v)
        m = len(alpha)
        if m == 0 or m % _KRYLOV_CHECK:
            continue
        u = np.diag(alpha)  # T, its off-diagonals written in place
        u.flat[1::m + 1] = u.flat[m::m + 1] = beta[:-1]
        theta, u = np.linalg.eigh(u)
        if spectrum_outside_unit(theta):
            return None
        z = 1.0 - theta
        c = norm_s * z * u[0]
        k, _ = _search_stop(_decay_rows(c * c, z, theta), 1, math.hypot(alpha[0], beta[0]),
                            tiny, cfg)
        if kept and k < m - 1:
            break
        if not kept and k <= max(m, _KRYLOV_LOOP_STEPS):
            return None
        added = np.abs(u[-_KRYLOV_CHECK:] @ (z ** (k - 1) * c)).max()
        if k == last_k and added <= _KRYLOV_TOL * norm_s:
            break
        if m >= _KRYLOV_MAX:
            return None
        last_k = k
    else:
        return None
    del u  # the last eigenvectors, m x m, would outlive their use through the steps
    y, d = _tridiagonal_steps(np.array(alpha), np.array(beta[:-1]), norm_s, k)
    imf, scaled = np.zeros_like(values), np.empty_like(values)
    # y first: zip then stops before asking the basis for a vector beyond v_m
    for coord, v in zip(y, basis or _lanczos(op, values / norm_s, [], [])):
        imf += np.multiply(v, coord, out=scaled)
    return imf, k, d


def _lanczos(op: StructuredOperator, v: np.ndarray, alpha: list[float], beta: list[float]):
    """Yield the Lanczos vectors v_1 = v, v_2, ... of W by the three-term
    recurrence, appending alpha_j and beta_j to the lists as v_(j+1) is
    made; v_(j+1), a new array, takes the j-th product. Two vectors are
    kept. Ends at a breakdown, a beta at most 1e-14, before yielding its
    vector."""
    prev, scaled, b = np.zeros_like(v), np.empty_like(v), 0.0
    while True:
        yield v
        w = op.apply(v)
        a = dot(v, w)
        w -= np.multiply(v, a, out=scaled)
        w -= np.multiply(prev, b, out=scaled)
        b = math.sqrt(dot(w, w))
        alpha.append(a)
        beta.append(b)
        if b <= _ZERO_ITERATE:
            return
        prev, v = v, w / b


def _tridiagonal_steps(diag: np.ndarray, off: np.ndarray, norm: float,
                       k: int) -> tuple[np.ndarray, float]:
    """y = (I - T)^k (norm e_1) for the tridiagonal T and the change
    ||T y'|| / ||y'|| of its last step from y', by elementwise steps, 8 at
    a time by P = (I - T)^8 (einsum, not BLAS)."""
    y = np.zeros(diag.size)
    y[0] = norm
    blocks, rest = divmod(k - 1, 8)
    if blocks:
        power = np.eye(diag.size)
        for _ in range(8):
            power, _ = _tridiagonal_step(diag[:, None], off[:, None], power)
        for _ in range(blocks):
            y = np.einsum("ij,j", power, y)
    for _ in range(rest + 1):
        prev, (y, step) = y, _tridiagonal_step(diag, off, y)
    return y, math.sqrt(dot(step, step) / dot(prev, prev))


def _tridiagonal_step(diag: np.ndarray, off: np.ndarray, y: np.ndarray):
    """(y - T y, T y) along the first axis of y."""
    step = diag * y
    step[:-1] += off * y[1:]
    step[1:] += off * y[:-1]
    return y - step, step


def _decay_rows(energy: np.ndarray, z: np.ndarray, lam: np.ndarray):
    """row(j) -> (squared norm, squared step) of the iterate whose squared
    coefficients are ``energy`` z^(2j): the sums of energy z^(2j) and of
    energy z^(2j) lambda^2, each row computed once. A z just above one is
    the round-off of an eigenvalue that is zero, so the decay z^2 is
    clamped to one."""
    decay, lam2 = np.minimum(z * z, 1.0), lam * lam

    @cache
    def row(j: int) -> tuple[float, float]:
        e = np.power(decay, j)
        e *= energy
        return float(e.sum()), dot(e, lam2)

    return row


def _search_stop(rows, k: int, d: float, tiny: float, cfg: StoppingConfig,
                 depth: int | None = None) -> tuple[int, float] | None:
    """The loop's (steps, last step change) after step k took the change
    d, from ``rows(j)``, the squared norm and squared step of the iterate
    before step k + j + 1 (:func:`_decay_rows`), on a spectrum in [0, 1].

    The loop stops at the first row whose norm is at most tiny (after
    k + j steps) or whose step change is below delta (after k + j + 1
    steps), and at max_inner steps. That row is found by
    :func:`_first_true` among the first ``depth`` rows, all rows by
    default; None means that it lies past them. The search is guided by
    the row's margin log(change / delta), -inf where the norm is at most
    tiny, which falls about linearly in log(j + 1); the stopping rule
    itself decides each row, so the row found is the one bisection finds.

    With every z in [0, 1], the norm of row j and its step change are both
    nonincreasing in j: going to row j + 1 multiplies each weight by z^2,
    which rises with z while lambda^2 = (1 - z)^2 falls, so by Chebyshev's
    sum inequality the weighted mean of lambda^2 cannot rise. The stopping
    rule, once met, therefore holds for every later row, and its first row
    takes O(log K) evaluations of O(n) for K = max_inner - k rows.
    """
    count = cfg.max_inner - k
    if d < cfg.delta or count < 1:
        return k, d

    def row(j: int) -> tuple[float, float]:
        """The norm and step change of row j."""
        norm2, step2 = rows(j)
        norm = math.sqrt(max(norm2, 0.0))
        return norm, (math.sqrt(max(step2, 0.0)) / norm if norm else math.nan)

    def stops(j: int) -> bool:
        norm, change = row(j)
        return norm <= tiny or change < cfg.delta

    def margin(j: int) -> float:
        norm, change = row(j)
        return math.log(change) - math.log(cfg.delta) if norm > tiny and change else -math.inf

    end = count if depth is None else min(depth, count)
    if (j := _first_true(stops, end, margin)) == end < count:
        return None
    # with no stopping row the cap ends the loop, after the last row's step
    j = min(j, count - 1)
    norm, change = row(j)
    if norm <= tiny:
        return k + j, (row(j - 1)[1] if j else d)
    return k + j + 1, change


def _first_true(holds, end: int, margin) -> int:
    """The least j in [0, end) with ``holds(j)``, or end if there is none,
    for a ``holds`` that stays true once it is true, in O(log end) calls
    with no j evaluated twice.

    ``margin(j)``, read after ``holds(j)``, is a number that falls through
    zero about where ``holds`` starts. Each probe after the first two goes
    where the line through the last two probes' margins over log(j + 1)
    crosses zero, kept inside the bracket of j not yet decided; a probe
    that leaves more than half of that bracket is followed by a bisection,
    so at most 2 ceil(log2(end + 1)) calls are made, whatever the margins.
    """
    lo, hi, j, last = -1, end, 0, None  # holds(lo) false (-1: before j = 0), holds(hi) true
    while hi - lo > 1:
        size = hi - lo
        if holds(j):
            hi = j
        else:
            lo = j
        point, j = (math.log1p(j), margin(j)), (lo + hi) // 2
        if 2 * (hi - lo) <= size and (guess := _crossing(last, point)) is not None:
            j = min(max(guess, lo + 1), hi - 1)
        last = point
    return hi


def _crossing(a, b) -> int | None:
    """The j where the line through the points (log(j + 1), margin) a and
    b crosses zero, rounded, or None where that is not a finite number."""
    (xa, ma), (xb, mb) = a or b, b
    x = xb - mb * (xb - xa) / (mb - ma) if ma != mb else math.nan
    return round(math.expm1(min(x, 64.0))) if math.isfinite(x) else None


def build_filter(values, shape: FilterShape, cfg: StoppingConfig,
                 last: Filter | None = None) -> Filter | None:
    """The self-convolved filter of the outer step on ``values`` after the
    filter ``last``, or None where the outer loop ends. Its base length is
    :func:`filter_length`'s (one extrema count), None where that raises:
    fewer than two extrema or 5 samples. Each filter is longer than the
    last (Lin, Wang and Zhou 2009): a base length b <= b_last, the last
    one's, becomes max(b_last + 1, ceil(1.1 b_last)), and there is none past
    the largest admissible (n - 1) // 4."""
    try:
        b = filter_length(values, cfg.xi)
    except ValueError:
        return None
    if last is not None and b <= (b_last := last.length // 2):
        b = max(b_last + 1, -(-11 * b_last // 10))
        if b > (np.size(values) - 1) // 4:
            return None
    return convolve_self(sample_filter(shape, b))


def _outer_loop(values: np.ndarray, shape: FilterShape, kind: BoundaryKind,
                cfg: StoppingConfig):
    imfs: list[np.ndarray] = []
    diags: list[ImfDiagnostics] = []
    e = unit_exponent(values)
    residual, filt = np.ldexp(values, -e), None
    while (len(imfs) < cfg.max_imfs - 1
           and (filt := build_filter(residual, shape, cfg, filt)) is not None):
        imf, k, d = inner_loop(residual, filt, kind, cfg)
        if l2_norm(imf) <= _ZERO_ITERATE * l2_norm(residual):
            break  # the extraction removed nothing: the residual is the trend
        imfs.append(imf)
        diags.append(ImfDiagnostics(k, filt.length, d))
        residual -= imf
    imfs.append(residual)
    diags.append(ImfDiagnostics(0, 0, None))
    return scale_back_parts(imfs, e, values), diags


def dif(s, shape: FilterShape | None = None,
        kind: BoundaryKind = BoundaryKind.PERIODIC,
        cfg: StoppingConfig | None = None) -> Decomposition:
    """Decompose a signal by direct iterative filtering.

    Each outer step extracts one component of the residual with
    :func:`inner_loop` (re-imposing the chosen boundary conditions every
    iteration) and :func:`build_filter`'s filter, and subtracts it. The
    loop ends where there is no filter, at max_imfs, or at a component that
    is numerically zero (at most 1e-14 times the residual's norm, and then
    dropped); the final residual is appended as the trend, so the
    components always sum back to the input. The loops run on s scaled by
    a power of two (see :func:`inner_loop`), so ``dif(c*s)`` is exactly
    ``c`` times ``dif(s)`` for powers of two c that keep the samples
    normal, and a component past the largest float raises ValueError.
    ``s`` has at least 3 samples, ``shape`` defaults to the raised cosine
    and ``kind`` is the rule imposed inside the inner loop.
    """
    imfs, diags = _outer_loop(np.asarray(s, dtype=float), shape or raised_cosine_shape(),
                              BoundaryKind(kind), cfg or StoppingConfig())
    return Decomposition(imfs=imfs, diagnostics=diags)


def eif(s, shape: FilterShape | None = None,
        kind: BoundaryKind = BoundaryKind.PERIODIC, p: int | None = None,
        cfg: StoppingConfig | None = None) -> Decomposition:
    """Decompose with a single up-front extension instead of re-imposition.

    The signal is extended once by p samples per side under ``kind``; every
    inner and outer iteration then runs a periodic (circulant) operator of
    size n + 2p on the extended vector, and the components are restricted
    back to the central n samples on output. The outer loop is
    :func:`dif`'s, on the extended vector. By default p is twice the
    length of the filter that :func:`dif` would take first, and 0 when
    there is none (then the signal is its own trend). The result's ``pad``
    records p. The signal is scaled by a power of two before it is
    extended, so no extension rule overflows on finite samples. With p = 0
    and periodic conditions this reproduces :func:`dif` exactly.
    """
    values = np.asarray(s, dtype=float)
    shape, cfg = shape or raised_cosine_shape(), cfg or StoppingConfig()
    if p is None:
        first = build_filter(values, shape, cfg)
        p = 0 if first is None else 2 * first.length
    e = unit_exponent(values)
    imfs_ext, diags = _outer_loop(extend(np.ldexp(values, -e), kind, p), shape,
                                  BoundaryKind.PERIODIC, cfg)
    imfs = scale_back_parts([f[p: p + values.size].copy() for f in imfs_ext], e, values)
    return Decomposition(imfs=imfs, diagnostics=diags, pad=p)
