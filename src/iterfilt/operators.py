"""Structured smoothing operators and their spectral machinery.

A symmetric filter plus a boundary rule induces an n x n operator: Toeplitz
for zero, circulant for periodic, Toeplitz-plus-Hankel for reflective and
the anti-reflective algebra for anti-reflective extension. Each but the
zero rule's is a circulant acting on one period of the rule's own
extension of the signal (n, 2n or 2(n - 1) samples) and read on its first
n, so it is diagonalized by that period's real FFT, one each way, has
closed-form eigenvalues and is applied in that eigenbasis; the zero rule's
Toeplitz operator is applied by convolving directly, as a blocked Toeplitz
product or by FFT, whichever costs least, and its spectrum takes a dense
eigensolve. The spectra, the eigenbasis, a k-step power application
through it and the iteration-count bound it gives live here; the bound's
constants are a fixed pair per kind and a count of zero eigenvalues, read
off the same unsorted spectrum that the sorted one is built from. The
dense matrices and the eigenvectors of eigenvalue one are test oracles
only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .boundary import BoundaryKind, extend
from .filters import Filter

__all__ = [
    "StructuredOperator",
    "Spectrum",
    "diagonalized_power_apply",
    "stopping_bound_k0",
]

DENSE_GUARD = 4096
_MULT_TOL = 1e-10
# eigenvalues this far outside [0, 1] are round-off of a spectrum inside it
_SPECTRUM_SLACK = 1e-12
# filters of at most this many taps take numpy's convolution, operators of
# fewer samples take no FFT, and no blocked product below _BLOCKED_MIN_SIZE
# (see StructuredOperator.kernel)
_CONVOLVE_TAPS = 11
_FFT_MIN_SIZE = 640
_BLOCKED_MIN_SIZE = 1024
# samples per chunk of the blocked product, so its scratch stays in cache
_GEMM_CHUNK = 1 << 14
# cost of an FFT convolution of length N, in blocked-product multiply-adds,
# per N log2(N)^2 (see StructuredOperator.kernel)
_FFT_COST = 2.75

# kinds with a diagonalizing transform and closed-form eigenvalues
TRANSFORM_KINDS = (BoundaryKind.PERIODIC, BoundaryKind.REFLECTIVE, BoundaryKind.ANTIREFLECTIVE)


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues in descending order with unit/zero multiplicities.

    Multiplicities are counted with absolute tolerance 1e-10, which matters
    because wide filters cluster eigenvalues near one.
    """

    eigenvalues: np.ndarray
    unit_multiplicity: int
    zero_multiplicity: int

    @classmethod
    def from_values(cls, values: np.ndarray) -> "Spectrum":
        vals = np.sort(np.asarray(values, dtype=float))[::-1]
        return cls(eigenvalues=vals, unit_multiplicity=_multiplicity(vals, 1.0),
                   zero_multiplicity=_multiplicity(vals, 0.0))


@dataclass(frozen=True)
class StructuredOperator:
    """The smoothing operator W induced by a filter and a boundary rule."""

    filter: Filter
    kind: BoundaryKind
    n: int

    def __post_init__(self):
        object.__setattr__(self, "kind", BoundaryKind(self.kind))
        if self.n < 3:
            raise ValueError("operator dimension must be at least 3")
        if self.filter.length > (self.n - 1) // 2:
            raise ValueError(
                f"filter length {self.filter.length} exceeds floor((n-1)/2) = {(self.n - 1) // 2}"
            )

    def apply(self, x) -> np.ndarray:
        """Matrix-free product W x.

        The periodic, reflective and anti-reflective kinds scale the
        coefficients of x in the diagonalizing basis by the eigenvalues: one
        transform round trip, as in the sift. The zero rule has no such
        transform and convolves x with the taps by the kernel in
        :attr:`kernel`: numpy's convolution for short filters and small n, a
        blocked Toeplitz product on BLAS for medium filters and one
        rfft/irfft round trip with the cached tap spectrum for long ones.
        """
        if self.kind is not BoundaryKind.ZERO:
            c, lam, _ = self.to_eigenbasis(x)
            return self.from_eigenbasis(lam * c)
        x = _as_vector(x, self.n)
        if self.kernel == "convolve":
            # symmetric taps make convolution equal to correlation
            return np.convolve(x, self.filter.full(), mode="same")
        if self.kernel == "gemm":
            return self._blocked_product(x)
        # the taps occupy 0..2l, so W x starts l samples into the product
        l = self.filter.length
        y = np.fft.irfft(np.fft.rfft(x, self.fft_length) * self._tap_spectrum, self.fft_length)
        return y[l: l + self.n]

    @cached_property
    def kernel(self) -> str:
        """How :meth:`apply` multiplies: "transform" for the kinds with a
        diagonalizing transform; for the zero rule "convolve", "gemm" or
        "fft".

        numpy's convolution is fastest up to 11 taps (l <= 5), and for
        every l below n = 640. Other filters take the FFT convolution once
        it costs less than the blocked Toeplitz product: about n (B + 2l)
        multiply-adds for the product (B from :func:`_block_size`) against
        2.75 N log2(N)^2 of them for the FFT, N = n + 2l. Both sides grow
        with l, so the choice switches once. Below that switch the blocked
        product is taken from n = 1,024 on and numpy's convolution below,
        where the product's fixed cost of about 2Q + 3 numpy calls outweighs
        its speed. The first l that takes the FFT, by the rule and [as
        measured] on a 2-vCPU x86-64 host (numpy 2.4, OpenBLAS on one
        thread):

        ========  ======  ===========
        n         rule    measured
        ========  ======  ===========
        384       none    [none]
        512       none    [none]
        768       172     [150-175]
        2,048     170     [160-180]
        4,096     189     [190-210]
        200,000   397     [380-420]
        ========  ======  ===========

        At n = 384 and 512 numpy's convolution beat both other kernels for
        l of about 20 and up (the FFT tied it at l = 255, n = 512); at
        n = 768 it beat the FFT up to l of about 150, and the blocked
        product took 0.83-1.25 times its time for l = 6-150 (faster at
        l = 6 and 20, slower at l = 10 and 40). From n = 1,024 on the
        blocked product tied or won for every l below the FFT's
        (interleaved medians of 15 timings).
        """
        if self.kind is not BoundaryKind.ZERO:
            return "transform"
        l = self.filter.length
        taps = 2 * l + 1
        if taps <= _CONVOLVE_TAPS or self.n < _FFT_MIN_SIZE:
            return "convolve"
        size = self.n + 2 * l
        work = self.n * (_block_size(l) + 2 * l)
        if work > _FFT_COST * size * math.log2(size) ** 2:
            return "fft"
        return "gemm" if self.n >= _BLOCKED_MIN_SIZE else "convolve"

    @cached_property
    def fft_length(self) -> int | None:
        """Transform length of :meth:`apply`'s FFT convolution, None when
        another kernel is used.

        N is the smallest 5-smooth length >= n + 2l, the whole linear
        convolution of x with the 2l+1 taps, so no output wraps around.
        """
        return _fast_len(self.n + 2 * self.filter.length) if self.kernel == "fft" else None

    @cached_property
    def _tap_spectrum(self) -> np.ndarray:
        """The taps' rfft at :attr:`fft_length`, computed once per operator."""
        return np.fft.rfft(self.filter.full(), self.fft_length)

    @cached_property
    def _tap_blocks(self) -> np.ndarray:
        """The taps t as Q Toeplitz blocks of B x B, built once per operator:
        block q holds t[qB + c - b] at (c, b), zero outside 0..2l."""
        taps = self.filter.full()
        block = _block_size(self.filter.length)
        count = -(-(block + taps.size - 1) // block)
        m = np.arange(count * block)[:, None] - np.arange(block)
        inside = (m >= 0) & (m < taps.size)
        return np.where(inside, taps[np.where(inside, m, 0)], 0.0).reshape(count, block, block)

    def _blocked_product(self, v: np.ndarray) -> np.ndarray:
        """y_i = sum_m t_m v_{i+m-l} for i < n, with zeros outside v.

        The outputs, in rows of B, are the sum over q of the input's rows
        shifted by q, times the q-th tap block, taken in chunks of about
        2^14 samples. A chunk's input is viewed as rows in place; only a
        window reaching past either end of v is copied into a zero-padded
        buffer.
        """
        blocks = self._tap_blocks
        count, block = blocks.shape[:2]
        rows = -(-self.n // block)
        chunk = min(rows, max(1, _GEMM_CHUNK // block))
        y = np.empty((rows, block))
        buf = np.empty((chunk + count - 1) * block)
        part = np.empty((chunk, block))
        for a in range(0, rows, chunk):
            r = min(chunk, rows - a)
            lo = a * block - self.filter.length  # the index in v of the window's first sample
            size = (r + count - 1) * block
            if 0 <= lo and lo + size <= v.size:
                win = v[lo: lo + size]
            else:
                win = buf[:size]
                s, e = max(lo, 0), min(lo + size, v.size)
                win[:] = 0.0
                win[s - lo: e - lo] = v[s:e]
            view = win.reshape(-1, block)
            out = y[a: a + r]
            np.matmul(view[:r], blocks[0], out=out)
            for q in range(1, count):
                out += np.matmul(view[q: q + r], blocks[q], out=part[:r])
        return y.reshape(-1)[: self.n]

    def eigenvalues(self) -> Spectrum:
        """The operator's spectrum, in descending order.

        Closed forms for the kinds with a diagonalizing transform:

        * periodic:        w_0 + 2 sum_j w_j cos(2 j i pi / n),   i = 0..n-1
        * reflective:      w_0 + 2 sum_j w_j cos(j i pi / n),     i = 0..n-1
        * anti-reflective: {1, 1} and w_0 + 2 sum_j w_j cos(j i pi / (n-1)),
          i = 1..n-2

        The zero rule's symmetric Toeplitz matrix w_|i-j| has no closed-form
        spectrum; it is materialized and solved densely, O(n^3) time and
        O(n^2) memory, so n is limited to 4096 there.
        """
        if self.kind is not BoundaryKind.ZERO:
            return Spectrum.from_values(self._all_eigenvalues(self._transform_eigenvalues()))
        if self.n > DENSE_GUARD:
            raise ValueError(f"dense materialization limited to n <= {DENSE_GUARD}")
        w = np.zeros(self.n)
        w[: self.filter.length + 1] = self.filter.half_weights
        i = np.arange(self.n)
        return Spectrum.from_values(np.linalg.eigvalsh(w[np.abs(i[:, None] - i)]))

    def to_eigenbasis(self, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Coefficients c of x in the diagonalizing basis, the eigenvalue of
        each coefficient and its weight in ||x||^2 = sum weight |c|^2.

        Each kind's operator acts on x as the filter's circulant on one
        period of the kind's own extension of x
        (:func:`~iterfilt.boundary.extend`), read on its first n samples, so
        c is the rfft of that period, of N samples: x itself (periodic, N = n, bins 0..n//2); x and its mirror
        image (reflective, N = 2n, bins 0..n-1, bin n of the even period
        being zero); or x less the line through its end samples and the odd
        reflection of that difference (anti-reflective, N = 2(n - 1), bins
        0..n-1). Bins 0 and n-1 of the odd period are zero, so there they
        hold the coefficients of the two ramps, ||ramp|| / (n - 1) times
        the end sample, of weight 1. The other weights are those of the
        period's real DFT, 2/N and 1/N at DC and Nyquist (the bins without
        a mirror image), halved for the extended kinds, whose period holds
        x twice; the identity holds for anti-reflective once the ramp
        coefficients vanish. Raises ValueError for the zero kind.
        """
        n, p = self.n, self._extension()
        lam, size = self._transform_eigenvalues(), n + p
        weight = np.full(lam.size, (1.0 if p else 2.0) / size)
        weight[[0, -1] if 2 * (lam.size - 1) == size else [0]] /= 2  # DC and Nyquist
        x = _as_vector(x, n)
        if self.kind is BoundaryKind.ANTIREFLECTIVE:
            ends = x[[0, -1]]
            x = x - np.linspace(ends[0], ends[1], n)
        c = np.fft.rfft(extend(x, self.kind, p)[p:] if p else x)[: lam.size]
        if self.kind is BoundaryKind.ANTIREFLECTIVE:
            c[[0, -1]], weight[[0, -1]] = ends * (_ramp_norm(n) / (n - 1)), 1.0
        return c, lam, weight

    def from_eigenbasis(self, c) -> np.ndarray:
        """Signal with eigenbasis coefficients c, the inverse of
        :meth:`to_eigenbasis`: the first n samples of the period
        irfft(c, N), plus the two ramps for the anti-reflective kind."""
        n, p = self.n, self._extension()
        c = _as_vector(c, n if p else n // 2 + 1, dtype=None)
        if self.kind is not BoundaryKind.ANTIREFLECTIVE:
            y = np.fft.irfft(c, n + p)
            return y[:n].copy() if p else y
        y = np.fft.irfft(np.concatenate([[0.0], c[1:-1], [0.0]]), n + p)[:n]
        return y + np.linspace(*(c[[0, -1]].real * ((n - 1) / _ramp_norm(n))), n)

    # -- internal ---------------------------------------------------------

    def _extension(self) -> int:
        """The samples p on each side of the kind's extension whose last
        n + p hold one period: 0 (periodic), n (reflective) or n - 2
        (anti-reflective, whose extension repeats with period 2(n - 1)
        once its ends are zero)."""
        if self.kind is BoundaryKind.ZERO:
            raise ValueError("no diagonalizing transform for kind 'zero'")
        return {BoundaryKind.PERIODIC: 0, BoundaryKind.REFLECTIVE: self.n,
                BoundaryKind.ANTIREFLECTIVE: self.n - 2}[self.kind]

    def _symbol(self, m: int) -> np.ndarray:
        """Filter frequency response w_0 + 2 sum_j w_j cos(2 pi i j / m),
        i = 0..m//2, from one real FFT of the zero-padded taps."""
        w = self.filter.half_weights
        return 2.0 * np.fft.rfft(w, m).real - w[0]

    def _transform_eigenvalues(self) -> np.ndarray:
        """Eigenvalues ordered to match the coefficients of
        :meth:`to_eigenbasis`: the symbol at the period's bins, 1 at the
        anti-reflective ramps."""
        lam = self._symbol(self.n + self._extension())[: self.n]
        if self.kind is BoundaryKind.ANTIREFLECTIVE:
            lam[[0, -1]] = 1.0
        return lam

    def _all_eigenvalues(self, lam: np.ndarray) -> np.ndarray:
        """All n eigenvalues, unsorted, from ``lam``, the eigenvalues of the
        bins of :meth:`to_eigenbasis`: the periodic symbol is even, so its
        bins 1..(n - 1)//2 appear twice, for their mirror images n - i; the
        other kinds' n bins are the spectrum as it is."""
        if self.kind is BoundaryKind.PERIODIC:
            return np.concatenate([lam, lam[1: (self.n + 1) // 2]])
        return lam


def stopping_bound_k0(delta: float, op: StructuredOperator, s) -> int:
    """Smallest k0 guaranteeing step changes below delta from k0 onwards.

    Returns the minimum natural k0 with

        k0^k0 / (k0+1)^(k0+1) < rhs = delta / (alpha * c * sqrt(n - beta - zeta))

    for the kind's constants: alpha bounds the Euclidean norm of the unitary
    eigenbasis transform, 1 for the periodic DFT and the reflective DCT-II
    and 3 for anti-reflective, whose transform splits into two unit-norm
    ramps and a DST-I; beta is the multiplicity of eigenvalue one, 1 (the
    constant vector) or 2 for anti-reflective (its two ramps), whatever the
    filter; and zeta counts the zero eigenvalues, |lambda| <= 1e-10, among
    all n that one call of :meth:`StructuredOperator.to_eigenbasis` gives.
    c is the max-norm of the signal's coefficients in the unitary
    eigenbasis, read off the same call's bins c: max|c| / sqrt(n) for the
    periodic kind, whose unitary DFT scales the rfft by 1 / sqrt(n), and
    max sqrt(weight) |c| for the extended kinds, which gives the orthonormal
    DCT-II and DST-I coefficients and the two ramp coefficients (weight 1)
    as they are. As (1 + 1/k)^k < e < (1 + 1/k)^(k+1), the left side lies
    strictly between 1/(e (k+1)) and 1/(e k): every k >= x = 1/(e rhs)
    meets the bound and no k <= x - 1 does, so k0 is max(1, floor(x)) or
    the next integer. One comparison of the two sides' logarithms at 50
    digits tells which, since doubles stop telling k0 from k0 - 1 from
    about k0 = 10^12. Raises ValueError for non-finite input, delta <= 0,
    the zero kind and past k0 = 2^62. Requires a doubled (self-convolved)
    filter for the guarantee to be meaningful, since the bound rests on a
    spectrum inside [0, 1].
    """
    if not (math.isfinite(delta) and delta > 0.0):
        raise ValueError("delta must be finite and positive")
    if not np.isfinite(s := _as_vector(s, op.n)).all():
        raise ValueError("s must be finite")
    c, lam, weight = op.to_eigenbasis(s)
    alpha, beta = (3, 2) if op.kind is BoundaryKind.ANTIREFLECTIVE else (1, 1)
    zeta = _multiplicity(op._all_eigenvalues(lam), 0.0)
    c = np.abs(c) if op.kind is BoundaryKind.PERIODIC else np.sqrt(weight) * np.abs(c)
    c_inf = float(c.max())
    m = op.n - beta - zeta
    if m <= 0 or c_inf == 0.0:
        return 1  # every step change is already zero

    # decimal is loaded here, not with the module: no command reads the bound
    from decimal import Decimal, localcontext

    with localcontext(prec=50):
        scale = Decimal(op.n if op.kind is BoundaryKind.PERIODIC else 1).sqrt()
        log_rhs = (Decimal(delta) * scale
                   / (Decimal(alpha) * Decimal(c_inf) * Decimal(m).sqrt())).ln()
        # floor(x) for x = 1/(e rhs), capped at 2^62: past it no k0 is returned
        k0 = max(1, int(min((-1 - log_rhs).exp(), Decimal(1 << 62))))
        k = Decimal(k0)
        if k * k.ln() - (k + 1) * (k + 1).ln() >= log_rhs:
            k0 += 1
    if k0 > 1 << 62:
        raise ValueError("stopping bound out of range")
    return k0


def spectrum_outside_unit(lam: np.ndarray) -> str | None:
    """The error message for eigenvalues that leave [0, 1] by more than
    round-off (1e-12), or None. A self-convolved filter's spectrum lies in
    [0, 1] under every kind; a plain filter's reaches below zero, and the
    sift or the error propagation would then grow like max|1 - lambda|^k."""
    lo, hi = float(lam.min()), float(lam.max())
    if lo < -_SPECTRUM_SLACK or hi > 1.0 + _SPECTRUM_SLACK:
        return f"spectrum [{lo:.3g}, {hi:.3g}] is not in [0, 1]"
    return None


def _multiplicity(vals: np.ndarray, at: float) -> int:
    """How many of ``vals`` lie within 1e-10 of ``at``."""
    return int(np.count_nonzero(np.abs(vals - at) <= _MULT_TOL))


def _as_vector(x, n: int, dtype=float) -> np.ndarray:
    """x as an array of shape (n,), of ``dtype`` (None keeps x's own)."""
    x = np.asarray(x, dtype=dtype)
    if x.shape != (n,):
        raise ValueError(f"expected vector of length {n}, got shape {x.shape}")
    return x


def _block_size(l: int) -> int:
    """Row length B of the blocked product for filter half length l: wider
    blocks make fewer, larger matrix products but pad more zero taps."""
    taps = 2 * l + 1
    return 16 if taps <= 24 else 32 if taps <= 160 else 64


def _fast_len(target: int) -> int:
    """Smallest 5-smooth integer (2^a 3^b 5^c) at least ``target``; FFTs of
    other lengths can cost many times more."""
    best = 1 << (target - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p2 = 1 << (-(-target // p35) - 1).bit_length()
            best = min(best, p2 * p35)
            p35 *= 3
        p5 *= 5
    return best


def _ramp_norm(n: int) -> float:
    """||(0, 1, ..., n - 1)||, the norm of each anti-reflective ramp."""
    return math.sqrt((n - 1) * n * (2 * n - 1) // 6)


def diagonalized_power_apply(op: StructuredOperator, s, k: int) -> np.ndarray:
    """Compute (I - W)^k s through the operator's eigenbasis.

    One FFT-based transform round trip regardless of k, O(n log n). Only
    the kinds with a diagonalizing transform are supported (periodic,
    reflective, anti-reflective).
    """
    if op.kind not in TRANSFORM_KINDS:
        raise ValueError(f"no diagonalizing transform for kind {op.kind.value!r}")
    if k < 0:
        raise ValueError("power must be nonnegative")
    if k == 0:
        return _as_vector(s, op.n).copy()
    c, lam, _ = op.to_eigenbasis(s)
    return op.from_eigenbasis((1.0 - lam) ** k * c)
