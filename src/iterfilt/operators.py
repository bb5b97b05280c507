"""Structured smoothing operators and their spectral machinery.

A symmetric filter plus a boundary rule induces an n x n operator: Toeplitz
for zero, circulant for periodic, Toeplitz-plus-Hankel for reflective and
the anti-reflective algebra for anti-reflective extension. Each but the
zero rule's is diagonalized by a fast transform, has closed-form
eigenvalues and is applied in that eigenbasis; the zero rule's Toeplitz
operator is applied by convolving directly, as a blocked Toeplitz product
or by FFT, whichever costs least, and its spectrum takes a dense
eigensolve. The spectra, the eigenvectors of eigenvalue one, the
diagonalizing transforms and a k-step power application through the
eigenbasis live here; the dense matrices are test oracles only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .boundary import BoundaryKind
from .filters import Filter

__all__ = [
    "StructuredOperator",
    "Spectrum",
    "unit_eigenvectors",
    "diagonalized_power_apply",
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
        return cls(
            eigenvalues=vals,
            unit_multiplicity=int(np.count_nonzero(np.abs(vals - 1.0) <= _MULT_TOL)),
            zero_multiplicity=int(np.count_nonzero(np.abs(vals) <= _MULT_TOL)),
        )


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
            c, lam = self.to_eigenbasis(x)
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
            return Spectrum.from_values(self._transform_eigenvalues())
        if self.n > DENSE_GUARD:
            raise ValueError(f"dense materialization limited to n <= {DENSE_GUARD}")
        w = np.zeros(self.n)
        w[: self.filter.length + 1] = self.filter.half_weights
        i = np.arange(self.n)
        return Spectrum.from_values(np.linalg.eigvalsh(w[np.abs(i[:, None] - i)]))

    def to_eigenbasis(self, s) -> tuple[np.ndarray, np.ndarray]:
        """Coefficients of s in the diagonalizing basis, with the eigenvalue
        belonging to each coefficient.

        The basis is the unitary DFT (periodic), the orthonormal DCT-II
        (reflective) or the anti-reflective transform: two ramps around a
        DST-I of the interior. Raises ValueError for the zero kind.
        """
        lam = self._transform_eigenvalues()
        s = _as_vector(s, self.n)
        if self.kind is BoundaryKind.PERIODIC:
            return np.fft.fft(s) / np.sqrt(self.n), lam
        if self.kind is BoundaryKind.REFLECTIVE:
            return _dct2(s), lam
        return _art_inverse_apply(s), lam

    def from_eigenbasis(self, c) -> np.ndarray:
        """Signal with eigenbasis coefficients c, the inverse of :meth:`to_eigenbasis`."""
        c = _as_vector(c, self.n, dtype=None)
        if self.kind is BoundaryKind.PERIODIC:
            return (np.fft.ifft(c) * np.sqrt(self.n)).real
        if self.kind is BoundaryKind.REFLECTIVE:
            return _dct3(c)
        if self.kind is BoundaryKind.ANTIREFLECTIVE:
            return _art_apply(c)
        raise ValueError("no diagonalizing transform for kind 'zero'")

    # -- internal ---------------------------------------------------------

    def _symbol(self, m: int) -> np.ndarray:
        """Filter frequency response w_0 + 2 sum_j w_j cos(2 pi i j / m),
        i = 0..m-1, from one FFT of the zero-padded taps."""
        w = self.filter.half_weights
        return 2.0 * np.fft.fft(w, m).real - w[0]

    def _transform_eigenvalues(self) -> np.ndarray:
        """Eigenvalues ordered to match the diagonalizing transform's basis."""
        n = self.n
        if self.kind is BoundaryKind.PERIODIC:
            return self._symbol(n)
        if self.kind is BoundaryKind.REFLECTIVE:
            return self._symbol(2 * n)[:n]
        if self.kind is BoundaryKind.ANTIREFLECTIVE:
            inner = self._symbol(2 * (n - 1))[1: n - 1]
            return np.concatenate([[1.0], inner, [1.0]])
        raise ValueError("no closed-form eigenvalues for zero boundary conditions")


def unit_eigenvectors(kind: BoundaryKind, n: int) -> list[np.ndarray]:
    """Eigenvectors of eigenvalue one, valid for every admissible filter.

    Periodic and reflective share the constant vector; anti-reflective has
    the two boundary ramps. The zero kind has no unit eigenvalue.
    """
    kind = BoundaryKind(kind)
    if kind in (BoundaryKind.PERIODIC, BoundaryKind.REFLECTIVE):
        return [np.ones(n)]
    if kind is BoundaryKind.ANTIREFLECTIVE:
        ramp = np.arange(n, dtype=float)
        return [ramp, ramp[::-1].copy()]
    raise ValueError("zero boundary conditions have no unit eigenvalue")


def spectrum_outside_unit(lam: np.ndarray) -> str | None:
    """The error message for eigenvalues that leave [0, 1] by more than
    round-off (1e-12), or None. A self-convolved filter's spectrum lies in
    [0, 1] under every kind; a plain filter's reaches below zero, and the
    sift or the error propagation would then grow like max|1 - lambda|^k."""
    lo, hi = float(lam.min()), float(lam.max())
    if lo < -_SPECTRUM_SLACK or hi > 1.0 + _SPECTRUM_SLACK:
        return f"spectrum [{lo:.3g}, {hi:.3g}] is not in [0, 1]"
    return None


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


# -- trigonometric transforms ------------------------------------------------


def _dct2(x: np.ndarray) -> np.ndarray:
    """Orthonormal DCT-II sqrt((2 - delta_i0)/n) sum_j x_j cos(i (2j+1) pi / (2n)),
    by an FFT of the even extension."""
    n = x.size
    y = np.fft.rfft(np.concatenate([x, x[::-1]]))[:n] * np.exp(-0.5j * np.pi * np.arange(n) / n)
    return 0.5 * np.sqrt((2.0 - (np.arange(n) == 0)) / n) * y.real


def _dct3(c: np.ndarray) -> np.ndarray:
    """Orthonormal DCT-III, the transpose (and inverse) of :func:`_dct2`."""
    n = c.size
    b = np.sqrt((2.0 - (np.arange(n) == 0)) / n) * np.exp(0.5j * np.pi * np.arange(n) / n) * c
    return (2 * n) * np.fft.ifft(b, 2 * n)[:n].real


def _dst1(x: np.ndarray) -> np.ndarray:
    """Self-inverse DST-I sqrt(2/(m+1)) sum_j x_j sin((i+1)(j+1) pi / (m+1)),
    by an FFT of the odd extension."""
    m = x.size
    odd = np.concatenate([[0.0], x, [0.0], -x[::-1]])
    return -np.sqrt(0.5 / (m + 1)) * np.fft.rfft(odd)[1: m + 1].imag


def _ramps(n: int) -> tuple[np.ndarray, np.ndarray, float]:
    eta = float(np.sqrt(np.sum(np.arange(n, dtype=float) ** 2)))
    up = np.arange(n, dtype=float)
    return up[::-1].copy(), up, eta


def _art_apply(c: np.ndarray) -> np.ndarray:
    """Anti-reflective transform: two normalized ramp columns around an
    embedded sine-transform block."""
    down, up, eta = _ramps(c.size)
    y = (c[0] * down + c[-1] * up) / eta
    y[1:-1] += _dst1(c[1:-1])
    return y


def _art_inverse_apply(y: np.ndarray) -> np.ndarray:
    """Invert the anti-reflective transform.

    The first and last rows have a single nonzero entry, which pins the two
    ramp coefficients; subtracting the ramp contribution from the interior
    leaves a plain sine-transform problem, and that transform is its own
    inverse.
    """
    n = y.size
    down, up, eta = _ramps(n)
    c = np.empty(n)
    c[0], c[-1] = eta * y[0] / (n - 1), eta * y[-1] / (n - 1)
    c[1:-1] = _dst1(y[1:-1] - (c[0] * down[1:-1] + c[-1] * up[1:-1]) / eta)
    return c


def diagonalized_power_apply(op: StructuredOperator, s, k: int) -> np.ndarray:
    """Compute (I - W)^k s through the operator's eigenbasis.

    One FFT-based transform round trip regardless of k, O(n log n). Only
    the kinds with a diagonalizing transform are supported (periodic,
    reflective, anti-reflective).

    Notes
    -----
    The cosine-transform matrix of the reflective algebra has the
    eigenvectors as rows, so that round trip is Q^T diag(...) Q; for
    periodic and anti-reflective the transforms' columns are the
    eigenvectors and the round trip is Q diag(...) Q^{-1}.
    """
    if op.kind not in TRANSFORM_KINDS:
        raise ValueError(f"no diagonalizing transform for kind {op.kind.value!r}")
    if k < 0:
        raise ValueError("power must be nonnegative")
    if k == 0:
        return _as_vector(s, op.n).copy()
    c, lam = op.to_eigenbasis(s)
    return op.from_eigenbasis((1.0 - lam) ** k * c)
