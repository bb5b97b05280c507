"""Independent reference implementations the fast paths are checked against.

The dense operator matrices, built from the Toeplitz / circulant /
Toeplitz-plus-Hankel / anti-reflective templates, and their numerical
spectra are what the matrix-free products and the closed-form eigenvalues
must reproduce; the unit eigenvectors are the constant vector and the
anti-reflective ramps, which the bound's beta counts; the dense transform
matrices and the cosine-sum eigenvalue table are the O(n^2) and O(n l)
definitions the FFT-based code replaces; the direct product is the
extend-then-convolve definition of W x that the operator's eigenbasis
product replaces; the reference sift is the per-step loop of direct
products that every sift must reproduce step for step; the stop scan is
the row-by-row stopping rule that the sift's search for the stopping step
replaces; the dense propagation is the step-by-step iteration of the
periodic operator that both kernels of the boundary-error propagation
replace; the dominant period reads the period of a boundary-error curve
off its spectrum peak; the whole-file parse is the CSV reader that lists
all of a file's lines at once, which the chunked reader replaces.
"""

import math
from itertools import islice
from pathlib import Path

import numpy as np

from iterfilt import BoundaryKind, ParseError, Spectrum, StructuredOperator, extend
from iterfilt.operators import DENSE_GUARD
from iterfilt.signal import MIN_SAMPLES

# below this fraction of the input's norm an iterate counts as zero
ZERO_ITERATE = 1e-14


def dense_matrix(op):
    """Materialize W from its matrix structure.

    Built directly from the Toeplitz / circulant / Toeplitz-plus-Hankel /
    anti-reflective block templates, independently of ``op.apply`` and of
    the transforms.
    """
    n, l = op.n, op.filter.length
    if n > DENSE_GUARD:
        raise ValueError(f"dense materialization limited to n <= {DENSE_GUARD}")
    w = np.zeros(2 * n + 2)
    w[: l + 1] = op.filter.half_weights
    i, j = np.ogrid[:n, :n]

    if op.kind is BoundaryKind.ZERO:
        return w[np.abs(i - j)]

    if op.kind is BoundaryKind.PERIODIC:
        symbol = np.zeros(n)
        symbol[: l + 1] = op.filter.half_weights
        symbol[n - l:] += op.filter.half_weights[:0:-1]
        return symbol[(i - j) % n]

    if op.kind is BoundaryKind.REFLECTIVE:
        # Hankel corrections w_{i+j+1} (top-left) and w_{2n-1-i-j} (bottom-right)
        return w[np.abs(i - j)] + w[i + j + 1] + w[2 * n - 1 - i - j]

    # anti-reflective: zero first/last rows except unit diagonal corners,
    # ramp first/last columns, interior Toeplitz minus Hankel block
    half = op.filter.half_weights
    z = 2.0 * np.concatenate([np.cumsum(half[::-1])[::-1], [0.0, 0.0]])
    W = np.zeros((n, n))
    W[0, 0] = z[1] + half[0]
    W[n - 1, n - 1] = z[1] + half[0]
    rows = np.arange(1, l + 1)
    W[rows, 0] = half[1:] + z[2: l + 2]
    W[n - 1 - rows, n - 1] = W[rows, 0]
    ii = i[: n - 2, : n - 2]
    jj = j[: n - 2, : n - 2]
    W[1: n - 1, 1: n - 1] = w[np.abs(ii - jj)] - w[ii + jj + 2] - w[2 * n - 4 - ii - jj]
    return W


def unit_eigenvectors(kind, n):
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


def dense_spectrum(op):
    """Numerical spectrum of :func:`dense_matrix`; the anti-reflective
    matrix is not symmetric and takes the general eigensolve."""
    dense = dense_matrix(op)
    if op.kind is BoundaryKind.ANTIREFLECTIVE:
        vals = np.linalg.eigvals(dense)
        if np.abs(vals.imag).max() > 1e-8:
            raise ValueError("anti-reflective spectrum unexpectedly non-real")
        return Spectrum.from_values(vals.real)
    return Spectrum.from_values(np.linalg.eigvalsh(dense))


def dft_matrix(n):
    """Unitary inverse-DFT matrix exp(2 pi i jk / n) / sqrt(n)."""
    j = np.arange(n)
    return np.exp(2j * np.pi * np.outer(j, j) / n) / np.sqrt(n)


def dct3_matrix(n):
    """Orthogonal matrix sqrt((2 - delta_i0)/n) cos(i (2j+1) pi / (2n))."""
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.sqrt((2.0 - (i == 0)) / n) * np.cos(i * (2 * j + 1) * np.pi / (2 * n))


def dst1_matrix(m):
    """Symmetric self-inverse matrix sqrt(2/(m+1)) sin((i+1)(j+1) pi / (m+1))."""
    i, j = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    return np.sqrt(2.0 / (m + 1)) * np.sin((i + 1) * (j + 1) * np.pi / (m + 1))


def symbol_table(filt, theta):
    """Filter frequency response w_0 + 2 sum_j w_j cos(j theta), summed
    from an (angles x taps) cosine table."""
    w = filt.half_weights
    j = np.arange(1, w.size)
    return w[0] + 2.0 * (w[1:] * np.cos(np.multiply.outer(theta, j))).sum(axis=-1)


def closed_form_eigenvalues(op):
    """The paper's eigenvalue formulas, in the order of the transform basis."""
    n = op.n
    if op.kind is BoundaryKind.PERIODIC:
        return symbol_table(op.filter, 2.0 * np.pi * np.arange(n) / n)
    if op.kind is BoundaryKind.REFLECTIVE:
        return symbol_table(op.filter, np.pi * np.arange(n) / n)
    inner = symbol_table(op.filter, np.pi * np.arange(1, n - 1) / (n - 1))
    return np.concatenate([[1.0], inner, [1.0]])


def dense_eigenbasis(op):
    """(Q, Q^{-1}) with W = Q diag(eigenvalues) Q^{-1}, from dense matrices."""
    n = op.n
    if op.kind is BoundaryKind.PERIODIC:
        q = dft_matrix(n)
        return q, np.conj(q)
    if op.kind is BoundaryKind.REFLECTIVE:
        q = dct3_matrix(n)
        return q.T, q
    down = np.arange(n - 1, -1, -1, dtype=float)
    eta = np.sqrt(np.sum(down**2))
    q = np.zeros((n, n))
    q[:, 0] = down / eta
    q[:, -1] = down[::-1] / eta
    q[1:-1, 1:-1] = dst1_matrix(n - 2)
    return q, np.linalg.inv(q)


def dense_power_apply(op, s, k):
    """(I - W)^k s through dense transform matrices and tabled eigenvalues."""
    q, q_inv = dense_eigenbasis(op)
    z = 1.0 - closed_form_eigenvalues(op)
    return (q @ (z**k * (q_inv @ np.asarray(s, dtype=float)))).real


def direct_apply(filt, kind, x):
    """W x by definition: extend x by the filter length under ``kind`` and
    take the valid part of its direct convolution with the taps."""
    ext = extend(np.asarray(x, dtype=float), kind, filt.length)
    return np.convolve(ext, filt.full(), mode="valid")


def reference_sift(values, filt, kind, cfg):
    """One direct product per inner step until the step change drops below
    delta, the iterate is numerically zero (relative to the input's norm) or
    max_inner is reached. Returns (iterate, steps, last step change)."""
    cur = np.asarray(values, dtype=float).copy()
    tiny = ZERO_ITERATE * float(np.linalg.norm(cur))
    k = 0
    d = None
    while k < cfg.max_inner:
        norm_cur = float(np.linalg.norm(cur))
        if norm_cur <= tiny:
            break
        nxt = cur - direct_apply(filt, kind, cur)
        k += 1
        d = float(np.linalg.norm(nxt - cur)) / norm_cur
        cur = nxt
        if d < cfg.delta:
            break
    return cur, k, d


def scan_stop(energy, z, lam, k, d, tiny, cfg):
    """The sift's (steps, last step change) after step k left the squared
    eigenbasis coefficients ``energy`` and the change d, row by row, for any
    spectrum. Row j holds energy z^(2j), the squared coefficients before
    step k + j + 1; the loop stops at the first row whose norm is at most
    tiny (after k + j steps) or whose step change is below delta (after
    k + j + 1 steps), and at max_inner steps."""
    decay, lam2 = z * z, lam * lam
    while not d < cfg.delta and k < cfg.max_inner:
        norm = float(np.sqrt(energy.sum()))
        if norm <= tiny:
            break
        d = float(np.sqrt(energy @ lam2)) / norm
        k += 1
        energy = energy * decay
    return k, d


def dense_propagation(s, filt, steps, p):
    """(last, max) of the boundary-error propagation by definition: iterate
    x <- x - W x with the dense periodic operator of size n + 2p, starting
    from chi = max |s| on the p samples outside each boundary and zero on
    the n inside, and restrict each step to the core."""
    s = np.asarray(s, dtype=float)
    n, chi = s.size, float(np.abs(s).max())
    dense = dense_matrix(StructuredOperator(filt, BoundaryKind.PERIODIC, n + 2 * p))
    x = np.concatenate([np.full(p, chi), np.zeros(n), np.full(p, chi)])
    bound = np.zeros(n)
    for _ in range(steps):
        x = x - dense @ x
        bound = np.maximum(bound, np.abs(x[p: p + n]))
    return x[p: p + n], bound


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


def whole_file_parse(path) -> np.ndarray:
    """``load_signal`` by the list of all of the file's lines: its header
    rule, trailing blank lines, fast path and row-by-row fallback, with the
    same values, exception types and messages."""
    text = Path(path).read_text(encoding="utf-8-sig")
    lines = text.splitlines()
    while lines and lines[-1].strip() == "":
        lines.pop()
    header = 0
    if lines:
        try:
            float(lines[0].strip())
        except ValueError:
            header = 1
    try:
        values = np.fromiter(map(float, islice(lines, header, None)), float,
                             count=len(lines) - header)
    except ValueError:
        values = None
    if values is None or not np.isfinite(values).all():
        rows = []
        for idx, line in enumerate(lines[header:], start=header + 1):
            token = line.strip()
            try:
                x = float(token)
            except ValueError:
                raise ParseError(f"could not parse {token!r} as a number", row=idx) from None
            if not math.isfinite(x):
                raise ParseError(f"non-finite value {token!r}", row=idx)
            rows.append(x)
        values = np.array(rows)
    if values.size < MIN_SAMPLES:
        raise ParseError(f"need at least {MIN_SAMPLES} samples, found {values.size}")
    return values
