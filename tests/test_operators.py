import numpy as np
import pytest
import scipy.fft
import scipy.linalg

from iterfilt import (
    BoundaryKind,
    Filter,
    StructuredOperator,
    diagonalized_power_apply,
)
from conftest import random_doubled_filter, random_filter
from oracles import (
    closed_form_eigenvalues,
    dct3_matrix,
    dense_eigenbasis,
    dense_matrix,
    dense_power_apply,
    dense_spectrum,
    dft_matrix,
    direct_apply,
    dst1_matrix,
    unit_eigenvectors,
)

ALL_KINDS = list(BoundaryKind)
TRANSFORM_KINDS = [BoundaryKind.PERIODIC, BoundaryKind.REFLECTIVE, BoundaryKind.ANTIREFLECTIVE]
# even and odd operator sizes, including the smallest ones
SIZES = (3, 4, 5, 16, 21, 64, 301)

W5 = Filter(np.array([3 / 9, 2 / 9, 1 / 9]))  # (1/9,2/9,3/9,2/9,1/9) full
W3 = Filter(np.array([0.5, 0.25]))  # admissible at every n >= 3


def iterate_direct(op, s, k):
    """k steps of x <- x - W x by the direct product, independent of the
    eigenbasis."""
    cur = np.asarray(s, dtype=float).copy()
    for _ in range(k):
        cur = cur - direct_apply(op.filter, op.kind, cur)
    return cur


def forward(kind, x):
    """Coefficients of x in the eigenbasis of a ``kind`` operator: the rfft
    bins of one period of the kind's extension (0..n//2 for periodic,
    0..n-1 for the other kinds). The transforms do not depend on the
    filter."""
    x = np.asarray(x, dtype=float)
    return StructuredOperator(W3, kind, x.size).to_eigenbasis(x)[0]


def inverse(kind, c, n=None):
    """The signal of n samples (default len(c)) with eigenbasis
    coefficients c of a ``kind`` operator."""
    return StructuredOperator(W3, kind, n or len(c)).from_eigenbasis(c)


def unitary_half(x):
    """Bins 0..n//2 of the unitary DFT of x, from the dense oracle."""
    n = len(x)
    return (np.conj(dft_matrix(n)) @ x)[: n // 2 + 1]


def hermitian(c, n):
    """The n DFT bins of a real signal whose bins 0..n//2 are c."""
    return np.concatenate([c, np.conj(c[1: (n + 1) // 2][::-1])])


def dct2_of_bins(c):
    """The orthonormal DCT-II coefficients that the reflective bins c of
    n = len(c) samples hold: 1/2 sqrt((2 - delta_k0)/n) Re(e^{-i pi k/(2n)} c_k)."""
    n = len(c)
    k = np.arange(n)
    return 0.5 * np.sqrt((2.0 - (k == 0)) / n) * (np.exp(-0.5j * np.pi * k / n) * c).real


def art_of_bins(c):
    """The anti-reflective transform that the bins c of n = len(c) samples
    hold: the two ramp coefficients as they are, and between them the DST-I
    coefficients -Im(c_k) / sqrt(N) of the period of N = 2(n - 1)."""
    n = len(c)
    return np.r_[c[0].real, -c[1:-1].imag / np.sqrt(2 * (n - 1)), c[-1].real]


def art_inverse(d):
    """The signal whose anti-reflective transform (:func:`art_of_bins`) is d."""
    n = len(d)
    c = np.r_[d[0], -1j * np.sqrt(2 * (n - 1)) * np.asarray(d[1:-1]), d[-1]]
    return inverse(BoundaryKind.ANTIREFLECTIVE, c)


def dct2(x):
    """Orthonormal DCT-II of x, from the reflective bins."""
    return dct2_of_bins(forward(BoundaryKind.REFLECTIVE, x))


def dst1(x):
    """DST-I of x: the interior of the anti-reflective transform of x with
    a zero sample added at each end."""
    return art_of_bins(forward(BoundaryKind.ANTIREFLECTIVE, np.pad(x, 1)))[1:-1]


class TestApply:
    def test_constant_fixed_point_periodic_reflective(self, rng):
        # the direct product keeps a constant exactly; apply's transform
        # round trip keeps it to rounding
        for kind in (BoundaryKind.PERIODIC, BoundaryKind.REFLECTIVE):
            op = StructuredOperator(random_filter(rng, 3), kind, 12)
            assert np.abs(direct_apply(op.filter, kind, np.ones(12)) - 1.0).max() == 0.0
            assert np.abs(op.apply(np.ones(12)) - 1.0).max() <= 1e-15

    def test_ramp_fixed_point_antireflective(self, rng):
        op = StructuredOperator(random_filter(rng, 4), BoundaryKind.ANTIREFLECTIVE, 14)
        ramp = np.arange(14.0)
        assert np.abs(op.apply(ramp) - ramp).max() <= 1e-12

    def test_zero_kind_first_output(self):
        # leading taps overlap the zero pad: first output is w0+w1+w2 = 2/3
        op = StructuredOperator(W5, BoundaryKind.ZERO, 8)
        out = op.apply(np.ones(8))
        assert out[0] == pytest.approx(3 / 9 + 2 / 9 + 1 / 9, abs=1e-15)
        dense = dense_matrix(op)
        assert np.abs(out - dense.sum(axis=1)).max() <= 1e-14

    def test_dimension_mismatch(self, rng):
        op = StructuredOperator(random_filter(rng, 2), BoundaryKind.PERIODIC, 10)
        with pytest.raises(ValueError):
            op.apply(np.ones(11))

    @pytest.mark.parametrize("kind", TRANSFORM_KINDS, ids=lambda k: k.value)
    def test_eigenbasis_rejects_wrong_length(self, kind):
        # the periodic coefficients are the n // 2 + 1 = 5 bins of the rfft
        op = StructuredOperator(W5, kind, 8)
        bins = 5 if kind is BoundaryKind.PERIODIC else 8
        for method, size in ((op.apply, 8), (op.to_eigenbasis, 8), (op.from_eigenbasis, bins)):
            for bad in (np.ones(size + 1), np.ones(size + 3), np.ones(size - 1),
                        np.ones((size, 1))):
                with pytest.raises(ValueError, match=f"length {size}"):
                    method(bad)

    def test_inadmissible_filter_length(self, rng):
        with pytest.raises(ValueError, match="filter length"):
            StructuredOperator(random_filter(rng, 5), BoundaryKind.PERIODIC, 10)

    @pytest.mark.parametrize("kind", list(BoundaryKind), ids=lambda k: k.value)
    def test_dimension_below_three(self, rng, kind):
        for n in (0, 1, 2):
            with pytest.raises(ValueError, match="at least 3"):
                StructuredOperator(random_filter(rng, 1), kind, n)


class TestDenseOracle:
    def test_apply_matches_dense_all_kinds(self, rng):
        for kind in ALL_KINDS:
            for n in (8, 16, 33, 64):
                for _ in range(3):
                    l = int(rng.integers(1, (n - 1) // 2 + 1))
                    op = StructuredOperator(random_filter(rng, l), kind, n)
                    x = rng.standard_normal(n)
                    assert np.abs(op.apply(x) - dense_matrix(op) @ x).max() <= 1e-13

    def test_columns_are_basis_images(self, rng):
        for kind in ALL_KINDS:
            op = StructuredOperator(random_filter(rng, 3), kind, 9)
            dense = dense_matrix(op)
            for j in range(9):
                e = np.zeros(9)
                e[j] = 1.0
                assert np.abs(dense[:, j] - op.apply(e)).max() <= 1e-14

    def test_periodic_circulant_first_row(self):
        op = StructuredOperator(Filter(np.array([0.5, 0.25])), BoundaryKind.PERIODIC, 4)
        assert np.allclose(dense_matrix(op)[0], [0.5, 0.25, 0.0, 0.25], atol=1e-15)

    def test_antireflective_corner_rows(self, rng):
        op = StructuredOperator(random_filter(rng, 3), BoundaryKind.ANTIREFLECTIVE, 11)
        dense = dense_matrix(op)
        assert dense[0, 0] == pytest.approx(1.0, abs=1e-14)
        assert np.abs(dense[0, 1:]).max() == 0.0
        assert dense[-1, -1] == pytest.approx(1.0, abs=1e-14)
        assert np.abs(dense[-1, :-1]).max() == 0.0

    def test_symmetry_of_symmetric_kinds(self, rng):
        for kind in (BoundaryKind.ZERO, BoundaryKind.PERIODIC, BoundaryKind.REFLECTIVE):
            dense = dense_matrix(StructuredOperator(random_filter(rng, 4), kind, 13))
            assert np.abs(dense - dense.T).max() == 0.0
        ar = dense_matrix(
            StructuredOperator(random_filter(rng, 4), BoundaryKind.ANTIREFLECTIVE, 13))
        assert np.abs(ar - ar.T).max() > 1e-3  # not symmetric in general

    def test_row_sums(self, rng):
        for kind in TRANSFORM_KINDS:
            dense = dense_matrix(StructuredOperator(random_filter(rng, 4), kind, 13))
            assert np.abs(dense.sum(axis=1) - 1.0).max() <= 1e-13
        dense = dense_matrix(StructuredOperator(random_filter(rng, 4), BoundaryKind.ZERO, 13))
        sums = dense.sum(axis=1)
        assert sums[0] < 1.0 and sums[-1] < 1.0

    def test_size_guard(self, rng):
        op = StructuredOperator(random_filter(rng, 2), BoundaryKind.PERIODIC, 5000)
        with pytest.raises(ValueError, match="dense"):
            dense_matrix(op)


def flat_operator(l, kind, n):
    return StructuredOperator(Filter(np.full(l + 1, 1.0 / (2 * l + 1))), kind, n)


def fft_crossover(n):
    """Smallest filter length whose product :meth:`apply` takes by FFT at
    dimension n, or None when no admissible length does."""
    return next((l for l in range(1, (n - 1) // 2 + 1)
                 if flat_operator(l, BoundaryKind.ZERO, n).kernel == "fft"), None)


def expected_kernel(kind, n, l):
    """The transform for every kind but zero. The zero rule: numpy's
    convolution up to 11 taps or below 640 samples, the FFT from the
    crossover on and below it the blocked product from 1,024 samples,
    numpy's convolution under that."""
    if kind is not BoundaryKind.ZERO:
        return "transform"
    if 2 * l + 1 <= 11 or n < 640:
        return "convolve"
    c = fft_crossover(n)
    if c is not None and l >= c:
        return "fft"
    return "gemm" if n >= 1024 else "convolve"


# blocked-product lengths well inside the range of that kernel
MID_LENGTHS = {2048: (117, 118, 119), 4096: (111, 112, 113)}


def apply_lengths(n):
    """l = 1, mid-range lengths, the FFT crossover and one length either
    side of it, and the widest; up to n = 2048 also the last convolution
    length 5 and the first blocked one 6 (dense products at n = 4096 cost
    half a second each)."""
    c = fft_crossover(n)
    around = (c - 1, c, c + 1) if c else ()
    widest = (n - 1) // 2
    edge = (5, 6) if n <= 2048 else ()
    return sorted(l for l in {1, *edge, *MID_LENGTHS.get(n, ()), *around, widest} if l <= widest)


APPLY_CASES = [(n, l) for n in (5, 64, 301, 2048, 4096) for l in apply_lengths(n)]


def is_5_smooth(m):
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


class TestConvolutionPaths:
    """The zero rule's apply convolves directly, as a blocked product or by
    FFT, the other kinds multiply in their eigenbasis; every path must
    equal the dense product."""

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    @pytest.mark.parametrize("n,l", APPLY_CASES)
    def test_apply_matches_dense(self, kind, n, l):
        # the lengths between l = 1 and the widest choose among the zero
        # rule's kernels; the transform kinds take one path whatever l, and
        # there they are checked against the direct O(n l) product instead
        # of the O(n^2) dense one
        rng = np.random.default_rng([n, l])
        op = StructuredOperator(random_filter(rng, l), kind, n)
        x = rng.standard_normal(n)
        if kind is BoundaryKind.ZERO or l in (1, (n - 1) // 2):
            expected = dense_matrix(op) @ x
        else:
            expected = direct_apply(op.filter, kind, x)
        assert np.abs(op.apply(x) - expected).max() <= 1e-13
        assert op.kernel == expected_kernel(kind, n, l)
        assert (op.fft_length is not None) == (op.kernel == "fft")

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    @pytest.mark.parametrize("l", [4, 6])
    def test_long_signal_matches_direct_product(self, kind, l):
        # the filters of a zero-rule decomposition of 200,000 noisy samples;
        # l = 6 runs the blocked product over many chunks
        n = 200_000
        rng = np.random.default_rng([n, l])
        op = StructuredOperator(random_filter(rng, l), kind, n)
        x = rng.standard_normal(n)
        assert op.kernel == expected_kernel(kind, n, l)
        assert np.abs(op.apply(x) - direct_apply(op.filter, kind, x)).max() <= 1e-13

    def test_both_paths_covered(self):
        # the comparison above takes all three of the zero rule's
        # kernels at these sizes, and the transform for every other kind
        for n in (2048, 4096):
            for kind in ALL_KINDS:
                kernels = {flat_operator(l, kind, n).kernel for l in apply_lengths(n)}
                zero = kind is BoundaryKind.ZERO
                assert kernels == ({"convolve", "gemm", "fft"} if zero else {"transform"})

    def test_crossovers_match_the_documented_table(self):
        table = {n: fft_crossover(n) for n in (384, 512, 768, 2048, 4096, 200_000)}
        assert table == {384: None, 512: None, 768: 172, 2048: 170, 4096: 189, 200_000: 397}

    def test_fft_length_is_smallest_5_smooth(self):
        for n in (640, 768, 1000, 1023, 1024, 2048, 3001, 4096, 20011):
            for l in (fft_crossover(n), (n - 1) // 2):
                size = flat_operator(l, BoundaryKind.ZERO, n).fft_length
                assert size >= n + 2 * l and is_5_smooth(size)
                assert not any(is_5_smooth(m) for m in range(n + 2 * l, size))

    def test_small_sizes_convolve_directly(self):
        # no blocked product below 1,024 samples and no FFT below 640: l = 6
        # and 100 lie below every FFT crossover there, the widest above it
        for n in range(3, 1024):
            widest = (n - 1) // 2
            for l in {min(6, widest), min(100, widest)}:
                op = flat_operator(l, BoundaryKind.ZERO, n)
                assert op.kernel == "convolve" and op.fft_length is None
            op = flat_operator(widest, BoundaryKind.ZERO, n)
            assert op.kernel == ("convolve" if n < 640 else "fft")
        assert flat_operator(6, BoundaryKind.ZERO, 1024).kernel == "gemm"


class TestEigenvalues:
    def test_leading_eigenvalue_is_one(self, rng):
        for kind in (BoundaryKind.PERIODIC, BoundaryKind.REFLECTIVE):
            spec = StructuredOperator(random_filter(rng, 3), kind, 16).eigenvalues()
            assert spec.eigenvalues[0] == pytest.approx(1.0, abs=1e-14)

    def test_periodic_value_at_angle_pi(self):
        # even n puts one Fourier angle at pi: 3/9 - 4/9 + 2/9 = 1/9
        op = StructuredOperator(W5, BoundaryKind.PERIODIC, 8)
        vals = op.eigenvalues().eigenvalues
        assert np.abs(vals - 1 / 9).min() <= 1e-14
        dense_vals = dense_spectrum(op).eigenvalues
        assert np.abs(vals - dense_vals).max() <= 1e-10

    def test_antireflective_unit_multiplicity_two(self, rng):
        for _ in range(5):
            op = StructuredOperator(random_filter(rng, 3), BoundaryKind.ANTIREFLECTIVE, 12)
            assert op.eigenvalues().unit_multiplicity == 2

    def test_closed_form_matches_dense_multiset(self, rng):
        for kind in TRANSFORM_KINDS:
            for n in (8, 16, 33):
                l = int(rng.integers(1, (n - 1) // 2 + 1))
                op = StructuredOperator(random_filter(rng, l), kind, n)
                closed = op.eigenvalues().eigenvalues
                dense = dense_spectrum(op).eigenvalues
                assert np.abs(closed - dense).max() <= 1e-10

    def test_fft_symbol_matches_cosine_table(self, rng):
        for kind in TRANSFORM_KINDS:
            for n in (3, 4, 5, 8, 33, 64, 301):
                l = int(rng.integers(1, (n - 1) // 2 + 1))
                op = StructuredOperator(random_filter(rng, l), kind, n)
                table = closed_form_eigenvalues(op)
                lam = op.to_eigenbasis(np.zeros(n))[1]  # periodic: bins 0..n//2
                assert np.abs(lam - table[: lam.size]).max() <= 1e-13
                assert np.abs(op.eigenvalues().eigenvalues - np.sort(table)[::-1]).max() <= 1e-13

    def test_zero_kind_matches_scipy_toeplitz(self, rng):
        # the zero rule's spectrum is a dense eigensolve of w_|i-j|; scipy
        # builds that matrix independently of the operator and of the oracles
        for n in (3, 10, 33, 64):
            l = int(rng.integers(1, (n - 1) // 2 + 1))
            op = StructuredOperator(random_filter(rng, l), BoundaryKind.ZERO, n)
            w = np.zeros(n)
            w[: l + 1] = op.filter.half_weights
            expected = np.linalg.eigvalsh(scipy.linalg.toeplitz(w))[::-1]
            spec = op.eigenvalues()
            assert spec.eigenvalues.size == n
            assert np.abs(spec.eigenvalues - expected).max() <= 1e-12

    def test_lemma_spectrum_in_minus_one_one(self, rng):
        for _ in range(10):
            n = int(rng.choice([9, 16, 33]))
            l = int(rng.integers(1, (n - 1) // 2 + 1))
            filt = random_filter(rng, l)
            for kind in TRANSFORM_KINDS:
                vals = dense_spectrum(StructuredOperator(filt, kind, n)).eigenvalues
                assert vals.max() <= 1.0 + 1e-10
                assert vals.min() >= -1.0 - 1e-10

    def test_doubled_filter_spectrum_in_zero_one(self, rng):
        for _ in range(10):
            n = int(rng.choice([13, 16, 33]))
            filt = random_doubled_filter(rng, n)
            for kind, mult in zip(TRANSFORM_KINDS, (1, 1, 2)):
                spec = StructuredOperator(filt, kind, n).eigenvalues()
                assert spec.eigenvalues.min() >= -1e-12
                assert spec.eigenvalues.max() <= 1.0 + 1e-12
                assert spec.unit_multiplicity == mult


class TestUnitEigenvectors:
    def test_periodic_constant(self):
        vecs = unit_eigenvectors(BoundaryKind.PERIODIC, 5)
        assert len(vecs) == 1 and np.array_equal(vecs[0], np.ones(5))

    def test_antireflective_ramps(self):
        vecs = unit_eigenvectors(BoundaryKind.ANTIREFLECTIVE, 4)
        assert np.array_equal(vecs[0], [0.0, 1.0, 2.0, 3.0])
        assert np.array_equal(vecs[1], [3.0, 2.0, 1.0, 0.0])

    def test_zero_kind_rejected(self):
        with pytest.raises(ValueError):
            unit_eigenvectors(BoundaryKind.ZERO, 5)

    def test_residual_on_random_filters(self, rng):
        for _ in range(10):
            n = int(rng.choice([8, 15, 32]))
            l = int(rng.integers(1, (n - 1) // 2 + 1))
            filt = random_filter(rng, l)
            for kind in TRANSFORM_KINDS:
                op = StructuredOperator(filt, kind, n)
                for u in unit_eigenvectors(kind, n):
                    assert np.abs(direct_apply(filt, kind, u) - u).max() <= 1e-12


class TestTransforms:
    """The diagonalizing transforms, reached through the operators'
    eigenbasis: DFT (periodic), DCT-II (reflective), DST-I (the
    anti-reflective interior) and the anti-reflective transform."""

    def test_dst1_of_first_basis_vector(self):
        out = dst1([1.0, 0.0, 0.0])
        expected = np.sqrt(2 / 4) * np.sin(np.arange(1, 4) * np.pi / 4)
        assert np.abs(out - expected).max() <= 1e-15

    def test_dct3_norm_preservation(self, rng):
        for _ in range(5):
            x = rng.standard_normal(17)
            out = dct2(x)
            assert abs(np.linalg.norm(out) - np.linalg.norm(x)) <= 1e-12

    def test_dst1_norm_preservation(self, rng):
        x = rng.standard_normal(14)
        assert abs(np.linalg.norm(dst1(x)) - np.linalg.norm(x)) <= 1e-12

    def test_dft_unitary(self, rng):
        # the bins and their mirror images: 1/16 of |c|^2 at DC and Nyquist, 2/16 between
        x = rng.standard_normal(16)
        out = forward(BoundaryKind.PERIODIC, x)
        weight = np.r_[1.0, np.full(7, 2.0), 1.0] / 16
        assert abs(np.sqrt(weight @ np.abs(out) ** 2) - np.linalg.norm(x)) <= 1e-12

    def test_dct3_against_scipy(self, rng):
        # this cosine matrix coincides with scipy's orthonormal DCT-II
        for n in SIZES:
            x = rng.standard_normal(n)
            ref = scipy.fft.dct(x, type=2, norm="ortho")
            assert np.abs(dct2(x) - ref).max() <= 1e-12

    def test_dst1_against_scipy(self, rng):
        for m in (1, 2) + SIZES + (19,):
            x = rng.standard_normal(m)
            ref = scipy.fft.dst(x, type=1, norm="ortho")
            assert np.abs(dst1(x) - ref).max() <= 1e-12

    def test_fft_transforms_match_dense(self, rng):
        for n in SIZES:
            x = rng.standard_normal(n)
            assert np.abs(dct2(x) - dct3_matrix(n) @ x).max() <= 1e-12
            assert np.abs(dst1(x) - dst1_matrix(n) @ x).max() <= 1e-12
            scale = np.sqrt(n)
            assert np.abs(forward(BoundaryKind.PERIODIC, x) / scale - unitary_half(x)).max() <= 1e-12
            # bins of a real signal: DC, and Nyquist for even n, are real
            z = forward(BoundaryKind.PERIODIC, rng.standard_normal(n)) / scale
            dense = (dft_matrix(n) @ hermitian(z, n)).real
            assert np.abs(inverse(BoundaryKind.PERIODIC, z * scale, n) - dense).max() <= 1e-12

    def test_dst1_self_inverse(self, rng):
        x = rng.standard_normal(12)
        assert np.abs(dst1(dst1(x)) - x).max() <= 1e-11

    def test_dft_fast_path_matches_direct(self, rng):
        x = rng.standard_normal(33)
        fast = forward(BoundaryKind.PERIODIC, x) / np.sqrt(33)
        assert np.abs(unitary_half(x) - fast).max() <= 1e-11

    def test_art_first_column_normalized(self):
        n = 9
        e0 = np.zeros(n)
        e0[0] = 1.0
        col = inverse(BoundaryKind.ANTIREFLECTIVE, e0)
        assert abs(np.linalg.norm(col) - 1.0) <= 1e-12

    def test_art_not_orthogonal(self, rng):
        x = rng.standard_normal(10)
        out = art_inverse(x)
        assert abs(np.linalg.norm(out) - np.linalg.norm(x)) > 1e-6

    def test_art_inverse_round_trip(self, rng):
        x = rng.standard_normal(15)
        kind = BoundaryKind.ANTIREFLECTIVE
        assert np.abs(art_of_bins(forward(kind, art_inverse(x))) - x).max() <= 1e-11


class TestDiagonalization:
    def test_reconstruction_matches_dense(self, rng):
        # eigenbasis round trip rebuilds the dense operator for all three kinds
        n = 14
        filt = random_filter(rng, 4)

        zeros = np.zeros(n)
        op = StructuredOperator(filt, BoundaryKind.PERIODIC, n)
        Q = dft_matrix(n)
        lam = hermitian(op.to_eigenbasis(zeros)[1], n)  # bin n - i mirrors bin i
        rebuilt = (Q @ np.diag(lam) @ np.conj(Q)).real
        assert np.abs(rebuilt - dense_matrix(op)).max() <= 1e-10

        op = StructuredOperator(filt, BoundaryKind.REFLECTIVE, n)
        Q = dct3_matrix(n)
        lam = op.to_eigenbasis(zeros)[1]
        rebuilt = Q.T @ np.diag(lam) @ Q
        assert np.abs(rebuilt - dense_matrix(op)).max() <= 1e-10

        op = StructuredOperator(filt, BoundaryKind.ANTIREFLECTIVE, n)
        lam = op.to_eigenbasis(zeros)[1]
        cols = [art_inverse(col) for col in np.eye(n)]
        Q = np.column_stack(cols)
        rebuilt = Q @ np.diag(lam) @ np.linalg.inv(Q)
        assert np.abs(rebuilt - dense_matrix(op)).max() <= 1e-10

    def test_dst1_diagonalizes_interior_block(self, rng):
        # the sine transform diagonalizes the interior of the anti-reflective form
        n = 12
        op = StructuredOperator(random_filter(rng, 3), BoundaryKind.ANTIREFLECTIVE, n)
        inner = dense_matrix(op)[1:-1, 1:-1]
        S = dst1_matrix(n - 2)
        diag = S @ inner @ S
        off = diag - np.diag(np.diag(diag))
        assert np.abs(off).max() <= 1e-12

    def test_eigenbasis_round_trip_matches_dense(self, rng):
        for kind in TRANSFORM_KINDS:
            for n in (3, 4, 5, 16, 33):
                l = int(rng.integers(1, (n - 1) // 2 + 1))
                op = StructuredOperator(random_filter(rng, l), kind, n)
                q, q_inv = dense_eigenbasis(op)
                s = rng.standard_normal(n)
                c, _, _ = op.to_eigenbasis(s)
                # the periodic kind: the rfft, bins 0..n//2 of sqrt(n) times
                # the unitary DFT; the others: the bins' DCT-II or ramps and DST-I
                unit = {BoundaryKind.PERIODIC: c / np.sqrt(n),
                        BoundaryKind.REFLECTIVE: dct2_of_bins(c),
                        BoundaryKind.ANTIREFLECTIVE: art_of_bins(c)}[kind]
                assert np.abs(unit - (q_inv @ s)[: c.size]).max() <= 1e-12
                assert np.abs(op.from_eigenbasis(c) - s).max() <= 1e-12

    def test_real_eigenbasis_matches_closed_form(self, rng):
        # the periodic kind's real transform: the rfft with the cosine-table
        # eigenvalue of each bin, and weights that give back ||x||^2, as do
        # the extended kinds' (anti-reflective: once the ramps vanish), whose
        # ramp coefficients weigh one
        for n in (3, 4, 5, 16, 33, 301, 1024):
            l = int(rng.integers(1, (n - 1) // 2 + 1))
            op = StructuredOperator(random_filter(rng, l), BoundaryKind.PERIODIC, n)
            s = rng.standard_normal(n)
            c, lam, weight = op.to_eigenbasis(s)
            assert c.shape == lam.shape == weight.shape == (n // 2 + 1,)
            assert np.abs(c - np.fft.fft(s)[: n // 2 + 1]).max() <= 1e-12 * n
            assert np.abs(lam - closed_form_eigenvalues(op)[: n // 2 + 1]).max() <= 1e-13
            assert abs(weight @ np.abs(c) ** 2 - s @ s) <= 1e-12 * (s @ s)
            assert np.abs(op.from_eigenbasis(c) - s).max() <= 1e-12
        for kind in (BoundaryKind.REFLECTIVE, BoundaryKind.ANTIREFLECTIVE):
            s = np.pad(rng.standard_normal(8), 1)  # no ramp component
            c, _, weight = StructuredOperator(random_filter(rng, 2), kind, 10).to_eigenbasis(s)
            assert c.shape == weight.shape == (10,)
            assert abs(weight @ np.abs(c) ** 2 - s @ s) <= 1e-12 * (s @ s)
            if kind is BoundaryKind.ANTIREFLECTIVE:
                assert np.array_equal(weight[[0, -1]], [1.0, 1.0])

    def test_zero_kind_has_no_eigenbasis(self, rng):
        op = StructuredOperator(random_filter(rng, 2), BoundaryKind.ZERO, 10)
        with pytest.raises(ValueError):
            op.to_eigenbasis(np.ones(10))
        with pytest.raises(ValueError):
            op.from_eigenbasis(np.ones(10))


class TestDiagonalizedPowerApply:
    def test_k0_identity(self, rng):
        op = StructuredOperator(random_filter(rng, 3), BoundaryKind.REFLECTIVE, 12)
        s = rng.standard_normal(12)
        assert np.array_equal(diagonalized_power_apply(op, s, 0), s)

    def test_k1_single_step(self, rng):
        for kind in TRANSFORM_KINDS:
            op = StructuredOperator(random_filter(rng, 3), kind, 12)
            s = rng.standard_normal(12)
            expected = s - direct_apply(op.filter, kind, s)
            assert np.abs(diagonalized_power_apply(op, s, 1) - expected).max() <= 1e-12

    def test_k100_matches_direct_iteration(self, rng):
        for kind in TRANSFORM_KINDS:
            op = StructuredOperator(random_doubled_filter(rng, 16), kind, 16)
            s = rng.standard_normal(16)
            spectral = diagonalized_power_apply(op, s, 100)
            assert np.abs(spectral - iterate_direct(op, s, 100)).max() <= 1e-9

    def test_fast_periodic_path(self, rng):
        op = StructuredOperator(random_doubled_filter(rng, 32), BoundaryKind.PERIODIC, 32)
        s = rng.standard_normal(32)
        slow = dense_power_apply(op, s, 50)
        fast = diagonalized_power_apply(op, s, 50)
        assert np.abs(slow - fast).max() <= 1e-11

    def test_wrong_length_rejected(self, rng):
        op = StructuredOperator(random_filter(rng, 3), BoundaryKind.REFLECTIVE, 12)
        for k in (0, 3):
            with pytest.raises(ValueError, match="length 12"):
                diagonalized_power_apply(op, np.ones(13), k)

    def test_zero_kind_unsupported(self, rng):
        op = StructuredOperator(random_filter(rng, 2), BoundaryKind.ZERO, 10)
        with pytest.raises(ValueError, match="transform"):
            diagonalized_power_apply(op, np.ones(10), 3)

    @pytest.mark.parametrize("kind", TRANSFORM_KINDS, ids=lambda k: k.value)
    def test_negative_power_rejected(self, rng, kind):
        op = StructuredOperator(random_filter(rng, 2), kind, 10)
        with pytest.raises(ValueError, match="nonnegative"):
            diagonalized_power_apply(op, np.ones(10), -1)
