"""Cost guards that need no timing: operator-application counts, imports and
allocations.

The kinds with a diagonalizing transform sift in the eigenbasis, so a
decomposition or phase sweep on them applies no operator, and a sift finds
its stopping step in O(log K) rows of its energies. Only the zero kind
applies W, with the taps' blocks or spectrum built once per operator: one
product per step on short filters, a Lanczos basis of m products with a
long filter, kept within a budget of 2^20 samples (n <= 2,621), and above
it, for a long sift, regenerated in O(n) memory for 2m, and for a shallow
sift of a long signal products on short windows at its two ends only, in
O(n) memory. The boundary-error propagation keeps O(n) memory whatever
its step count.
"""

import math
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import iterfilt
from iterfilt import (
    BoundaryKind,
    Filter,
    StoppingConfig,
    StructuredOperator,
    build_filter,
    convolve_self,
    count_extrema,
    dif,
    eif,
    error_analysis,
    error_propagation,
    filter_length,
    filters,
    inner_loop,
    load_signal,
    make_sine_trend_generator,
    phase_sweep,
    raised_cosine_shape,
    sample_filter,
)
from conftest import bench_chirp, noise_trend
from test_decompose import chirp

TRANSFORM_KINDS = [BoundaryKind.PERIODIC, BoundaryKind.REFLECTIVE, BoundaryKind.ANTIREFLECTIVE]
CFG = StoppingConfig(max_imfs=4)


def test_transform_kinds_apply_no_operator(apply_calls):
    s = chirp(256)
    for kind in TRANSFORM_KINDS:
        dif(s, kind=kind, cfg=CFG)
    for kind in BoundaryKind:  # eif iterates a periodic operator for every kind
        eif(s, kind=kind, p=8, cfg=CFG)
    assert apply_calls == []


def test_zero_kind_applies_once_per_step(apply_calls):
    d = dif(chirp(256), kind=BoundaryKind.ZERO, cfg=CFG)
    assert len(apply_calls) == sum(diag.inner_steps for diag in d.diagnostics) > 0


def test_zero_kind_fft_sift_builds_tap_spectrum_once(apply_calls, monkeypatch):
    s = chirp(2048)
    filt = convolve_self(sample_filter(raised_cosine_shape(), 142))
    lengths = []
    rfft = np.fft.rfft

    def counted(a, *args, **kwargs):
        lengths.append(np.shape(a)[-1])
        return rfft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counted)
    _, k, _ = inner_loop(s, filt, BoundaryKind.ZERO, StoppingConfig())
    assert k > 1
    assert lengths.count(2 * filt.length + 1) == 1             # the taps, once per operator
    assert lengths.count(s.size) == len(apply_calls) > 1       # the vector, once per product
    assert len(lengths) == len(apply_calls) + 1


def test_zero_kind_blocked_sift_builds_tap_blocks_once(apply_calls, monkeypatch):
    # n = 4,096 is above the budget for a kept basis: a short sift takes 20
    # Lanczos steps and then the loop, both on one operator
    s = chirp(4096)
    filt = convolve_self(sample_filter(raised_cosine_shape(), 14))
    assert StructuredOperator(filt, BoundaryKind.ZERO, s.size).kernel == "gemm"
    reads = []
    full = Filter.full

    def counted(self):
        reads.append(self.length)
        return full(self)

    monkeypatch.setattr(Filter, "full", counted)
    _, k, _ = inner_loop(s, filt, BoundaryKind.ZERO, StoppingConfig())
    assert len(apply_calls) > k > 1   # a short sift: 20 Lanczos steps, then the loop
    assert reads == [filt.length]     # the taps, read once to build the blocks


def test_zero_kind_cap_hit_sift_applies_fewer_products_than_steps(apply_calls):
    # delta below every step change: the sift runs to the cap of 1000 steps,
    # which a kept Lanczos basis of 100 vectors reaches
    s, cfg = chirp(2048), StoppingConfig(delta=1e-12)
    filt = convolve_self(sample_filter(raised_cosine_shape(), 142))
    _, k, _ = inner_loop(s, filt, BoundaryKind.ZERO, cfg)
    assert k == cfg.max_inner
    assert len(apply_calls) <= k // 4


def test_zero_kind_dif_products(apply_calls):
    # 4,112 steps: the sift of 122 steps with l = 6 on the loop, the eleven
    # of 84 to 1,000 steps with l >= 16 in kept Lanczos bases; the count
    # repeats exactly
    d = dif(chirp(2048), kind=BoundaryKind.ZERO)
    assert sum(diag.inner_steps for diag in d.diagnostics) == 4112
    assert len(apply_calls) == 1062


def test_zero_kind_krylov_sift_memory_is_linear(apply_calls):
    # a 1000-step sift at n = 50,000 in a basis of about 180 vectors: as one
    # m x n array that basis would be 72 MB, 20 vectors are 8 MB
    n = 50_000
    s, cfg = chirp(n), StoppingConfig(delta=1e-12)
    filt = convolve_self(sample_filter(raised_cosine_shape(), 60))
    tracemalloc.start()
    try:
        imf, k, _ = inner_loop(s, filt, BoundaryKind.ZERO, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert imf.shape == (n,) and k == cfg.max_inner
    assert len(apply_calls) < k // 2  # the Krylov sift, not the loop
    assert peak < 8_000_000


def test_zero_kind_kept_basis_memory_is_bounded(apply_calls):
    # a 1000-step sift at n = 2,048 ends in a kept basis of 180 vectors,
    # 2.8 MB: the basis, 16 doubles a sample and three m x m arrays, which
    # the coordinates' steps hold at the peak (2.6 m^2 measured; each
    # eigensolve takes its tridiagonal as one m x m array, not five, and
    # the last one's vectors are released before the steps); with m <= 400
    # that is within the budget of 2^20 samples plus O(n)
    n = 2048
    s, cfg = chirp(n), StoppingConfig(delta=1e-12)
    filt = convolve_self(sample_filter(raised_cosine_shape(), 30))
    tracemalloc.start()
    try:
        imf, k, _ = inner_loop(s, filt, BoundaryKind.ZERO, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    m = len(apply_calls)
    assert imf.shape == (n,) and k == cfg.max_inner and m == 180
    assert peak < 8 * ((m + 1) * n + 16 * n + 3 * m * m)
    assert peak < 8 * (2**20 + 17 * n + 3 * 400**2)


def test_zero_kind_strip_sift_memory_is_linear(apply_calls):
    # a 468-step sift at n = 200,000 runs its windows to a depth of 593,
    # 28,464 samples with l = 6: the strips of every step would take 34 MB
    n = 200_000
    s, cfg = noise_trend(3, n), StoppingConfig(delta=3e-4)
    filt = convolve_self(sample_filter(raised_cosine_shape(), 3))
    tracemalloc.start()
    try:
        imf, k, _ = inner_loop(s, filt, BoundaryKind.ZERO, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert imf.shape == (n,) and k == 468
    assert max(op.n for op in apply_calls) == 8 * 593 * 6  # no product of full length
    assert peak < 48 * n  # six doubles a sample: the spectra go before the last transform


def write_record(path, n):
    """The ``io-200k`` input of n samples as the benchmark writes it, by repr."""
    path.write_text("\n".join(map(repr, noise_trend(7, n).tolist())) + "\n")
    return path


def test_load_signal_memory_is_the_text_and_one_chunk(tmp_path):
    # reading holds the file's bytes and its text, parsing the text, one
    # chunk's lines and the samples; a list of all the lines took about 100
    # bytes a sample
    n = 200_000
    f = write_record(tmp_path / "s.csv", n)
    tracemalloc.start()
    try:
        values = load_signal(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.size == n
    assert peak < 2 * f.stat().st_size + 16 * n


@pytest.fixture
def stop_rows(monkeypatch):
    """Powers of the decay the spectral sift's search takes, one per row of
    energies it evaluates."""
    rows = []
    power = np.power

    def counted_power(x, j, *args, **kwargs):
        rows.append(j)
        return power(x, j, *args, **kwargs)

    monkeypatch.setattr(np, "power", counted_power)
    return rows


@pytest.mark.parametrize("kind", TRANSFORM_KINDS, ids=lambda k: k.value)
def test_doubled_filter_sift_searches_the_stopping_step(stop_rows, kind):
    # delta below every step change: the sift runs to the cap of 1000 steps
    s, cfg = chirp(2048), StoppingConfig(delta=1e-12)
    _, k, _ = inner_loop(s, build_filter(s, raised_cosine_shape(), cfg), kind, cfg)
    assert k == cfg.max_inner
    assert len(stop_rows) <= 2 * math.ceil(math.log2(cfg.max_inner)) + 2
    assert len(set(stop_rows)) == len(stop_rows)  # each row evaluated once


def test_phase_sweep_search_rows(stop_rows):
    # the default sweep's 240 sifts search 1,782 rows, probes guided by
    # each row's margin; galloping and bisection alone took 4,645
    points = phase_sweep(make_sine_trend_generator(), 0.05, 4.0)
    assert len(points) == 80
    assert len(stop_rows) == 1782


@pytest.fixture
def extrema_counts(monkeypatch):
    """One entry per extrema count that :func:`filter_length` makes."""
    counts = []

    def counted(s):
        counts.append(len(s))
        return count_extrema(s)

    monkeypatch.setattr(filters, "count_extrema", counted)
    return counts


def test_phase_sweep_builds_a_filter_per_new_base_length(monkeypatch, extrema_counts):
    # the sweep reads each support's base length once, and builds a filter
    # only where it changes: 9 base lengths over 80 supports
    lengths, built = [], []

    def length(s, xi):
        lengths.append(filter_length(s, xi))
        return lengths[-1]

    def sample(shape, l):
        built.append(l)
        return sample_filter(shape, l)

    monkeypatch.setattr(error_analysis, "filter_length", length)
    monkeypatch.setattr(error_analysis, "sample_filter", sample)
    phase_sweep(make_sine_trend_generator(), 0.05, 4.0)
    assert len(lengths) == len(extrema_counts) == 80
    assert built == [l for j, l in enumerate(lengths) if j == 0 or l != lengths[j - 1]]
    assert len(built) == 9


@pytest.mark.parametrize("kind", list(BoundaryKind), ids=lambda k: k.value)
def test_dif_counts_extrema_once_per_component(extrema_counts, kind):
    # one count picks each sifted component's filter, and one more finds
    # that no filter is left for the trend
    d = dif(bench_chirp(7, 2048), kind=kind)
    assert len(d) < StoppingConfig().max_imfs
    assert len(extrema_counts) == len(d)


def test_phase_sweep_applies_no_operator(apply_calls):
    points = phase_sweep(make_sine_trend_generator(), 0.05, 0.2)
    assert len(points) == 4
    assert apply_calls == []


def test_error_propagation_memory_is_linear():
    # the steps are folded into the last error and the bound as they are
    # computed: 200 steps at n = 50,000 would be 80 MB as one array
    n, steps = 50_000, 200
    filt = convolve_self(sample_filter(raised_cosine_shape(), 20))
    s = chirp(n)
    tracemalloc.start()
    try:
        last, bound = error_propagation(s, filt, steps, 2 * filt.length)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert last.shape == bound.shape == (n,)
    assert peak < 8_000_000


def test_cli_import_leaves_scipy_unloaded():
    # nor decimal, which only stopping_bound_k0 reads, importing it when called
    env = dict(os.environ, PYTHONPATH=str(Path(iterfilt.__file__).resolve().parents[1]))
    code = "import sys, iterfilt.cli; print('scipy' in sys.modules, 'decimal' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False False"


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc heap trimming")
def test_phase_sweep_keeps_its_pages_between_sweeps():
    # the sweep's temporaries stay in the heap instead of being trimmed and
    # faulted back in, whatever the heap's layout (phase_sweep's M_TOP_PAD)
    env = dict(os.environ, PYTHONPATH=str(Path(iterfilt.__file__).resolve().parents[1]))
    code = ("import resource\n"
            "from iterfilt import make_sine_trend_generator, phase_sweep\n"
            "faults = []\n"
            "for _ in range(3):\n"
            "    r = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    phase_sweep(make_sine_trend_generator(), 0.05, 4.0)\n"
            "    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - r)\n"
            "print(max(faults[1:]))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert int(out.stdout) < 100


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc heap trimming")
def test_decompose_faults_back_only_its_transients(tmp_path):
    # glibc returns each call's freed heap to the system (its trim threshold
    # is twice the largest freed mmapped block, here the 3.9 MB text), so the
    # next call faults its transients back in: 4,300-5,700 pages at
    # n = 200,000, about 10,000 while the parse listed every line
    csv = write_record(tmp_path / "s.csv", 200_000)
    env = dict(os.environ, PYTHONPATH=str(Path(iterfilt.__file__).resolve().parents[1]),
               OPENBLAS_NUM_THREADS="1")
    code = ("import resource, sys\n"
            "from iterfilt import cli\n"
            "argv = ['decompose', '--bc', 'zero', '--max-imfs', '3', *sys.argv[1:]]\n"
            "faults = []\n"
            "for _ in range(2):\n"
            "    r = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    assert cli.run(argv) == 0\n"
            "    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - r)\n"
            "print(faults[1])\n")
    out = subprocess.run([sys.executable, "-c", code, str(csv), str(tmp_path / "o.csv")],
                         env=env, capture_output=True, text=True, check=True, timeout=120)
    assert int(out.stdout) < 7_000
