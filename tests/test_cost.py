"""Cost guards that need no timing: operator-application counts, imports and
allocations.

The kinds with a diagonalizing transform sift in the eigenbasis, so a
decomposition or phase sweep on them applies no operator, and a sift finds
its stopping step in O(log K) rows of its energies. Only the zero kind
applies W, with the taps' blocks or spectrum built once per operator: one
product per step on short filters and short sifts, and a two-pass Lanczos
basis of about 2m products for a long sift with a long filter, in O(n)
memory. The boundary-error propagation keeps O(n) memory whatever its
step count.
"""

import math
import os
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
    dif,
    eif,
    error_propagation,
    inner_loop,
    make_sine_trend_generator,
    phase_sweep,
    raised_cosine_shape,
    sample_filter,
)
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
    s = chirp(2048)
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
    # which two Lanczos passes of about 100 vectors reach
    s, cfg = chirp(2048), StoppingConfig(delta=1e-12)
    filt = convolve_self(sample_filter(raised_cosine_shape(), 142))
    _, k, _ = inner_loop(s, filt, BoundaryKind.ZERO, cfg)
    assert k == cfg.max_inner
    assert len(apply_calls) <= k // 4


def test_zero_kind_dif_products(apply_calls):
    # 4,112 steps: the eight sifts of 84 to 267 steps on the loop (seven of
    # them after the basis's first 20 products), the four of 416 to 1,000
    # steps in Lanczos bases; the count repeats exactly
    d = dif(chirp(2048), kind=BoundaryKind.ZERO)
    assert sum(diag.inner_steps for diag in d.diagnostics) == 4112
    assert len(apply_calls) == 2355


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
    env = dict(os.environ, PYTHONPATH=str(Path(iterfilt.__file__).resolve().parents[1]))
    code = "import sys, iterfilt.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"
