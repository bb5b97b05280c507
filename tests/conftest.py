import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import iterfilt
from iterfilt import BoundaryKind, Filter, StructuredOperator, convolve_self
from iterfilt.decompose import _sift_krylov
from iterfilt.signal import l2_norm


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def apply_calls(monkeypatch):
    """The operators applied while the test runs, one entry per product."""
    calls = []
    original = StructuredOperator.apply

    def counted(self, x):
        calls.append(self)
        return original(self, x)

    monkeypatch.setattr(StructuredOperator, "apply", counted)
    return calls


def random_filter(rng, l):
    """Random symmetric decreasing positive filter of half length l."""
    raw = np.sort(rng.uniform(0.05, 1.0, l + 1))[::-1]
    total = raw[0] + 2.0 * raw[1:].sum()
    return Filter(raw / total)


def random_doubled_filter(rng, n):
    """Random self-convolved filter admissible for dimension n."""
    cap = (n - 1) // 4
    l_base = int(rng.integers(1, max(cap, 1) + 1))
    return convolve_self(random_filter(rng, l_base))


def sine_trend(n, period, amplitude=1.0, trend=1.5, phase=0.4):
    """Sine of an integer sample period plus a constant, with the exact
    oscillatory component returned alongside."""
    j = np.arange(n)
    exact = amplitude * np.sin(2.0 * np.pi * j / period + phase)
    return exact + trend, exact


def bench_chirp(seed, n):
    """The input of the benchmark's ``sift-2k`` workload (``chirp_signal`` in
    ``perfbench/run.py``): a chirp from 20 to 100 cycles, tones of 12 and 1
    cycles, a linear trend and Gaussian noise of 10 % of the clean signal's
    standard deviation, drawn from the seed."""
    rng = np.random.default_rng([seed, 2048])
    x = np.linspace(0.0, 1.0, n)
    clean = (np.sin(2.0 * np.pi * (20.0 * x + 40.0 * x**2) + 0.3)
             + 0.5 * np.sin(2.0 * np.pi * 12.0 * x + 1.1)
             + 0.8 * np.sin(2.0 * np.pi * x + 2.0)
             + 1.5 * x - 0.5)
    return clean + 0.1 * clean.std() * rng.standard_normal(n)


def noise_trend(seed, n):
    """The input of the benchmark's ``io-200k`` workload
    (``noise_trend_signal`` in ``perfbench/run.py``): unit Gaussian noise on a
    linear trend from -1 to 2, drawn from the seed."""
    rng = np.random.default_rng([seed, 200_000])
    return rng.standard_normal(n) + np.linspace(-1.0, 2.0, n)


def outputs_by_blas_threads(code, *args, cwd=None):
    """The standard output of ``python -c code *args`` in a fresh
    interpreter with OpenBLAS on 1 and on 2 threads, the package and the
    test helpers on its path; with ``cwd``, each run works in its own new
    directory, ``cwd / "1"`` and ``cwd / "2"``."""
    paths = [str(Path(iterfilt.__file__).resolve().parents[1]), str(Path(__file__).parent)]
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths), OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        where = None if cwd is None else cwd / threads
        if where is not None:
            where.mkdir()
        outputs.append(subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=where,
                                      capture_output=True, text=True, check=True,
                                      timeout=120).stdout)
    return outputs


def kept_and_regenerated(op, values, cfg):
    """The zero kind's Lanczos sift of ``values``, scaled as ``inner_loop``
    scales them (None where it sends the sift to the loop), with its basis
    kept, and with the budget for a kept basis at 0, so that a second pass
    regenerates the basis."""
    norm = l2_norm(values)  # the input norm that inner_loop hands every route
    kept = _sift_krylov(op, values, norm, cfg)
    with mock.patch("iterfilt.decompose._KRYLOV_BUDGET", 0):
        return kept, _sift_krylov(op, values, norm, cfg)


def same_sift(a, b):
    """Two sifts' (component, steps, last change) agree bit for bit."""
    return np.array_equal(a[0], b[0]) and a[1:] == b[1:]
