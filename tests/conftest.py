import numpy as np
import pytest

from iterfilt import Filter, StructuredOperator, convolve_self


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
