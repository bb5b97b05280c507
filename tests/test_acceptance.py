"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines as they complete.
"""

import json
import time

import numpy as np
import pytest

from iterfilt import (
    BoundaryKind,
    StoppingConfig,
    StructuredOperator,
    actual_error,
    boundary_error_estimate,
    convolve_self,
    diagonalized_power_apply,
    dif,
    dominant_period,
    eif,
    filter_length,
    inner_loop,
    make_sine_trend_generator,
    phase_sweep,
    raised_cosine_shape,
    sample_filter,
    stopping_bound_k0,
    unit_eigenvectors,
)
from iterfilt.cli import run
from conftest import random_doubled_filter, random_filter, sine_trend
from oracles import dense_power_apply

TRANSFORM_KINDS = [BoundaryKind.PERIODIC, BoundaryKind.REFLECTIVE, BoundaryKind.ANTIREFLECTIVE]

# error-bound fixtures: integer-period sine plus constant trend, filter-length
# factor chosen so the base length locks to period-1, placing the sine at the
# tap spectrum's zero (see tests/test_decompose.py::null_tuned_filter)
ERROR_FIXTURES = [
    # (period, repetitions, amplitude, trend, phase, xi)
    (16, 9, 1.0, 1.5, 0.4, 1.9),
    (20, 7, 1.0, 2.0, 1.1, 1.9),
    (12, 10, 0.8, 1.2, 0.2, 1.85),
]


def report(num: int, ok: bool, detail: str):
    print(f"\nACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_operator_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    worst = 0.0
    for kind in BoundaryKind:
        for n in (8, 16, 33, 64, 257):
            for _ in range(20):
                l = int(rng.integers(1, (n - 1) // 2 + 1))
                op = StructuredOperator(random_filter(rng, l), kind, n)
                dense = op.to_dense()
                for _ in range(2):
                    x = rng.standard_normal(n)
                    worst = max(worst, float(np.abs(op.apply(x) - dense @ x).max()))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-13 and elapsed < 30.0
    report(1, ok, f"apply vs dense worst componentwise gap {worst:.2e} "
                  f"(tol 1e-13), {elapsed:.1f}s (< 30s)")


def test_criterion_02_spectral_formulas():
    rng = np.random.default_rng(202)
    worst = 0.0
    ar_mults_ok = True
    for kind in TRANSFORM_KINDS:
        for n in (8, 16, 33, 64):
            for _ in range(8):
                l = int(rng.integers(1, (n - 1) // 2 + 1))
                op = StructuredOperator(random_filter(rng, l), kind, n)
                closed = op.eigenvalues()
                dense = op.dense_spectrum()
                worst = max(worst, float(np.abs(closed.eigenvalues - dense.eigenvalues).max()))
                if kind is BoundaryKind.ANTIREFLECTIVE:
                    if closed.unit_multiplicity != 2 or dense.unit_multiplicity != 2:
                        ar_mults_ok = False
    ok = worst <= 1e-10 and ar_mults_ok
    report(2, ok, f"closed-form vs dense eigenvalue multisets, worst gap {worst:.2e} "
                  f"(tol 1e-10); anti-reflective unit multiplicity two: {ar_mults_ok}")


def test_criterion_03_spectrum_bounds_and_multiplicities():
    rng = np.random.default_rng(303)
    n = 33
    raw_ok = True
    doubled_ok = True
    for _ in range(50):
        raw = random_filter(rng, int(rng.integers(1, (n - 1) // 2 + 1)))
        base = random_filter(rng, int(rng.integers(1, (n - 1) // 4 + 1)))
        doubled = convolve_self(base)
        for kind, mult in zip(TRANSFORM_KINDS, (1, 1, 2)):
            vals = StructuredOperator(raw, kind, n).dense_spectrum().eigenvalues
            if vals.max() > 1.0 + 1e-10 or vals.min() < -1.0 - 1e-10:
                raw_ok = False
            spec = StructuredOperator(doubled, kind, n).eigenvalues()
            if spec.eigenvalues.min() < -1e-10 or spec.eigenvalues.max() > 1.0 + 1e-10:
                doubled_ok = False
            if spec.unit_multiplicity != mult:
                doubled_ok = False
    ok = raw_ok and doubled_ok
    report(3, ok, f"50 random filters: raw spectra in [-1,1]: {raw_ok}; self-convolved "
                  f"spectra in [0,1] with unit multiplicities (1,1,2): {doubled_ok}")


def test_criterion_04_unit_eigenvector_identities():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(50):
        n = int(rng.choice([8, 16, 33, 64]))
        filt = random_filter(rng, int(rng.integers(1, (n - 1) // 2 + 1)))
        for kind in TRANSFORM_KINDS:
            op = StructuredOperator(filt, kind, n)
            for u in unit_eigenvectors(kind, n):
                worst = max(worst, float(np.abs(op.apply(u) - u).max()))
    ok = worst <= 1e-12
    report(4, ok, f"W u = u residual for constants and ramps, worst {worst:.2e} (tol 1e-12)")


def test_criterion_05_stopping_bound():
    # step-change norms are measured through the eigenbasis path, which
    # criterion 6 pins against direct iteration
    rng = np.random.default_rng(505)
    n, delta = 64, 1e-6
    worst_ratio = 0.0
    ok = True
    for _ in range(100):
        s = rng.standard_normal(n)
        s /= np.linalg.norm(s)
        filt = random_doubled_filter(rng, n)
        for kind in TRANSFORM_KINDS:
            op = StructuredOperator(filt, kind, n)
            k0 = stopping_bound_k0(delta, op, s)
            for k in (k0, k0 + 10):
                diff = float(np.linalg.norm(
                    diagonalized_power_apply(op, s, k) - diagonalized_power_apply(op, s, k + 1)
                ))
                worst_ratio = max(worst_ratio, diff / delta)
                if diff >= delta:
                    ok = False
    report(5, ok, f"100 unit signals x 3 kinds at delta=1e-6: measured step change at k0 "
                  f"and k0+10 below delta, worst ratio {worst_ratio:.3f}")


def test_criterion_06_spectral_fast_path():
    rng = np.random.default_rng(606)
    worst_iter = 0.0
    worst_fft = 0.0
    for _ in range(10):
        n = int(rng.choice([16, 32, 64]))
        filt = random_doubled_filter(rng, n)
        s = rng.standard_normal(n)
        for kind in TRANSFORM_KINDS:
            op = StructuredOperator(filt, kind, n)
            cur = s.copy()
            for _ in range(100):
                cur = cur - op.apply(cur)
            gap = float(np.abs(diagonalized_power_apply(op, s, 100) - cur).max())
            worst_iter = max(worst_iter, gap)
        op = StructuredOperator(filt, BoundaryKind.PERIODIC, n)
        gap = float(np.abs(
            dense_power_apply(op, s, 100)
            - diagonalized_power_apply(op, s, 100)
        ).max())
        worst_fft = max(worst_fft, gap)
    ok = worst_iter <= 1e-9 and worst_fft <= 1e-11
    report(6, ok, f"k=100 eigenbasis power vs direct iteration worst {worst_iter:.2e} "
                  f"(tol 1e-9); periodic FFT path vs dense transform worst {worst_fft:.2e} (tol 1e-11)")


def test_criterion_07_reconstruction():
    rng = np.random.default_rng(707)
    n = 1000
    cfg = StoppingConfig(max_inner=60, max_imfs=6, xi=1.9)
    worst_recon = 0.0
    worst_agree = 0.0
    kinds = list(BoundaryKind)
    for trial in range(20):
        amplitude = float(rng.uniform(0.5, 2.0))
        trend = float(rng.uniform(-1.5, 1.5))
        phase = float(rng.uniform(0.0, 2.0 * np.pi))
        s, _ = sine_trend(n, 20, amplitude=amplitude, trend=trend, phase=phase)
        kind = kinds[trial % len(kinds)]

        a = dif(s, kind=kind, cfg=cfg)
        worst_recon = max(worst_recon, float(np.abs(a.reconstruction() - s).max()))

        pad = 2 * 2 * filter_length(s, cfg.xi, doubled=True)
        b = eif(s, kind=kind, p=pad, cfg=cfg)
        worst_recon = max(worst_recon, float(np.abs(b.reconstruction() - s).max()))

        d_p = dif(s, kind=BoundaryKind.PERIODIC, cfg=cfg)
        e_p = eif(s, kind=BoundaryKind.PERIODIC, p=0, cfg=cfg)
        agree = max(float(np.abs(fa - fb).max()) for fa, fb in zip(d_p.imfs, e_p.imfs))
        worst_agree = max(worst_agree, agree if len(d_p) == len(e_p) else np.inf)
    ok = worst_recon <= 1e-10 and worst_agree <= 1e-12
    report(7, ok, f"20 signals (n=1000): component sums reproduce input, worst {worst_recon:.2e} "
                  f"(tol 1e-10); extended p=0 periodic vs direct, worst {worst_agree:.2e} (tol 1e-12)")


def test_criterion_08_error_bound_domination():
    worst_frac = 1.0
    for period, reps, amplitude, trend, phase, xi in ERROR_FIXTURES:
        n = period * reps
        s, exact = sine_trend(n, period, amplitude=amplitude, trend=trend, phase=phase)
        l_base = filter_length(s, xi, doubled=True)
        assert l_base == period - 1  # fixture sanity: sine sits at the tap-spectrum zero
        filt = convolve_self(sample_filter(raised_cosine_shape(), l_base))
        for k in (3, 9):
            estimate = boundary_error_estimate(s, filt, 2 * filt.length, k)
            for kind in BoundaryKind:
                imf, _, _ = inner_loop(s, filt, kind, StoppingConfig(delta=1e-300, max_inner=k))
                err = actual_error(imf, exact)
                interior = slice(1, n - 1)
                frac = float(np.mean(estimate.upper_bound[interior] >= err[interior]))
                worst_frac = min(worst_frac, frac)
    ok = worst_frac >= 0.95
    report(8, ok, f"pointwise bound covers the measured error on the fixture suite at "
                  f"k=3 and k=9 for every boundary kind; worst coverage {worst_frac:.1%} (need 95%)")


def test_criterion_09_phase_sweep():
    start = time.monotonic()
    dt, span, period = 0.05, 4.0, 1.0
    cfg = StoppingConfig(delta=1e-12, max_inner=5, xi=1.9)
    generator = make_sine_trend_generator(amplitude=1.0, period=period, trend=1.5,
                                          start=-8.0, phase=0.4)
    points = phase_sweep(generator, dt, span, TRANSFORM_KINDS, cfg)
    period_ok = True
    dominate_ok = True
    details = []
    for kind in TRANSFORM_KINDS:
        curve = [pt.err_rel[kind.value] for pt in points]
        dom = dominant_period(curve, dt)
        if abs(dom - period) > dt:
            period_ok = False
        frac = float(np.mean([pt.ub_rel >= pt.err_rel[kind.value] for pt in points]))
        if frac < 0.95:
            dominate_ok = False
        details.append(f"{kind.value}: period {dom:.2f}, coverage {frac:.0%}")
    elapsed = time.monotonic() - start
    ok = period_ok and dominate_ok and elapsed < 300.0
    report(9, ok, f"error-curve dominant periods match the sine within one step and the "
                  f"relative bound covers each curve ({'; '.join(details)}); {elapsed:.1f}s (< 5 min)")


def test_criterion_10_cli_determinism_and_exit_codes(tmp_path):
    s, _ = sine_trend(200, 20)
    inp = tmp_path / "in.csv"
    inp.write_text("\n".join(f"{x:.17g}" for x in s) + "\n")

    out = tmp_path / "a.csv"
    meta = tmp_path / "a.csv.meta.json"
    args = ["decompose", "--bc", "reflective", "--max-inner", "40", "--max-imfs", "4",
            str(inp), str(out)]
    codes_ok = run(args) == 0
    first_csv, first_meta = out.read_bytes(), meta.read_bytes()
    codes_ok = codes_ok and run(args) == 0
    identical = out.read_bytes() == first_csv and meta.read_bytes() == first_meta
    meta_echoes_defaults = json.loads(meta.read_text())["config"]["delta"] == 1e-3

    bad_flag = run(["decompose", "--bc", "bogus", str(inp), str(tmp_path / "x.csv")]) == 2
    bad_combo = run(["decompose", "--pad", "3", str(inp), str(tmp_path / "x.csv")]) == 2
    missing = run(["decompose", str(tmp_path / "none.csv"), str(tmp_path / "x.csv")]) == 3
    malformed = tmp_path / "bad.csv"
    malformed.write_text("1.0\nzzz\n")
    parse_fail = run(["decompose", str(malformed), str(tmp_path / "x.csv")]) == 3
    zeros = tmp_path / "zeros.csv"
    zeros.write_text("0\n0\n0\n0\n")
    domain_fail = run(["decompose", "--normalize", str(zeros), str(tmp_path / "x.csv")]) == 4

    ok = all([codes_ok, identical, meta_echoes_defaults, bad_flag, bad_combo,
              missing, parse_fail, domain_fail])
    report(10, ok, "byte-identical reruns with config echo; exit codes 0/2/3/4 on the "
                   "documented paths")
