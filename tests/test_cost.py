"""Cost guards that need no timing: operator-application counts and imports.

The kinds with a diagonalizing transform sift in the eigenbasis, so a
decomposition or phase sweep on them applies no operator; only the zero
kind iterates W directly.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import iterfilt
from iterfilt import (
    BoundaryKind,
    StoppingConfig,
    StructuredOperator,
    dif,
    eif,
    make_sine_trend_generator,
    phase_sweep,
)
from test_decompose import chirp

TRANSFORM_KINDS = [BoundaryKind.PERIODIC, BoundaryKind.REFLECTIVE, BoundaryKind.ANTIREFLECTIVE]
CFG = StoppingConfig(max_imfs=4)


@pytest.fixture
def apply_calls(monkeypatch):
    """Kinds of the operators applied while the test runs."""
    calls = []
    original = StructuredOperator.apply

    def counted(self, x):
        calls.append(self.kind)
        return original(self, x)

    monkeypatch.setattr(StructuredOperator, "apply", counted)
    return calls


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


def test_phase_sweep_applies_no_operator(apply_calls):
    points = phase_sweep(make_sine_trend_generator(), 0.05, 0.2)
    assert len(points) == 4
    assert apply_calls == []


def test_cli_import_leaves_scipy_unloaded():
    env = dict(os.environ, PYTHONPATH=str(Path(iterfilt.__file__).resolve().parents[1]))
    code = "import sys, iterfilt.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"
