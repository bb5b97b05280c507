"""Module layout: no iterfilt module imports another one's private names,
every exported name exists and is exported by one module only, the public
names are a pinned list, and every hook of the benchmark's tracer exists
and receives the arguments it reads."""

import ast
import inspect
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "iterfilt"
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


def private_imports(path):
    """(line, module, name) of each underscore name imported from iterfilt."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and not (module == "iterfilt" or module.startswith("iterfilt.")):
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                found.append((node.lineno, "." * node.level + module, name))
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_cross_module_imports(path):
    assert private_imports(path) == []


@pytest.mark.parametrize("module", ["iterfilt"] + [f"iterfilt.{m}" for m in MODULES])
def test_exports_resolve(module):
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


def test_exports_are_unique():
    # the package star-imports its submodules, so a name exported by two of
    # them would silently resolve to the later one
    owners = {}
    for m in MODULES:
        for name in getattr(importlib.import_module(f"iterfilt.{m}"), "__all__", ()):
            owners.setdefault(name, []).append(m)
    assert {name: mods for name, mods in owners.items() if len(mods) > 1} == {}
    names = importlib.import_module("iterfilt").__all__
    assert len(names) == len(set(names))


def test_tracer_hooks_resolve():
    # perfbench/tracing.py wraps these names with getattr; a missing one
    # breaks a traced benchmark run
    spec = importlib.util.spec_from_file_location("_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.FUNCTIONS and tracing.METHODS
    missing = [(mod, attr) for mod, attr, *_ in tracing.FUNCTIONS
               if not hasattr(importlib.import_module(mod), attr)]
    missing += [(mod, f"{cls}.{attr}") for mod, cls, attr, *_ in tracing.METHODS
                if attr not in vars(getattr(importlib.import_module(mod), cls, object))]
    assert missing == []


PUBLIC_NAMES = [
    "BoundaryKind", "ConvergenceConstants", "Decomposition", "Filter", "FilterShape",
    "ImfDiagnostics", "ParseError", "SHAPE_NAMES", "Spectrum", "StoppingConfig",
    "StructuredOperator", "SweepPoint", "__version__", "actual_error", "build_filter",
    "convolve_self", "count_extrema", "diagonalized_power_apply", "dif", "dominant_period",
    "eif", "error_propagation", "extend", "filter_length", "get_shape", "inner_loop",
    "load_signal", "make_sine_trend_generator", "normalize", "phase_sweep",
    "raised_cosine_shape", "relative_error", "sample_filter", "stopping_bound_k0",
    "triangle_shape", "uniform_shape", "unit_eigenvectors",
]


def test_public_surface_is_pinned():
    # a change to the public API shows up as a diff of this list
    assert sorted(importlib.import_module("iterfilt").__all__) == PUBLIC_NAMES


def test_traced_propagation_steps_argument():
    # perfbench/tracing.py's _propagate_steps reads the step count from the
    # third positional argument of error_propagation
    from iterfilt import error_propagation

    assert list(inspect.signature(error_propagation).parameters)[2] == "steps"
