"""Module layout: no iterfilt module imports another one's private names,
every exported name exists and is exported by one module only, the public
names and the operator's public attributes are pinned lists, no module
runs a complex FFT, and every hook of the benchmark's tracer exists and
receives the arguments it reads."""

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
    "convolve_self", "count_extrema", "diagonalized_power_apply", "dif",
    "eif", "error_propagation", "extend", "filter_length", "get_shape", "inner_loop",
    "load_signal", "make_sine_trend_generator", "normalize", "phase_sweep",
    "raised_cosine_shape", "relative_error", "sample_filter", "stopping_bound_k0",
    "triangle_shape", "uniform_shape", "unit_eigenvectors",
]


def test_public_surface_is_pinned():
    # a change to the public API shows up as a diff of this list
    assert sorted(importlib.import_module("iterfilt").__all__) == PUBLIC_NAMES


OPERATOR_NAMES = [
    "apply", "eigenvalues", "fft_length", "filter", "from_eigenbasis", "kernel", "kind", "n",
    "to_eigenbasis",
]


def test_operator_surface_is_pinned():
    # one eigenbasis pair serves every kind: a second transform method
    # shows up as a diff of this list
    from iterfilt import BoundaryKind, Filter, StructuredOperator

    op = StructuredOperator(Filter([0.5, 0.25]), BoundaryKind.PERIODIC, 8)
    assert sorted(name for name in dir(op) if not name.startswith("_")) == OPERATOR_NAMES


COMPLEX_FFTS = {"fft", "ifft", "fftn", "ifftn", "hfft"}


def complex_fft_uses(path):
    """(line, name) of each complex FFT an iterfilt module reaches: an
    attribute ``<...>.fft.<name>`` or a name imported from an fft module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Attribute) and node.attr in COMPLEX_FFTS
                and isinstance(node.value, ast.Attribute) and node.value.attr == "fft"):
            found.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("fft"):
            found += [(node.lineno, a.name) for a in node.names if a.name in COMPLEX_FFTS]
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_real_ffts(path):
    # every eigenbasis is the real FFT of one period of a real extension,
    # so no module needs the complex transform
    assert complex_fft_uses(path) == []


def test_complex_fft_check_sees_calls(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import numpy as np\nfrom numpy.fft import ifftn\n"
                     "y = np.fft.ifft(np.fft.rfft(x))\nz = np.fft.irfft(x)\n")
    assert complex_fft_uses(probe) == [(2, "ifftn"), (3, "np.fft.ifft")]


def test_traced_propagation_steps_argument():
    # perfbench/tracing.py's _propagate_steps reads the step count from the
    # third positional argument of error_propagation
    from iterfilt import error_propagation

    assert list(inspect.signature(error_propagation).parameters)[2] == "steps"
