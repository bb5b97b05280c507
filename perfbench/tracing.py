"""Spans at the public entry points of each iterfilt module.

The program is not edited: :func:`install` replaces each traced function in
every ``iterfilt`` module namespace that holds it (modules import each
other's names directly) and each traced method on its class. A span records
its name, start, end, the span that was open when it started, the CLI call
it belongs to and a work count (multiply-adds for an operator application,
steps for an error propagation, bytes for a CLI call).

:func:`uninstall` restores the originals, so untraced passes run the
program unchanged. Spans stay in memory until :meth:`Tracer.write`;
:func:`read_spans`, :func:`span_mask` and :func:`self_times` derive
per-layer figures from the written file.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

import numpy as np

SPAN_FIELDS = ("names", "name", "parent", "call", "start", "end", "work")


def _apply_mac(args, kwargs) -> int:
    # a valid-mode convolution of the extended vector: n outputs, 2l+1 taps
    op = args[0]
    return op.n * (2 * op.filter.length + 1)


def _propagate_steps(args, kwargs) -> int:
    return int(kwargs["steps"] if "steps" in kwargs else args[2])


# (module, attribute, span name, work count or None)
FUNCTIONS = [
    ("iterfilt.signal", "load_signal", "signal.load_signal", None),
    ("iterfilt.signal", "count_extrema", "signal.count_extrema", None),
    ("iterfilt.filters", "filter_length", "filters.filter_length", None),
    ("iterfilt.filters", "sample_filter", "filters.sample_filter", None),
    ("iterfilt.filters", "convolve_self", "filters.convolve_self", None),
    ("iterfilt.boundary", "extend", "boundary.extend", None),
    ("iterfilt.operators", "diagonalized_power_apply", "operators.power_apply", None),
    ("iterfilt.decompose", "dif", "decompose.dif", None),
    ("iterfilt.decompose", "eif", "decompose.eif", None),
    ("iterfilt.error_analysis", "phase_sweep", "error_analysis.phase_sweep", None),
    ("iterfilt.error_analysis", "error_propagation", "error_analysis.propagate", _propagate_steps),
]
METHODS = [
    ("iterfilt.operators", "StructuredOperator", "apply", "operators.apply", _apply_mac),
    ("iterfilt.operators", "StructuredOperator", "eigenvalues", "operators.eigenvalues", None),
]


class Tracer:
    """In-memory span store with a stack of open spans."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_idx = array("H")
        self.parent = array("q")
        self.call = array("q")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")
        self._stack = [-1]
        self.current_call = -1

    def open(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name_idx.append(idx)
        self.parent.append(self._stack[-1])
        self.call.append(self.current_call)
        self.end.append(0.0)
        self.work.append(0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int, work: int = 0):
        self.end[i] = perf_counter()
        self._stack.pop()
        if work:
            self.work[i] = work

    def write(self, path):
        """Write the spans as one column per field (ids are positions) plus
        the span names that ``name`` indexes, in numpy's .npz format."""
        with open(path, "wb") as fh:
            np.savez(
                fh,
                names=np.array(self.names, dtype=str),
                name=np.frombuffer(self.name_idx, dtype=np.uint16),
                parent=np.frombuffer(self.parent, dtype=np.int64),
                call=np.frombuffer(self.call, dtype=np.int64),
                start=np.frombuffer(self.start, dtype=np.float64),
                end=np.frombuffer(self.end, dtype=np.float64),
                work=np.frombuffer(self.work, dtype=np.int64),
            )


def _wrap(tracer: Tracer, fn, name: str, work):
    """``fn`` inside a span; also right as a method, ``self`` being args[0]."""
    if work is None:
        def traced(*args, **kwargs):
            i = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(i)
    else:
        def traced(*args, **kwargs):
            i = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(i, work(args, kwargs))
    traced.__wrapped__ = fn
    return traced


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Route every traced entry point of the imported iterfilt modules
    through ``tracer``. Import ``iterfilt.cli`` first so every module that
    holds a reference is loaded. Returns what :func:`uninstall` restores."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "iterfilt" or name.startswith("iterfilt."))]
    replaced = []
    for mod_name, attr, span, work in FUNCTIONS:
        original = getattr(sys.modules[mod_name], attr)
        traced = _wrap(tracer, original, span, work)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    replaced.append((mod, key, original))
                    setattr(mod, key, traced)
    for mod_name, cls_name, attr, span, work in METHODS:
        cls = getattr(sys.modules[mod_name], cls_name)
        original = cls.__dict__[attr]
        replaced.append((cls, attr, original))
        setattr(cls, attr, _wrap(tracer, original, span, work))
    return replaced


def uninstall(replaced: list[tuple[object, str, object]]):
    """Put back what :func:`install` replaced."""
    for owner, key, original in reversed(replaced):
        setattr(owner, key, original)


def read_spans(path) -> dict[str, np.ndarray]:
    """Load a span file written by :meth:`Tracer.write`."""
    with np.load(path) as data:
        spans = {field: data[field] for field in SPAN_FIELDS}
    if len({a.size for k, a in spans.items() if k != "names"}) != 1:
        raise ValueError(f"span columns of unequal length in {path}")
    return spans


def span_mask(spans: dict[str, np.ndarray], name: str) -> np.ndarray:
    """Boolean mask of the spans called ``name``."""
    names = list(spans["names"])
    if name not in names:
        return np.zeros(spans["name"].size, dtype=bool)
    return spans["name"] == names.index(name)


def self_times(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Spans nest properly (one thread, a stack), so the children of a span
    cover disjoint parts of its interval.
    """
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
    return dur - covered
