"""Iterative filtering decomposition with boundary-condition-aware operators.

Decomposes compactly supported discrete signals into simple oscillatory
components by repeatedly subtracting a moving average, with the signal
extension outside the field of view selectable among zero, periodic,
reflective and anti-reflective rules. Exposes the structured smoothing
operators behind the iteration together with their closed-form spectra and
diagonalizing transforms, plus machinery to estimate how boundary errors
propagate into the field of view.

Quick start
-----------
>>> import numpy as np
>>> from iterfilt import dif, BoundaryKind
>>> x = np.linspace(0, 1, 200)
>>> s = np.sin(40 * np.pi * x) + 2 * x
>>> result = dif(s, kind=BoundaryKind.REFLECTIVE)
>>> len(result)            # oscillation(s) plus the trend  # doctest: +SKIP
3
>>> float(np.abs(result.reconstruction() - s).max()) < 1e-10
True
"""

from .signal import ParseError, Signal, count_extrema, load_signal, normalize
from .filters import (
    SHAPE_NAMES,
    Filter,
    FilterShape,
    convolve_self,
    filter_length,
    get_shape,
    raised_cosine_shape,
    sample_filter,
    triangle_shape,
    uniform_shape,
)
from .boundary import BoundaryKind, ExtendedSignal, constant_error_extension, extend
from .operators import (
    Spectrum,
    StructuredOperator,
    diagonalized_power_apply,
    transform_apply,
    unit_eigenvectors,
)
from .decompose import (
    ConvergenceConstants,
    Decomposition,
    ImfDiagnostics,
    StoppingConfig,
    build_filter,
    delta_metric,
    dif,
    eif,
    inner_loop,
    stopping_bound_k0,
)
from .error_analysis import (
    ErrorEstimate,
    SweepPoint,
    actual_error,
    boundary_error_estimate,
    dominant_period,
    error_propagation,
    error_upper_bound,
    make_sine_trend_generator,
    phase_sweep,
    relative_error,
)

__version__ = "0.1.0"

__all__ = [
    "ParseError", "Signal", "count_extrema", "load_signal", "normalize",
    "SHAPE_NAMES", "Filter", "FilterShape", "convolve_self", "filter_length",
    "get_shape", "raised_cosine_shape", "sample_filter", "triangle_shape",
    "uniform_shape",
    "BoundaryKind", "ExtendedSignal", "constant_error_extension", "extend",
    "Spectrum", "StructuredOperator", "diagonalized_power_apply",
    "transform_apply", "unit_eigenvectors",
    "ConvergenceConstants", "Decomposition", "ImfDiagnostics", "StoppingConfig",
    "build_filter", "delta_metric", "dif", "eif", "inner_loop", "stopping_bound_k0",
    "ErrorEstimate", "SweepPoint", "actual_error", "boundary_error_estimate",
    "dominant_period", "error_propagation", "error_upper_bound",
    "make_sine_trend_generator", "phase_sweep", "relative_error",
    "__version__",
]
