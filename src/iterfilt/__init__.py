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

from . import boundary, decompose, error_analysis, filters, operators, signal
from .signal import *  # noqa: F401,F403
from .filters import *  # noqa: F401,F403
from .boundary import *  # noqa: F401,F403
from .operators import *  # noqa: F401,F403
from .decompose import *  # noqa: F401,F403
from .error_analysis import *  # noqa: F401,F403

__version__ = "0.1.0"

# each submodule's own export list, so no name is listed twice
__all__ = [
    name
    for module in (signal, filters, boundary, operators, decompose, error_analysis)
    for name in module.__all__
] + ["__version__"]
