"""Univariate spline quasi-interpolants on non-uniform partitions.

Discrete operators that map point samples (or derivative data) at the
Greville sites to spline coefficients, reproduce quadratics or the whole
spline space, and carry small, explicitly bounded sup norms. Includes the
l1-minimal ("near-best") stencil construction with its LP solver and dual
optimality certificates, plus quadrature rules, differentiation matrices,
and convergence studies derived from the operators.

Each module's ``__all__`` is its public API, and the package re-exports
them all. The command line lives in ``splineqi.cli``, which importing the
package does not load.
"""

from . import applications, bspline, knots, nearbest, quasi_interp, simplex
from .applications import *  # noqa: F403
from .bspline import *  # noqa: F403
from .knots import *  # noqa: F403
from .nearbest import *  # noqa: F403
from .quasi_interp import *  # noqa: F403
from .simplex import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    "__version__", *knots.__all__, *bspline.__all__, *quasi_interp.__all__,
    *nearbest.__all__, *simplex.__all__, *applications.__all__,
]
