"""Ordinary and total least squares fitting on small dense problems.

The package solves four related problems exactly at desk scale:

* ordinary least squares (normal equations, QR, SVD pseudo-inverse),
* orthogonal-distance line and hyperplane fitting through the centroid,
* TLS solution of an overdetermined system via the augmented-matrix SVD,
* multi-right-hand-side and frozen-column TLS generalizations,

together with the dense kernels (Householder QR, one-sided Jacobi SVD)
they run on and a CSV/JSON CLI.
"""

from . import errors, extensions, geometry, linalg, ols, system
from .errors import *
from .extensions import *
from .geometry import *
from .linalg import *
from .ols import *
from .system import *

__version__ = "0.1.0"

# Each public name is listed once, in its module's __all__.
__all__ = [*errors.__all__, *extensions.__all__, *geometry.__all__,
           *linalg.__all__, *ols.__all__, *system.__all__]
