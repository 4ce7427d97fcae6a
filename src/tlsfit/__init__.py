"""Ordinary and total least squares fitting on small dense problems.

The package solves four related problems exactly at desk scale:

* ordinary least squares (normal equations, QR, SVD pseudo-inverse),
* orthogonal-distance line and hyperplane fitting through the centroid,
* TLS solution of an overdetermined system via the augmented-matrix SVD,
* multi-right-hand-side and frozen-column TLS generalizations,

together with the dense kernels (Householder QR, one-sided Jacobi SVD)
they run on and a CSV/JSON CLI.
"""

from .errors import (
    ConvergenceError,
    DegenerateAbscissaError,
    DimensionError,
    EmptyDataError,
    FitError,
    FormatError,
    NoTlsSolutionError,
    RankDeficiencyError,
)
from .extensions import (
    FixedColsSolution,
    MultiRhsSolution,
    solve_tls_fixed,
    solve_tls_multi,
)
from .geometry import (
    HyperplaneFit,
    PointCloud,
    center_matrix,
    centroid,
    fit_hyperplane_tls,
    point_hyperplane_distance,
)
from .linalg import (
    Matrix,
    QrResult,
    SvdResult,
    Vector,
    frobenius_norm,
    householder_qr,
    jacobi_svd,
    multiply,
    pinv_apply,
    truncate_rank,
)
from .ols import Method, OlsSolution, mean_1d, simple_regression, solve_ols
from .system import TlsSystemSolution, augment, solve_tls_system, tls_objective

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "DegenerateAbscissaError",
    "DimensionError",
    "EmptyDataError",
    "FitError",
    "FormatError",
    "NoTlsSolutionError",
    "RankDeficiencyError",
    "FixedColsSolution",
    "MultiRhsSolution",
    "solve_tls_fixed",
    "solve_tls_multi",
    "HyperplaneFit",
    "PointCloud",
    "center_matrix",
    "centroid",
    "fit_hyperplane_tls",
    "point_hyperplane_distance",
    "Matrix",
    "QrResult",
    "SvdResult",
    "Vector",
    "frobenius_norm",
    "householder_qr",
    "jacobi_svd",
    "multiply",
    "pinv_apply",
    "truncate_rank",
    "Method",
    "OlsSolution",
    "mean_1d",
    "simple_regression",
    "solve_ols",
    "TlsSystemSolution",
    "augment",
    "solve_tls_system",
    "tls_objective",
]
