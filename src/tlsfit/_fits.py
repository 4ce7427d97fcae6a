"""Each CLI mode's fit: the report fields it fills from the parsed data.
``cli.run`` imports this module, and with it numpy and the solvers, only
once the input has parsed."""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionError
from .extensions import solve_tls_fixed, solve_tls_multi
from .geometry import PointCloud, fit_hyperplane_tls
from .linalg import Matrix, Vector, _sum_of_squares
from .ols import Method, solve_ols
from .system import solve_tls_system

if TYPE_CHECKING:
    from .cli import FitRequest


def _fit_ols(data: Matrix, request: FitRequest) -> dict:
    if data.cols < 2:
        raise DimensionError("ols: need at least 2 columns (x..., y)")
    arr = data.array
    design = Matrix(np.column_stack([np.ones(data.rows), arr[:, :-1]]))
    solution = solve_ols(design, Vector(arr[:, -1]), Method.SVD)
    return dict(
        coefficients=solution.coefficients.array.tolist(),
        objective=_sum_of_squares(solution.residual_norm, "objective"),
        singular_values=solution.sigma.array.tolist(),
        unique=not solution.rank_deficient)


def _fit_geometry(data: Matrix, request: FitRequest) -> dict:
    if request.mode == "tls-line" and data.cols != 2:
        raise DimensionError(
            f"tls-line: need exactly 2 columns, got {data.cols}")
    fit = fit_hyperplane_tls(PointCloud(data))
    explicit = fit.explicit_coeffs
    return dict(
        coefficients=None if explicit is None else explicit.array.tolist(),
        normal=fit.normal.array.tolist(),
        centroid=fit.centroid.array.tolist(),
        objective=fit.objective,
        singular_values=fit.sigma.array.tolist(),
        unique=fit.unique,
        expressible=fit.expressible)


def _fit_system(data: Matrix, request: FitRequest) -> dict:
    if request.rhs_cols != 1:
        raise DimensionError("tls-system: exactly one right-hand-side column")
    if data.cols < 2:
        raise DimensionError("tls-system: need at least 2 columns")
    arr = data.array
    solution = solve_tls_system(Matrix(arr[:, :-1]), Vector(arr[:, -1]))
    return dict(
        coefficients=solution.coefficients.array.tolist(),
        objective=_sum_of_squares(solution.tls_residual, "objective"),
        singular_values=solution.sigma.array.tolist(),
        unique=solution.unique)


def _fit_multi(data: Matrix, request: FitRequest) -> dict:
    p = request.rhs_cols
    if not 1 <= p <= data.cols - 1:
        raise DimensionError(
            f"tls-multi: rhs-cols must be in [1, {data.cols - 1}], got {p}")
    arr = data.array
    solution = solve_tls_multi(Matrix(arr[:, :-p]), Matrix(arr[:, -p:]))
    s = solution.sigma.array
    return dict(
        coefficients=solution.x.array.tolist(),
        objective=_sum_of_squares(s[data.cols - p:], "objective"),
        singular_values=s.tolist(),
        unique=solution.unique)


def _fit_fixed(data: Matrix, request: FitRequest) -> dict:
    j, p = request.frozen_cols, request.rhs_cols
    if j < 0 or j + p >= data.cols:
        raise DimensionError(
            f"tls-fixed: need 0 <= frozen-cols and frozen-cols + rhs-cols "
            f"< {data.cols}, got {j} + {p}")
    arr = data.array
    solution = solve_tls_fixed(
        Matrix(arr[:, :j]), Matrix(arr[:, j:data.cols - p]),
        Matrix(arr[:, data.cols - p:]))
    return dict(
        coefficients=np.vstack(
            [solution.x1.array, solution.x2.array]).tolist(),
        objective=solution.minimized_value,
        unique=solution.x1_unique)


FITS = {"ols": _fit_ols, "tls-line": _fit_geometry,
        "tls-plane": _fit_geometry, "tls-system": _fit_system,
        "tls-multi": _fit_multi, "tls-fixed": _fit_fixed}
