"""Ordinary least squares in the three classic formulations.

Normal equations (Cholesky), orthogonal factorization (QR) and the SVD
pseudo-inverse all minimize ||A c - y||_2; the SVD route additionally
yields the minimum-norm solution for rank-deficient systems.  The 1-d
mean and closed-form simple regression are the degenerate cases.
"""
from __future__ import annotations

import enum
import math
from typing import NamedTuple, Optional

import numpy as np

from .errors import (
    DegenerateAbscissaError,
    DimensionError,
    EmptyDataError,
    RankDeficiencyError,
)
from .linalg import (Matrix, Vector, _binary_exponent, _householder_qr_arrays,
                     _ldexp_in_range, _pinv, _rank, _reflect, _thin_svd)
from .tolerances import CHOLESKY_PD_TOL, RANK_REL_TOL

__all__ = ["Method", "OlsSolution", "mean_1d", "simple_regression", "solve_ols"]


class Method(enum.Enum):
    """How an OLS solution was (or should be) computed."""

    NORMAL_EQUATIONS = "normal-equations"
    QR = "qr"
    SVD = "svd"
    CLOSED_FORM = "closed-form"


class OlsSolution(NamedTuple):
    """Minimizer of ||A c - y||_2 with its residual norm; the SVD method
    also returns the singular values of A as ``sigma``."""

    coefficients: Vector
    residual_norm: float
    method: Method
    rank_deficient: bool
    sigma: Optional[Vector] = None


def mean_1d(x: Vector) -> float:
    """Arithmetic mean: the unique minimizer of sum_i (x_i - z)^2, taken on
    x scaled by an exact power of two (RangeError beyond the float range)."""
    if x.len == 0:
        raise EmptyDataError("mean_1d: empty input")
    e = _binary_exponent(x.array)
    return float(_ldexp_in_range(np.ldexp(x.array, -e).mean(), e, "mean"))


def simple_regression(x: Vector, y: Vector) -> OlsSolution:
    """Closed-form line fit y = a + b x minimizing vertical residuals.

    b = sum (xbar - x_i)(ybar - y_i) / sum (xbar - x_i)^2 and
    a = ybar - b xbar, so the fitted line passes through the centroid.
    x and y are each scaled by an exact power of two first, so scaling
    either by 2^k scales the result exactly.  DegenerateAbscissaError
    means all abscissae are equal, or a or b is beyond the float range.
    """
    if x.len != y.len:
        raise DimensionError(
            f"simple_regression: {x.len} abscissae vs {y.len} ordinates")
    if x.len < 2:
        raise DimensionError("simple_regression: need at least 2 points")
    ex, ey = _binary_exponent(x.array), _binary_exponent(y.array)
    xs, ys = np.ldexp(x.array, -ex), np.ldexp(y.array, -ey)
    if np.maximum.reduce(xs) == np.minimum.reduce(xs):
        raise DegenerateAbscissaError(
            "simple_regression: all abscissae equal, slope undefined")
    xbar, ybar = np.add.reduce(xs) / len(xs), np.add.reduce(ys) / len(ys)
    dx = xbar - xs
    b = float(dx @ (ybar - ys)) / float(dx @ dx)
    a = ybar - b * xbar
    exponents = (ey, ey - ex)
    # frexp exponent above 1024: the coefficient exceeds the float range.
    if any(math.frexp(c)[1] + e > 1024 for c, e in zip((a, b), exponents)):
        raise DegenerateAbscissaError(
            "simple_regression: abscissa spread too small for a line "
            "with representable coefficients")
    residual = ys - a - b * xs
    return OlsSolution(
        coefficients=Vector(np.ldexp([a, b], exponents)),
        residual_norm=_norm(residual, ey),
        method=Method.CLOSED_FORM,
        rank_deficient=False,
    )


def _norm(r: np.ndarray, scale: int = 0) -> float:
    """||r||_2 * 2^scale, computed on r divided by an exact power of two so
    that the squares neither overflow nor underflow; RangeError when it is
    beyond the float range."""
    exponent = _binary_exponent(r)
    r = np.ldexp(r, -exponent)
    return float(_ldexp_in_range(math.sqrt(r @ r), exponent + scale,
                                 "residual norm"))


def _normal_equations(a: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Solve A^T A c = A^T y by Cholesky, or flag rank deficiency.

    A and y come divided by exact powers of two (largest entries in
    [0.5, 1)), which keeps the Gram matrix finite and nonzero.  A pivot at
    or below CHOLESKY_PD_TOL times the largest initial diagonal entry
    means the Gram matrix is not numerically positive definite; the error
    reports that ratio, which does not depend on A's scale, with its
    threshold.
    """
    gram, rhs = a.T @ a, a.T @ y
    n = gram.shape[0]
    scale = float(np.maximum.reduce(gram.diagonal(), initial=0.0))
    if n and scale <= 0.0:
        raise RankDeficiencyError("normal equations: zero Gram matrix")
    low = np.zeros((n, n))
    for j in range(n):
        d = gram[j, j] - low[j, :j] @ low[j, :j]
        if d <= CHOLESKY_PD_TOL * scale:
            raise RankDeficiencyError(
                "normal equations: Gram matrix not positive definite "
                f"(pivot / largest diagonal entry = {d / scale:.3e} "
                f"<= {CHOLESKY_PD_TOL:g} at column {j})")
        low[j, j] = math.sqrt(d)
        low[j + 1:, j] = (gram[j + 1:, j] - low[j + 1:, :j] @ low[j, :j]) / low[j, j]
    # Forward then back substitution.
    z = np.zeros(n)
    for i in range(n):
        z[i] = (rhs[i] - low[i, :i] @ z[:i]) / low[i, i]
    return _solve_upper(low.T, z)


def _solve_upper(r: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Back substitution for an upper-triangular system (possibly multi-RHS)."""
    n = r.shape[0]
    out = np.zeros_like(rhs, dtype=float)
    for i in range(n - 1, -1, -1):
        out[i] = (rhs[i] - r[i, i + 1:] @ out[i + 1:]) / r[i, i]
    return out


def solve_ols(a: Matrix, y: Vector, method: Method = Method.SVD) -> OlsSolution:
    """Minimize ||A c - y||_2 by the requested method.

    Normal equations and QR require full column rank and raise
    RankDeficiencyError otherwise; the SVD method always succeeds and
    returns the minimum-norm minimizer, flagging rank deficiency.  Every
    method solves and forms the residual on A and y each divided by an
    exact power of two; RangeError means that a coefficient, a singular
    value or the residual norm is beyond the float range.
    """
    if a.rows < a.cols:
        raise DimensionError(
            f"solve_ols: need rows >= cols, got {a.rows} x {a.cols}")
    if y.len != a.rows:
        raise DimensionError(
            f"solve_ols: y has length {y.len}, expected {a.rows}")
    if method is Method.CLOSED_FORM:
        raise ValueError(
            "solve_ols: the closed form applies only to simple_regression")
    ea, ey = _binary_exponent(a.array), _binary_exponent(y.array)
    a_s, ys = np.ldexp(a.array, -ea), np.ldexp(y.array, -ey)
    c, rank_deficient, sigma = _scaled_solution(a_s, ea, ys, method)
    residual = a_s @ c - ys
    return OlsSolution(
        coefficients=Vector(_ldexp_in_range(c, ey - ea, "coefficients")),
        residual_norm=_norm(residual, ey),
        method=method,
        rank_deficient=rank_deficient,
        sigma=sigma,
    )


def _scaled_solution(a_s: np.ndarray, ea: int, ys: np.ndarray,
                     method: Method):
    """(c_s, rank_deficient, sigma) by ``method``: c_s = 2^(ea - ey) c is
    the solution for A divided by 2^ea (``a_s``) and y by 2^ey (``ys``),
    and sigma the singular values of A for the SVD method, else None.
    The kernels run on ``a_s``, whose binary exponent is 0.  The factors
    are freed on return, before the caller forms the residual."""
    if method is Method.NORMAL_EQUATIONS:
        return _normal_equations(a_s, ys), False, None
    if method is Method.QR:
        r, q_y, q_t = _householder_qr_arrays(a_s)
        diag = np.abs(r.diagonal())
        if a_s.shape[1] and (np.minimum.reduce(diag)
                             <= RANK_REL_TOL * np.maximum.reduce(diag)):
            raise RankDeficiencyError(
                "qr: triangular factor has a negligible diagonal entry")
        rhs = _reflect(q_y, q_t.T, ys)[:a_s.shape[1]]
        return _solve_upper(r, rhs), False, None
    if method is Method.SVD:
        u, s, v = _thin_svd(a_s)
        return (_pinv(u, s, v, ys), _rank(s) < a_s.shape[1],
                Vector(_ldexp_in_range(s, ea, "singular values")))
    raise ValueError(f"solve_ols: unknown method {method!r}")
