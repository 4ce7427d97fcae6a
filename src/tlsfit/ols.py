"""Ordinary least squares in the three classic formulations.

Normal equations (Cholesky), orthogonal factorization (QR) and the SVD
pseudo-inverse all minimize ||A c - y||_2; the SVD route additionally
yields the minimum-norm solution for rank-deficient systems.  The 1-d
mean and closed-form simple regression are the degenerate cases.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    DegenerateAbscissaError,
    DimensionError,
    EmptyDataError,
    RankDeficiencyError,
)
from .linalg import (Matrix, Vector, _binary_exponent, _householder_qr_arrays,
                     _pinv, _rank, _thin_svd)
from .tolerances import CHOLESKY_PD_TOL, RANK_REL_TOL

__all__ = ["Method", "OlsSolution", "mean_1d", "simple_regression", "solve_ols"]


class Method(enum.Enum):
    """How an OLS solution was (or should be) computed."""

    NORMAL_EQUATIONS = "normal-equations"
    QR = "qr"
    SVD = "svd"
    CLOSED_FORM = "closed-form"


@dataclass(frozen=True)
class OlsSolution:
    """Minimizer of ||A c - y||_2 with its residual norm; the SVD method
    also returns the singular values of A as ``sigma``."""

    coefficients: Vector
    residual_norm: float
    method: Method
    rank_deficient: bool
    sigma: Optional[Vector] = None


def mean_1d(x: Vector) -> float:
    """Arithmetic mean: the unique minimizer of sum_i (x_i - z)^2."""
    if x.len == 0:
        raise EmptyDataError("mean_1d: empty input")
    return float(x.array.mean())


def simple_regression(x: Vector, y: Vector) -> OlsSolution:
    """Closed-form line fit y = a + b x minimizing vertical residuals.

    b = sum (xbar - x_i)(ybar - y_i) / sum (xbar - x_i)^2 and
    a = ybar - b xbar, so the fitted line passes through the centroid.
    x and y are each scaled by an exact power of two first, so scaling
    either by 2^k scales the result exactly.
    """
    if x.len != y.len:
        raise DimensionError(
            f"simple_regression: {x.len} abscissae vs {y.len} ordinates")
    if x.len < 2:
        raise DimensionError("simple_regression: need at least 2 points")
    ex, ey = _binary_exponent(x.array), _binary_exponent(y.array)
    xs, ys = np.ldexp(x.array, -ex), np.ldexp(y.array, -ey)
    if np.ptp(xs) == 0.0:
        raise DegenerateAbscissaError(
            "simple_regression: all abscissae equal, slope undefined")
    xbar, ybar = xs.mean(), ys.mean()
    dx = xbar - xs
    b = float(dx @ (ybar - ys)) / float(dx @ dx)
    a = ybar - b * xbar
    residual = ys - a - b * xs
    return OlsSolution(
        coefficients=Vector(np.ldexp([a, b], [ey, ey - ex])),
        residual_norm=float(np.ldexp(_norm(residual), ey)),
        method=Method.CLOSED_FORM,
        rank_deficient=False,
    )


def _norm(r: np.ndarray) -> float:
    """||r||_2, computed on r scaled by an exact power of two so that the
    squares neither overflow nor underflow."""
    exponent = _binary_exponent(r)
    return float(np.ldexp(np.linalg.norm(np.ldexp(r, -exponent)), exponent))


def _normal_equations(a: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Solve A^T A c = A^T y by Cholesky, or flag rank deficiency.

    A and y are first divided by exact powers of two, which keeps the Gram
    matrix finite and nonzero.  A pivot at or below CHOLESKY_PD_TOL times
    the largest initial diagonal entry means the Gram matrix is not
    numerically positive definite; the error reports it in A's units.
    """
    ea, ey = _binary_exponent(a), _binary_exponent(y)
    a, y = np.ldexp(a, -ea), np.ldexp(y, -ey)
    gram, rhs = a.T @ a, a.T @ y
    n = gram.shape[0]
    scale = float(gram.diagonal().max(initial=0.0))
    if scale <= 0.0:
        raise RankDeficiencyError("normal equations: zero Gram matrix")
    low = np.zeros((n, n))
    for j in range(n):
        d = gram[j, j] - low[j, :j] @ low[j, :j]
        if d <= CHOLESKY_PD_TOL * scale:
            with np.errstate(over="ignore"):
                pivot = np.ldexp(d, 2 * ea)
            raise RankDeficiencyError(
                "normal equations: Gram matrix not positive definite "
                f"(pivot {pivot:.3e} at column {j})")
        low[j, j] = math.sqrt(d)
        low[j + 1:, j] = (gram[j + 1:, j] - low[j + 1:, :j] @ low[j, :j]) / low[j, j]
    # Forward then back substitution.
    z = np.zeros(n)
    for i in range(n):
        z[i] = (rhs[i] - low[i, :i] @ z[:i]) / low[i, i]
    return np.ldexp(_solve_upper(low.T, z), ey - ea)


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
    returns the minimum-norm minimizer, flagging rank deficiency.
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
    arr = a.array
    ys = y.array
    rank_deficient = False
    sigma = None
    if method is Method.NORMAL_EQUATIONS:
        c = _normal_equations(arr, ys)
    elif method is Method.QR:
        r, qty = _householder_qr_arrays(arr, ys[:, None])
        n = a.cols
        diag = np.abs(r.diagonal()[:n])
        if n and diag.min() <= RANK_REL_TOL * diag.max():
            raise RankDeficiencyError(
                "qr: triangular factor has a negligible diagonal entry")
        c = _solve_upper(r[:n, :n], qty[:n, 0])
    elif method is Method.SVD:
        u, s, v = _thin_svd(arr)
        rank_deficient = _rank(s) < a.cols
        sigma = Vector(s)
        c = _pinv(u, s, v, ys)
    else:
        raise ValueError(f"solve_ols: unknown method {method!r}")
    return OlsSolution(
        coefficients=Vector(c),
        residual_norm=_norm(arr @ c - ys),
        method=method,
        rank_deficient=rank_deficient,
        sigma=sigma,
    )
