"""Total least squares solution of an overdetermined system A x = b.

The rows of the augmented matrix (A | -b) form a cloud in R^{n+1}; the
TLS solution comes from its right singular vector for the smallest
singular value.  Renormalizing that vector's last component to 1 yields
the coefficients, provided the component is nonzero; truncating the SVD
to rank n yields the nearest solvable system.  The augmented sign
convention here is (A | -b) with the homogeneous vector (c; 1); the
common (A | b) convention with (c; -1) has identical singular values.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NoTlsSolutionError
from .linalg import Matrix, Vector, _thin_svd, truncate_rank
from .tolerances import EXISTENCE_TOL, GAP_TOL

__all__ = ["TlsSystemSolution", "augment", "solve_tls_system", "tls_objective"]


@dataclass(frozen=True)
class TlsSystemSolution:
    """Coefficients plus the nearest solvable system (F | -g).

    ``tls_residual`` is the smallest singular value of (A | -b): the
    Frobenius distance from the given system to the nearest solvable one.
    """

    coefficients: Vector
    nearest_system: Matrix
    sigma: Vector
    unique: bool
    tls_residual: float


def augment(a: Matrix, b: Vector) -> Matrix:
    """The m x (n+1) augmented matrix (A | -b)."""
    if b.len != a.rows:
        raise DimensionError(
            f"augment: b has length {b.len}, expected {a.rows}")
    return Matrix(np.column_stack([a.array, -b.array]))


def solve_tls_system(a: Matrix, b: Vector) -> TlsSystemSolution:
    """Solve A x = b in the TLS sense via the SVD of (A | -b).

    Raises NoTlsSolutionError (with the offending null vector and all
    singular values attached) when the last component of the subdominant
    right singular vector vanishes, in which case no explicit solution
    exists.  A tie between the two smallest singular values is reported
    through ``unique=False`` rather than an error.
    """
    n = a.cols
    if a.rows < n + 1:
        raise DimensionError(
            f"solve_tls_system: need rows > cols, got {a.rows} x {n}")
    svd = _thin_svd(augment(a, b).array)
    s = svd.sigma.array
    v_min = svd.v.array[:, n]
    if abs(v_min[n]) <= EXISTENCE_TOL:
        raise NoTlsSolutionError(
            "no TLS solution: the subdominant right singular vector has a "
            f"vanishing last component ({v_min[n]:.3e})",
            null_vector=Vector(v_min),
            sigma=svd.sigma,
        )
    coefficients = Vector(v_min[:n] / v_min[n])
    return TlsSystemSolution(
        coefficients=coefficients,
        nearest_system=truncate_rank(svd, n),
        sigma=svd.sigma,
        unique=bool((s[n - 1] - s[n]) > GAP_TOL * max(s[0], 1.0)),
        tls_residual=float(s[n]),
    )


def tls_objective(a: Matrix, b: Vector, c: Vector) -> float:
    """The TLS functional ||(A | -b) (c; 1)||^2 / ||(c; 1)||^2.

    Equals the sum of squared true distances from the rows of (A | -b)
    to the subspace orthogonal to (c; 1); zero iff A c = b exactly.
    """
    if c.len != a.cols:
        raise DimensionError(
            f"tls_objective: c has length {c.len}, expected {a.cols}")
    if b.len != a.rows:
        raise DimensionError(
            f"tls_objective: b has length {b.len}, expected {a.rows}")
    residual = a.array @ c.array - b.array
    return float((residual @ residual) / (1.0 + c.array @ c.array))
