"""Total least squares solution of an overdetermined system A x = b.

Every TLS fit here is ``_tls_split``: the SVD of C = (A | B) split after
column n gives X = -V12 V22^{-1} when V22 is nonsingular.  For (A | -b),
V22 is the last component of the subdominant right singular vector and
X renormalizes that vector; truncating the SVD to rank n yields the
nearest solvable system.  The augmented sign convention here is (A | -b)
with the homogeneous vector (c; 1); the common (A | b) convention with
(c; -1) has identical singular values.
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


def _tls_split(c: np.ndarray, n: int):
    """SVD of C = (A | B) split after column n, and X = -V12 V22^{-1}.

    Returns (svd, x, null_vector, s22, unique): x is None when s22, the
    smallest singular value of V22, is at most EXISTENCE_TOL; null_vector
    is V[:, n:] times its right singular vector; unique is the gap test
    at column n.
    """
    svd = _thin_svd(np.asfortranarray(c))
    s, v = svd.sigma.array, svd.v.array
    sub = _thin_svd(v[n:, n:])
    s22, v22 = sub.sigma.array, sub.v.array
    x = None
    if s22[-1] > EXISTENCE_TOL:  # dividing before U22^T keeps p = 1 exact
        x = ((-v[:n, n:] @ v22) / s22) @ sub.u.array.T
    unique = n == 0 or bool((s[n - 1] - s[n]) > GAP_TOL * max(s[0], 1.0))
    return svd, x, v[:, n:] @ v22[:, -1], float(s22[-1]), unique


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
    svd, x, null_vector, _, unique = _tls_split(augment(a, b).array, n)
    if x is None:
        raise NoTlsSolutionError(
            "no TLS solution: the subdominant right singular vector has a "
            f"vanishing last component ({svd.v.array[n, n]:.3e})",
            null_vector=Vector(null_vector),
            sigma=svd.sigma,
        )
    return TlsSystemSolution(
        coefficients=Vector(-x[:, 0]),
        nearest_system=truncate_rank(svd, n),
        sigma=svd.sigma,
        unique=unique,
        tls_residual=float(svd.sigma.array[n]),
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
