"""TLS generalizations: several right-hand sides and frozen columns.

With p right-hand sides the SVD of (A | B) is partitioned after column n;
the solution is X = -V12 V22^{-1} when the trailing p x p block V22 is
invertible (``system._tls_split``, shared by every TLS fit), and the
rank-n truncation is the nearest solvable system.

With frozen columns the system matrix splits into an error-free block A1
and an uncertain block A2.  The solve projects A2 and B off the column
space of A1 (the leading left singular vectors U1 of its SVD), splits the
projected block after its k = cols(A2) columns, and recovers the
frozen-block coefficients as X1 = V1 S1^-1 U1^T (B - A2 X2), the
minimum-norm choice when A1 is rank-deficient.  Ordinary least squares
is the special case of freezing every column.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NoTlsSolutionError
from .linalg import Matrix, Vector, _pinv, _rank, _thin_svd, _truncate
from .system import _tls_split

__all__ = [
    "MultiRhsSolution",
    "FixedColsSolution",
    "solve_tls_multi",
    "solve_tls_fixed",
]


@dataclass(frozen=True)
class MultiRhsSolution:
    """Solution X of A X = B in the TLS sense, plus the nearest system."""

    x: Matrix
    nearest_system: Matrix
    sigma: Vector
    unique: bool


@dataclass(frozen=True)
class FixedColsSolution:
    """Coefficients (X1; X2) of A1 X1 + A2 X2 = B with A1 kept exact.

    ``minimized_value`` is the attained value of
    ||A2 - C||_F^2 + ||B - D||_F^2.  When the frozen block is
    rank-deficient, X1 is the minimum-norm representative and
    ``x1_unique`` is False.
    """

    x1: Matrix
    x2: Matrix
    minimized_value: float
    x1_unique: bool


def _split_or_raise(c: np.ndarray, n: int):
    """``_tls_split`` of C after column n, raising when X does not exist."""
    factors, x, null_vector, s22, unique = _tls_split(c, n)
    if x is None:
        raise NoTlsSolutionError(
            "no TLS solution: the trailing block of the right singular "
            f"matrix is singular (smallest singular value {s22:.3e})",
            null_vector=Vector(null_vector),
            sigma=Vector(factors[1]),
        )
    return factors, x, unique


def solve_tls_multi(a: Matrix, b: Matrix) -> MultiRhsSolution:
    """Solve A X = B with p right-hand sides in the TLS sense.

    Requires m >= n + p.  Raises NoTlsSolutionError when the trailing
    block V22 of the right singular matrix is numerically singular; a
    tied singular-value gap at the partition is reported via
    ``unique=False``.
    """
    m, n = a.rows, a.cols
    p = b.cols
    if b.rows != m:
        raise DimensionError(
            f"solve_tls_multi: B has {b.rows} rows, expected {m}")
    if p < 1:
        raise DimensionError("solve_tls_multi: B needs at least one column")
    if m < n + p:
        raise DimensionError(
            f"solve_tls_multi: need rows >= cols(A) + cols(B), "
            f"got {m} < {n} + {p}")
    factors, x, unique = _split_or_raise(
        np.column_stack([a.array, b.array]), n)
    return MultiRhsSolution(
        x=Matrix(x),
        nearest_system=Matrix(_truncate(*factors, n)),
        sigma=Vector(factors[1]),
        unique=unique,
    )


def solve_tls_fixed(a1: Matrix, a2: Matrix, b: Matrix) -> FixedColsSolution:
    """Solve A1 X1 + A2 X2 = B perturbing only A2 and B.

    The frozen block A1 may be empty (plain multi-RHS TLS) or cover all
    columns (ordinary least squares).  A rank-deficient frozen block
    leaves X1 underdetermined; the returned X1 has no component in the
    null space of A1 and ``x1_unique`` is False.
    """
    m = b.rows
    j, k, p = a1.cols, a2.cols, b.cols
    if a1.rows != m or a2.rows != m:
        raise DimensionError(
            f"solve_tls_fixed: row counts differ "
            f"({a1.rows}, {a2.rows}, {m})")
    if m < j + k + p:
        raise DimensionError(
            f"solve_tls_fixed: need rows >= {j} + {k} + {p}, got {m}")
    if p < 1:
        raise DimensionError("solve_tls_fixed: B needs at least one column")
    u1, s1, v1 = _thin_svd(a1.array)
    r = _rank(s1)
    basis = u1[:, :r]
    # Projecting [A2 B] off U1 leaves the Gram matrix, hence sigma and V,
    # of its block in the orthogonal complement of A1's column space.
    a2b = np.column_stack([a2.array, b.array])
    (_, s, _), x2, _ = _split_or_raise(a2b - basis @ (basis.T @ a2b), k)
    # S1 V1^T X1 = U1^T (B - A2 X2); nothing along V2 keeps X1 minimum-norm.
    x1 = _pinv(u1, s1, v1, b.array - a2.array @ x2)
    minimized = np.sum(s[k:] ** 2)
    return FixedColsSolution(
        x1=Matrix(x1),
        x2=Matrix(x2),
        minimized_value=float(minimized),
        x1_unique=bool(r == j),
    )
