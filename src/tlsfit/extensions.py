"""TLS generalizations: several right-hand sides and frozen columns.

With p right-hand sides the SVD of (A | B) is partitioned after column n;
the solution is X = -V12 V22^{-1} when the trailing p x p block V22 is
invertible (``system._tls_split``, shared by every TLS fit), and the
rank-n truncation C - (C V2) V2^T is the nearest solvable system.

With frozen columns the system matrix splits into an error-free block A1
and an uncertain block A2.  The solve projects A2 and B off the column
space of A1 (the leading left singular vectors U1 of its SVD), splits the
projected block after its k = cols(A2) columns, and recovers the
frozen-block coefficients as X1 = V1 S1^-1 U1^T (B - A2 X2), the
minimum-norm choice when A1 is rank-deficient.  Ordinary least squares
is the special case of freezing every column.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DimensionError
from .linalg import (Matrix, Vector, _binary_exponent, _ldexp_in_range,
                     _pinv, _rank, _sum_of_squares, _thin_svd, _truncate)
from .system import _split_or_raise

__all__ = [
    "MultiRhsSolution",
    "FixedColsSolution",
    "solve_tls_multi",
    "solve_tls_fixed",
]


class MultiRhsSolution(NamedTuple):
    """Solution X of A X = B in the TLS sense, plus the nearest system."""

    x: Matrix
    nearest_system: Matrix
    sigma: Vector
    unique: bool


class FixedColsSolution(NamedTuple):
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
    c = np.column_stack([a.array, b.array])
    s, v, x, unique = _split_or_raise(c, n)
    return MultiRhsSolution(
        x=Matrix(x),
        nearest_system=Matrix(_truncate(c, v, n)),
        sigma=Vector(s),
        unique=unique,
    )


def solve_tls_fixed(a1: Matrix, a2: Matrix, b: Matrix) -> FixedColsSolution:
    """Solve A1 X1 + A2 X2 = B perturbing only A2 and B.

    The frozen block A1 may be empty (plain multi-RHS TLS) or cover all
    columns (ordinary least squares).  A rank-deficient frozen block
    leaves X1 underdetermined; the returned X1 has no component in the
    null space of A1 and ``x1_unique`` is False.  Raises RangeError when
    X1 is beyond the float range.
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
    # A1 and (A2 | B) are each divided by an exact power of two, 2^e1 and
    # 2^e, which leaves X2 as it is and X1 divided by 2^(e - e1).  So a
    # frozen block far below the others is factored at its own scale, where
    # 1 / sigma stays finite, and only X1 itself can leave the float range.
    a2b = np.column_stack([a2.array, b.array])
    e, e1 = _binary_exponent(a2b), _binary_exponent(a1.array)
    np.ldexp(a2b, -e, out=a2b)
    u1, s1, v1 = _thin_svd(np.ldexp(a1.array, -e1))
    r = _rank(s1)
    basis = u1[:, :r]
    # Projecting [A2 B] off U1 leaves the Gram matrix, hence sigma and V,
    # of its block in the orthogonal complement of A1's column space.
    s, _, x2, _ = _split_or_raise(a2b - basis @ (basis.T @ a2b), k, e)
    # S1 V1^T X1 = U1^T (B - A2 X2); nothing along V2 keeps X1 minimum-norm.
    x1 = _pinv(u1, s1, v1, a2b[:, k:] - a2b[:, :k] @ x2)
    return FixedColsSolution(
        x1=Matrix(_ldexp_in_range(x1, e - e1, "X1")),
        x2=Matrix(x2),
        minimized_value=_sum_of_squares(s[k:], "minimized value"),
        x1_unique=bool(r == j),
    )
