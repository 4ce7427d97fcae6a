"""Total least squares solution of an overdetermined system A x = b.

Every TLS fit here is ``_tls_split``: the SVD of C = (A | B) split after
column n gives X = -V12 V22^{-1} when V22 is nonsingular.  For (A | -b),
V22 is the last component of the subdominant right singular vector and
X renormalizes that vector; the rank-n truncation C - (C V2) V2^T,
V2 = V[:, n:], is the nearest solvable system.  The augmented sign
convention here is (A | -b) with the homogeneous vector (c; 1); the
common (A | b) convention with (c; -1) has identical singular values.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DimensionError, NoTlsSolutionError
from .linalg import (Matrix, Vector, _binary_exponent, _ldexp_in_range,
                     _thin_svd, _truncate)
from .tolerances import EXISTENCE_TOL, GAP_TOL

__all__ = ["TlsSystemSolution", "augment", "solve_tls_system", "tls_objective"]


class TlsSystemSolution(NamedTuple):
    """Coefficients plus the nearest solvable system (F | -g).

    ``tls_residual`` is the smallest singular value of (A | -b): the
    Frobenius distance from the given system to the nearest solvable one.
    """

    coefficients: Vector
    nearest_system: Matrix
    sigma: Vector
    unique: bool
    tls_residual: float


def _augmented(a: Matrix, b: Vector) -> np.ndarray:
    """(A | -b) as a column-major array, from the validated A and b."""
    if b.len != a.rows:
        raise DimensionError(
            f"augment: b has length {b.len}, expected {a.rows}")
    c = np.empty((a.rows, a.cols + 1), order="F")
    c[:, :-1] = a.array
    np.negative(b.array, out=c[:, -1])
    return c


def augment(a: Matrix, b: Vector) -> Matrix:
    """The m x (n+1) augmented matrix (A | -b)."""
    return Matrix(_augmented(a, b))


def _tls_split(c: np.ndarray, n: int, exponent: int = 0):
    """SVD of C = (A | B) split after column n, and X = -V12 V22^{-1}.

    ``c`` holds C scaled by 2^-exponent.  Returns (s, v, x, z, s22,
    unique): s and v of the SVD of C, s at the scale of C and U not
    formed (``_truncate(c, v, n)`` is the nearest solvable system); x is
    None when s22, the smallest singular value of V22, is at most
    EXISTENCE_TOL; z is the right singular vector of V22 for s22, [1.0]
    when V22 is 1 x 1, and V[:, n:] z is the null vector that
    ``_split_or_raise`` reports when x is None; unique is the gap test at
    column n.
    """
    _, s, v = _thin_svd(c, False)
    s = _ldexp_in_range(s, exponent, "singular values")
    u22, s22, v22 = _thin_svd(v[n:, n:])
    x = None
    if s22[-1] > EXISTENCE_TOL:  # dividing before U22^T keeps p = 1 exact
        x = ((-v[:n, n:] @ v22) / s22) @ u22.T
    unique = n == 0 or bool((s[n - 1] - s[n]) > GAP_TOL * max(s[0], 1.0))
    return s, v, x, v22[:, -1], float(s22[-1]), unique


def _split_or_raise(c: np.ndarray, n: int, exponent: int = 0):
    """``_tls_split`` of C after column n as (s, v, x, unique), raising
    NoTlsSolutionError, with s22 and its threshold, when X does not exist;
    ``c`` and ``exponent`` as for ``_tls_split``.  The null vector the
    error carries, V[:, n:] z, is formed here and only then."""
    s, v, x, z, s22, unique = _tls_split(c, n, exponent)
    if x is None:
        raise NoTlsSolutionError(
            "no TLS solution: the trailing block of the right singular "
            f"matrix is singular (smallest singular value {s22:.3e} <= "
            f"EXISTENCE_TOL {EXISTENCE_TOL:g})",
            null_vector=Vector(v[:, n:] @ z),
            sigma=Vector(s),
        )
    return s, v, x, unique


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
    c = _augmented(a, b)
    s, v, x, unique = _split_or_raise(c, n)
    return TlsSystemSolution(
        coefficients=Vector(-x[:, 0]),
        nearest_system=Matrix(_truncate(c, v, n)),
        sigma=Vector(s),
        unique=unique,
        tls_residual=float(s[n]),
    )


def tls_objective(a: Matrix, b: Vector, c: Vector) -> float:
    """The TLS functional ||(A | -b) (c; 1)||^2 / ||(c; 1)||^2.

    Equals the sum of squared true distances from the rows of (A | -b)
    to the subspace orthogonal to (c; 1); zero iff A c = b exactly.
    (A | b), (c; 1) and the residual are each divided by an exact power
    of two before anything is squared, so scaling A and b by 2^k scales
    the value by exactly 2^(2k) while it is a normal float; RangeError
    means that it is beyond the float range.
    """
    if c.len != a.cols:
        raise DimensionError(
            f"tls_objective: c has length {c.len}, expected {a.cols}")
    if b.len != a.rows:
        raise DimensionError(
            f"tls_objective: b has length {b.len}, expected {a.rows}")
    e = max(_binary_exponent(a.array), _binary_exponent(b.array))
    z = np.append(c.array, 1.0)
    z = np.ldexp(z, -_binary_exponent(z))
    # 2^-(e + ez) times the residual, ez the exponent that z came from.
    residual = (np.ldexp(a.array, -e) @ z[:-1]
                - np.ldexp(b.array, -e) * z[-1])
    er = _binary_exponent(residual)
    residual = np.ldexp(residual, -er)
    ratio = float(residual @ residual) / float(z @ z)
    return float(_ldexp_in_range(ratio, 2 * (e + er), "objective"))
