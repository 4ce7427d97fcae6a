"""Small dense linear algebra kernel.

Everything the fitting modules consume lives here: immutable matrix and
vector containers (column-major storage), Householder QR, a one-sided
Jacobi SVD, minimum-norm pseudo-inverse application and Frobenius-optimal
rank truncation.

Arrays inside, containers at the public boundary: public functions take
and return the validated ``Matrix``/``Vector``; the private helpers
(``_thin_svd``, ``_rank``, ``_pinv``, ``_truncate``) work on ndarrays, so
the solvers build a container only for a value they return.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DimensionError
from .tolerances import (
    JACOBI_MAX_SWEEPS,
    JACOBI_OFFDIAG_TOL,
    RANK_REL_TOL,
)

__all__ = [
    "Matrix",
    "Vector",
    "QrResult",
    "SvdResult",
    "multiply",
    "matvec",
    "frobenius_norm",
    "householder_qr",
    "jacobi_svd",
    "pinv_apply",
    "truncate_rank",
]


def _as_float_array(data, ndim, what):
    try:
        arr = np.array(data, dtype=float, order="F")
    except (TypeError, ValueError) as exc:
        raise DimensionError(f"{what}: entries do not form a rectangular "
                             f"numeric array ({exc})") from None
    if arr.ndim != ndim:
        raise DimensionError(f"{what}: expected {ndim}-dimensional data, "
                             f"got shape {arr.shape}")
    if arr.size and not np.isfinite(arr).all():
        raise ValueError(f"{what}: non-finite entries are not admitted")
    return arr


class Matrix:
    """Immutable dense real matrix stored column-major.

    Accepts a nested sequence or a 2-d ndarray; the entries are copied and
    must all be finite.  Zero-sized dimensions are permitted so that empty
    column blocks (e.g. "no frozen columns") remain expressible.
    """

    __slots__ = ("_a",)

    def __init__(self, data):
        self._a = _as_float_array(data, 2, "Matrix")
        self._a.flags.writeable = False

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls(np.zeros((rows, cols)))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(np.eye(n))

    @classmethod
    def from_columns(cls, columns) -> "Matrix":
        """Build a matrix from an iterable of equal-length columns."""
        cols = [np.asarray(c, dtype=float).reshape(-1) for c in columns]
        return cls(np.column_stack(cols) if cols else np.zeros((0, 0)))

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    @property
    def shape(self):
        return self._a.shape

    @property
    def array(self) -> np.ndarray:
        """Read-only ndarray view of the entries."""
        return self._a

    @property
    def data(self) -> np.ndarray:
        """Entries as a flat read-only array in column-major order."""
        return self._a.reshape(-1, order="F")

    def column(self, j: int) -> "Vector":
        return Vector(self._a[:, j])

    def transpose(self) -> "Matrix":
        return Matrix(self._a.T)

    def __getitem__(self, idx):
        return float(self._a[idx])

    def __repr__(self):
        return f"Matrix({self._a.tolist()!r})"


class Vector:
    """Immutable dense real vector with finite entries."""

    __slots__ = ("_a",)

    def __init__(self, data):
        self._a = _as_float_array(data, 1, "Vector")
        self._a.flags.writeable = False

    @property
    def len(self) -> int:
        return self._a.shape[0]

    @property
    def array(self) -> np.ndarray:
        return self._a

    @property
    def data(self) -> np.ndarray:
        return self._a

    def norm(self) -> float:
        return float(np.linalg.norm(self._a))

    def __len__(self):
        return self._a.shape[0]

    def __getitem__(self, idx):
        return float(self._a[idx])

    def __repr__(self):
        return f"Vector({self._a.tolist()!r})"


@dataclass(frozen=True)
class QrResult:
    """Full factorization A = Q R with orthogonal Q and upper-triangular R.

    R carries a nonnegative diagonal (sign convention).
    """

    q: Matrix
    r_upper: Matrix


@dataclass(frozen=True)
class SvdResult:
    """Full factorization A = U diag(sigma) V^T of an m x n matrix.

    Built only by ``jacobi_svd``: U is m x m, V is n x n and sigma holds
    the min(m, n) singular values in descending order.
    """

    u: Matrix
    sigma: Vector
    v: Matrix

    @property
    def rank(self) -> int:
        """Numerical rank under the shared relative threshold."""
        return _rank(self.sigma.array)


def _binary_exponent(a) -> int:
    """The e with max|a| in [2^(e-1), 2^e), or 0 when a is all zero.

    Scaling by 2^-e is exact and puts the largest entry in [0.5, 1), which
    keeps squares and products away from both overflow and underflow.
    """
    return math.frexp(float(np.abs(a).max(initial=0.0)))[1]


def _rank(s: np.ndarray) -> int:
    """Numerical rank of descending singular values s: the count of those
    above RANK_REL_TOL times the largest."""
    return int(np.count_nonzero(s > RANK_REL_TOL * s[0])) if s.size else 0


def _pinv(u: np.ndarray, s: np.ndarray, v: np.ndarray, rhs: np.ndarray):
    """Minimum-norm least squares solution V diag(s)^+ U^T rhs.

    ``rhs`` is 1-d or 2-d; singular values past ``_rank(s)`` count as
    zero, which fixes the undetermined components to zero.
    """
    k = s.shape[0]
    rank = _rank(s)
    inv = np.zeros(k)
    inv[:rank] = 1.0 / s[:rank]
    coeffs = u[:, :k].T @ rhs
    return v[:, :k] @ ((inv if rhs.ndim == 1 else inv[:, None]) * coeffs)


def _truncate(u: np.ndarray, s: np.ndarray, v: np.ndarray, k: int):
    """Sum of the k leading rank-one terms s_i u_i v_i^T."""
    return (u[:, :k] * s[:k]) @ v[:, :k].T


def multiply(a: Matrix, b: Matrix) -> Matrix:
    """Matrix product a @ b."""
    if a.cols != b.rows:
        raise DimensionError(
            f"multiply: inner dimensions differ ({a.cols} vs {b.rows})")
    return Matrix(a.array @ b.array)


def matvec(a: Matrix, x: Vector) -> Vector:
    """Matrix-vector product a @ x."""
    if a.cols != x.len:
        raise DimensionError(
            f"matvec: inner dimensions differ ({a.cols} vs {x.len})")
    return Vector(a.array @ x.array)


def frobenius_norm(a: Matrix) -> float:
    """Square root of the sum of squared entries."""
    return float(np.linalg.norm(a.array, "fro"))


# ---------------------------------------------------------------------------
# Householder QR


def _householder_qr_arrays(a: np.ndarray, block: np.ndarray):
    """QR of an m x n array (m >= n) by Householder reflections.

    Returns (r, Q^T block) with r m x n upper triangular with nonnegative
    diagonal.  Q is never formed; the reflectors are applied to the 2-d
    m-row ``block`` instead, so a block I_m yields Q^T.  The work runs on
    A scaled by an exact power of two, so R scales exactly with A and the
    reflectors do not depend on its scale.
    """
    m, n = a.shape
    exponent = _binary_exponent(a)
    r = np.ldexp(a, -exponent, order="C")
    qt_block = np.array(block, dtype=float, order="F")
    for j in range(n):
        x = r[j:, j]
        norm_x = np.linalg.norm(x)
        if norm_x == 0.0:
            continue
        v = x.copy()
        v[0] += norm_x if x[0] >= 0.0 else -norm_x
        vnorm2 = v @ v
        if vnorm2 == 0.0:
            continue
        w = 2.0 / vnorm2
        # r[j:, j:] -= w * outer(v, v @ r[j:, j:]); the same on the block.
        r[j:, j:] -= np.outer(w * v, v @ r[j:, j:])
        qt_block[j:] -= np.outer(v, (w * v) @ qt_block[j:])
    r = np.triu(r)
    # Sign convention: nonnegative diagonal of R.
    for j in range(min(m, n)):
        if r[j, j] < 0.0:
            r[j, j:] = -r[j, j:]
            qt_block[j] = -qt_block[j]
    return np.ldexp(r, exponent), qt_block


def householder_qr(a: Matrix) -> QrResult:
    """Full QR factorization of a tall (rows >= cols) matrix."""
    if a.rows < a.cols:
        raise DimensionError(
            f"householder_qr: need rows >= cols, got {a.rows} x {a.cols}")
    r, qt = _householder_qr_arrays(a.array, np.eye(a.rows))
    return QrResult(q=Matrix(qt.T), r_upper=Matrix(r))


# ---------------------------------------------------------------------------
# One-sided Jacobi SVD


def _jacobi_sweeps(w: np.ndarray, v: np.ndarray):
    """Cyclic one-sided Jacobi orthogonalization of the columns of ``w``.

    Rotates column pairs of ``w`` (and accumulates the same rotations in
    ``v``) until every pair satisfies the relative orthogonality criterion.
    Mutates both arguments in place.
    """
    n = w.shape[1]
    # Columns this far below the working scale (the caller normalizes the
    # largest entry to [0.5, 1)) carry singular values < 1e-100 relative;
    # flushing them to exact zero prevents an underflow livelock where a
    # squared norm rounds to 0 while mixed products do not.
    flush2 = 1e-200
    for _ in range(JACOBI_MAX_SWEEPS):
        rotated = False
        for i in range(n - 1):
            for j in range(i + 1, n):
                wi = w[:, i]
                wj = w[:, j]
                alpha = float(wi @ wi)
                beta = float(wj @ wj)
                if alpha <= flush2:
                    w[:, i] = 0.0
                    alpha = 0.0
                if beta <= flush2:
                    w[:, j] = 0.0
                    beta = 0.0
                gamma = float(wi @ wj)
                # sqrt(a)*sqrt(b), not sqrt(a*b): the product can underflow.
                bound = JACOBI_OFFDIAG_TOL * math.sqrt(alpha) * math.sqrt(beta)
                if abs(gamma) <= bound:
                    continue
                rotated = True
                zeta = (beta - alpha) / (2.0 * gamma)
                if abs(zeta) > 1e150:  # zeta**2 would overflow
                    t = 0.5 / zeta
                else:
                    t = math.copysign(1.0, zeta) / (
                        abs(zeta) + math.sqrt(1.0 + zeta * zeta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = c * t
                wi = wi.copy()
                w[:, i] = c * wi - s * wj
                w[:, j] = s * wi + c * wj
                vi = v[:, i].copy()
                v[:, i] = c * vi - s * v[:, j]
                v[:, j] = s * vi + c * v[:, j]
        if not rotated:
            return
    raise ConvergenceError(
        f"one-sided Jacobi SVD did not converge in {JACOBI_MAX_SWEEPS} sweeps")


def _complete_orthonormal(u_cols: np.ndarray, m: int) -> np.ndarray:
    """Extend ``q`` orthonormal columns to an m x m orthogonal matrix.

    The completion comes from the Householder Q of the given block, which
    reproduces the block itself (up to roundoff) in its leading columns;
    those are replaced by the exact input columns.
    """
    _, qt = _householder_qr_arrays(u_cols, np.eye(m))
    full = qt.T
    full[:, :u_cols.shape[1]] = u_cols
    return full


def _apply_sign_rule(v: np.ndarray, u: np.ndarray) -> None:
    """In place: make the largest-magnitude entry (lowest index on ties) of
    each column of ``v`` nonnegative, negating the paired ``u`` column."""
    for j in range(v.shape[1]):
        col = v[:, j]
        pivot = int(np.argmax(np.abs(col)))
        if col[pivot] < 0.0:
            v[:, j] = -col
            if j < u.shape[1]:
                u[:, j] = -u[:, j]


def _thin_svd(a: np.ndarray):
    """Thin SVD (u, s, v) of an m x n array with m >= n via one-sided Jacobi.

    u is m x n, with zero columns for exactly zero singular values; signs
    follow ``jacobi_svd``.  The solvers call this and never form an m x m U.
    u and v are column-major like ``Matrix`` storage, so products with them
    round as products with the public factors do.
    """
    m, n = a.shape
    # Scaling keeps squared column norms away from overflow and underflow.
    exponent = _binary_exponent(a)
    w = np.ldexp(a, -exponent)
    v = np.eye(n)
    _jacobi_sweeps(w, v)
    norms = np.sqrt(np.einsum("ij,ij->j", w, w))
    order = np.argsort(-norms, kind="stable")
    scaled = norms[order]
    v = np.asfortranarray(v[:, order])
    u = np.zeros((m, n), order="F")
    for k in range(n):
        if scaled[k] > 0.0:
            u[:, k] = w[:, order[k]] / scaled[k]
    _apply_sign_rule(v, u)
    return u, np.ldexp(scaled, exponent), v


def jacobi_svd(a: Matrix) -> SvdResult:
    """Full SVD of any dense matrix by cyclic one-sided Jacobi rotations.

    Singular values come back in descending order.  Signs are made
    deterministic: in each column of V the entry of largest magnitude
    (lowest index on ties) is nonnegative, with the paired U column
    negated to compensate.  The thin factorization of A (or of A^T when
    A is wide) is completed to square factors.
    """
    tall = a.rows >= a.cols
    u, s, v = _thin_svd(a.array if tall else a.array.T)
    nonzero = int(np.count_nonzero(u.any(axis=0)))
    full = _complete_orthonormal(u[:, :nonzero], u.shape[0])
    if tall:
        return SvdResult(u=Matrix(full), sigma=Vector(s), v=Matrix(v))
    # A^T = U' S V'^T: V is the completed U', its completion signed too.
    _apply_sign_rule(full, v)
    return SvdResult(u=Matrix(v), sigma=Vector(s), v=Matrix(full))


def pinv_apply(svd: SvdResult, y: Vector) -> Vector:
    """Minimum-norm least squares solution V diag(sigma)^+ U^T y.

    Singular values at or below the relative rank threshold are treated
    as zero, which fixes the undetermined components to zero.
    """
    m = svd.u.rows
    if y.len != m:
        raise DimensionError(
            f"pinv_apply: y has length {y.len}, expected {m}")
    return Vector(_pinv(svd.u.array, svd.sigma.array, svd.v.array, y.array))


def truncate_rank(svd: SvdResult, k: int) -> Matrix:
    """Best Frobenius-norm approximation of rank at most k.

    Sums the k leading rank-one terms sigma_i u_i v_i^T.
    """
    m = svd.u.rows
    n = svd.v.rows
    if not 0 <= k <= min(m, n):
        raise DimensionError(
            f"truncate_rank: k={k} outside [0, {min(m, n)}]")
    return Matrix(_truncate(svd.u.array, svd.sigma.array, svd.v.array, k))
