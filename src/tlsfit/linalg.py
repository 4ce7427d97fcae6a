"""Small dense linear algebra kernel.

Everything the fitting modules consume lives here: immutable matrix and
vector containers (column-major storage), Householder QR and a one-sided
Jacobi SVD, plus the private array helpers the solvers share: numerical
rank, minimum-norm pseudo-inverse application, rank truncation, and
power-of-two scaling that keeps squares and results in the float range.

There is one QR: ``_householder_qr_arrays`` keeps its reflectors in
compact WY form Q = I - Y T Y^T, so applying Q or Q^T to a block is three
matrix products.  The SVD of a tall input (at least _QR_MIN_COLS columns
and _QR_MIN_RATIO times as many rows) factors it by that QR first and
sweeps only the n x n R; U = Q U_R comes back through the same WY form.
The sweeps rotate a round of disjoint pairs at once from _ROUND_MIN_COLS
columns on, and one pair at a time below.

Arrays inside, containers at the public boundary: public functions take
and return the validated ``Matrix``/``Vector``; the private helpers
(``_thin_svd``, ``_rank``, ``_pinv``, ``_truncate``, ``_sum_of_squares``)
work on ndarrays, so the solvers build a container only for a value they
return.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DimensionError, RangeError
from .tolerances import (
    JACOBI_MAX_SWEEPS,
    JACOBI_OFFDIAG_TOL,
    RANK_REL_TOL,
)

__all__ = ["Matrix", "Vector", "QrResult", "SvdResult", "householder_qr",
           "jacobi_svd"]


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


def _binary_exponent(a) -> int:
    """The e with max|a| in [2^(e-1), 2^e), or 0 when a is all zero.

    Scaling by 2^-e is exact and puts the largest entry in [0.5, 1), which
    keeps squares and products away from both overflow and underflow.
    """
    return math.frexp(float(np.abs(a).max(initial=0.0)))[1]


def _ldexp_in_range(a, exponent: int, what: str):
    """a * 2^exponent, or RangeError naming ``what`` when that is beyond
    the float range."""
    largest = float(np.abs(a).max(initial=0.0))
    if largest and math.frexp(largest)[1] + exponent > 1024:
        raise RangeError(f"{what} beyond the float range: {largest:.6g} * "
                         f"2^{exponent} >= 2^1024")
    return np.ldexp(a, exponent)


def _sum_of_squares(a, what: str) -> float:
    """sum a_i^2 of an array or a float, squared after scaling by an exact
    power of two: bit for bit the plain sum wherever that is a normal
    float, and a RangeError naming ``what`` where it would overflow."""
    exponent = _binary_exponent(a)
    scaled = np.ldexp(a, -exponent)
    return float(_ldexp_in_range((scaled * scaled).sum(), 2 * exponent, what))


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


# ---------------------------------------------------------------------------
# Householder QR


# Columns this far below the working scale (the largest entry normalized
# to [0.5, 1)) carry singular values < 1e-100 relative.  The sweeps flush
# them to exact zero, which prevents an underflow livelock where a squared
# norm rounds to 0 while mixed products do not; the QR leaves their
# reflector out, whose 2 / |v|^2 would overflow.
_FLUSH2 = 1e-200


def _householder_qr_arrays(a: np.ndarray):
    """QR of an m x n array (m >= n) by Householder reflections.

    Returns (r, y, t): r is the n x n upper-triangular factor, and the
    reflectors are kept in compact WY form Q = I - Y T Y^T with
    Y m x n lower trapezoidal and T n x n upper triangular (Schreiber &
    Van Loan, SIAM J. Sci. Stat. Comput. 10(1), 1989), so Q is never
    formed and ``_reflect`` applies it or Q^T to a block in three matrix
    products.  Column j meets the first j reflectors as one such product
    (left-looking), then yields reflector j, v = x + sign(x_1) |x| e_1,
    which makes R_jj = -sign(x_1) |x|; ``householder_qr`` turns the
    diagonal nonnegative.  The work runs on A scaled by an exact power of
    two, so R scales exactly with A and Y and T do not depend on its scale.
    """
    m, n = a.shape
    exponent = _binary_exponent(a)
    cols = np.ldexp(a.T, -exponent, order="C")  # column j of A is row j
    yt = np.zeros((n, m))  # row j is reflector j, zero before entry j
    t = np.zeros((n, n))
    r = np.zeros((n, n), order="F")
    for j in range(n):
        x = cols[j]
        if j:
            x = x - yt[:j].T @ (t[:j, :j].T @ (yt[:j] @ x))
        r[:j + 1, j] = x[:j + 1]
        tail = x[j + 1:]
        x0, sigma = float(x[j]), float(tail @ tail)
        mu = math.sqrt(x0 * x0 + sigma)
        if x0 < 0.0:
            mu = -mu
        vnorm2 = (x0 + mu) ** 2 + sigma
        if vnorm2 <= _FLUSH2:  # a column this small is left as it is
            continue
        r[j, j] = -mu
        tau = 2.0 / vnorm2
        yt[j, j] = x0 + mu
        yt[j, j + 1:] = tail
        t[:j, j] = -tau * (t[:j, :j] @ (yt[:j, j:] @ yt[j, j:]))
        t[j, j] = tau
    return np.ldexp(r, exponent), yt.T, t


def _reflect(y: np.ndarray, t: np.ndarray, block: np.ndarray) -> np.ndarray:
    """(I - Y T Y^T) [block; 0]: Q, or Q^T for T^T, applied to ``block``
    padded with zero rows to the height of Y, so Y^T [block; 0] reads
    only the top rows of Y."""
    k = block.shape[0]
    out = y @ (t @ (y[:k].T @ block))
    np.subtract(block, out[:k], out=out[:k])
    np.negative(out[k:], out=out[k:])
    return out


def householder_qr(a: Matrix) -> QrResult:
    """Full QR factorization of a tall (rows >= cols) matrix."""
    if a.rows < a.cols:
        raise DimensionError(
            f"householder_qr: need rows >= cols, got {a.rows} x {a.cols}")
    m, n = a.shape
    r, y, t = _householder_qr_arrays(a.array)
    q = _reflect(y, t, np.eye(m))
    # Sign convention: nonnegative diagonal of R.
    flip = np.flatnonzero(r.diagonal() < 0.0)
    r[flip] = -r[flip]
    q[:, flip] = -q[:, flip]
    return QrResult(q=Matrix(q),
                    r_upper=Matrix(np.vstack([r, np.zeros((m - n, n))])))


# ---------------------------------------------------------------------------
# One-sided Jacobi SVD


# _thin_svd factors inputs with at least _QR_MIN_COLS columns and
# _QR_MIN_RATIO times as many rows by QR first and sweeps only the n x n R
# (Drmac & Veselic, SIAM J. Matrix Anal. Appl. 29(4), 2008).  Alternating
# runs of both paths on the same Gaussian matrices (9 per shape, median
# time ratio of sweeps on A over the QR path, one BLAS thread): the QR,
# its row sort and U = Q U_R cost more than they save at n = 3 for every
# m up to 4096 (0.60-0.71x) and at n = 4 up to m = 2048 (0.80-0.95x);
# from n = 5 they pay from m = 512-768 (n = 5: 0.95x at m = 384, 1.01x
# at 512, 1.34x at 4096; n = 8: 0.96x at 512, 1.00x at 768; n = 10:
# 1.13x at 768, 1.62x at 4096).  Wider inputs win sooner (n = 32: 1.05x
# at m = 128, 1.84x at 1024), which m >= 96 n leaves to the sweeps on A.
_QR_MIN_COLS = 5
_QR_MIN_RATIO = 96
# _jacobi_sweeps rotates a whole round of disjoint pairs at once on inputs
# with at least _ROUND_MIN_COLS columns, and pair by pair below that.
# Alternating runs, per-pair time over round time, on R and on A from 2n
# to 200n rows: n = 5 0.65-0.70x, n = 6 1.05-1.22x, n = 7 0.87-1.01x
# (odd n sweeps a padding column), n = 8 1.34-1.59x, n = 10 1.47-1.81x.
_ROUND_MIN_COLS = 8


def _jacobi_sweeps(w: np.ndarray, v: np.ndarray, on: str):
    """One-sided Jacobi orthogonalization of the columns of ``w``.

    Rotates column pairs of ``w`` (and accumulates the same rotations in
    ``v``) until every pair satisfies the relative orthogonality criterion.
    Mutates both arguments in place.  Wide inputs sweep in round-robin
    order, narrow ones pair by pair; both apply the same rotation rule.
    ``on`` names the swept matrix ("A" or its "R") in a ConvergenceError,
    which also reports the largest off-diagonal ratio left in ``w``.
    """
    path = "rounds" if w.shape[1] >= _ROUND_MIN_COLS else "pairs"
    if (_jacobi_rounds if path == "rounds" else _jacobi_pairs)(w, v):
        return
    gram = w.T @ w
    live = gram.diagonal() > _FLUSH2
    norms = np.sqrt(gram.diagonal()[live])
    ratio = np.abs(gram[np.ix_(live, live)]) / np.outer(norms, norms)
    np.fill_diagonal(ratio, 0.0)
    raise ConvergenceError(
        f"one-sided Jacobi SVD did not converge in {JACOBI_MAX_SWEEPS} "
        f"sweeps ({path} on {on}; largest off-diagonal ratio "
        f"{ratio.max(initial=0.0):.3e} vs JACOBI_OFFDIAG_TOL "
        f"{JACOBI_OFFDIAG_TOL:g})")


def _jacobi_pairs(w: np.ndarray, v: np.ndarray) -> bool:
    """Cyclic sweeps: the pairs (i, j), i < j, one at a time in row order.
    Returns whether a sweep within the budget confirmed every pair."""
    n = w.shape[1]
    for _ in range(JACOBI_MAX_SWEEPS):
        rotated = False
        for i in range(n - 1):
            for j in range(i + 1, n):
                wi = w[:, i]
                wj = w[:, j]
                alpha = float(wi @ wi)
                beta = float(wj @ wj)
                if alpha <= _FLUSH2:
                    w[:, i] = 0.0
                    alpha = 0.0
                if beta <= _FLUSH2:
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
            return True
    return False


def _round_robin_shift(seats: int) -> np.ndarray:
    """Row permutation from one round to the next: row i of the next round
    is row ``shift[i]`` of this one.

    Rows 2k and 2k+1 hold the seats k and n-1-k of a round-robin table of
    n seats.  Seat 0 stays and the others move on by one, so the pair
    rows (2k, 2k+1) of the next round hold different columns; after n-1
    shifts every column has met every other once and the rows are back
    in their first order.
    """
    h = seats // 2
    s = np.arange(seats).reshape(h, 2)
    d = np.empty_like(s)
    d[0, 0] = s[0, 0]
    d[1, 0] = s[0, 1]
    d[2:, 0] = s[1:h - 1, 0]
    d[:h - 1, 1] = s[1:, 1]
    d[h - 1, 1] = s[h - 1, 0]
    return d.reshape(-1)


def _jacobi_rounds(w: np.ndarray, v: np.ndarray) -> bool:
    """Round-robin sweeps (Brent & Luk, SIAM J. Sci. Stat. Comput. 6(1),
    1985): n-1 rounds of n/2 disjoint pairs, each round in a few numpy calls.
    Returns whether a sweep within the budget confirmed every pair.

    Column k of ``w`` and of ``v`` are held side by side as one row of a
    working array, with a zero row appended for odd n, such that rows 2k
    and 2k+1 are pair k of the round; one matrix product rotates both.
    Disjoint pairs commute, so a round is the same as rotating its pairs
    one by one; a pair below the criterion gets t = 0, the identity.
    Needs n >= 3.
    """
    m, n = w.shape
    seats = n + n % 2
    h = seats // 2
    # Column held by each row in the first round of every sweep.
    order = np.array([c for k in range(h) for c in (k, seats - 1 - k)])
    real = order < n
    shift = _round_robin_shift(seats)
    rows, spare = np.zeros((seats, m + n)), np.empty((seats, m + n))
    rows[real, :m] = w.T[order[real]]
    rows[real, m:] = v.T[order[real]]
    rot = np.empty((h, 2, 2))
    for _ in range(JACOBI_MAX_SWEEPS):
        rotated = False
        for _ in range(seats - 1):
            pairs = rows.reshape(h, 2, m + n)
            w_pairs = pairs[:, :, :m]
            squares = np.einsum("hkm,hkm->hk", w_pairs, w_pairs)
            alpha, beta = squares[:, 0], squares[:, 1]
            gamma = np.einsum("ij,ij->i", w_pairs[:, 0], w_pairs[:, 1])
            if squares.min() <= _FLUSH2:
                # A flushed column has gamma 0, which leaves its pair as is.
                flush_left, flush_right = alpha <= _FLUSH2, beta <= _FLUSH2
                pairs[flush_left, 0, :m] = 0.0
                pairs[flush_right, 1, :m] = 0.0
                gamma[flush_left | flush_right] = 0.0
            active = np.abs(gamma) > (JACOBI_OFFDIAG_TOL * np.sqrt(alpha)
                                      * np.sqrt(beta))
            if active.any():
                rotated = True
                zeta = np.divide(beta - alpha, 2.0 * gamma, out=np.zeros(h),
                                 where=active)
                huge = np.abs(zeta) > 1e150  # zeta**2 would overflow
                z = np.where(huge, 0.0, zeta)
                t = np.copysign(1.0, z) / (np.abs(z) + np.sqrt(1.0 + z * z))
                np.divide(0.5, zeta, out=t, where=huge)
                t = np.where(active, t, 0.0)
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                rot[:, 0, 0] = rot[:, 1, 1] = c
                rot[:, 1, 0] = s
                np.negative(s, out=rot[:, 0, 1])
                np.matmul(rot, pairs, out=spare.reshape(h, 2, m + n))
                rows, spare = spare, rows
            # mode="clip" spares the buffered copy that "raise" makes for
            # ``out``; every index of ``shift`` is in range.
            np.take(rows, shift, axis=0, out=spare, mode="clip")
            rows, spare = spare, rows
        if not rotated:
            break
    w.T[order[real]] = rows[real, :m]
    v.T[order[real]] = rows[real, m:]
    return not rotated


def _complete_orthonormal(u_cols: np.ndarray, m: int) -> np.ndarray:
    """Extend ``q`` orthonormal columns to an m x m orthogonal matrix.

    The completion comes from the Householder Q of the given block, which
    reproduces the block itself (up to roundoff) in its leading columns;
    those are replaced by the exact input columns.
    """
    _, y, t = _householder_qr_arrays(u_cols)
    full = _reflect(y, t, np.eye(m))
    full[:, :u_cols.shape[1]] = u_cols
    return full


def _apply_sign_rule(v: np.ndarray, u: np.ndarray) -> None:
    """In place: make the largest-magnitude entry (lowest index on ties) of
    each column of ``v`` nonnegative, negating the paired ``u`` column."""
    if not v.size:
        return
    pivot = np.abs(v).argmax(axis=0)
    flip = v.T[np.arange(v.shape[1]), pivot] < 0.0
    if flip.any():
        v[:, flip] = -v[:, flip]
        paired = flip[:u.shape[1]]
        u[:, paired] = -u[:, paired]


def _thin_svd(a: np.ndarray):
    """Thin SVD (u, s, v) of an m x n array with m >= n via one-sided Jacobi.

    u is m x n, with zero columns for exactly zero singular values; signs
    follow ``jacobi_svd``.  The solvers call this and never form an m x m U.
    u and v are column-major like ``Matrix`` storage, so products with them
    round as products with the public factors do.  An input with at least
    _QR_MIN_COLS columns and _QR_MIN_RATIO times as many rows is first
    factored, rows sorted, as QR; the sweeps then run on the n x n R and
    U = Q U_R comes back through the reflectors.
    """
    m, n = a.shape
    # Scaling keeps squared column norms away from overflow and underflow.
    exponent = _binary_exponent(a)
    on_r = n >= _QR_MIN_COLS and m >= _QR_MIN_RATIO * n
    if on_r:
        # Rows in decreasing max-norm order keep the QR accurate on rows of
        # very different scales (Cox & Higham, BIT 38(1), 1998).
        rows = np.argsort(-np.abs(a).max(axis=1))
        w = a[rows]  # scaled in place, and freed once R replaces it
        w, y, t = _householder_qr_arrays(np.ldexp(w, -exponent, out=w))
    else:
        w = np.ldexp(a, -exponent)
    v = np.eye(n, order="F")
    _jacobi_sweeps(w, v, "R" if on_r else "A")
    norms = np.sqrt(np.einsum("ij,ij->j", w, w))
    order = np.argsort(-norms, kind="stable")
    scaled = norms[order]
    v = np.asfortranarray(v[:, order])
    u = np.zeros(w.shape, order="F")  # U, or U_R
    np.divide(w[:, order], scaled, out=u, where=scaled > 0.0)
    _apply_sign_rule(v, u)
    if on_r:
        u_r, u = u, np.empty((m, n), order="F")
        u[rows] = _reflect(y, t, u_r)  # Q [U_R; 0]
    return u, _ldexp_in_range(scaled, exponent, "singular values"), v


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
