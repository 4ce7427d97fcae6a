"""Small dense linear algebra kernel.

Everything the fitting modules consume lives here: immutable matrix and
vector containers (column-major storage), Householder QR and a one-sided
Jacobi SVD, plus the private array helpers the solvers share: numerical
rank, minimum-norm pseudo-inverse application, rank truncation, and
power-of-two scaling that keeps squares and results in the float range.

There is one QR: ``_householder_qr_arrays`` keeps its reflectors in
compact WY form Q = I - Y T Y^T, so applying Q or Q^T to a block is three
matrix products, and pivots on the largest remaining column norm when
asked.  It takes its input at scale (divided by an exact power of two,
or orthonormal) and returns R at that scale; ``householder_qr`` scales A
down and R back.  The SVD of an input with at least _QR_MIN_COLS columns
and _QR_MIN_SIZE entries sorts its rows, factors A P = Q R with pivoting
and sweeps only the n x n R^T (Drmac & Veselic); V comes from the swept
columns, and U = Q [J; 0], J the accumulated rotations, only for callers
that read U, which no TLS split of C does.  Smaller inputs are swept as
they are.  The sweeps rotate a round of disjoint pairs at once from
_ROUND_MIN_COLS columns on, on floats below _STEP_MIN_PAIRS pairs and on
arrays from there on, and two or three columns one pair at a time; all
compute the rotation as t = 2 gamma / (d + sign(d) hypot(d, 2 gamma)).
One column is its own SVD, read off without a sweep.
Every sweep of rounds on arrays ends in a Gram test and product steps:
one Gram product gives every pair's first-order rotation at once, and
one orthogonal J = exp(K) of them moves the whole work block (Ogita &
Aishima); the pairs a step cannot take are rotated one at a time where
they sit.

Arrays inside, containers at the public boundary: public functions take
and return the validated ``Matrix``/``Vector``; the private helpers
(``_thin_svd``, ``_rank``, ``_pinv``, ``_truncate`` from C and V alone,
``_sum_of_squares`` and the power-of-two scaling) work on ndarrays, so
the solvers build a container only for a value they return.
"""
from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, DimensionError, RangeError
from .tolerances import (
    JACOBI_MAX_SWEEPS,
    JACOBI_OFFDIAG_TOL,
    RANK_REL_TOL,
)

__all__ = ["Matrix", "Vector", "QrResult", "SvdResult", "householder_qr",
           "jacobi_svd"]


class _Array:
    """The body of ``Matrix`` and ``Vector``: an immutable, finite, dense
    real array of ``_ndim`` dimensions, copied and stored column-major."""

    __slots__ = ("_a",)

    def __init__(self, data):
        what = type(self).__name__
        try:
            a = np.array(data, dtype=float, order="F")
        except (TypeError, ValueError) as exc:
            raise DimensionError(f"{what}: entries do not form a rectangular "
                                 f"numeric array ({exc})") from None
        if a.ndim != self._ndim:
            raise DimensionError(f"{what}: expected {self._ndim}-dimensional "
                                 f"data, got shape {a.shape}")
        if not np.logical_and.reduce(np.isfinite(a), axis=None):
            raise ValueError(f"{what}: non-finite entries are not admitted")
        a.flags.writeable = False
        self._a = a

    @property
    def array(self) -> np.ndarray:
        """Read-only ndarray view of the entries."""
        return self._a

    def __getitem__(self, idx):
        return float(self._a[idx])

    def __repr__(self):
        return f"{type(self).__name__}({self._a.tolist()!r})"


class Matrix(_Array):
    """Immutable dense real matrix stored column-major.

    Accepts a nested sequence or a 2-d ndarray; the entries are copied and
    must all be finite.  Zero-sized dimensions are permitted so that empty
    column blocks (e.g. "no frozen columns") remain expressible.
    """

    __slots__ = ()
    _ndim = 2

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    @property
    def shape(self):
        return self._a.shape


class Vector(_Array):
    """Immutable dense real vector with finite entries."""

    __slots__ = ()
    _ndim = 1

    @property
    def len(self) -> int:
        return self._a.shape[0]

    def __len__(self):
        return self._a.shape[0]


class QrResult(NamedTuple):
    """Full factorization A = Q R with orthogonal Q and upper-triangular R.

    R carries a nonnegative diagonal (sign convention).
    """

    q: Matrix
    r_upper: Matrix


class SvdResult(NamedTuple):
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
    return math.frexp(float(np.maximum.reduce(np.abs(a), axis=None,
                                              initial=0.0)))[1]


def _ldexp_in_range(a, exponent: int, what: str):
    """a * 2^exponent, or RangeError naming ``what`` when that is beyond
    the float range; only a scale-up (exponent > 0) reads ``a`` for it."""
    if exponent > 0:
        largest = abs(a) if isinstance(a, float) else float(
            np.maximum.reduce(np.abs(a), axis=None, initial=0.0))
        if largest and math.frexp(largest)[1] + exponent > 1024:
            raise RangeError(f"{what} beyond the float range: {largest:.6g} "
                             f"* 2^{exponent} >= 2^1024")
    return np.ldexp(a, exponent)


def _sum_of_squares(a, what: str) -> float:
    """sum a_i^2 of an array or a float, squared after scaling by an exact
    power of two: bit for bit the plain sum wherever that is a normal
    float, and a RangeError naming ``what`` where it would overflow."""
    exponent = _binary_exponent(a)
    scaled = np.ldexp(a, -exponent)
    return float(_ldexp_in_range(np.add.reduce(scaled * scaled, axis=None),
                                 2 * exponent, what))


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


def _truncate(c: np.ndarray, v: np.ndarray, k: int):
    """Rank-k truncation C - (C V2) V2^T, V2 = V[:, k:] of the SVD of C
    (C V2 = U2 S2 needs no U); exact under 2^j scaling of C."""
    return c - (c @ v[:, k:]) @ v[:, k:].T


# ---------------------------------------------------------------------------
# Householder QR


# Columns this far below the working scale (the largest entry normalized
# to [0.5, 1)) carry singular values < 1e-100 relative.  Sweeps on floats
# and the Gram tests flush them to exact zero, which prevents an underflow
# livelock where a squared norm rounds to 0 while mixed products do not;
# the QR leaves their reflector out, whose 2 / |v|^2 would overflow.
_FLUSH2 = 1e-200
# A downdated squared column norm keeps about half of its digits once it
# has fallen below this fraction of its value when last computed in full;
# the pivoted QR then recomputes it (tol3z = sqrt(eps) of LAPACK xLAQP2).
_DOWNDATE_TOL = math.sqrt(np.finfo(float).eps)


def _householder_qr_arrays(a: np.ndarray, pivot: bool = False):
    """QR of an m x n array (m >= n) at scale by Householder reflections.

    Returns (r, y, t): r is the n x n upper-triangular factor, and the
    reflectors are kept in compact WY form Q = I - Y T Y^T with
    Y m x n lower trapezoidal and T n x n upper triangular (Schreiber &
    Van Loan, SIAM J. Sci. Stat. Comput. 10(1), 1989), so Q is never
    formed and ``_reflect`` applies it or Q^T to a block in three matrix
    products.  Column j meets the first j reflectors as one such product
    (left-looking), then yields reflector j, v = x + sign(x_1) |x| e_1,
    which makes R_jj = -sign(x_1) |x|; ``householder_qr`` turns the
    diagonal nonnegative.  ``a`` comes at scale: divided by
    2^_binary_exponent(a), or orthonormal columns, so that squared norms
    stay in the float range; R is at that scale.

    With ``pivot`` the next column is always the one of largest remaining
    norm (Businger & Golub, Numer. Math. 7, 1965), A P = Q R, and a fourth
    value ``perm`` says that column k of R is column perm[k] of A.  Each
    new reflector meets all later columns at once (F = A^T Y), which gives
    the next row of R and downdates the remaining norms from it; a norm is
    recomputed once downdating has cancelled (Drmac & Bujanovic, ACM TOMS
    35(2), 2008, as LAPACK xGEQP3 does).
    """
    m, n = a.shape
    yt = np.zeros((n, m))  # row j is reflector j, zero before entry j
    t = np.zeros((n, n))
    r = np.zeros((n, n), order="F")
    if pivot:
        # Row k holds column k of A, f[k, i] = reflector i . column k, the
        # squared norm of the part of column k still left, and the floor
        # below which that has cancelled; one swap moves them all, through
        # the spare row n.
        work = np.zeros((n + 1, m + n + 2))
        spare = work[n]
        cols, f = work[:n, :m], work[:n, m:m + n]
        left, floor = work[:n, m + n], work[:n, m + n + 1]
        cols[:] = a.T
        left[:] = np.einsum("ij,ij->i", cols, cols)
        np.multiply(left, _DOWNDATE_TOL, out=floor)
        perm = list(range(n))
    else:
        cols = np.ascontiguousarray(a.T)  # column j of A is row j
    for j in range(n):
        if pivot:
            p = j + int(left[j:].argmax())
            if p != j:
                spare[:] = work[j]
                work[j] = work[p]
                work[p] = spare
                perm[j], perm[p] = perm[p], perm[j]
        x = cols[j]
        if j:
            x = x - yt[:j].T @ (t[:j, :j].T @ (
                f[j, :j] if pivot else yt[:j] @ x))
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
        if pivot and j + 1 < n:
            f[j + 1:, j] = cols[j + 1:, j:] @ yt[j, j:]
            # Row j of R: entry j of Q^T a_k = a_k - Y T^T Y^T a_k.
            row = cols[j + 1:, j] - f[j + 1:, :j + 1] @ (
                t[:j + 1, :j + 1] @ yt[:j + 1, j])
            left[j + 1:] -= row * row
            # A zero column stays out: 0 < 0 fails.
            low = left[j + 1:] < floor[j + 1:]
            if np.count_nonzero(low):
                stale = j + 1 + np.flatnonzero(low)
                rest = cols[stale] - (f[stale, :j + 1] @ t[:j + 1, :j + 1]) \
                    @ yt[:j + 1]
                rest = rest[:, j + 1:]
                left[stale] = np.einsum("ij,ij->i", rest, rest)
                floor[stale] = _DOWNDATE_TOL * left[stale]
    return (r, yt.T, t, np.array(perm)) if pivot else (r, yt.T, t)


def _reflect(y: np.ndarray, t: np.ndarray, block: np.ndarray) -> np.ndarray:
    """(I - Y T Y^T) [block; 0]: Q, or Q^T for T^T, applied to ``block``
    padded with zero rows to the height of Y, so Y^T [block; 0] reads
    only the top rows of Y."""
    k = block.shape[0]
    out = y @ (t @ (y[:k].T @ block))
    np.subtract(block, out[:k], out=out[:k])
    np.negative(out[k:], out=out[k:])
    return out


def _square_q(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Q = I - Y T Y^T as one m x m array, formed in place.  Both products
    are ``np.einsum`` calls, not BLAS: each entry is summed over only n
    terms, in an order that the shapes fix, where a threaded BLAS rounds
    some entries differently with the number of threads.  0 - x, not -x,
    keeps a zero entry +0 as I - Y T Y^T does."""
    q = np.einsum("ik,kj->ij", y, np.einsum("kl,jl->kj", t, y))
    np.subtract(0.0, q, out=q)
    q.reshape(-1)[::q.shape[0] + 1] += 1.0
    return q


def householder_qr(a: Matrix) -> QrResult:
    """Full QR factorization of a tall (rows >= cols) matrix; RangeError
    when an entry of R is beyond the float range."""
    if a.rows < a.cols:
        raise DimensionError(
            f"householder_qr: need rows >= cols, got {a.rows} x {a.cols}")
    m, n = a.shape
    exponent = _binary_exponent(a.array)
    r, y, t = _householder_qr_arrays(np.ldexp(a.array, -exponent))
    r = _ldexp_in_range(r, exponent, "R")
    q = _square_q(y, t)
    # Sign convention: nonnegative diagonal of R.
    flip = np.flatnonzero(r.diagonal() < 0.0)
    r[flip] = -r[flip]
    q[:, flip] = -q[:, flip]
    return QrResult(q=Matrix(q),
                    r_upper=Matrix(np.vstack([r, np.zeros((m - n, n))])))


# ---------------------------------------------------------------------------
# One-sided Jacobi SVD


# _thin_svd preconditions inputs with at least _QR_MIN_COLS columns and
# at least _QR_MIN_SIZE entries: rows sorted, the pivoted QR A P = Q R,
# then sweeps on the n x n X = R^T (Drmac & Veselic, SIAM J. Matrix Anal.
# Appl. 29(4), 2008).  Alternating runs of both paths on the same Gaussian
# matrices (3-5 per shape, median time of sweeps on A over the
# preconditioned path, with U / without U, one BLAS thread): the QR, its
# row sort and U = Q [J; 0] cost more than they save at n = 5 for every m
# up to 5000 (0.58-0.74x / 0.69-0.88x) and at n = 6 up to m = 1000
# (0.69-0.83x / 0.80-0.91x).  From n = 7 on they pay from m n = 3400-7000:
# n = 7 0.83x at m = 600, 0.98x at 1000; n = 8 0.98x at 600, 1.10x at
# 1000; n = 10 0.93x at 200, 1.00-1.04x at 400-600; n = 12 0.98x at 480,
# 1.15x at 1000; n = 20 0.96x at 160; n = 30 0.92x at 120, 1.07x at 240;
# n = 44 0.96x at 88, 1.13x at 176; n = 60 1.01x at 60, 1.15x at 120.
# Every lib_small input (m n <= 1600) stays on A, where it is 5-10% faster.
_QR_MIN_COLS = 7
_QR_MIN_SIZE = 5000
# _thin_svd rotates a whole round of disjoint pairs at once on inputs with
# at least _ROUND_MIN_COLS columns, and pair by pair below that.
# Alternating runs of both on Gaussian m x n inputs, m from n to 40 n
# (9 per width, 7 runs each, median over the inputs of per-pair time over
# round time, with V / without): n = 3 0.58x / 0.59x (one pair a round),
# n = 4 1.15x / 1.16x, n = 5 1.04x / 1.05x (two pairs and a bye), n = 6
# 1.49x / 1.55x, n = 8 1.71x / 1.77x, n = 12 2.40x / 2.29x.
_ROUND_MIN_COLS = 4
# Rounds of fewer than _STEP_MIN_PAIRS pairs take their rotations pair by
# pair on floats and stop on a sweep that rotates nothing; larger ones take
# them on arrays, and each sweep ends in a Gram test and product steps.
# One round's rotations, arrays over floats (timeit, one BLAS thread, every
# pair / two pairs rotating): 7 pairs 1.27-1.40x / 1.67-1.75x, 8 1.15-1.23x
# / 1.62-1.89x, 9 1.06-1.18x / 1.51-1.91x.  _thin_svd, arrays over floats at
# 8-9 pairs (Gaussian, m = n to 12 n, alternating): n = 16-17 1.00-1.12x,
# n = 18-19 0.98-1.05x, against 0.98-1.02x at the unchanged n = 14-15.
_STEP_MIN_PAIRS = 8
# A product step is first order: it takes a pair's K_ij only while every
# pair's off-diagonal ratio, and |K_ij| itself, are at most _STEP_MAX.
# Without the ratio gate the steps undid the sweeps: 14-17 of 100 inputs
# at n = 16-64 (rows graded to 1e-30, or 1e-14 conditioning) did not
# converge in 60 sweeps and steps; with it, as without steps, all did.
_STEP_MAX = 0.5
# Newton-Schulz steps in _skew_exp end once max|J^T J - I| <= n u, which
# took at most 2 on lib_wide (seeds 1-3); the bound only stops a loop that
# rounding would keep above n u.
_SCHULZ_MAX_STEPS = 8


def _gram_test(w: np.ndarray):
    """(gram, ratio): the Gram product G = W W^T of the rows of W, and
    |g_ij| / (sqrt(g_ii) sqrt(g_jj)) for i != j, 0 on the diagonal.  A row
    whose squared norm g_ii is at most _FLUSH2 is set to zero in W, and
    its row and column in G, so its ratios are 0: a pair fails the
    orthogonality criterion iff its ratio exceeds JACOBI_OFFDIAG_TOL."""
    gram = w @ w.T
    diag = gram.diagonal()
    norms = np.sqrt(diag)
    dead = diag <= _FLUSH2
    if np.count_nonzero(dead):
        w[dead] = 0.0
        gram[dead] = 0.0
        gram[:, dead] = 0.0
        norms[dead] = 1.0
    ratio = np.abs(gram)
    ratio /= np.multiply.outer(norms, norms)
    ratio.reshape(-1)[::len(ratio) + 1] = 0.0
    return gram, ratio


def _tangent(alpha: float, beta: float, gamma: float) -> float:
    """tan of the Jacobi rotation that makes columns with squared norms
    alpha, beta and inner product gamma orthogonal.

    t = 2 gamma / (d + sign(d) hypot(d, 2 gamma)) with d = beta - alpha is
    the smaller root of t^2 + 2 zeta t - 1 = 0, zeta = d / (2 gamma), that
    is sign(zeta) / (|zeta| + sqrt(1 + zeta^2)) (Rutishauser), without
    forming zeta: |t| <= 1 and hypot does not overflow.  ``_rotate_pairs``
    and the rounds of fewer than _STEP_MIN_PAIRS pairs call it pair by
    pair; larger rounds compute the same expression on arrays.
    """
    d = beta - alpha
    return 2.0 * gamma / (d + math.copysign(math.hypot(d, 2.0 * gamma), d))


def _rotate_pairs(views) -> bool:
    """One pass over the pairs of ``views``, one pair at a time in the order
    given, each pair's inner products and rotation one matrix product
    apiece; returns whether a pair rotated.

    A view is (pair, w_pair): two rows of ``work`` and their columns of W.
    A column with squared norm at most _FLUSH2 is set to zero."""
    rot = np.empty((2, 2))
    rotated = False
    for pair, w_pair in views:
        (alpha, gamma), (_, beta) = (w_pair @ w_pair.T).tolist()
        if alpha <= _FLUSH2 or beta <= _FLUSH2:
            # gamma of a flushed column is 0: the pair stays as is.
            if alpha <= _FLUSH2:
                w_pair[0] = 0.0
            if beta <= _FLUSH2:
                w_pair[1] = 0.0
            continue
        # sqrt(a)*sqrt(b), not sqrt(a*b): the product can underflow.
        bound = JACOBI_OFFDIAG_TOL * math.sqrt(alpha) * math.sqrt(beta)
        if abs(gamma) <= bound:
            continue
        rotated = True
        t = _tangent(alpha, beta, gamma)
        c = 1.0 / math.hypot(1.0, t)
        s = c * t
        rot[0, 0] = rot[1, 1] = c
        rot[0, 1], rot[1, 0] = -s, s
        pair[...] = rot @ pair
    return rotated


def _jacobi_pairs(work: np.ndarray, m: int) -> bool:
    """Cyclic sweeps: ``_rotate_pairs`` over the pairs (i, j), i < j, in
    row order.  Row k of ``work`` is column k of W in its first m entries
    and, in the rest, column k of a matrix that takes the same rotations,
    as for ``_jacobi_rounds``.  Returns whether a sweep within the budget
    confirmed every pair."""
    n = work.shape[0]
    # Rows i and j of every pair, and their columns of W, viewed once.
    views = [(pair, pair[:, :m]) for pair in (
        work[i:j + 1:j - i] for i in range(n - 1) for j in range(i + 1, n))]
    for _ in range(JACOBI_MAX_SWEEPS):
        if not _rotate_pairs(views):
            return True
    return False


@functools.cache
def _round_robin(n: int):
    """(order, shift): the tables of round-robin sweeps on n columns,
    computed once per width from ring positions and read-only.

    Rows 2k and 2k+1 of a round hold the positions k and M-k of s = n + n % 2
    seats, M = s - 1 odd; position p holds column p - n % 2 in the first
    round, so odd n seats a virtual column, whose row is left out, at 0.
    ``order[i]`` is the row of ``work`` that row i holds in the first round
    of every sweep.  Position 0 stays and positions 1..M move on by one a
    round, so row i of the next round is row ``shift[i]`` of this one; after
    M rounds every column has met every other once and the rows are back in
    their first order.
    """
    bye = n % 2
    ring = n + bye - 1
    pos = np.empty(ring + 1, dtype=np.intp)  # the position row i holds
    pos[0::2] = np.arange((ring + 1) // 2)
    pos[1::2] = ring - pos[0::2]
    came_from = np.where(pos > 0, (pos - 2) % ring + 1, 0)
    shift = np.argsort(pos)[came_from][bye:] - bye
    order = pos[bye:] - bye
    for table in (order, shift):
        table.flags.writeable = False
    return order, shift


@functools.cache
def _step_tables(n: int):
    """(eye, upper): the n x n identity and the mask of the pairs i < j
    that the product steps on n columns read, made once per width and
    read-only."""
    tables = np.eye(n), np.triu(np.ones((n, n), dtype=bool), 1)
    for table in tables:
        table.flags.writeable = False
    return tables


def _float_rotations(gram: list, w_pairs: np.ndarray,
                     rot: np.ndarray) -> int:
    """The rotations of a round of fewer than _STEP_MIN_PAIRS pairs into
    ``rot``, pair by pair on floats; returns how many pairs rotate.

    ``gram[k]`` is the 2 x 2 Gram matrix [[alpha, gamma], [gamma, beta]],
    as nested lists, of the two columns of W in ``w_pairs[k]``; ``rot[k]``
    becomes the pair's rotation [[c, -s], [s, c]], the identity for a
    pair below the criterion, and ``rot`` is left as it is when no pair
    rotates.  A column with squared norm at most _FLUSH2 is set to zero.
    """
    entries, rotated = [], 0
    for k, ((alpha, gamma), (_, beta)) in enumerate(gram):
        if alpha <= _FLUSH2 or beta <= _FLUSH2:
            # gamma of a flushed column is 0: the pair stays as is.
            if alpha <= _FLUSH2:
                w_pairs[k, 0] = 0.0
            if beta <= _FLUSH2:
                w_pairs[k, 1] = 0.0
            entries += (1.0, 0.0, 0.0, 1.0)
        # sqrt(a)*sqrt(b), not sqrt(a*b): the product can underflow.
        elif abs(gamma) <= (JACOBI_OFFDIAG_TOL * math.sqrt(alpha)
                            * math.sqrt(beta)):
            entries += (1.0, 0.0, 0.0, 1.0)
        else:
            t = _tangent(alpha, beta, gamma)
            c = 1.0 / math.hypot(1.0, t)
            s = c * t
            entries += (c, -s, s, c)
            rotated += 1
    if rotated:
        rot.reshape(-1)[:] = entries
    return rotated


def _array_rotations(h: int):
    """The rotations of rounds of h >= _STEP_MIN_PAIRS pairs on arrays:
    returns the function (w_pairs, rot) -> the number of pairs that
    rotate, which fills ``rot`` as ``_float_rotations`` does but leaves
    the columns of squared norm at most _FLUSH2 to the Gram test that
    ends the sweep.  It writes ``rot`` even when no pair rotates (every
    entry the identity then); ``_jacobi_rounds`` reads ``rot`` only after
    a positive count.

    The Gram entries come from two ``np.vecdot`` calls and the criterion
    and ``_tangent`` run on arrays, every step into arrays allocated here
    once.  ``_jacobi_rounds`` calls this once per call, so concurrent and
    nested calls share none.  alpha and beta are rows of one 2 x h array.
    """
    squares, norms = np.empty((2, 2, h))
    alpha, beta = squares
    by_pair = squares.T
    norms0, norms1 = norms
    gamma, bound, abs_gamma, d, g2, den = np.empty((6, h))
    moves = np.empty(h, dtype=bool)
    # [[1, -t], [t, 1]] per pair: the unit diagonal is set once.
    turn = np.empty((h, 2, 2))
    turn[:, 0, 0] = turn[:, 1, 1] = 1.0
    t, minus_t = turn[:, 1, 0], turn[:, 0, 1]
    hyp = np.empty((h, 1, 1))
    hyp_flat = hyp.reshape(h)

    def rotations(w_pairs: np.ndarray, rot: np.ndarray) -> int:
        np.vecdot(w_pairs, w_pairs, out=by_pair)
        np.vecdot(w_pairs[:, 0], w_pairs[:, 1], out=gamma)
        np.sqrt(squares, out=norms)
        np.multiply(norms0, norms1, out=bound)
        np.multiply(JACOBI_OFFDIAG_TOL, bound, out=bound)
        np.greater(np.abs(gamma, out=abs_gamma), bound, out=moves)
        count = int(np.count_nonzero(moves))
        np.subtract(beta, alpha, out=d)
        np.add(gamma, gamma, out=g2)
        np.copysign(np.hypot(d, g2, out=den), d, out=den)
        np.add(d, den, out=den)
        # t = 0 for the pairs that do not move; dividing [[1, -t], [t, 1]]
        # by hypot(1, t) makes it the rotation [[c, -s], [s, c]].
        if count < h:
            t.fill(0.0)
            np.divide(g2, den, out=t, where=moves)
        else:  # most rounds: every pair moves
            np.divide(g2, den, out=t)
        np.negative(t, out=minus_t)
        np.hypot(1.0, t, out=hyp_flat)
        np.divide(turn, hyp, out=rot)
        return count

    return rotations


def _skew_exp(k: np.ndarray) -> np.ndarray:
    """An orthogonal J that agrees with exp(K) up to the K^4 term, for a
    skew K (Ogita & Aishima, Japan J. Indust. Appl. Math. 35, 2018 and 37,
    2020), from matrix products alone.

    K is scaled by 2^-s so that ||K||_F <= 1/4, its exponential taken to
    the K^4 term of the Taylor series (the rest is below 1e-5), and
    squared s times; Newton-Schulz steps J <- J - J (J^T J - I) / 2 then
    make J orthogonal to n u (unit roundoff u).  ``k`` is scaled in place.
    """
    n = len(k)
    eye = _step_tables(n)[0]
    s = max(0, math.frexp(math.sqrt(np.vdot(k, k)))[1] + 2)
    np.ldexp(k, -s, out=k)
    j = eye + k / 4.0
    for c in (3.0, 2.0, 1.0):  # Horner: I + K (I + K/2 (I + K/3 (I + K/4)))
        j = (k @ j) / c + eye
    for _ in range(s):
        j = j @ j
    limit = n * np.finfo(float).eps / 2
    for _ in range(_SCHULZ_MAX_STEPS):
        e = j.T @ j - eye
        if np.abs(e).max() <= limit:
            break
        j = j - (j @ e) * 0.5
    return j


def _jacobi_rounds(work: np.ndarray, m: int) -> bool:
    """Round-robin sweeps (Brent & Luk, SIAM J. Sci. Stat. Comput. 6(1),
    1985): n-1 rounds of n/2 disjoint pairs (n rounds of (n-1)/2 for odd
    n), each round in a few numpy calls; on rounds of many pairs, each
    sweep is followed by product steps.  Returns whether the sweeps
    confirmed every pair within the budget.

    The rows of ``work`` are reordered such that rows 2k and 2k+1 are
    pair k of the round; one matrix product rotates them all.  Disjoint
    pairs commute, so a round is the same as rotating its pairs one by
    one; a pair below the criterion gets t = 0, the identity.  Odd n
    seats a virtual zero column in seat 0, which never moves: its pair,
    the bye, is left out, so the pairs start at row 1.  Needs n >= 3.  A
    round of fewer than _STEP_MIN_PAIRS pairs takes its Gram matrices in
    one ``np.vecdot`` call and its rotations from ``_float_rotations``;
    the sweeps stop after a sweep that rotates nothing.

    Larger rounds take theirs from ``_array_rotations``, and the sweeps do
    not spend sweeps on the last digits: each, quiet or not, ends in
    ``_gram_test``, one Gram product G = W W^T of the swept columns that
    zeroes those of g_ii at most _FLUSH2 (nothing else zeroes them on
    these rounds); the largest off-diagonal ratio of the others decides.
    The sweeps stop when no pair fails.  Otherwise K_ij = g_ij /
    (g_jj - g_ii) is the skew first-order rotation
    that makes every pair orthogonal at once (Ogita & Aishima), and one
    product with J = ``_skew_exp(K)`` moves the whole of ``work``, W and
    the columns that follow it: a product step.  The first order is no
    guide while some pair is far from orthogonal, or for a pair with
    near-tied norms: while some ratio exceeds _STEP_MAX, a full sweep
    comes next; otherwise K leaves out the entries |K_ij| > _STEP_MAX,
    and ``_rotate_pairs`` then takes the failing pairs left out where
    they sit, in row order.  The Gram test comes again, unless that pass
    rotated nothing and no step was taken.  A step with its pass, or a
    pass alone, counts toward the budget as a sweep does; a Gram test
    costs nothing, so the last unit can still converge.
    """
    n, width = work.shape
    seats = n + n % 2
    bye = n % 2
    h = seats // 2 - bye
    order, shift = _round_robin(n)
    # Two buffers, each with its views: all rows, the pairs, the pairs'
    # columns of W, and those set up to broadcast to 2 x 2 Gram matrices.
    buffers = []
    for rows in (work[order], np.empty((n, width))):
        pairs = rows[bye:].reshape(h, 2, width)
        w_pairs = pairs[:, :, :m]
        buffers.append((rows, pairs, w_pairs, w_pairs[:, :, None],
                        w_pairs[:, None]))
    cur, nxt = buffers
    few = h < _STEP_MIN_PAIRS
    rot = np.empty((h, 2, 2))
    rotations = None if few else _array_rotations(h)
    budget = JACOBI_MAX_SWEEPS
    converged = False
    while budget and not converged:
        budget -= 1
        rotated = False
        for _ in range(seats - 1):
            rows, pairs, w_pairs, left, right = cur
            if (_float_rotations(np.vecdot(left, right).tolist(), w_pairs, rot)
                    if few else rotations(w_pairs, rot)):
                rotated = True
                np.matmul(rot, pairs, out=nxt[1])
                if bye:
                    nxt[0][0] = rows[0]
                cur, nxt = nxt, cur
            # mode="clip" spares the buffered copy that "raise" makes for
            # ``out``; every index of ``shift`` is in range.
            cur[0].take(shift, 0, nxt[0], "clip")
            cur, nxt = nxt, cur
        converged = few and not rotated
        # Gram tests, product steps and passes over the pairs left out.
        while not (few or converged):
            gram, ratio = _gram_test(cur[0][:, :m])
            largest = float(ratio.max())
            converged = largest <= JACOBI_OFFDIAG_TOL
            if converged or not budget or largest > _STEP_MAX:
                break
            budget -= 1
            fails = ratio > JACOBI_OFFDIAG_TOL
            diag = gram.diagonal()
            with np.errstate(divide="ignore", invalid="ignore"):
                k = gram / (diag - diag[:, None])
            # False on the diagonal (g_ii / 0), between zeroed columns.
            small = np.abs(k) <= _STEP_MAX
            stepped = (fails & small).any()
            left_out = ~small
            if stepped:
                k[left_out] = 0.0
                np.matmul(_skew_exp(k).T, cur[0], out=nxt[0])
                cur, nxt = nxt, cur
            rows = cur[0]
            fails &= left_out
            fails &= _step_tables(n)[1]  # the pairs i < j
            views = [(pair, pair[:, :m]) for pair in (
                rows[i:j + 1:j - i] for i, j in zip(*fails.nonzero()))]
            converged = not (_rotate_pairs(views) or stepped)
    work[order] = cur[0]
    return converged


def _complete_orthonormal(u_cols: np.ndarray) -> np.ndarray:
    """Extend the m x q orthonormal ``u_cols`` to an m x m orthogonal
    matrix.

    The completion comes from the Householder Q of the given block, which
    reproduces the block itself (up to roundoff) in its leading columns;
    those are replaced by the exact input columns.
    """
    _, y, t = _householder_qr_arrays(u_cols)
    full = _square_q(y, t)
    full[:, :u_cols.shape[1]] = u_cols
    return full


def _apply_sign_rule(v: np.ndarray, u) -> None:
    """In place: make the largest-magnitude entry (lowest index on ties) of
    each column of ``v`` nonnegative, negating the paired ``u`` column
    (if ``u`` is not None)."""
    if not v.size:
        return
    pivot = np.abs(v).argmax(axis=0)
    flip = v.T[np.arange(v.shape[1]), pivot] < 0.0
    if np.logical_or.reduce(flip):
        v[:, flip] = -v[:, flip]
        if u is not None:
            paired = flip[:u.shape[1]]
            u[:, paired] = -u[:, paired]


def _thin_svd(a: np.ndarray, with_u: bool = True):
    """Thin SVD (u, s, v) of an m x n array with m >= n via one-sided Jacobi.

    u is m x n, or None unless ``with_u``; its columns for exactly zero
    singular values are unspecified (zero, or any orthonormal completion).
    Signs follow ``jacobi_svd``.  The solvers call this and never form an
    m x m U.  u and v are column-major like ``Matrix`` storage, so
    products with them round as products with the public factors do.

    An input with at least _QR_MIN_COLS columns and _QR_MIN_SIZE entries
    is preconditioned as Drmac & Veselic (SIAM J. Matrix Anal. Appl. 29(4),
    2008) do: rows sorted, it is factored A P = Q R by the pivoted QR, and
    the sweeps run on X = R^T.  X J = W with orthogonal columns gives
    V = P W / sigma and, only when asked for, U = Q [J; 0].  Smaller
    inputs are swept as they are, and W / sigma is formed there only
    when it is asked for, as U.  Sweeps and product steps that exhaust
    JACOBI_MAX_SWEEPS raise a ConvergenceError naming the path and the
    swept matrix, with the largest off-diagonal ratio left in W.  One
    column is its own SVD and takes no sweep: sigma = ||a||, V = [[1]]
    and U = a / sigma, zero for a zero column.
    """
    m, n = a.shape
    if n == 1:  # its own SVD
        exponent = _binary_exponent(a)
        w = np.ldexp(a.T, -exponent)
        sigma = np.sqrt(np.einsum("ij,ij->i", w, w))
        if with_u:  # a zero column stays zero
            np.divide(w, sigma, out=w, where=sigma > 0.0)
        return (w.T if with_u else None,
                _ldexp_in_range(sigma, exponent, "singular values"),
                np.ones((1, 1)))
    on_r = n >= _QR_MIN_COLS and m * n >= _QR_MIN_SIZE
    # Scaling keeps squared column norms away from overflow and underflow.
    if on_r:
        # Rows in decreasing max-norm order keep the QR accurate on rows of
        # very different scales (Cox & Higham, BIT 38(1), 1998).
        row_max = np.maximum.reduce(np.abs(a), axis=1)
        rows = (-row_max).argsort()
        # _binary_exponent(a), from the row maxima.
        exponent = math.frexp(float(np.maximum.reduce(row_max)))[1]
        work = a[rows]  # scaled in place, and freed once R replaces it
        r, y, t, perm = _householder_qr_arrays(
            np.ldexp(work, -exponent, out=work), pivot=True)
        # Row k: column k of X = R^T (row k of R), then column k of J.
        work = np.zeros((n, 2 * n)) if with_u else np.empty((n, n))
        work[:, :n] = r
        swept = n
    else:
        exponent = _binary_exponent(a)
        # Row k: column k of A, then column k of V.
        work = np.zeros((n, m + n))
        np.ldexp(a.T, -exponent, out=work[:, :m])
        swept = m
    if work.shape[1] > swept:  # J or V starts as the identity
        work.reshape(-1)[swept::work.shape[1] + 1] = 1.0
    # Round-robin from _ROUND_MIN_COLS columns on, pair by pair below.
    path = "rounds" if n >= _ROUND_MIN_COLS else "pairs"
    sweeps = _jacobi_rounds if path == "rounds" else _jacobi_pairs
    if not sweeps(work, swept):
        ratio = _gram_test(work[:, :swept])[1].max(initial=0.0)
        raise ConvergenceError(
            f"one-sided Jacobi SVD did not converge in {JACOBI_MAX_SWEEPS} "
            f"sweeps and product steps ({path} on "
            f"{'R^T' if on_r else 'A'}; largest off-diagonal ratio "
            f"{ratio:.17g} vs JACOBI_OFFDIAG_TOL {JACOBI_OFFDIAG_TOL:g})")
    w = work[:, :swept]
    norms = np.sqrt(np.einsum("ij,ij->i", w, w))
    if on_r or with_u:  # W / sigma is V on R^T, U on A; zero stays zero
        np.divide(w, norms[:, None], out=w, where=norms[:, None] > 0.0)
    order = (-norms).argsort(kind="stable")
    scaled = norms[order]
    # Fancy-indexed rows, transposed: column-major factors.
    if on_r:
        v = work[order, :n].T
        live = int(np.count_nonzero(scaled))
        if live < n:  # zero columns of W leave zero columns of V
            v = np.asfortranarray(_complete_orthonormal(v[:, :live]))
        v[perm] = v.copy()
        u = work[order, n:].T if with_u else None  # J
    else:
        v = work[order, m:].T
        u = work[order, :m].T if with_u else None
    _apply_sign_rule(v, u)
    if on_r and with_u:
        j, u = u, np.empty((m, n), order="F")
        u[rows] = _reflect(y, t, j)  # Q [J; 0]
    return u, _ldexp_in_range(scaled, exponent, "singular values"), v


def jacobi_svd(a: Matrix) -> SvdResult:
    """Full SVD of any dense matrix by cyclic one-sided Jacobi rotations.

    Singular values come back in descending order.  Signs are made
    deterministic: in each column of V the entry of largest magnitude
    (lowest index on ties) is nonnegative, with the paired U column
    negated to compensate.  The thin factorization of A (or of A^T when
    A is wide) is completed to square factors from the columns of its
    nonzero singular values.
    """
    tall = a.rows >= a.cols
    u, s, v = _thin_svd(a.array if tall else a.array.T)
    nonzero = int(np.count_nonzero(s))
    full = _complete_orthonormal(u[:, :nonzero])
    if tall:
        return SvdResult(u=Matrix(full), sigma=Vector(s), v=Matrix(v))
    # A^T = U' S V'^T: V is the completed U', its completion signed too.
    _apply_sign_rule(full, v)
    return SvdResult(u=Matrix(v), sigma=Vector(s), v=Matrix(full))
