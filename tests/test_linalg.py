"""Kernel tests: containers, QR, Jacobi SVD, pseudo-inverse, truncation."""
import math
import os
import re
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tlsfit import (
    ConvergenceError,
    DimensionError,
    Matrix,
    Method,
    NoTlsSolutionError,
    RangeError,
    Vector,
    augment,
    householder_qr,
    jacobi_svd,
    solve_ols,
    solve_tls_multi,
    solve_tls_system,
)
from tlsfit import linalg
from tlsfit.linalg import (_QR_MIN_COLS, _QR_MIN_SIZE, _ROUND_MIN_COLS,
                           _STEP_MIN_PAIRS, _array_rotations, _binary_exponent,
                           _float_rotations, _jacobi_pairs, _jacobi_rounds,
                           _pinv, _tangent, _thin_svd, _truncate)
from tlsfit.tolerances import JACOBI_OFFDIAG_TOL
from oracles import (graded_known_sigma, steep_rows, sym_eigen_closed_form,
                     tied_known_sigma)

SQUARE_CORNERS = [[1, 1], [1, -1], [-1, 1], [-1, -1]]
# Augmented matrix whose null right-singular direction is the middle
# (zero) column, so its last component vanishes.
ZERO_COLUMN_AUG = [[1, 0, 1], [0, 0, 1], [0, 0, 1]]
ZERO_COLUMN_SIGMA = (math.sqrt(2 + math.sqrt(2)), math.sqrt(2 - math.sqrt(2)), 0.0)


def factors(svd):
    """The arrays (u, s, v) of a jacobi_svd result."""
    return svd.u.array, svd.sigma.array, svd.v.array


# ---------------------------------------------------------------------------
# containers


def test_matrix_rejects_non_finite():
    with pytest.raises(ValueError):
        Matrix([[1.0, float("nan")]])
    with pytest.raises(ValueError):
        Matrix([[1.0], [float("inf")]])
    with pytest.raises(ValueError):
        Vector([1.0, float("nan")])


def test_matrix_rejects_ragged():
    with pytest.raises(DimensionError):
        Matrix([[1.0, 2.0], [3.0]])


def test_matrix_column_major_data():
    m = Matrix([[1.0, 2.0], [3.0, 4.0]])
    assert m.rows == 2 and m.cols == 2
    assert list(m.array.ravel(order="K")) == [1.0, 3.0, 2.0, 4.0]
    assert m[0, 1] == 2.0


def test_matrix_is_immutable():
    m = Matrix([[1.0, 2.0]])
    with pytest.raises(ValueError):
        m.array[0, 0] = 7.0


def test_containers_are_immutable():
    """No attribute can be set, and the array is read-only."""
    for container in (Matrix([[1.0]]), Vector([1.0])):
        assert not hasattr(container, "__dict__")
        with pytest.raises(AttributeError):
            container.extra = 1
        with pytest.raises(AttributeError):
            container.array = np.zeros(1)
        with pytest.raises(ValueError):
            container.array[0] = 7.0


def test_container_reprs():
    assert repr(Matrix([[1.0, 2.0], [3.0, 4.5]])) == \
        "Matrix([[1.0, 2.0], [3.0, 4.5]])"
    assert repr(Matrix(np.zeros((2, 0)))) == "Matrix([[], []])"
    assert repr(Vector([1.0, -0.5])) == "Vector([1.0, -0.5])"
    assert repr(Vector([])) == "Vector([])"


def test_vector_validation_names_the_class():
    with pytest.raises(DimensionError,
                       match=re.escape("Vector: expected 1-dimensional data, "
                                       "got shape (1, 2)")):
        Vector([[1.0, 2.0]])
    with pytest.raises(ValueError,
                       match="^Vector: non-finite entries are not admitted$"):
        Vector([1.0, float("inf")])
    with pytest.raises(DimensionError, match="^Vector: entries do not form"):
        Vector(["a"])
    with pytest.raises(DimensionError,
                       match=re.escape("Matrix: expected 2-dimensional data, "
                                       "got shape (2,)")):
        Matrix([1.0, 2.0])


def test_vector_basics():
    v = Vector([3.0, 4.0])
    assert v.len == len(v) == 2
    assert v[1] == 4.0


# ---------------------------------------------------------------------------
# householder_qr


def test_qr_upper_triangular_fixed_point():
    a = np.array([[2.0, 1.0], [0.0, 3.0], [0.0, 0.0]])
    res = householder_qr(Matrix(a))
    assert np.array_equal(res.q.array, np.eye(3))
    assert np.array_equal(res.r_upper.array, a)


def test_qr_two_column_gram_schmidt_values():
    # Hand Gram-Schmidt of e=(1,1,1,1), x=(0,1,2,3):
    #   R11 = ||e|| = 2, R12 = e.x/||e|| = 3, R22 = ||x - 1.5 e|| = sqrt(5).
    res = householder_qr(Matrix([[1, 0], [1, 1], [1, 2], [1, 3]]))
    r = res.r_upper.array
    assert r[0, 0] == pytest.approx(2.0, abs=1e-12)
    assert r[0, 1] == pytest.approx(3.0, abs=1e-12)
    assert r[1, 1] == pytest.approx(math.sqrt(5.0), abs=1e-12)
    assert abs(r[1, 0]) == 0.0


def test_qr_random_invariants():
    rng = np.random.default_rng(13)
    for _ in range(50):
        m = int(rng.integers(1, 13))
        n = int(rng.integers(1, m + 1))
        a = rng.standard_normal((m, n))
        res = householder_qr(Matrix(a))
        q, r = res.q.array, res.r_upper.array
        assert np.linalg.norm(q.T @ q - np.eye(m)) <= 1e-12 * m
        assert np.linalg.norm(q @ r - a) <= 1e-12 * max(1.0, np.linalg.norm(a))
        assert np.array_equal(r, np.triu(r))
        assert all(r[i, i] >= 0.0 for i in range(n))


def test_qr_rejects_wide():
    with pytest.raises(DimensionError):
        householder_qr(Matrix([[1.0, 2.0, 3.0]]))


def test_qr_beyond_the_float_range_raises_range_error():
    """Columns with norms near 2.9e308 give an R beyond the float range:
    a RangeError, as jacobi_svd raises on the same matrix, and no
    overflow."""
    a = Matrix([[1.7e308, -1.7e308], [1.7e308, 1.7e308], [-1.7e308, 1e308]])
    with pytest.raises(RangeError, match="^R beyond the float range"):
        householder_qr(a)
    with pytest.raises(RangeError):
        jacobi_svd(a)


@pytest.mark.parametrize("shape", [(300, 7), (1000, 3), (640, 20)])
def test_qr_tall_invariants(shape):
    """The compact-WY kernel on tall inputs, with a zero column, a
    duplicated column and a column near 1e-160 of the largest entry:
    Q^T Q = I and Q R = A within the criterion-7 bounds, R triangular with
    nonnegative diagonal."""
    m, n = shape
    rng = np.random.default_rng(m + n)
    a = rng.standard_normal((m, n)) * rng.uniform(0.5, 5.0, n)
    a[:, 1] = 0.0
    a[:, -1] = a[:, 0]
    a[:, 2] *= 1e-160
    res = householder_qr(Matrix(a))
    q, r = res.q.array, res.r_upper.array
    assert np.linalg.norm(q.T @ q - np.eye(m)) <= 1e-12 * m
    assert np.linalg.norm(q @ r - a) <= 1e-12 * max(1.0, np.linalg.norm(a))
    assert np.array_equal(r, np.triu(r)) and np.all(r.diagonal() >= 0.0)


@pytest.mark.parametrize("shape", [(40, 12), (250, 60)])
def test_pivoted_qr_arrays(shape):
    """The pivoted QR on columns scaled by a permuted geomspace, with an
    exactly zero column, a duplicated column and a column equal to another
    plus 1e-9 noise: once its twin is taken, the downdated norm of each of
    the last two falls below its floor and is recomputed.  ``perm`` is a
    permutation, R is upper triangular with |R_jj| not increasing, and
    A[:, perm] = Q R to 1e-14 ||A||."""
    m, n = shape
    rng = np.random.default_rng(m)
    a = rng.standard_normal((m, n)) * rng.permutation(
        np.geomspace(1.0, 1e-6, n))
    a[:, 1] = 0.0
    a[:, 3] = a[:, 5]
    a[:, 4] = a[:, 6] + 1e-9 * rng.standard_normal(m)
    a = np.ldexp(a, -linalg._binary_exponent(a))
    r, y, t, perm = linalg._householder_qr_arrays(a, pivot=True)
    assert np.array_equal(np.sort(perm), np.arange(n))
    assert np.array_equal(r, np.triu(r))
    diagonal = np.abs(r.diagonal())
    assert np.all(diagonal[1:] <= diagonal[:-1])
    q = linalg._reflect(y, t, np.eye(n))
    assert np.linalg.norm(a[:, perm] - q @ r) <= 1e-14 * np.linalg.norm(a)


def test_square_factors_do_not_depend_on_blas_threads():
    """The square factors of both public kernels at 834 x 6, where a
    product on OpenBLAS threads rounded entries of the last columns
    differently, have the same bytes with one and with four threads."""
    code = ("import hashlib, numpy as np, tlsfit as tl; "
            "rng = np.random.default_rng(840); "
            "a = tl.Matrix(rng.standard_normal((834, 6)) "
            "* rng.uniform(0.5, 5.0, 6)); "
            "print(*(hashlib.sha256(m.array.tobytes()).hexdigest() for m in "
            "(tl.householder_qr(a).q, tl.jacobi_svd(a).u)))")
    digests = {subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env={**os.environ, "OPENBLAS_NUM_THREADS": threads}
    ).stdout for threads in ("1", "4")}
    assert len(digests) == 1


# ---------------------------------------------------------------------------
# jacobi_svd


def assert_svd_invariants(a, svd):
    m, n = a.shape
    u, s, v = svd.u.array, svd.sigma.array, svd.v.array
    k = min(m, n)
    assert u.shape == (m, m) and v.shape == (n, n) and s.shape == (k,)
    assert np.all(s >= 0.0)
    assert np.all(np.diff(s) <= 0.0)
    assert np.linalg.norm(u.T @ u - np.eye(m)) <= 1e-12 * m
    assert np.linalg.norm(v.T @ v - np.eye(n)) <= 1e-12 * n
    recon = (u[:, :k] * s) @ v[:, :k].T
    assert np.linalg.norm(recon - a) <= 1e-11 * max(1.0, np.linalg.norm(a))


def test_svd_diagonal():
    svd = jacobi_svd(Matrix([[3.0, 0.0], [0.0, 1.0]]))
    assert np.array_equal(svd.sigma.array, [3.0, 1.0])
    assert np.array_equal(svd.u.array, np.eye(2))
    assert np.array_equal(svd.v.array, np.eye(2))


def test_svd_square_corners_equal_singular_values():
    svd = jacobi_svd(Matrix(SQUARE_CORNERS))
    np.testing.assert_allclose(svd.sigma.array, [2.0, 2.0], rtol=0, atol=1e-12)
    assert_svd_invariants(np.array(SQUARE_CORNERS, dtype=float), svd)


def test_svd_zero_column_augmented():
    svd = jacobi_svd(Matrix(ZERO_COLUMN_AUG))
    np.testing.assert_allclose(svd.sigma.array, ZERO_COLUMN_SIGMA,
                               rtol=0, atol=1e-12)
    # Null right singular vector with the sign convention applied.
    np.testing.assert_allclose(svd.v.array[:, 2], [0.0, 1.0, 0.0],
                               rtol=0, atol=1e-12)


def test_svd_random_invariants_all_shapes():
    rng = np.random.default_rng(14)
    for trial in range(200):
        m = int(rng.integers(1, 21))
        n = int(rng.integers(1, 11))
        a = rng.standard_normal((m, n))
        if trial % 4 == 1:
            a = a.T  # exercise the wide branch
        if trial % 4 == 2:
            r = int(rng.integers(0, min(a.shape) + 1))
            a = rng.standard_normal((a.shape[0], r)) @ \
                rng.standard_normal((r, a.shape[1]))
        assert_svd_invariants(a, jacobi_svd(Matrix(a)))


def test_svd_energy_identity():
    rng = np.random.default_rng(15)
    for _ in range(50):
        a = rng.standard_normal((int(rng.integers(2, 15)),
                                 int(rng.integers(2, 9))))
        svd = jacobi_svd(Matrix(a))
        fro2 = np.linalg.norm(a) ** 2
        assert np.sum(svd.sigma.array ** 2) == pytest.approx(fro2, rel=1e-10)


def test_svd_matches_closed_form_eigenvalues():
    rng = np.random.default_rng(16)
    for _ in range(100):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(n, 7))
        a = rng.uniform(-10.0, 10.0, size=(m, n))
        svd = jacobi_svd(Matrix(a))
        eigs = sym_eigen_closed_form(Matrix(a.T @ a)).array
        np.testing.assert_allclose(svd.sigma.array,
                                   np.sqrt(np.maximum(eigs, 0.0)),
                                   rtol=0, atol=1e-9)


def test_svd_sign_convention():
    rng = np.random.default_rng(17)
    for _ in range(30):
        a = rng.standard_normal((6, 4))
        v = jacobi_svd(Matrix(a)).v.array
        for j in range(4):
            assert v[np.argmax(np.abs(v[:, j])), j] >= 0.0


def test_svd_deterministic():
    rng = np.random.default_rng(18)
    a = rng.standard_normal((7, 4))
    s1 = jacobi_svd(Matrix(a))
    s2 = jacobi_svd(Matrix(a.copy()))
    assert np.array_equal(s1.u.array, s2.u.array)
    assert np.array_equal(s1.sigma.array, s2.sigma.array)
    assert np.array_equal(s1.v.array, s2.v.array)


@settings(max_examples=60, deadline=None)
@given(
    a=st.integers(1, 8).flatmap(lambda m: st.integers(1, 8).flatmap(
        lambda n: arrays(np.float64, (m, n),
                         elements=st.floats(-1e6, 1e6, allow_nan=False)))))
def test_svd_invariants_hypothesis(a):
    assert_svd_invariants(a, jacobi_svd(Matrix(a)))


@st.composite
def lapack_cases(draw, max_cols=40, min_ratio=1, max_ratio=3, min_cols=1):
    """Tall m x n Gaussian matrices with column scales over one decade, n
    on both sides of the round-robin cutoff; a quarter each with a zero
    column, a duplicated column, or a column whose squared norm the
    sweeps flush to zero."""
    n = draw(st.integers(min_cols, max_cols))
    m = draw(st.integers(min_ratio * n, max_ratio * n))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.standard_normal((m, n)) * rng.uniform(0.5, 5.0, n)
    kind = draw(st.sampled_from(["plain", "zero column", "duplicated column",
                                 "tiny column"]))
    i, j = rng.choice(n, 2, replace=False) if n > 1 else (0, 0)
    if kind == "zero column":
        a[:, i] = 0.0
    elif kind == "duplicated column":
        a[:, j] = a[:, i]
    elif kind == "tiny column":
        a[:, i] *= 1e-170
    return a


@settings(max_examples=50, deadline=None)
@given(a=lapack_cases())
def test_svd_matches_lapack(a):
    """LAPACK differential: sigma within 1e-13 sigma_1 of np.linalg.svd,
    and each right singular vector equal up to sign where both of its
    neighbouring gaps exceed 1e-6 sigma_1."""
    _, s_ref, vt_ref = np.linalg.svd(a)
    gaps = np.abs(np.diff(s_ref, prepend=np.inf, append=np.inf))
    isolated = np.minimum(gaps[:-1], gaps[1:]) > 1e-6 * s_ref[0]
    svd = jacobi_svd(Matrix(a))
    for s, v in ((svd.sigma.array, svd.v.array), _thin_svd(a)[1:]):
        assert np.all(np.abs(s - s_ref) <= 1e-13 * s_ref[0])
        for k in np.flatnonzero(isolated):
            assert min(np.linalg.norm(v[:, k] - vt_ref[k]),
                       np.linalg.norm(v[:, k] + vt_ref[k])) <= 1e-8


def _check_thin_svd_against_lapack(a):
    """sigma within 1e-13 sigma_1 of np.linalg.svd, right singular vectors
    of isolated singular values equal up to sign, and the U columns of
    nonzero singular values orthonormal to 1e-13."""
    _, s_ref, vt_ref = np.linalg.svd(a, full_matrices=False)
    gaps = np.abs(np.diff(s_ref, prepend=np.inf, append=np.inf))
    isolated = np.minimum(gaps[:-1], gaps[1:]) > 1e-6 * s_ref[0]
    u, s, v = _thin_svd(a)
    assert np.all(np.abs(s - s_ref) <= 1e-13 * s_ref[0])
    for k in np.flatnonzero(isolated):
        assert min(np.linalg.norm(v[:, k] - vt_ref[k]),
                   np.linalg.norm(v[:, k] + vt_ref[k])) <= 1e-8
    live = u[:, s > 0.0]
    assert np.linalg.norm(live.T @ live - np.eye(live.shape[1])) <= 1e-13


@settings(max_examples=40, deadline=None)
@given(a=lapack_cases(max_cols=24, min_ratio=96, max_ratio=2 * 96))
def test_tall_svd_matches_lapack(a):
    """LAPACK differential on inputs 96-192 times as tall as wide; those
    with at least _QR_MIN_COLS columns and _QR_MIN_SIZE entries take the
    preconditioner."""
    _check_thin_svd_against_lapack(a)


@settings(max_examples=25, deadline=None)
@given(a=lapack_cases(min_cols=16, max_cols=48, min_ratio=4, max_ratio=20))
def test_wide_aspect_svd_matches_lapack(a):
    """LAPACK differential at the aspect ratios of the lib_wide benchmark,
    m = 4n-20n with n = 16-48, where sweeps on A (m n < _QR_MIN_SIZE)
    and on R^T (the rest) both run."""
    _check_thin_svd_against_lapack(a)


def test_preconditioned_u_is_orthonormal():
    """U = Q [J; 0] keeps U orthonormal to rounding even where sigma falls
    to 1e-11 sigma_1, a value the rank rule keeps; recovering U as
    A V Sigma^-1 instead loses about 1e-5 there."""
    m, n = 2000, 10
    assert n >= _QR_MIN_COLS and m * n >= _QR_MIN_SIZE
    rng = np.random.default_rng(80)
    q, _ = np.linalg.qr(rng.standard_normal((m, n)))
    p, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = (q * np.geomspace(1.0, 1e-11, n)) @ p.T
    u, s, v = _thin_svd(a)
    assert linalg._rank(s) == n
    assert np.linalg.norm(u.T @ u - np.eye(n)) <= 1e-13
    assert np.linalg.norm((u * s) @ v.T - a) <= 1e-14 * s[0]


@pytest.mark.parametrize("zeros", [[3], [2, 5]])
def test_zero_singular_values_complete_v(zeros):
    """Exactly zero columns of A give exactly zero singular values.  On
    both paths (800 x 10 preconditioned, 40 x 6 swept as it is), with U
    or without, V is orthogonal and its zero-sigma columns span null(A);
    jacobi_svd's square factors stay valid."""
    rng = np.random.default_rng(84 + len(zeros))
    for m, n in ((800, 10), (40, 6)):
        a = rng.standard_normal((m, n))
        a[:, zeros] = 0.0
        live = n - len(zeros)
        for with_u in (True, False):
            u, s, v = _thin_svd(a, with_u)
            assert (u is not None) == with_u
            assert np.count_nonzero(s) == live
            assert np.linalg.norm(v.T @ v - np.eye(n)) <= 1e-13
            null = v[:, live:]
            assert np.linalg.norm(a @ null) <= 1e-14 * np.linalg.norm(a)
            assert np.linalg.matrix_rank(null) == len(zeros)
        assert_svd_invariants(a, jacobi_svd(Matrix(a)))


# One column, the shape of V22 in every p = 1 TLS split: 1 x 1 entries of
# each sign and zero, and m x 1 columns whose largest entry is negative,
# positive or that are zero.  Norms are exact: 5 = |(-3, 4)|, 13 = |(5, 12)|.
@pytest.mark.parametrize("column", [[-3.0], [2.5], [0.0],
                                    [3.0, 0.0, -4.0], [0.0, -5.0, 12.0],
                                    [0.0, 0.0, 0.0, 0.0]])
@pytest.mark.parametrize("with_u", [True, False])
def test_thin_svd_of_one_column(column, with_u):
    """sigma = ||a||, V = [[1]] and U = a / sigma, bit for bit; a zero
    column gives sigma = 0, V = [[1]] and a zero U column (the docstring's
    "unspecified" columns of U are zero on this path)."""
    a = np.array(column)[:, None]
    u, s, v = _thin_svd(a, with_u)
    norm = math.hypot(*column)
    assert s.tolist() == [norm]
    assert v.tolist() == [[1.0]]
    if not with_u:
        assert u is None
    elif norm:
        assert u.tolist() == [[x / norm] for x in column]
    else:
        assert not u.any()


@pytest.mark.parametrize("m", [1, 40])
def test_one_column_needs_no_sweeps(monkeypatch, m):
    """One column is its own SVD, read off without a sweep, with U or
    without: V = [[1]], sigma within 2 ulp of np.linalg.norm and exactly
    scaled by 2^+-1000, U sigma the column again, sigma = 0 for a zero
    column.  jacobi_svd of m x 1 and 1 x m (its transpose) needs no sweep
    either, and keeps orthogonal square factors and the sign rule."""
    def swept(*args):
        raise AssertionError("a one-column SVD ran the sweeps")

    monkeypatch.setattr(linalg, "_jacobi_pairs", swept)
    monkeypatch.setattr(linalg, "_jacobi_rounds", swept)
    a = np.random.default_rng(120 + m).standard_normal((m, 1)) * 3.0
    norm = np.linalg.norm(a)
    for with_u in (True, False):
        u, s, v = _thin_svd(a, with_u)
        assert v.tolist() == [[1.0]]
        assert s.shape == (1,) and abs(s[0] - norm) <= 2 * np.spacing(norm)
        for k in (1000, -1000):
            assert _thin_svd(np.ldexp(a, k), with_u)[1] == np.ldexp(s, k)
        zero_u, zero_s, _ = _thin_svd(np.zeros((m, 1)), with_u)
        assert zero_s.tolist() == [0.0]
        if with_u:
            np.testing.assert_allclose(u * s, a, rtol=2 * np.finfo(float).eps,
                                       atol=0.0)
            assert not zero_u.any()
        else:
            assert u is None and zero_u is None
    for b in (a, a.T):
        svd = jacobi_svd(Matrix(b))
        assert_svd_invariants(b, svd)
        for q in (svd.u.array, svd.v.array):
            assert np.linalg.norm(q.T @ q - np.eye(len(q))) <= 1e-14
        v = svd.v.array
        for j in range(v.shape[1]):
            assert v[np.argmax(np.abs(v[:, j])), j] >= 0.0


def test_round_robin_tables_are_cached_read_only():
    """The round-robin tables are built once per width and cannot be
    written; sweeping the same input twice gives the same bits, and the
    tables are unchanged afterwards.  So are the identity and the
    strict-upper mask of the product steps."""
    for n in (4, 5, 12, 29):
        tables = linalg._round_robin(n)
        assert linalg._round_robin(n) is tables
        kept = [table.copy() for table in tables]
        for table in tables:
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 0
        a = np.random.default_rng(n).standard_normal((3 * n, n))
        swept = []
        for _ in range(2):
            work = np.hstack([a.T, np.eye(n)])
            assert _jacobi_rounds(work, 3 * n)
            swept.append(work)
        assert np.array_equal(swept[0], swept[1])
        for table, copy in zip(tables, kept):
            assert np.array_equal(table, copy)
    for n in (2 * _STEP_MIN_PAIRS, 31):
        eye, upper = tables = linalg._step_tables(n)
        assert linalg._step_tables(n) is tables
        assert not eye.flags.writeable and not upper.flags.writeable
        assert np.array_equal(eye, np.eye(n))
        assert np.array_equal(upper, np.triu(np.ones((n, n), bool), 1))


def test_round_robin_meetings_follow_a_simulated_sweep():
    """For every width 4-64, and 97, 128 and 129, stepping ``order``
    through ``shift`` round by round seats every pair of columns together
    in exactly one round of a sweep and ends back in the first order."""
    for n in [*range(4, 65), 97, 128, 129]:
        order, shift = linalg._round_robin(n)
        bye = n % 2
        met = set()
        cols = order
        for _ in range(n - 1 + bye):
            for c, d in zip(cols[bye::2].tolist(), cols[bye + 1::2].tolist()):
                assert (c, d) not in met and (d, c) not in met
                met.add((c, d))
            cols = cols[shift]
        assert len(met) == n * (n - 1) // 2
        assert np.array_equal(cols, order)


def test_tangent_matches_the_zeta_form():
    """The rotation's t = 2 gamma / (d + sign(d) hypot(d, 2 gamma)) agrees
    to 4 ulps with Rutishauser's sign(zeta) / (|zeta| + sqrt(1 + zeta^2)),
    zeta = (beta - alpha) / (2 gamma), and with 1 / (2 zeta) where
    |zeta| > 1e150 would overflow zeta^2: over random alpha, beta and
    |gamma| <= sqrt(alpha beta), over gamma just above the criterion, and
    over |zeta| up to 1e200."""
    def zeta_form(alpha, beta, gamma):
        zeta = (beta - alpha) / (2.0 * gamma)
        if abs(zeta) > 1e150:
            return 0.5 / zeta
        return math.copysign(1.0, zeta) / (abs(zeta)
                                           + math.sqrt(1.0 + zeta * zeta))

    rng = np.random.default_rng(85)
    cases = []
    for _ in range(2000):
        alpha, beta = 10.0 ** rng.uniform(-150, 2, 2)
        bound = math.sqrt(alpha) * math.sqrt(beta)
        cases.append((alpha, beta, bound * rng.uniform(-1.0, 1.0)))
        cases.append((alpha, beta, JACOBI_OFFDIAG_TOL * bound
                      * (1.0 + 1e-9 * rng.uniform())))
        cases.append((1.0, 1.0 + 10.0 ** rng.uniform(-15, 0),
                      10.0 ** -rng.uniform(150, 200)))
    huge = 0
    for alpha, beta, gamma in cases:
        expected = zeta_form(alpha, beta, gamma)
        huge += abs((beta - alpha) / (2.0 * gamma)) > 1e150
        assert abs(_tangent(alpha, beta, gamma) - expected) \
            <= 4 * np.spacing(abs(expected))
    assert huge > 100


def _pair_sweep_sigma(a):
    work = np.array(a.T)
    _jacobi_pairs(work, a.shape[0])
    return np.sort(np.linalg.norm(work, axis=1))[::-1]


def _graded_shapes(rng):
    """Six draws 96-192 times as tall as wide with n = 5-16, most of them
    preconditioned, then four preconditioned ones at the lib_wide aspect
    ratios, m = 4n-20n with n = 24-40."""
    for _ in range(6):
        n = int(rng.integers(5, 17))
        yield int(rng.integers(96 * n, 2 * 96 * n)), n
    for _ in range(4):
        n = int(rng.integers(24, 41))
        m = int(rng.integers(max(4 * n, -(-_QR_MIN_SIZE // n)), 20 * n + 1))
        yield m, n


# Known-answer shapes: the per-pair loop (n = 3), rounds on A with few
# pairs (n = 4-6, 12), rounds on R^T with few pairs (n = 8, 16, 28, 29)
# and with many (n = 40, and 250 x 60, the widest shape of the lib_wide
# benchmark workload, where the sweeps stop on the Gram test).
KNOWN_SIGMA_SHAPES = [(1500, 3), (800, 4), (600, 5), (400, 6), (1200, 8),
                      (200, 12), (1000, 16), (300, 28), (300, 29), (300, 40),
                      (250, 60)]


@pytest.mark.parametrize("grading", ["columns", "rows"])
def test_preconditioned_sweeps_keep_relative_accuracy(grading):
    """Demmel & Veselic (SIAM J. Matrix Anal. Appl. 13(4), 1992): one-sided
    Jacobi on A = B D (columns scaled down to 1e-30) or A = D B (rows
    scaled from 1 to 1e-30, in random order) gets every singular value to
    high relative accuracy.  Sweeping R^T of the pivoted QR instead
    agrees with the per-pair sweeps on A itself to 1e-13 relative on
    every sigma.  On column-graded A = Q D with known singular values
    (``graded_known_sigma``), every path gets them to 1e-14 relative."""
    rng = np.random.default_rng(81 if grading == "columns" else 82)
    for m, n in _graded_shapes(rng):
        b = rng.standard_normal((m, n))
        if grading == "columns":
            a = b * np.geomspace(1.0, 1e-30, n)[rng.permutation(n)]
        else:
            a = b * np.geomspace(1.0, 1e-30, m)[rng.permutation(m), None]
        expected = _pair_sweep_sigma(a)
        s = _thin_svd(a)[1]
        np.testing.assert_allclose(s, expected, rtol=1e-13, atol=0)
    if grading == "columns":
        for m, n in KNOWN_SIGMA_SHAPES:
            a, sigma = graded_known_sigma(rng, m, n)
            np.testing.assert_allclose(_thin_svd(a)[1], sigma, rtol=1e-14,
                                       atol=0)


def test_preconditioned_sweeps_on_steeply_row_graded_input():
    """Rows graded from 1 to 1e-30 over the first n rows, all others at
    1e-33, in random order.  With the rows sorted before the QR, column
    pivoting keeps even the smallest singular values to 1e-13 relative of
    the per-pair sweeps on A; the same QR without pivoting reached only
    about 1e-12 here, and without the row sort it is off by 1e12."""
    rng = np.random.default_rng(83)
    for m, n in _graded_shapes(rng):
        a = steep_rows(rng, m, n)
        np.testing.assert_allclose(_thin_svd(a)[1], _pair_sweep_sigma(a),
                                   rtol=1e-13, atol=0)


@pytest.mark.parametrize("grading", ["columns", "steep rows"])
def test_stepped_sweeps_keep_relative_accuracy(grading):
    """The graded inputs of the two tests above at n = 16-48, where the
    sweeps end in Gram tests and product steps: three draws swept on A
    (m n < _QR_MIN_SIZE) and three on R^T.  Columns scaled to 1e-30 keep
    every sigma to 1e-13 relative of the per-pair sweeps on A and, built
    by ``graded_known_sigma``, to 1e-14 of the known values; rows graded
    steeply as above keep them to 1e-13 of the per-pair sweeps."""
    rng = np.random.default_rng(86 if grading == "columns" else 87)
    for on_r in (False, True, False, True, False, True):
        n = int(rng.integers(2 * _STEP_MIN_PAIRS, 49))
        low, high = ((max(4 * n, -(-_QR_MIN_SIZE // n)), 20 * n) if on_r
                     else (n, (_QR_MIN_SIZE - 1) // n))
        m = int(rng.integers(low, high + 1))
        if grading == "columns":
            a = rng.standard_normal((m, n)) * np.geomspace(
                1.0, 1e-30, n)[rng.permutation(n)]
            known, sigma = graded_known_sigma(rng, m, n)
            np.testing.assert_allclose(_thin_svd(known)[1], sigma,
                                       rtol=1e-14, atol=0)
        else:
            a = steep_rows(rng, m, n)
        np.testing.assert_allclose(_thin_svd(a)[1], _pair_sweep_sigma(a),
                                   rtol=1e-13, atol=0)


# Widths 6-13, 16, 26-29 and 30-33, both sides of the column cutoff of
# the rounds and of the smallest rounds on arrays, followed by product
# steps, and 60.
@pytest.mark.parametrize("n", sorted({6, 7, 8, 9, 10, 11, 12, 13, 16, 26, 27,
                                      28, 29, 30, 31, 32, 33, 60,
                                      _ROUND_MIN_COLS - 1, _ROUND_MIN_COLS,
                                      _ROUND_MIN_COLS + 1,
                                      2 * _STEP_MIN_PAIRS - 1,
                                      2 * _STEP_MIN_PAIRS}))
def test_round_robin_sweeps_match_per_pair_loop(n):
    """On the same matrices, the per-pair loop and the batched rounds both
    leave every column pair within JACOBI_OFFDIAG_TOL, accumulate their
    rotations in V, and agree on sigma to 1e-14 relative.  Below
    2 _STEP_MIN_PAIRS columns the rounds take their rotations on floats;
    from there on they take them on arrays, and every sweep ends in a
    Gram test, then product steps.

    A pair's inner product is known only up to the rounding bound of a
    computed dot product, m u sum_k |w_ki w_kj|; the check allows that
    twice, once for the sweep's decision and once for its own product."""
    rng = np.random.default_rng(60 + n)
    unit_roundoff = np.finfo(float).eps / 2
    for _ in range(4):
        m = int(rng.integers(n, 3 * n + 1))
        a = rng.standard_normal((m, n)) * rng.uniform(0.5, 5.0, n)
        sigmas = []
        for sweeps in (_jacobi_pairs, _jacobi_rounds):
            work = np.hstack([a.T, np.eye(n)])
            sweeps(work, m)
            w, v = work[:, :m].T, work[:, m:].T
            norms = np.linalg.norm(w, axis=0)
            bound = (JACOBI_OFFDIAG_TOL * np.outer(norms, norms)
                     + 2 * m * unit_roundoff * (np.abs(w).T @ np.abs(w)))
            off = ~np.eye(n, dtype=bool)
            assert np.all(np.abs(w.T @ w)[off] <= bound[off])
            assert np.linalg.norm(a @ v - w) <= 1e-13 * np.linalg.norm(a)
            sigmas.append(np.sort(norms)[::-1])
        np.testing.assert_allclose(sigmas[1], sigmas[0], rtol=1e-14, atol=0)


@pytest.mark.parametrize("n", [6, 14, 16, 28, 32])
def test_float_and_array_rotations_agree(n):
    """One round's rotations taken pair by pair on floats (math.hypot) and
    on arrays (np.hypot) agree to a few ulps, on a round with a tiny
    column and a pair already below the criterion.  The floats flush the
    tiny column to zero; the arrays leave it to the Gram test of
    ``_jacobi_rounds`` and give its pair a finite rotation within 1e-100
    of the identity."""
    rng = np.random.default_rng(90 + n)
    w = rng.standard_normal((n, 3 * n))
    w[1] *= 1e-110  # squared norm below _FLUSH2
    w[3] = w[2] * rng.uniform(0.5, 2.0)  # parallel to its pair
    w[5] -= (w[4] @ w[5]) / (w[4] @ w[4]) * w[4]  # orthogonal to its pair
    rotations = []
    for on_floats in (True, False):
        w_pairs = w.reshape(n // 2, 2, 3 * n).copy()
        rot = np.empty((n // 2, 2, 2))
        if on_floats:
            gram = np.vecdot(w_pairs[:, :, None], w_pairs[:, None])
            assert _float_rotations(gram.tolist(), w_pairs, rot)
            assert not w_pairs[0, 1].any()
            np.testing.assert_array_equal(rot[0], np.eye(2))
        else:
            assert _array_rotations(n // 2)(w_pairs, rot)
            assert np.array_equal(w_pairs[0], w.reshape(n // 2, 2, -1)[0])
            assert np.all(np.isfinite(rot[0]))
            assert np.max(np.abs(rot[0] - np.eye(2))) <= 1e-100
        np.testing.assert_array_equal(rot[2], np.eye(2))
        rotations.append(rot[1:])
    floats, arrays = rotations
    assert abs(floats[0, 1, 0]) > 0.4  # parallel columns: |t| >= 1/2
    assert np.all(np.abs(arrays - floats) <= 4 * np.spacing(np.abs(floats)))


@pytest.mark.parametrize("rotated", [False, True], ids=["diagonal", "rotated"])
@pytest.mark.parametrize("n", [16, 20, 28, 31, 40])
def test_quiet_wide_sweeps_still_flush(n, rotated):
    """Orthogonal columns at n = 16-40 (31: a bye seat), one of them at
    1e-150 and one at 1e-170, diagonal or with their rows rotated, at
    m = n, 3 n and 200 (200 x 28 and wider on R^T): on the diagonal
    input the first sweep rotates nothing, and the Gram test after it
    must still flush both tiny columns.  Exactly two sigma are 0, the
    others equal their diagonal entries to 1e-15 relative, V is
    orthogonal to 1e-14, and no RuntimeWarning is raised."""
    rng = np.random.default_rng(400 + n)
    for m in (n, 3 * n, 200):
        entries = rng.uniform(0.5, 5.0, n)
        tiny = rng.choice(n, 2, replace=False)
        entries[tiny] = 1e-150, 1e-170
        a = np.zeros((m, n))
        a[np.arange(n), np.arange(n)] = entries
        if rotated:
            a = np.linalg.qr(rng.standard_normal((m, m)))[0] @ a
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            _, s, v = _thin_svd(a, with_u=False)
        assert np.count_nonzero(s == 0.0) == 2
        live = np.sort(np.delete(entries, tiny))[::-1]
        np.testing.assert_allclose(s[:n - 2], live, rtol=1e-15, atol=0)
        assert np.max(np.abs(v.T @ v - np.eye(n))) <= 1e-14


def _tied_cloud(seed, m, n):
    """The tied cloud of the lib_wide benchmark (``_cloud`` of
    perfbench/corpus.py with ``tied``: two principal spreads exactly
    equal), scaled and centred as ``fit_hyperplane_tls`` centres it."""
    rng = np.random.default_rng(seed)
    spread = np.geomspace(3.0, 0.3, n) * rng.uniform(0.9, 1.1, n)
    spread[-1] = spread[-2]
    basis = np.column_stack([np.ones(m), rng.standard_normal((m, n))])
    core = np.linalg.qr(basis)[0][:, 1:] * np.sqrt(m)
    offset = rng.uniform(-10.0, 10.0, n)
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    cloud = offset + (core * spread) @ (q * np.sign(np.diag(r)))
    a = np.ldexp(cloud, -_binary_exponent(cloud))
    return a - np.add.reduce(a, axis=0) / m


@pytest.mark.parametrize("seed, shape", [(8, (400, 30)), (93, (100, 20))])
def test_quiet_pruned_sweep_ends_only_on_the_pairs_it_visited(seed, shape):
    """Tied clouds, where product steps leave pairs with near-tied norms
    to a pass of their own, end with every pair confirmed.  On the
    rng(93) 100 x 20 cloud, an earlier rule that ended the sweeps on a
    pass of only the rounds in which such pairs meet, once that pass
    rotated nothing, left a pair 7 times beyond the bound below.  Swept
    on A, every pair meets the criterion up to the rounding bound of its
    computed inner product (as in the per-pair comparison above), and the
    V of the solvers' path is orthogonal to 1e-14."""
    m, n = shape
    a = _tied_cloud(seed, m, n)
    work = np.hstack([a.T, np.eye(n)])
    assert _jacobi_rounds(work, m)
    w = work[:, :m].T
    norms = np.linalg.norm(w, axis=0)
    bound = (JACOBI_OFFDIAG_TOL * np.outer(norms, norms)
             + m * np.finfo(float).eps * (np.abs(w).T @ np.abs(w)))
    off = ~np.eye(n, dtype=bool)
    assert np.all(np.abs(w.T @ w)[off] <= bound[off])
    v = _thin_svd(a, False)[2]
    assert np.linalg.norm(v.T @ v - np.eye(n)) <= 1e-14


def _count_steps_and_passes(monkeypatch):
    """A list that gets "step" for each product step and "pass" for each
    ``_rotate_pairs`` pass over at least one pair."""
    events = []
    rotate_pairs, skew_exp = linalg._rotate_pairs, linalg._skew_exp

    def rotate(views):
        if views:
            events.append("pass")
        return rotate_pairs(views)

    def step(k):
        events.append("step")
        return skew_exp(k)

    monkeypatch.setattr(linalg, "_rotate_pairs", rotate)
    monkeypatch.setattr(linalg, "_skew_exp", step)
    return events


def _check_tied_sweeps(a, sigma, events):
    """sigma within 1e-14 relative of the known values, U and V orthogonal
    to 1e-13, and a pass over the pairs left out after a product step."""
    u, s, v = _thin_svd(a)
    assert "pass" in events[events.index("step"):]
    np.testing.assert_allclose(s, sigma, rtol=1e-14, atol=0)
    n = a.shape[1]
    assert np.linalg.norm(v.T @ v - np.eye(n)) <= 1e-13
    assert np.linalg.norm(u.T @ u - np.eye(n)) <= 1e-13


def test_exactly_tied_pairs_leave_product_steps_for_rounds(monkeypatch):
    """A = Q diag(s) P^T, 100 x 40, whose singular values come in 20
    exactly tied pairs.  A tied pair's first-order step |K_ij| exceeds
    1/2, so the product steps leave those pairs to a pass that rotates
    them where they sit, with exact rotations; sigma comes out within
    1e-14 relative of s, and U and V orthogonal to 1e-13."""
    events = _count_steps_and_passes(monkeypatch)
    m, n = 100, 40
    assert m * n < _QR_MIN_SIZE
    _check_tied_sweeps(*tied_known_sigma(np.random.default_rng(96), m, n),
                       events)


@pytest.mark.parametrize("seed, shape", [(97, (100, 41)), (98, (170, 30))])
def test_tied_pairs_left_out_on_a_bye_seat_and_on_r(seed, shape, monkeypatch):
    """The exactly tied input of the test above at an odd width, 100 x 41,
    where one seat of every round is the bye, and at 170 x 30, swept on
    R^T of the pivoted QR: the pairs a product step leaves out are rotated
    by a pass, to the same bounds."""
    events = _count_steps_and_passes(monkeypatch)
    m, n = shape
    # Either the odd width swept on A or the even one swept on R^T.
    assert (n % 2 == 1) != (n >= _QR_MIN_COLS and m * n >= _QR_MIN_SIZE)
    _check_tied_sweeps(*tied_known_sigma(np.random.default_rng(seed), m, n),
                       events)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(a=lapack_cases(min_cols=16, max_cols=64, min_ratio=1, max_ratio=4),
       k=st.integers(-500, 500), with_u=st.booleans())
def test_property_stepped_sweeps_match_lapack_at_any_scale(a, k, with_u):
    """Widths 16-64, where the sweeps end in product steps, scaled by
    2^k with |k| <= 500: sigma 2^-k within 1e-13 sigma_1 of LAPACK's
    sigma of the unscaled matrix, V orthogonal to 1e-13, and no
    RuntimeWarning from K's divisions or from exp(K)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _, s, v = _thin_svd(np.ldexp(a, k), with_u)
    s_ref = np.linalg.svd(a, compute_uv=False)
    assert np.all(np.abs(np.ldexp(s, -k) - s_ref) <= 1e-13 * s_ref[0])
    assert np.linalg.norm(v.T @ v - np.eye(a.shape[1])) <= 1e-13


@pytest.mark.parametrize("n", [2 * _STEP_MIN_PAIRS, 31, 60])
def test_skew_exp_is_orthogonal_and_second_order_close_to_exp(n):
    """For skew K of n columns with ||K||_F from 1e-12 to 3.9 (no to four
    squarings), J = _skew_exp(K) has max|J^T J - I| <= n u, and
    ||J - I - K||_F <= 0.3 ||K||_F^2.  exp(K) itself meets 1/2, for K is
    normal and |e^(i theta) - 1 - i theta| <= theta^2 / 2 per eigenvalue;
    these inputs reach 0.198 (n = 16; 0.136 at 31, 0.095 at 60), so 0.3
    keeps 1.5x headroom.  Zero rows and columns of K, as flushed columns
    give, leave those rows and columns of J exactly e_i."""
    rng = np.random.default_rng(98 + n)
    eye = np.eye(n)
    unit_roundoff = np.finfo(float).eps / 2
    zero = [0, 5, n - 1]
    for norm in (1e-12, 1e-8, 1e-4, 0.1, 0.3, 0.5, 1.0, 2.0, 3.9):
        for flushed in (False, True):
            a = rng.standard_normal((n, n))
            if flushed:
                a[zero] = 0.0
                a[:, zero] = 0.0
            k = (a - a.T) * (norm / np.linalg.norm(a - a.T))
            j = linalg._skew_exp(k.copy())
            assert np.max(np.abs(j.T @ j - eye)) <= n * unit_roundoff
            assert (np.linalg.norm(j - eye - k)
                    <= 0.3 * np.linalg.norm(k) ** 2)
            if flushed:
                assert np.array_equal(j[zero], eye[zero])
                assert np.array_equal(j[:, zero], eye[:, zero])


def _vecdot_flush_then_ratios(w):
    """The Gram test as the sweeps took it before ``_gram_test``: rows with
    ``np.vecdot`` squared norms at most 1e-200 set to zero, then the
    ratios of G = W W^T, with the rows whose g_ii is at most 1e-200 masked
    to 0.  Returns (gram, ratio)."""
    w[np.vecdot(w, w) <= 1e-200] = 0.0
    gram = w @ w.T
    live = gram.diagonal() > 1e-200
    norms = np.sqrt(gram.diagonal(), where=live, out=np.ones(len(live)))
    ratio = np.abs(gram) / np.outer(norms, norms)
    np.fill_diagonal(ratio, 0.0)
    ratio[~live] = 0.0
    ratio[:, ~live] = 0.0
    return gram, ratio


def test_gram_test_flushes_rows_as_the_vecdot_flush_did():
    """W with an exactly zero row, a row of squared norm 5e-201, a row of
    entries near 1e-170 whose squares underflow (it alone would give
    ratios 1e-170 / 0), and two pairs of rows with exactly equal norms,
    one orthogonal (K_ij = 0 / 0) and one not (K_ij = x / 0).  The three
    tiny rows are zeroed in W and in G and their ratios are 0, without a
    RuntimeWarning; W, G and the ratios equal those of a vecdot flush and
    the masked ratios.  K_ij = g_ij / (g_jj - g_ii) is finite once the
    entries |K_ij| > 1/2 are zeroed, as a product step zeroes them."""
    rng = np.random.default_rng(99)
    n, m = 2 * _STEP_MIN_PAIRS, 40
    w = rng.standard_normal((n, m))
    w[0] = 0.0
    w[1] = rng.standard_normal(m)
    w[1] *= math.sqrt(5e-201) / np.linalg.norm(w[1])
    w[2] = 1e-170 * rng.uniform(0.5, 2.0, m)
    w[3:7] = 0.0  # entries whose squares and products are exact
    w[3, :2], w[4, :2] = (0.75, 0.5), (-0.5, 0.75)
    w[5, 2:4], w[6, 2:4] = (0.75, 0.5), (0.5, 0.75)
    assert 0.0 < w[1] @ w[1] <= 1e-200 and w[2] @ w[2] == 0.0
    expected_w = w.copy()
    expected_gram, expected_ratio = _vecdot_flush_then_ratios(expected_w)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        gram, ratio = linalg._gram_test(w)
    flushed = [0, 1, 2]
    assert not w[flushed].any()
    assert not gram[flushed].any() and not gram[:, flushed].any()
    assert not ratio[flushed].any() and not ratio[:, flushed].any()
    assert ratio[3, 4] == 0.0 and ratio[5, 6] > 0.5
    assert np.array_equal(w, expected_w)
    assert np.array_equal(gram, expected_gram)
    assert np.array_equal(ratio, expected_ratio)
    diag = gram.diagonal()
    with np.errstate(divide="ignore", invalid="ignore"):
        k = gram / (diag - diag[:, None])
    k[~(np.abs(k) <= 0.5)] = 0.0
    assert np.all(np.isfinite(k))


def test_concurrent_wide_sweeps_match_serial_runs():
    """Four threads, two on 250 x 60 and two on 150 x 40, sweep rounds of
    20 and 30 pairs on arrays at the same time, switching every 10 us:
    each gives exactly the serial result, since every call fills round
    buffers of its own."""
    rng = np.random.default_rng(95)
    inputs = [rng.standard_normal(shape) for shape in [(250, 60), (150, 40)]]
    serial = [_thin_svd(a) for a in inputs]
    results = {}

    def run(k):
        results[k] = _thin_svd(inputs[k % 2])

    threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(results) == [0, 1, 2, 3]
    for k, result in results.items():
        for got, expected in zip(result, serial[k % 2]):
            assert np.array_equal(got, expected)


def _three_coupled_columns(shape):
    """Columns 0-2 Gaussian on the first 10 rows, and every other column a
    single entry in a row of its own: only the pairs among the first three
    columns ever fail the criterion."""
    n = shape[1]
    rng = np.random.default_rng(71)
    a = np.zeros(shape)
    a[:10, :3] = rng.standard_normal((10, 3))
    a[np.arange(10, n + 7), np.arange(3, n)] = rng.uniform(0.5, 5.0, n - 3)
    return a


# Shape: the sweep path named in the error, the sweep budget, the input.
SWEEP_PATHS = {
    (60, 30): ("rounds on A", 1, None), (20, 4): ("rounds on A", 1, None),
    (1000, 10): ("rounds on R^T", 1, None),
    (200, 40): ("rounds on R^T", 1, None), (20, 3): ("pairs on A", 1, None),
    (100, 40): ("rounds on A", 3, _three_coupled_columns),
    (250, 60): ("rounds on R^T", 13, None)}


@pytest.mark.parametrize("shape", list(SWEEP_PATHS))
def test_exhausted_sweep_budget_raises_convergence_error(shape, monkeypatch):
    """One sweep cannot confirm a Gaussian matrix, on any path: 60 x 30
    and 20 x 4 sweep A in rounds, 1000 x 10 and 200 x 40 sweep R^T in
    rounds, and 20 x 3 sweeps A pair by pair.  On 100 x 40 with three
    coupled columns the budget of three runs out in the Gram tests: after
    the first sweep, one product step with a pass over the pair that the
    step cannot take, then a second step, and no second sweep.  On
    250 x 60 one sweep and twelve steps stop one step short of
    convergence, at a ratio of 8.7e-15: the ratio must print above the
    tolerance too.  The error names the budget, the path and the largest
    off-diagonal ratio left, next to the tolerance."""
    path, budget, make = SWEEP_PATHS[shape]
    monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", budget)
    rounds = []  # one entry per round evaluated on arrays

    def counted(h):
        rotations = _array_rotations(h)

        def count(w_pairs, rot):
            rounds.append(None)
            return rotations(w_pairs, rot)
        return count

    monkeypatch.setattr(linalg, "_array_rotations", counted)
    a = (make or np.random.default_rng(70).standard_normal)(shape)
    with pytest.raises(ConvergenceError) as info:
        jacobi_svd(Matrix(a))
    found = re.fullmatch(
        r"one-sided Jacobi SVD did not converge in (\d+) sweeps and product "
        r"steps \((.+); "
        r"largest off-diagonal ratio (\S+) vs JACOBI_OFFDIAG_TOL 1e-15\)",
        str(info.value))
    assert found and int(found[1]) == budget and found[2] == path
    assert JACOBI_OFFDIAG_TOL < float(found[3]) < 1.0
    if make:  # one full sweep of n - 1 rounds, then steps and passes
        assert len(rounds) == shape[1] - 1


@pytest.mark.parametrize("shape, budget", [((100, 40), 6), ((250, 60), 14)])
def test_budget_spent_by_a_converging_step_returns(shape, budget,
                                                   monkeypatch):
    """The Gram test after the last unit of the budget costs nothing: when
    the step of that unit converges, the SVD returns.  One sweep and five
    steps confirm the coupled 100 x 40 input, one sweep and thirteen the
    250 x 60 one (a budget short of those raises above)."""
    _, _, make = SWEEP_PATHS[shape]
    monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", budget)
    units = []  # one entry per round and per pass
    rotate_pairs = linalg._rotate_pairs

    def counted(h):
        rotations = _array_rotations(h)

        def count(w_pairs, rot):
            units.append("round")
            return rotations(w_pairs, rot)
        return count

    def rotate(views):
        units.append("pass")
        return rotate_pairs(views)

    monkeypatch.setattr(linalg, "_array_rotations", counted)
    monkeypatch.setattr(linalg, "_rotate_pairs", rotate)
    a = (make or np.random.default_rng(70).standard_normal)(shape)
    s = jacobi_svd(Matrix(a)).sigma.array
    sweeps = units.count("round") // (shape[1] - 1)
    assert sweeps == 1 and sweeps + units.count("pass") == budget
    s_ref = np.linalg.svd(a, compute_uv=False)
    assert np.max(np.abs(s - s_ref)) <= 1e-13 * s_ref[0]


# ---------------------------------------------------------------------------
# _pinv and _truncate, the pseudo-inverse and truncation the solvers run on


def test_pinv_identity():
    y = np.array([1.0, -2.0, 5.0])
    assert np.array_equal(
        _pinv(*factors(jacobi_svd(Matrix(np.eye(3)))), y), y)


def test_pinv_rank1_minimum_norm():
    svd = jacobi_svd(Matrix([[1, 0], [0, 0], [0, 0]]))
    out = _pinv(*factors(svd), np.ones(3))
    np.testing.assert_allclose(out, [1.0, 0.0], rtol=0, atol=1e-14)


def test_pinv_matches_normal_equations():
    rng = np.random.default_rng(19)
    a = rng.standard_normal((4, 2))
    y = rng.standard_normal(4)
    expected = np.linalg.solve(a.T @ a, a.T @ y)
    out = _pinv(*factors(jacobi_svd(Matrix(a))), y)
    np.testing.assert_allclose(out, expected, rtol=1e-8)


def test_truncate_full_rank_reconstructs():
    rng = np.random.default_rng(20)
    a = rng.standard_normal((5, 3))
    e = _truncate(a, jacobi_svd(Matrix(a)).v.array, 3)
    assert np.linalg.norm(e - a) <= 1e-11 * max(1.0, np.linalg.norm(a))


def test_truncate_square_corners_rank_one():
    b = np.array(SQUARE_CORNERS, dtype=float)
    e = _truncate(b, jacobi_svd(Matrix(b)).v.array, 1)
    assert np.linalg.norm(b - e) == pytest.approx(2.0, abs=1e-12)
    assert np.linalg.matrix_rank(e) == 1


def test_truncate_discarded_energy():
    rng = np.random.default_rng(21)
    a = rng.standard_normal((5, 3))
    svd = jacobi_svd(Matrix(a))
    gap2 = np.linalg.norm(a - _truncate(a, svd.v.array, 2)) ** 2
    assert gap2 == pytest.approx(svd.sigma.array[2] ** 2, rel=1e-10)


def test_solvers_agree_bitwise_with_public_kernels():
    """The solvers' thin factors give exactly what the public kernel gives:
    OLS by SVD is _pinv of jacobi_svd's factors, and a TLS nearest system
    is _truncate of C and jacobi_svd's V.  Every fourth draw has a
    duplicated column, an exactly zero column of A, or an exactly zero
    column of B."""
    rng = np.random.default_rng(23)
    tls_checked = 0
    for draw in range(200):
        n = int(rng.integers(2, 6))
        p = int(rng.integers(1, 4))
        m = n + p + int(rng.integers(0, 8))
        a = rng.standard_normal((m, n))
        b = rng.standard_normal((m, p))
        if draw % 4 == 1:
            a[:, -1] = a[:, 0]
        elif draw % 4 == 2:
            a[:, -1] = 0.0
        elif draw % 4 == 3:
            b[:, 0] = 0.0
        svd = jacobi_svd(Matrix(a))
        sol = solve_ols(Matrix(a), Vector(b[:, 0]), Method.SVD)
        assert np.array_equal(sol.coefficients.array,
                              _pinv(*factors(svd), b[:, 0]))
        assert np.array_equal(sol.sigma.array, svd.sigma.array)
        cases = [(solve_tls_system, Vector(b[:, 0]),
                  augment(Matrix(a), Vector(b[:, 0]))),
                 (solve_tls_multi, Matrix(b), Matrix(np.hstack([a, b])))]
        for solver, rhs, c in cases:
            try:
                nearest = solver(Matrix(a), rhs).nearest_system
            except NoTlsSolutionError:
                continue
            assert np.array_equal(
                nearest.array, _truncate(c.array, jacobi_svd(c).v.array, n))
            tls_checked += 1
    assert tls_checked >= 150


def test_truncate_beats_random_competitors():
    rng = np.random.default_rng(22)
    a = rng.standard_normal((6, 4))
    k = 2
    best = np.linalg.norm(a - _truncate(a, jacobi_svd(Matrix(a)).v.array, k))
    for _ in range(200):
        competitor = rng.standard_normal((6, k)) @ rng.standard_normal((k, 4))
        assert best <= np.linalg.norm(a - competitor) + 1e-12
