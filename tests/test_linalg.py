"""Kernel tests: containers, QR, Jacobi SVD, pseudo-inverse, truncation."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tlsfit import (
    DimensionError,
    Matrix,
    Method,
    NoTlsSolutionError,
    Vector,
    augment,
    frobenius_norm,
    householder_qr,
    jacobi_svd,
    multiply,
    pinv_apply,
    solve_ols,
    solve_tls_multi,
    solve_tls_system,
    truncate_rank,
)
from oracles import sym_eigen_closed_form

SQUARE_CORNERS = [[1, 1], [1, -1], [-1, 1], [-1, -1]]
# Augmented matrix whose null right-singular direction is the middle
# (zero) column, so its last component vanishes.
ZERO_COLUMN_AUG = [[1, 0, 1], [0, 0, 1], [0, 0, 1]]
ZERO_COLUMN_SIGMA = (math.sqrt(2 + math.sqrt(2)), math.sqrt(2 - math.sqrt(2)), 0.0)


def triple_loop_product(a, b):
    """Reference product, entry by entry."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for t in range(k):
                out[i, j] += a[i, t] * b[t, j]
    return out


def scalar_frobenius(a):
    total = 0.0
    for row in a:
        for entry in row:
            total += entry * entry
    return math.sqrt(total)


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
    assert list(m.data) == [1.0, 3.0, 2.0, 4.0]
    assert m[0, 1] == 2.0


def test_matrix_is_immutable():
    m = Matrix([[1.0, 2.0]])
    with pytest.raises(ValueError):
        m.array[0, 0] = 7.0


def test_vector_basics():
    v = Vector([3.0, 4.0])
    assert v.len == 2
    assert v.norm() == 5.0
    assert v[1] == 4.0


# ---------------------------------------------------------------------------
# multiply / frobenius_norm


def test_multiply_identity():
    m = Matrix([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(multiply(Matrix.identity(2), m).array, m.array)


def test_multiply_rank1_matrix():
    a = Matrix([[1, 0], [0, 0], [0, 0]])
    out = multiply(a, Matrix([[1.0], [0.0]]))
    assert out.shape == (3, 1)
    assert np.array_equal(out.array[:, 0], [1.0, 0.0, 0.0])


def test_multiply_against_triple_loop():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((3, 2))
    b = rng.standard_normal((2, 2))
    expected = triple_loop_product(a, b)
    np.testing.assert_allclose(multiply(Matrix(a), Matrix(b)).array,
                               expected, rtol=0, atol=1e-14)


def test_multiply_dimension_mismatch():
    with pytest.raises(DimensionError):
        multiply(Matrix([[1.0, 2.0]]), Matrix([[1.0]]))


def test_frobenius_zero():
    assert frobenius_norm(Matrix.zeros(3, 3)) == 0.0


def test_frobenius_square_corners():
    # sigma = (2, 2), so the squared norm must be 8.
    assert frobenius_norm(Matrix(SQUARE_CORNERS)) == pytest.approx(
        2.0 * math.sqrt(2.0), rel=1e-15)


def test_frobenius_against_scalar_loop():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((4, 3))
    assert frobenius_norm(Matrix(a)) == pytest.approx(
        scalar_frobenius(a), rel=1e-14)


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
        fro2 = frobenius_norm(Matrix(a)) ** 2
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


# ---------------------------------------------------------------------------
# pinv_apply


def test_pinv_identity():
    svd = jacobi_svd(Matrix.identity(3))
    y = Vector([1.0, -2.0, 5.0])
    assert np.array_equal(pinv_apply(svd, y).array, y.array)


def test_pinv_rank1_minimum_norm():
    svd = jacobi_svd(Matrix([[1, 0], [0, 0], [0, 0]]))
    out = pinv_apply(svd, Vector([1.0, 1.0, 1.0]))
    np.testing.assert_allclose(out.array, [1.0, 0.0], rtol=0, atol=1e-14)


def test_pinv_matches_normal_equations():
    rng = np.random.default_rng(19)
    a = rng.standard_normal((4, 2))
    y = rng.standard_normal(4)
    expected = np.linalg.solve(a.T @ a, a.T @ y)
    out = pinv_apply(jacobi_svd(Matrix(a)), Vector(y))
    np.testing.assert_allclose(out.array, expected, rtol=1e-8)


def test_pinv_length_mismatch():
    svd = jacobi_svd(Matrix.identity(3))
    with pytest.raises(DimensionError):
        pinv_apply(svd, Vector([1.0, 2.0]))


# ---------------------------------------------------------------------------
# truncate_rank


def test_truncate_full_rank_reconstructs():
    rng = np.random.default_rng(20)
    a = rng.standard_normal((5, 3))
    e = truncate_rank(jacobi_svd(Matrix(a)), 3)
    assert np.linalg.norm(e.array - a) <= 1e-11 * max(1.0, np.linalg.norm(a))


def test_truncate_square_corners_rank_one():
    b = Matrix(SQUARE_CORNERS)
    e = truncate_rank(jacobi_svd(b), 1)
    assert np.linalg.norm(b.array - e.array) == pytest.approx(2.0, abs=1e-12)
    assert np.linalg.matrix_rank(e.array) == 1


def test_truncate_discarded_energy():
    rng = np.random.default_rng(21)
    a = rng.standard_normal((5, 3))
    svd = jacobi_svd(Matrix(a))
    e = truncate_rank(svd, 2)
    gap2 = np.linalg.norm(a - e.array) ** 2
    assert gap2 == pytest.approx(svd.sigma.array[2] ** 2, rel=1e-10)


def test_truncate_out_of_range():
    svd = jacobi_svd(Matrix.identity(3))
    with pytest.raises(DimensionError):
        truncate_rank(svd, 4)
    with pytest.raises(DimensionError):
        truncate_rank(svd, -1)


def test_solvers_agree_bitwise_with_public_kernels():
    """The solvers' thin factors give exactly what the public kernels give:
    OLS by SVD is pinv_apply of jacobi_svd, and a TLS nearest system is
    truncate_rank of jacobi_svd.  Every fourth draw has a duplicated
    column, an exactly zero column of A, or an exactly zero column of B."""
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
                              pinv_apply(svd, Vector(b[:, 0])).array)
        assert np.array_equal(sol.sigma.array, svd.sigma.array)
        cases = [(solve_tls_system, Vector(b[:, 0]),
                  augment(Matrix(a), Vector(b[:, 0]))),
                 (solve_tls_multi, Matrix(b), Matrix(np.hstack([a, b])))]
        for solver, rhs, c in cases:
            try:
                nearest = solver(Matrix(a), rhs).nearest_system
            except NoTlsSolutionError:
                continue
            assert np.array_equal(nearest.array,
                                  truncate_rank(jacobi_svd(c), n).array)
            tls_checked += 1
    assert tls_checked >= 150


def test_truncate_beats_random_competitors():
    rng = np.random.default_rng(22)
    a = rng.standard_normal((6, 4))
    k = 2
    best = np.linalg.norm(a - truncate_rank(jacobi_svd(Matrix(a)), k).array)
    for _ in range(200):
        competitor = rng.standard_normal((6, k)) @ rng.standard_normal((k, 4))
        assert best <= np.linalg.norm(a - competitor) + 1e-12
