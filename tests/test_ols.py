"""Ordinary least squares: closed form, normal equations, QR, SVD."""
import math

import numpy as np
import pytest

from tlsfit import (
    DegenerateAbscissaError,
    DimensionError,
    EmptyDataError,
    Matrix,
    Method,
    RangeError,
    RankDeficiencyError,
    Vector,
    householder_qr,
    jacobi_svd,
    mean_1d,
    simple_regression,
    solve_ols,
)
from oracles import perturbation_probe


def test_mean_single_point():
    assert mean_1d(Vector([5.0])) == 5.0


def test_mean_symmetric():
    assert mean_1d(Vector([1.0, 2.0, 3.0, 4.0])) == 2.5


def test_mean_empty():
    with pytest.raises(EmptyDataError):
        mean_1d(Vector([]))


def test_mean_is_exact_under_power_of_two_scaling():
    """The mean of huge entries is the float it is, not an overflow, and
    scaling x by 2^k scales the mean by exactly 2^k."""
    assert mean_1d(Vector([1e308, 1e308])) == 1e308
    x = np.random.default_rng(41).standard_normal(50)
    zbar = mean_1d(Vector(x))
    for k in (-1000, -500, 500, 1000):
        assert mean_1d(Vector(np.ldexp(x, k))) == math.ldexp(zbar, k)


def test_mean_minimizes_sum_of_squares():
    rng = np.random.default_rng(40)
    x = rng.standard_normal(100)
    f = lambda z: float(np.sum((x - z) ** 2))
    zbar = mean_1d(Vector(x))
    assert f(zbar) <= f(zbar + 1e-3)
    assert f(zbar) <= f(zbar - 1e-3)


def test_simple_regression_two_points():
    sol = simple_regression(Vector([0.0, 1.0]), Vector([1.0, 3.0]))
    np.testing.assert_allclose(sol.coefficients.array, [1.0, 2.0],
                               rtol=0, atol=1e-14)
    assert sol.residual_norm <= 1e-14
    assert sol.method is Method.CLOSED_FORM


def test_simple_regression_square_corners_horizontal_line():
    sol = simple_regression(Vector([1.0, -1.0, 1.0, -1.0]),
                            Vector([1.0, 1.0, -1.0, -1.0]))
    assert sol.coefficients[0] == 0.0
    assert sol.coefficients[1] == 0.0


def test_simple_regression_degenerate_abscissae():
    with pytest.raises(DegenerateAbscissaError):
        simple_regression(Vector([2.0, 2.0, 2.0]), Vector([1.0, 2.0, 3.0]))
    # Equal abscissae whose rounded mean differs from them.
    for m in (3, 7):
        with pytest.raises(DegenerateAbscissaError):
            simple_regression(Vector([0.1] * m), Vector(np.arange(m, dtype=float)))
    # Distinct abscissae whose spread is too small for a slope (about
    # 1e600) in the float range.
    with pytest.raises(DegenerateAbscissaError, match="representable"):
        simple_regression(Vector([1e-300, 2e-300, 4e-300]),
                          Vector([1e300, 2e300, 3e300]))


def test_simple_regression_length_mismatch():
    with pytest.raises(DimensionError):
        simple_regression(Vector([1.0, 2.0]), Vector([1.0]))


def test_simple_regression_matches_solve_ols():
    rng = np.random.default_rng(41)
    x = rng.standard_normal(50)
    y = 1.7 - 0.3 * x + 0.05 * rng.standard_normal(50)
    sol = simple_regression(Vector(x), Vector(y))
    design = Matrix(np.column_stack([np.ones(50), x]))
    ref = solve_ols(design, Vector(y), Method.QR)
    np.testing.assert_allclose(sol.coefficients.array,
                               ref.coefficients.array, rtol=1e-9)


def test_simple_regression_centroid_on_line():
    rng = np.random.default_rng(42)
    x = rng.standard_normal(20) * 3.0 + 1.0
    y = rng.standard_normal(20)
    sol = simple_regression(Vector(x), Vector(y))
    a, b = sol.coefficients.array
    assert y.mean() == pytest.approx(a + b * x.mean(),
                                     rel=1e-12, abs=1e-12)


def test_simple_regression_shift_invariance():
    rng = np.random.default_rng(43)
    x = rng.standard_normal(30)
    y = rng.standard_normal(30)
    base = simple_regression(Vector(x), Vector(y)).coefficients.array
    dx, dy = 2.25, -4.5
    shifted = simple_regression(Vector(x + dx),
                                Vector(y + dy)).coefficients.array
    assert shifted[1] == pytest.approx(base[1], abs=1e-9)
    assert shifted[0] == pytest.approx(base[0] + dy - base[1] * dx, abs=1e-9)


def test_solve_ols_identity():
    sol = solve_ols(Matrix(np.eye(2)), Vector([3.0, 7.0]), Method.QR)
    np.testing.assert_allclose(sol.coefficients.array, [3.0, 7.0],
                               rtol=0, atol=1e-14)
    assert sol.residual_norm <= 1e-14


def test_solve_ols_rank1_minimum_norm():
    a = Matrix([[1, 0], [0, 0], [0, 0]])
    sol = solve_ols(a, Vector([1.0, 1.0, 1.0]), Method.SVD)
    np.testing.assert_allclose(sol.coefficients.array, [1.0, 0.0],
                               rtol=0, atol=1e-14)
    assert sol.rank_deficient
    assert sol.residual_norm == pytest.approx(np.sqrt(2.0), rel=1e-14)


def test_solve_ols_methods_agree():
    rng = np.random.default_rng(44)
    a = rng.standard_normal((8, 3))
    y = rng.standard_normal(8)
    sols = [solve_ols(Matrix(a), Vector(y), method) for method in
            (Method.NORMAL_EQUATIONS, Method.QR, Method.SVD)]
    for other in sols[1:]:
        np.testing.assert_allclose(other.coefficients.array,
                                   sols[0].coefficients.array, rtol=1e-8)
        assert not other.rank_deficient


@pytest.mark.parametrize("m", [1, 3])
def test_solve_ols_methods_agree_on_zero_columns(m):
    """An m x 0 A fits nothing: every method returns empty coefficients,
    the residual norm ||y|| and full (zero) column rank."""
    y = Vector(np.arange(1.0, m + 1.0))
    for method in (Method.NORMAL_EQUATIONS, Method.QR, Method.SVD):
        sol = solve_ols(Matrix(np.zeros((m, 0))), y, method)
        assert sol.coefficients.len == 0
        assert sol.residual_norm == math.sqrt(float(y.array @ y.array))
        assert sol.rank_deficient is False


def test_solve_ols_rank_deficient_raises_for_direct_methods():
    a = Matrix([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])  # rank 1
    y = Vector([1.0, 0.0, 1.0])
    for method in (Method.NORMAL_EQUATIONS, Method.QR):
        with pytest.raises(RankDeficiencyError):
            solve_ols(a, y, method)
    sol = solve_ols(a, y, Method.SVD)
    assert sol.rank_deficient


def test_solve_ols_residual_orthogonal_to_columns():
    rng = np.random.default_rng(45)
    for _ in range(20):
        m = int(rng.integers(4, 15))
        n = int(rng.integers(1, 4))
        a = rng.standard_normal((m, n))
        y = rng.standard_normal(m)
        sol = solve_ols(Matrix(a), Vector(y), Method.QR)
        residual = a @ sol.coefficients.array - y
        bound = 1e-8 * np.linalg.norm(a) * np.linalg.norm(y)
        assert np.abs(a.T @ residual).max() <= max(bound, 1e-12)


def test_solve_ols_residual_norm_consistent():
    rng = np.random.default_rng(46)
    a = rng.standard_normal((9, 4))
    y = rng.standard_normal(9)
    sol = solve_ols(Matrix(a), Vector(y), Method.SVD)
    recomputed = np.linalg.norm(a @ sol.coefficients.array - y)
    assert sol.residual_norm == pytest.approx(recomputed, rel=1e-10)


def test_solve_ols_is_local_minimum():
    rng = np.random.default_rng(47)
    a = rng.standard_normal((12, 3))
    y = rng.standard_normal(12)
    sol = solve_ols(Matrix(a), Vector(y), Method.QR)
    objective = lambda c: float(np.sum((a @ c.array - y) ** 2))
    assert perturbation_probe(objective, sol.coefficients, 100, 1e-3, seed=3)


def test_solve_ols_qr_svd_agree_minimum_norm_full_rank():
    rng = np.random.default_rng(48)
    for _ in range(10):
        a = rng.standard_normal((7, 3))
        y = rng.standard_normal(7)
        qr = solve_ols(Matrix(a), Vector(y), Method.QR)
        svd = solve_ols(Matrix(a), Vector(y), Method.SVD)
        np.testing.assert_allclose(qr.coefficients.array,
                                   svd.coefficients.array, rtol=1e-8)


def test_solve_ols_svd_carries_singular_values():
    rng = np.random.default_rng(49)
    a = rng.standard_normal((9, 3))
    y = Vector(rng.standard_normal(9))
    sol = solve_ols(Matrix(a), y, Method.SVD)
    assert np.array_equal(sol.sigma.array, jacobi_svd(Matrix(a)).sigma.array)
    for method in (Method.NORMAL_EQUATIONS, Method.QR):
        assert solve_ols(Matrix(a), y, method).sigma is None


@pytest.mark.parametrize("i, j", [(530, 530), (-530, -530), (-565, -565),
                                  (530, 0)])
def test_power_of_two_scaling_is_exact(i, j):
    """Scaling A by 2^i and y by 2^j scales every OLS result exactly, far
    beyond the range where squared entries overflow or underflow."""
    rng = np.random.default_rng(50)
    a = rng.standard_normal((20, 3)) * [1.0, 2.0, 3.0]
    y = a @ [1.0, 2.0, 3.0] + 0.1 * rng.standard_normal(20)
    scaled_a, scaled_y = Matrix(np.ldexp(a, i)), Vector(np.ldexp(y, j))
    for method in (Method.NORMAL_EQUATIONS, Method.QR, Method.SVD):
        base = solve_ols(Matrix(a), Vector(y), method)
        sol = solve_ols(scaled_a, scaled_y, method)
        assert np.array_equal(sol.coefficients.array,
                              np.ldexp(base.coefficients.array, j - i)), method
        assert sol.residual_norm == math.ldexp(base.residual_norm, j), method
    base = simple_regression(Vector(a[:, 1]), Vector(y))
    sol = simple_regression(Vector(np.ldexp(a[:, 1], i)), scaled_y)
    assert np.array_equal(sol.coefficients.array,
                          np.ldexp(base.coefficients.array, [j, j - i]))
    assert sol.residual_norm == math.ldexp(base.residual_norm, j)
    qr, scaled_qr = householder_qr(Matrix(a)), householder_qr(scaled_a)
    assert np.array_equal(scaled_qr.q.array, qr.q.array)
    assert np.array_equal(scaled_qr.r_upper.array, np.ldexp(qr.r_upper.array, i))
    # A tall A, whose SVD sweeps R^T of its pivoted QR.
    tall = rng.standard_normal((800, 8)) * np.arange(1.0, 9.0)
    tall_y = tall @ np.arange(1.0, 9.0) + 0.1 * rng.standard_normal(800)
    for method in (Method.QR, Method.SVD):
        base = solve_ols(Matrix(tall), Vector(tall_y), method)
        sol = solve_ols(Matrix(np.ldexp(tall, i)),
                        Vector(np.ldexp(tall_y, j)), method)
        assert np.array_equal(sol.coefficients.array,
                              np.ldexp(base.coefficients.array, j - i)), method
        assert sol.residual_norm == math.ldexp(base.residual_norm, j), method


@pytest.mark.parametrize("method", [Method.NORMAL_EQUATIONS, Method.QR,
                                    Method.SVD])
def test_results_near_the_float_limit(method):
    """Every method solves and forms the residual on A and y divided by
    powers of two: y near 1e308 fits, and a residual norm beyond the
    float range (sqrt(6) 1e308 here) raises RangeError, never inf."""
    a = Matrix([[1.0], [1.0], [1.0]])
    sol = solve_ols(a, Vector([1.0e308, 1.2e308, 1.1e308]), method)
    assert sol.coefficients[0] == pytest.approx(1.1e308, rel=1e-15)
    assert sol.residual_norm == pytest.approx(math.sqrt(2) * 1e307,
                                              rel=1e-14)
    with pytest.raises(RangeError, match="residual norm"):
        solve_ols(a, Vector([1.5e308, -1.5e308, 1.5e308]), method)


@pytest.mark.parametrize("method", [Method.NORMAL_EQUATIONS, Method.SVD])
def test_zero_coefficients_stay_in_range_at_any_scale(method):
    """y orthogonal to A gives c = 0, which 2^(ey - ea) = 2^1100 leaves 0,
    not beyond the float range."""
    a = Matrix(np.ldexp([[1.0], [1.0]], -1000))
    sol = solve_ols(a, Vector(np.ldexp([1.0, -1.0], 100)), method)
    assert sol.coefficients.array.tolist() == [0.0]


def test_cholesky_pivot_report_is_scale_free():
    """The rank-deficiency message gives the failing pivot relative to the
    largest diagonal entry, next to its threshold, at any scale of A."""
    a = np.array([[1.0, 1.0], [1.0, 1.0 + 2.0 ** -26], [1.0, 1.0]])
    messages = set()
    for k in (0, 600, -600):
        with pytest.raises(RankDeficiencyError) as info:
            solve_ols(Matrix(np.ldexp(a, k)), Vector(np.ones(3)),
                      Method.NORMAL_EQUATIONS)
        messages.add(str(info.value))
    assert len(messages) == 1
    (message,) = messages
    assert "<= 1e-12 at column 1" in message


def test_solve_ols_input_validation():
    with pytest.raises(DimensionError):
        solve_ols(Matrix([[1.0, 2.0]]), Vector([1.0]))
    with pytest.raises(DimensionError):
        solve_ols(Matrix(np.eye(2)), Vector([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        solve_ols(Matrix(np.eye(2)), Vector([1.0, 2.0]), Method.CLOSED_FORM)
    with pytest.raises(ValueError, match="unknown method 'bogus'"):
        solve_ols(Matrix(np.eye(2)), Vector([1.0, 2.0]), "bogus")
    with pytest.raises(RankDeficiencyError,
                       match="^normal equations: zero Gram matrix$"):
        solve_ols(Matrix(np.zeros((3, 2))), Vector(np.ones(3)),
                  Method.NORMAL_EQUATIONS)
    with pytest.raises(DimensionError, match="need at least 2 points"):
        simple_regression(Vector([1.0]), Vector([2.0]))
