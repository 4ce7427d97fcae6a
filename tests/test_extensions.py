"""Multiple right-hand sides and frozen-column TLS."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlsfit import (
    DimensionError,
    FitError,
    Matrix,
    Method,
    NoTlsSolutionError,
    PointCloud,
    RangeError,
    Vector,
    fit_hyperplane_tls,
    jacobi_svd,
    solve_ols,
    solve_tls_fixed,
    solve_tls_multi,
    solve_tls_system,
)


def fixed_objective(a1, a2, b, x1, x2):
    """Best attainable ||A2-C||^2 + ||B-D||^2 for the given coefficients.

    For fixed (X1, X2) the optimal perturbation projects each residual row
    through (X2^T X2 + I)^{-1}; independent of the solver's route.
    """
    residual = a1 @ x1 + a2 @ x2 - b
    gram = x2.T @ x2 + np.eye(b.shape[1])
    return float(np.trace(residual @ np.linalg.solve(gram, residual.T)))


def noisy_multi(rng, m, n, p, noise):
    a = rng.standard_normal((m, n))
    x0 = rng.standard_normal((n, p))
    b = a @ x0 + noise * rng.standard_normal((m, p))
    return a, x0, b


# ---------------------------------------------------------------------------
# solve_tls_multi


def test_multi_single_rhs_matches_system_solver():
    rng = np.random.default_rng(70)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(n + 1, n + 10))
        a, _, b = noisy_multi(rng, m, n, 1, noise=1e-3)
        multi = solve_tls_multi(Matrix(a), Matrix(b))
        system = solve_tls_system(Matrix(a), Vector(b[:, 0]))
        np.testing.assert_allclose(multi.x.array[:, 0],
                                   system.coefficients.array,
                                   rtol=1e-9, atol=1e-9)


def test_multi_consistent_system_recovered_exactly():
    rng = np.random.default_rng(71)
    a, x0, b = noisy_multi(rng, 9, 3, 2, noise=0.0)
    sol = solve_tls_multi(Matrix(a), Matrix(b))
    assert np.abs(sol.x.array - x0).max() <= 1e-8
    assert np.abs(sol.sigma.array[3:]).max() <= 1e-12
    assert sol.unique


def test_multi_zero_trailing_block_has_no_solution():
    with pytest.raises(NoTlsSolutionError) as info:
        solve_tls_multi(Matrix([[1, 0], [0, 0], [0, 0]]),
                        Matrix([[1.0], [1.0], [1.0]]))
    null = info.value.null_vector.array
    assert (np.allclose(null, [0.0, 1.0, 0.0], atol=1e-10)
            or np.allclose(null, [0.0, -1.0, 0.0], atol=1e-10))


def test_multi_theorem_annihilation():
    # The nearest system kills the trailing right-singular block:
    # F V12 + G V22 = 0.
    rng = np.random.default_rng(72)
    for _ in range(10):
        a, _, b = noisy_multi(rng, 10, 3, 2, noise=0.3)
        sol = solve_tls_multi(Matrix(a), Matrix(b))
        svd = jacobi_svd(Matrix(np.column_stack([a, b])))
        v12 = svd.v.array[:3, 3:]
        v22 = svd.v.array[3:, 3:]
        e = sol.nearest_system.array
        f, g = e[:, :3], e[:, 3:]
        scale = max(1.0, np.linalg.norm(e))
        assert np.linalg.norm(f @ v12 + g @ v22) <= 1e-9 * scale


def test_multi_solution_invariants():
    rng = np.random.default_rng(73)
    for _ in range(15):
        n = int(rng.integers(1, 4))
        p = int(rng.integers(1, 3))
        m = int(rng.integers(n + p, n + p + 10))
        a, _, b = noisy_multi(rng, m, n, p, noise=0.2)
        sol = solve_tls_multi(Matrix(a), Matrix(b))
        e = sol.nearest_system.array
        f, g = e[:, :n], e[:, n:]
        assert np.linalg.norm(f @ sol.x.array - g) <= \
            1e-8 * max(1.0, np.linalg.norm(e))
        gap2 = np.linalg.norm(np.column_stack([a, b]) - e) ** 2
        tail2 = float(np.sum(sol.sigma.array[n:] ** 2))
        assert gap2 == pytest.approx(tail2, rel=1e-9, abs=1e-18)


def test_multi_tied_spectrum_flags_non_unique():
    a = Matrix([[1.0], [1.0], [0.0], [0.0]])
    b = Matrix([[0.0], [0.0], [1.0], [1.0]])
    sol = solve_tls_multi(a, b)
    assert not sol.unique
    assert np.abs(sol.x.array).max() <= 1e-12


def test_multi_dimension_checks():
    with pytest.raises(DimensionError):
        solve_tls_multi(Matrix(np.eye(3)), Matrix([[1.0], [2.0]]))
    # Rows enough for the columns, but not A's: typed, not numpy's error.
    with pytest.raises(DimensionError, match="B has 4 rows, expected 5"):
        solve_tls_multi(Matrix(np.ones((5, 2))), Matrix(np.ones((4, 1))))
    with pytest.raises(DimensionError):
        solve_tls_multi(Matrix(np.eye(3)), Matrix(np.zeros((3, 1))))
    with pytest.raises(DimensionError):
        solve_tls_multi(Matrix(np.ones((3, 2))), Matrix(np.zeros((3, 0))))


# ---------------------------------------------------------------------------
# solve_tls_fixed


def test_fixed_no_frozen_columns_equals_multi():
    rng = np.random.default_rng(74)
    a, _, b = noisy_multi(rng, 9, 2, 1, noise=0.1)
    fixed = solve_tls_fixed(Matrix(np.zeros((9, 0))), Matrix(a), Matrix(b))
    multi = solve_tls_multi(Matrix(a), Matrix(b))
    assert fixed.x1.shape == (0, 1)
    assert np.abs(fixed.x2.array - multi.x.array).max() <= 1e-10
    tail2 = float(np.sum(multi.sigma.array[2:] ** 2))
    assert fixed.minimized_value == pytest.approx(tail2, rel=1e-10)
    assert fixed.x1_unique


def test_fixed_all_frozen_equals_ols():
    rng = np.random.default_rng(75)
    a = rng.standard_normal((8, 3))
    b = rng.standard_normal((8, 1))
    fixed = solve_tls_fixed(Matrix(a), Matrix(np.zeros((8, 0))), Matrix(b))
    ols = solve_ols(Matrix(a), Vector(b[:, 0]), Method.QR)
    assert np.abs(fixed.x1.array[:, 0] - ols.coefficients.array).max() <= 1e-8
    assert fixed.minimized_value == pytest.approx(ols.residual_norm ** 2,
                                                  rel=1e-9)


def test_fixed_frozen_ones_recovers_regression_line():
    rng = np.random.default_rng(76)
    for _ in range(10):
        m = int(rng.integers(5, 30))
        x = rng.standard_normal(m) * 2.0
        y = 1.3 + 0.7 * x + 0.2 * rng.standard_normal(m)
        fit = fit_hyperplane_tls(PointCloud(np.column_stack([x, y])))
        if not (fit.expressible and fit.unique):
            continue
        sol = solve_tls_fixed(
            Matrix(np.ones((m, 1))),
            Matrix(x.reshape(-1, 1)),
            Matrix(y.reshape(-1, 1)))
        line = fit.explicit_coeffs.array
        assert abs(sol.x1[0, 0] - line[0]) <= 1e-8
        assert abs(sol.x2[0, 0] - line[1]) <= 1e-8


def test_fixed_minimized_value_matches_direct_evaluation():
    rng = np.random.default_rng(77)
    for _ in range(10):
        m, j, k, p = 12, 2, 3, 2
        a1 = rng.standard_normal((m, j))
        a2 = rng.standard_normal((m, k))
        b = rng.standard_normal((m, p))
        sol = solve_tls_fixed(Matrix(a1), Matrix(a2), Matrix(b))
        direct = fixed_objective(a1, a2, b, sol.x1.array, sol.x2.array)
        assert sol.minimized_value == pytest.approx(direct, rel=1e-9)


def test_fixed_is_exact_under_power_of_two_scaling():
    """The frozen-column fit runs on A1 and on (A2 | B), each divided by
    an exact power of two.  Scaling small integers by 2^k, which keeps
    them exact (k = +-500, and k = -1060, where every entry is subnormal),
    leaves X1 and X2 bit for bit and scales the minimized value by exactly
    2^(2k).  Scaling A1 alone by 2^-k leaves X2 and the minimized value
    bit for bit and scales X1 by exactly 2^k, also where A1 is at or below
    2^-1022 and sigma of A1 at the scale of (A2 | B) would be subnormal,
    until X1 leaves the float range: then RangeError.  A fit with every
    entry near 1e-310 gives finite values, where 1 / sigma of the unscaled
    A1 would overflow."""
    rng = np.random.default_rng(80)
    blocks = [rng.integers(-8, 9, (8, cols)).astype(float)
              for cols in (2, 2, 1)]
    base = solve_tls_fixed(*(Matrix(x) for x in blocks))
    for k in (500, -500, -1060):
        sol = solve_tls_fixed(*(Matrix(np.ldexp(x, k)) for x in blocks))
        assert np.array_equal(sol.x1.array, base.x1.array)
        assert np.array_equal(sol.x2.array, base.x2.array)
        assert sol.minimized_value == np.ldexp(base.minimized_value, 2 * k)
    a1, a2, b = blocks
    for k in (1000, -1000, 1022, 1025):  # max |X1| is 0.42
        sol = solve_tls_fixed(Matrix(np.ldexp(a1, -k)), Matrix(a2), Matrix(b))
        assert np.array_equal(sol.x1.array, np.ldexp(base.x1.array, k))
        assert np.array_equal(sol.x2.array, base.x2.array)
        assert sol.minimized_value == base.minimized_value
    with pytest.raises(RangeError, match="X1 beyond the float range"):
        solve_tls_fixed(Matrix(np.ldexp(a1, -1026)), Matrix(a2), Matrix(b))
    tiny = solve_tls_fixed(*(Matrix(rng.standard_normal((8, 1)) * 1e-310)
                             for _ in range(3)))
    assert np.isfinite(tiny.x1.array).all() and np.isfinite(tiny.x2.array).all()
    assert math.isfinite(tiny.minimized_value)


def test_fixed_never_below_fully_free_tls():
    rng = np.random.default_rng(78)
    for _ in range(10):
        m, j, k, p = 11, 2, 2, 1
        a1 = rng.standard_normal((m, j))
        a2 = rng.standard_normal((m, k))
        b = rng.standard_normal((m, p))
        fixed = solve_tls_fixed(Matrix(a1), Matrix(a2), Matrix(b))
        free = solve_tls_multi(Matrix(np.column_stack([a1, a2])), Matrix(b))
        free_value = float(np.sum(free.sigma.array[j + k:] ** 2))
        assert fixed.minimized_value >= free_value - 1e-12


def test_fixed_orthogonal_invariance():
    rng = np.random.default_rng(79)
    m, j, k, p = 10, 1, 2, 1
    a1 = rng.standard_normal((m, j))
    a2 = rng.standard_normal((m, k))
    b = rng.standard_normal((m, p))
    base = solve_tls_fixed(Matrix(a1), Matrix(a2), Matrix(b))
    q = np.linalg.qr(rng.standard_normal((m, m)))[0]
    rotated = solve_tls_fixed(Matrix(q @ a1), Matrix(q @ a2), Matrix(q @ b))
    assert np.abs(rotated.x1.array - base.x1.array).max() <= 1e-8
    assert np.abs(rotated.x2.array - base.x2.array).max() <= 1e-8
    assert rotated.minimized_value == pytest.approx(base.minimized_value,
                                                    rel=1e-9)


def test_fixed_rank_deficient_frozen_block():
    rng = np.random.default_rng(80)
    m, k, p = 12, 2, 1
    column = rng.standard_normal((m, 1))
    a1 = np.column_stack([column, 2.0 * column])  # rank 1, j = 2
    a2 = rng.standard_normal((m, k))
    b = rng.standard_normal((m, p))
    sol = solve_tls_fixed(Matrix(a1), Matrix(a2), Matrix(b))
    assert not sol.x1_unique
    svd1 = jacobi_svd(Matrix(a1))
    v2 = svd1.v.array[:, 1:]  # null-space basis of the frozen block
    # Minimum-norm completion: X1 has no component along the null space.
    assert np.abs(v2.T @ sol.x1.array).max() <= 1e-10
    # The objective does not move along the null space.
    base = fixed_objective(a1, a2, b, sol.x1.array, sol.x2.array)
    assert sol.minimized_value == pytest.approx(base, rel=1e-9)
    for _ in range(5):
        w = rng.standard_normal((1, p))
        shifted = fixed_objective(a1, a2, b,
                                  sol.x1.array + v2 @ w, sol.x2.array)
        assert abs(shifted - base) <= 1e-10 * max(1.0, base)


def test_fixed_propagates_missing_tls_solution():
    """The error carries sigma at the scale of the data, as the plain
    multi-RHS fit of A2 and B reports it."""
    a2, b = Matrix([[1, 0], [0, 0], [0, 0]]), Matrix([[1.0], [1.0], [1.0]])
    with pytest.raises(NoTlsSolutionError) as fixed:
        solve_tls_fixed(Matrix(np.zeros((3, 0))), a2, b)
    with pytest.raises(NoTlsSolutionError) as multi:
        solve_tls_multi(a2, b)
    assert np.array_equal(fixed.value.sigma.array, multi.value.sigma.array)


def test_fixed_dimension_checks():
    rng = np.random.default_rng(81)
    with pytest.raises(DimensionError):
        solve_tls_fixed(Matrix(np.ones((4, 1))), Matrix(np.ones((5, 1))),
                        Matrix(np.ones((4, 1))))
    with pytest.raises(DimensionError, match=r"row counts differ \(5, 4, 4\)"):
        solve_tls_fixed(Matrix(np.ones((5, 1))), Matrix(np.ones((4, 1))),
                        Matrix(np.ones((4, 1))))
    with pytest.raises(DimensionError):
        solve_tls_fixed(Matrix(np.ones((3, 1))), Matrix(np.ones((3, 2))),
                        Matrix(np.ones((3, 1))))
    with pytest.raises(DimensionError):
        solve_tls_fixed(Matrix(np.ones((4, 1))), Matrix(np.ones((4, 1))),
                        Matrix(np.ones((4, 0))))



dims = st.integers(1, 3)
extra_rows = st.integers(0, 6)
seeds = st.integers(0, 2**31)


@settings(max_examples=40, deadline=None)
@given(k=dims, p=dims, extra=extra_rows, seed=seeds)
def test_fixed_property_nothing_frozen_is_multi(k, p, extra, seed):
    rng = np.random.default_rng(seed)
    m = k + p + extra
    a, _, b = noisy_multi(rng, m, k, p, noise=0.1)
    fixed = solve_tls_fixed(Matrix(np.zeros((m, 0))), Matrix(a), Matrix(b))
    multi = solve_tls_multi(Matrix(a), Matrix(b))
    assert fixed.x1.shape == (0, p)
    assert np.array_equal(fixed.x2.array, multi.x.array)


@settings(max_examples=40, deadline=None)
@given(j=dims, p=dims, extra=extra_rows, seed=seeds)
def test_fixed_property_everything_frozen_is_ols(j, p, extra, seed):
    rng = np.random.default_rng(seed)
    m = j + p + extra
    a, _, b = noisy_multi(rng, m, j, p, noise=0.1)
    fixed = solve_tls_fixed(Matrix(a), Matrix(np.zeros((m, 0))), Matrix(b))
    assert fixed.x2.shape == (0, p)
    for c in range(p):
        ols = solve_ols(Matrix(a), Vector(b[:, c]), Method.SVD).coefficients
        scale = max(1.0, np.abs(ols.array).max())
        assert np.abs(fixed.x1.array[:, c] - ols.array).max() <= 1e-10 * scale


@settings(max_examples=40, deadline=None)
@given(j=st.integers(2, 4), k=dims, p=dims, extra=extra_rows, seed=seeds)
def test_fixed_property_rank_deficient_x1_avoids_null_space(
        j, k, p, extra, seed):
    rng = np.random.default_rng(seed)
    m = j + k + p + extra
    rank = int(rng.integers(0, j))
    a1 = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, j))
    a2 = rng.standard_normal((m, k))
    b = a1 @ rng.standard_normal((j, p)) + a2 @ rng.standard_normal((k, p))
    b += 0.1 * rng.standard_normal((m, p))
    sol = solve_tls_fixed(Matrix(a1), Matrix(a2), Matrix(b))
    assert not sol.x1_unique
    null = np.linalg.svd(a1)[2][rank:].T  # LAPACK basis of null(A1)
    scale = max(1.0, np.abs(sol.x1.array).max())
    assert np.abs(null.T @ sol.x1.array).max() <= 1e-10 * scale


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 5), extra=extra_rows, seed=seeds)
def test_property_system_and_hyperplane_share_the_multi_split(n, extra, seed):
    """One TLS split serves all three solvers, so they agree bit for bit."""
    rng = np.random.default_rng(seed)
    m = n + 1 + extra
    a, _, b = noisy_multi(rng, m, n, 1, noise=0.1)
    system = solve_tls_system(Matrix(a), Vector(b[:, 0]))
    multi = solve_tls_multi(Matrix(a), Matrix(b))
    assert np.array_equal(system.coefficients.array, multi.x.array[:, 0])

    points = rng.standard_normal((m, n + 1)) * rng.uniform(0.1, 3.0, n + 1)
    fit = fit_hyperplane_tls(PointCloud(points))
    centered = points - fit.centroid.array
    on_cloud = solve_tls_multi(Matrix(centered[:, :-1]),
                               Matrix(centered[:, -1:]))
    assert fit.expressible
    slope = fit.explicit_coeffs.array[1:]
    assert np.array_equal(slope, on_cloud.x.array[:, 0])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(cols=st.integers(2, 5), extra=extra_rows, seed=seeds,
       exponents=st.lists(st.integers(-1074, 1023), min_size=5, max_size=5),
       split=st.tuples(st.integers(0, 4), st.integers(0, 4)))
def test_property_extreme_column_scales_end_in_finite_results_or_fit_errors(
        cols, extra, seed, exponents, split):
    """Columns of entries in (-1, 1), each scaled by its own 2^k for any k
    from the subnormal floor to the largest exponent: every public solver,
    on A with up to 4 columns, returns finite values or raises a FitError,
    never a warning or another exception (a non-finite entry would fail
    ``Matrix``).  Frozen columns take a random split of the columns."""
    rng = np.random.default_rng(seed)
    m = cols + extra  # at most 11
    d = np.ldexp(rng.uniform(-1.0, 1.0, (m, cols)), exponents[:cols])
    n = cols - 1
    p = 1 + split[0] % n
    j = split[1] % (cols - p + 1)
    calls = [lambda method=method: solve_ols(Matrix(d[:, :n]),
                                             Vector(d[:, n]), method)
             for method in (Method.NORMAL_EQUATIONS, Method.QR, Method.SVD)]
    calls += [
        lambda: fit_hyperplane_tls(PointCloud(d)),
        lambda: solve_tls_system(Matrix(d[:, :n]), Vector(d[:, n])),
        lambda: solve_tls_multi(Matrix(d[:, :-p]), Matrix(d[:, -p:])),
        lambda: solve_tls_fixed(Matrix(d[:, :j]), Matrix(d[:, j:-p]),
                                Matrix(d[:, -p:]))]
    for call in calls:
        try:
            result = call()
        except FitError:
            continue
        assert all(math.isfinite(value) for value in result
                   if isinstance(value, float))
