"""Orthogonal-distance line and hyperplane fitting."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlsfit import (
    DimensionError,
    Matrix,
    PointCloud,
    RangeError,
    Vector,
    fit_hyperplane_tls,
    jacobi_svd,
    point_hyperplane_distance,
    simple_regression,
)
from oracles import line_angle_search

SQUARE_CORNERS = [[1, 1], [-1, 1], [1, -1], [-1, -1]]


def random_cloud(rng, m, n):
    return PointCloud(rng.standard_normal((m, n)))


def sum_sq_distances(fit, pts):
    return sum(point_hyperplane_distance(fit, Vector(p)) ** 2 for p in pts)


def test_pointcloud_validation():
    with pytest.raises(DimensionError):
        PointCloud([[1.0, 2.0]])  # one point only
    with pytest.raises(DimensionError):
        PointCloud([[1.0], [2.0]])  # one coordinate only
    cloud = PointCloud([[1.0, 2.0], [3.0, 4.5]])
    assert repr(cloud) == "PointCloud([[1.0, 2.0], [3.0, 4.5]])"


def fit_centroid(points):
    return fit_hyperplane_tls(PointCloud(points)).centroid.array


def test_centroid_square_corners_origin():
    assert np.array_equal(fit_centroid(SQUARE_CORNERS), [0.0, 0.0])


def test_centroid_repeated_point():
    assert np.array_equal(fit_centroid([[2.5, -1.0]] * 5), [2.5, -1.0])


def test_centroid_matches_column_sums():
    rng = np.random.default_rng(50)
    pts = rng.standard_normal((17, 3))
    np.testing.assert_allclose(17 * fit_centroid(pts), pts.sum(axis=0),
                               rtol=1e-12)


def assert_centered_exactly(pts):
    """An already centered cloud is centered exactly: its centroid is
    exactly zero and the fit's singular values are those of the points."""
    fit = fit_hyperplane_tls(PointCloud(pts))
    assert np.array_equal(fit.centroid.array, np.zeros(len(pts[0])))
    assert np.array_equal(fit.sigma.array,
                          jacobi_svd(Matrix(pts)).sigma.array)


def test_center_matrix_square_corners_exact():
    assert_centered_exactly(SQUARE_CORNERS)


def test_center_matrix_fixed_point():
    assert_centered_exactly([[1.0, -2.0], [-1.0, 2.0]])


def test_center_matrix_column_sums_vanish():
    rng = np.random.default_rng(51)
    pts = rng.standard_normal((23, 4)) + 7.0
    b = pts - fit_centroid(pts)
    assert np.abs(b.sum(axis=0)).max() <= 1e-12 * 23 * np.abs(pts).max()


def test_fit_near_the_float_limit_equals_the_scaled_down_fit():
    """Coordinates near 1.6e308 overflow a plain mean, which sent NaN into
    the sweeps.  The fit centers the cloud after an exact power-of-two
    scaling, so it equals the fit of the cloud scaled by 2^-600, with the
    centroid, the singular values and c0 scaled back by 2^600."""
    pts = np.array([[1.5e308, 0.5], [1.6e308, -1.0], [1.7e308, 0.25]])
    big = fit_hyperplane_tls(PointCloud(pts))
    small = fit_hyperplane_tls(PointCloud(np.ldexp(pts, -600)))
    for name in ("centroid", "sigma"):
        assert np.array_equal(getattr(big, name).array,
                              np.ldexp(getattr(small, name).array, 600))
    assert np.array_equal(big.normal.array, small.normal.array)
    assert big.explicit_coeffs[0] == np.ldexp(small.explicit_coeffs[0], 600)
    assert np.array_equal(big.explicit_coeffs.array[1:],
                          small.explicit_coeffs.array[1:])
    assert big.objective == small.objective == 0.0  # the y column is flushed
    assert (big.unique, big.expressible) == (small.unique, small.expressible)
    assert np.isfinite(big.sigma.array).all()


@pytest.mark.parametrize("pts, what", [
    ([[1.7e308, 0.0], [-1.7e308, 0.0], [0.0, 1.0]], "singular values"),
    # Exactly collinear, slope 2^32: c0 is about -2^1033.
    ([[2.0 ** 1000, 0.0], [2.0 ** 1000 + 2.0 ** 968, 2.0 ** 1000],
      [2.0 ** 1000 + 2.0 ** 969, 2.0 ** 1001]], "intercept c0"),
    ([[1e160, 0.0], [0.0, 1e160], [-1e160, -1e160]], "objective"),
])
def test_results_beyond_the_float_range_raise_range_error(pts, what):
    with pytest.raises(RangeError, match=f"^{what} beyond the float range"):
        fit_hyperplane_tls(PointCloud(pts))


def test_fit_square_corners():
    fit = fit_hyperplane_tls(PointCloud(SQUARE_CORNERS))
    np.testing.assert_allclose(fit.sigma.array, [2.0, 2.0], atol=1e-12)
    assert fit.objective == pytest.approx(4.0, abs=1e-10)
    assert not fit.unique
    assert abs(np.linalg.norm(fit.normal.array) - 1.0) <= 1e-12


def test_fit_collinear_points():
    fit = fit_hyperplane_tls(PointCloud([[0, 0], [1, 1], [2, 2]]))
    assert fit.objective <= 1e-20
    expected = np.array([1.0, -1.0]) / math.sqrt(2.0)
    assert (np.allclose(fit.normal.array, expected, atol=1e-12)
            or np.allclose(fit.normal.array, -expected, atol=1e-12))


def test_fit_vertical_line_not_expressible():
    fit = fit_hyperplane_tls(PointCloud([[0, 0], [0, 1], [0, 2], [0, 3]]))
    assert not fit.expressible
    assert fit.explicit_coeffs is None
    assert abs(abs(fit.normal[0]) - 1.0) <= 1e-12
    assert abs(fit.normal[1]) <= 1e-12


def test_fit_requires_enough_points():
    with pytest.raises(DimensionError):
        fit_hyperplane_tls(PointCloud([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]))


def test_distance_at_centroid_is_zero():
    fit = fit_hyperplane_tls(PointCloud(SQUARE_CORNERS))
    assert point_hyperplane_distance(fit, fit.centroid) == 0.0


def test_distance_square_pair_sums_to_two():
    fit = fit_hyperplane_tls(PointCloud(SQUARE_CORNERS))
    d1 = point_hyperplane_distance(fit, Vector([1.0, 1.0]))
    d2 = point_hyperplane_distance(fit, Vector([1.0, -1.0]))
    assert d1 ** 2 + d2 ** 2 == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("points, z, distance", [
    ([[-1.5e308, 0.0], [-1.4e308, 0.0], [-1.6e308, 0.0]], [1e308, 2.0], 2.0),
    ([[-1.5e308, 0.0], [-1.5e308, 1.0], [-1.5e308, 2.0]], [1.5e308, 0.0],
     None),
])
def test_distance_of_points_near_the_float_limit(points, z, distance):
    """z - centroid would overflow here: the distance is still the float
    it is, and one beyond the float range (3e308) raises RangeError, not
    inf."""
    fit = fit_hyperplane_tls(PointCloud(points))
    if distance is None:
        with pytest.raises(RangeError,
                           match="^distance beyond the float range"):
            point_hyperplane_distance(fit, Vector(z))
    else:
        assert point_hyperplane_distance(fit, Vector(z)) == distance


def test_distance_dimension_mismatch():
    fit = fit_hyperplane_tls(PointCloud(SQUARE_CORNERS))
    with pytest.raises(DimensionError):
        point_hyperplane_distance(fit, Vector([1.0, 2.0, 3.0]))


def test_distance_matches_grid_projection():
    # Brute force: distance to the nearest of many points on the line.
    rng = np.random.default_rng(52)
    cloud = random_cloud(rng, 10, 2)
    fit = fit_hyperplane_tls(cloud)
    direction = np.array([-fit.normal[1], fit.normal[0]])
    z = rng.standard_normal(2) * 2.0
    ts = np.linspace(-50.0, 50.0, 2_000_001)
    on_line = fit.centroid.array + ts[:, None] * direction
    brute = np.sqrt(np.min(np.sum((on_line - z) ** 2, axis=1)))
    assert point_hyperplane_distance(fit, Vector(z)) == pytest.approx(
        brute, abs=1e-4)


def test_objective_equals_sum_of_squared_distances():
    rng = np.random.default_rng(53)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(n, 30))
        cloud = random_cloud(rng, m, n)
        fit = fit_hyperplane_tls(cloud)
        total = sum_sq_distances(fit, cloud.points.array)
        assert total == pytest.approx(fit.objective,
                                      rel=1e-9, abs=1e-12)
        assert fit.objective == pytest.approx(fit.sigma.array[-1] ** 2,
                                              rel=1e-12, abs=1e-15)


def test_fit_beats_angle_search():
    rng = np.random.default_rng(54)
    for _ in range(20):
        cloud = random_cloud(rng, int(rng.integers(2, 25)), 2)
        fit = fit_hyperplane_tls(cloud)
        oracle = line_angle_search(cloud, 360)
        assert fit.objective <= oracle.best_objective + 1e-6


def test_rotation_equivariance():
    rng = np.random.default_rng(55)
    for n in (2, 3):
        for _ in range(10):
            cloud = random_cloud(rng, 12, n)
            fit = fit_hyperplane_tls(cloud)
            if not fit.unique:
                continue
            q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            rotated = fit_hyperplane_tls(PointCloud(cloud.points.array @ q.T))
            expected = q @ fit.normal.array
            err = min(np.abs(rotated.normal.array - expected).max(),
                      np.abs(rotated.normal.array + expected).max())
            assert err <= 1e-8


def test_tls_objective_below_ols_distances():
    rng = np.random.default_rng(56)
    for _ in range(20):
        m = int(rng.integers(3, 40))
        x = rng.standard_normal(m)
        y = 0.8 * x + rng.standard_normal(m)
        if np.allclose(x, x[0]):
            continue
        fit = fit_hyperplane_tls(PointCloud(np.column_stack([x, y])))
        ols = simple_regression(Vector(x), Vector(y))
        a, b = ols.coefficients.array
        vertical_ss = float(np.sum((y - a - b * x) ** 2))
        # Orthogonal distances to the OLS line: scale verticals by cos(theta).
        ols_orth_ss = vertical_ss / (1.0 + b * b)
        assert fit.objective <= ols_orth_ss + 1e-9
        assert ols_orth_ss <= vertical_ss + 1e-12


def test_translation_invariance():
    rng = np.random.default_rng(57)
    cloud = random_cloud(rng, 15, 3)
    fit = fit_hyperplane_tls(cloud)
    shift = np.array([10.0, -3.0, 0.5])
    moved = fit_hyperplane_tls(PointCloud(cloud.points.array + shift))
    assert moved.objective == pytest.approx(fit.objective, rel=1e-9)
    err = min(np.abs(moved.normal.array - fit.normal.array).max(),
              np.abs(moved.normal.array + fit.normal.array).max())
    assert err <= 1e-9
    np.testing.assert_allclose(moved.centroid.array,
                               fit.centroid.array + shift, rtol=1e-12)


def test_explicit_form_contains_centroid():
    rng = np.random.default_rng(58)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(n, 25))
        fit = fit_hyperplane_tls(random_cloud(rng, m, n))
        if not fit.expressible:
            continue
        coeffs = fit.explicit_coeffs.array
        zbar = fit.centroid.array
        predicted = coeffs[0] + coeffs[1:] @ zbar[:-1]
        scale = max(1.0, np.abs(zbar).max(), np.abs(coeffs).max())
        assert abs(predicted - zbar[-1]) <= 1e-10 * scale


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(3, 12),
    dx=st.floats(-100.0, 100.0),
    dy=st.floats(-100.0, 100.0),
    seed=st.integers(0, 2**31),
)
def test_fit_always_exists_and_is_normalized(m, dx, dy, seed):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((m, 2)) + np.array([dx, dy])
    fit = fit_hyperplane_tls(PointCloud(pts))
    assert abs(np.linalg.norm(fit.normal.array) - 1.0) <= 1e-12
    assert fit.objective >= 0.0
