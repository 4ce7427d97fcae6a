"""Orthogonal-distance line and hyperplane fitting."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlsfit import (
    DimensionError,
    PointCloud,
    Vector,
    center_matrix,
    centroid,
    fit_hyperplane_tls,
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


def test_centroid_square_corners_origin():
    assert np.array_equal(centroid(PointCloud(SQUARE_CORNERS)).array,
                          [0.0, 0.0])


def test_centroid_repeated_point():
    cloud = PointCloud([[2.5, -1.0]] * 5)
    assert np.array_equal(centroid(cloud).array, [2.5, -1.0])


def test_centroid_matches_column_sums():
    rng = np.random.default_rng(50)
    pts = rng.standard_normal((17, 3))
    c = centroid(PointCloud(pts)).array
    np.testing.assert_allclose(17 * c, pts.sum(axis=0), rtol=1e-12)


def test_center_matrix_square_corners_exact():
    b = center_matrix(PointCloud(SQUARE_CORNERS))
    assert np.array_equal(b.array, np.array(SQUARE_CORNERS, dtype=float))


def test_center_matrix_fixed_point():
    pts = np.array([[1.0, -2.0], [-1.0, 2.0]])  # already centered
    assert np.array_equal(center_matrix(PointCloud(pts)).array, pts)


def test_center_matrix_column_sums_vanish():
    rng = np.random.default_rng(51)
    pts = rng.standard_normal((23, 4)) + 7.0
    b = center_matrix(PointCloud(pts)).array
    assert np.abs(b.sum(axis=0)).max() <= 1e-12 * 23 * np.abs(pts).max()


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
