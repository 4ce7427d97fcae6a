"""Checks for the brute-force checkers themselves."""
import math

import numpy as np
import pytest

from tlsfit import Matrix, PointCloud, Vector, jacobi_svd, solve_ols
from tlsfit.errors import DimensionError
from oracles import (
    graded_known_sigma,
    line_angle_search,
    perturbation_probe,
    sym_eigen_closed_form,
)

SQUARE_CORNERS = [[1, 1], [-1, 1], [1, -1], [-1, -1]]


def test_angle_search_square_corners_constant_objective():
    cloud = PointCloud(SQUARE_CORNERS)
    result = line_angle_search(cloud, samples=3600)
    assert result.best_objective == pytest.approx(4.0, abs=1e-10)
    # The objective is flat in the angle for this symmetric cloud.
    pts = np.array(SQUARE_CORNERS, dtype=float)
    dx = pts[:, 0] - pts[:, 0].mean()
    dy = pts[:, 1] - pts[:, 1].mean()
    grid = np.arange(3600) * math.pi / 3600
    values = np.sum(
        (np.outer(dx, np.sin(grid)) - np.outer(dy, np.cos(grid))) ** 2, axis=0)
    assert values.max() - values.min() <= 1e-12


def test_angle_search_collinear():
    cloud = PointCloud([[0, 0], [1, 1], [2, 2]])
    assert line_angle_search(cloud, 360).best_objective <= 1e-20


def test_angle_search_never_beaten_by_grid():
    rng = np.random.default_rng(30)
    cloud = PointCloud(rng.standard_normal((12, 2)))
    result = line_angle_search(cloud, 720)
    pts = cloud.points.array
    dx = pts[:, 0] - pts[:, 0].mean()
    dy = pts[:, 1] - pts[:, 1].mean()
    for phi in np.arange(720) * math.pi / 720:
        value = np.sum((math.sin(phi) * dx - math.cos(phi) * dy) ** 2)
        assert result.best_objective <= value + 1e-15


def test_angle_search_self_consistency():
    rng = np.random.default_rng(31)
    for _ in range(10):
        cloud = PointCloud(rng.standard_normal((9, 2)))
        coarse = line_angle_search(cloud, 360)
        fine = line_angle_search(cloud, 3600)
        assert coarse.best_objective == pytest.approx(
            fine.best_objective, abs=1e-6)


def test_angle_search_rejects_bad_input():
    with pytest.raises(DimensionError):
        line_angle_search(PointCloud([[0, 0, 0], [1, 1, 1]]), 360)
    with pytest.raises(ValueError):
        line_angle_search(PointCloud(SQUARE_CORNERS), 100)


def test_sym_eigen_diagonal():
    out = sym_eigen_closed_form(Matrix([[4.0, 0.0], [0.0, 1.0]]))
    assert np.array_equal(out.array, [4.0, 1.0])


def test_sym_eigen_square_gram():
    # B^T B for the square example cloud is 4 I, so sigma = (2, 2).
    out = sym_eigen_closed_form(Matrix([[4.0, 0.0], [0.0, 4.0]]))
    assert np.array_equal(out.array, [4.0, 4.0])


def test_sym_eigen_trace_identity():
    rng = np.random.default_rng(32)
    for _ in range(50):
        a = rng.standard_normal((3, 3))
        s = (a + a.T) / 2.0
        eigs = sym_eigen_closed_form(Matrix(s)).array
        assert eigs.sum() == pytest.approx(np.trace(s), abs=1e-10)
        assert np.all(np.diff(eigs) <= 1e-12)


def test_sym_eigen_matches_jacobi_squares():
    rng = np.random.default_rng(33)
    for _ in range(100):
        b = rng.standard_normal((3, 2))
        eigs = sym_eigen_closed_form(Matrix(b.T @ b)).array
        sig2 = jacobi_svd(Matrix(b)).sigma.array ** 2
        np.testing.assert_allclose(sig2, eigs, rtol=0,
                                   atol=1e-9 * max(1.0, eigs[0]))


def test_graded_known_sigma_columns_are_orthogonal_with_norms_sigma():
    """The columns of A = Q D have norms equal to D and are orthogonal to
    a few ulps relative to those norms, which is what makes D its
    singular values to that relative accuracy, smallest included."""
    rng = np.random.default_rng(3)
    for m, n in [(1500, 3), (300, 40), (40, 40)]:
        a, sigma = graded_known_sigma(rng, m, n)
        assert a.shape == (m, n)
        assert np.all(np.diff(sigma) < 0.0)
        assert sigma[-1] == pytest.approx(1e-30)
        norms = np.linalg.norm(a, axis=0)
        np.testing.assert_allclose(np.sort(norms)[::-1], sigma, rtol=1e-14)
        cosines = (a.T @ a) / np.outer(norms, norms)
        assert np.abs(cosines - np.eye(n)).max() <= 1e-14
    with pytest.raises(DimensionError):
        graded_known_sigma(rng, 3, 4)


def test_sym_eigen_rejects_bad_input():
    with pytest.raises(DimensionError):
        sym_eigen_closed_form(Matrix([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(DimensionError):
        sym_eigen_closed_form(Matrix([[1.0]]))
    with pytest.raises(DimensionError):
        sym_eigen_closed_form(Matrix(np.eye(4)))


def test_probe_accepts_norm_minimum():
    objective = lambda v: float(v.array @ v.array)
    assert perturbation_probe(objective, Vector([0.0, 0.0]), 50, 1e-3)


def test_probe_accepts_ols_minimum():
    rng = np.random.default_rng(34)
    a = rng.standard_normal((10, 3))
    y = rng.standard_normal(10)
    sol = solve_ols(Matrix(a), Vector(y))
    objective = lambda c: float(np.sum((a @ c.array - y) ** 2))
    assert perturbation_probe(objective, sol.coefficients, 100, 1e-3, seed=1)


def test_probe_rejects_non_minimum():
    rng = np.random.default_rng(35)
    a = rng.standard_normal((10, 3))
    y = rng.standard_normal(10)
    sol = solve_ols(Matrix(a), Vector(y))
    off = Vector(sol.coefficients.array + 0.1)
    objective = lambda c: float(np.sum((a @ c.array - y) ** 2))
    assert not perturbation_probe(objective, off, 100, 1e-3, seed=2)


def test_probe_validates_arguments():
    objective = lambda v: 0.0
    with pytest.raises(ValueError):
        perturbation_probe(objective, Vector([0.0]), 10, 0.0)
    with pytest.raises(ValueError):
        perturbation_probe(objective, Vector([0.0]), 0, 1.0)
