"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one [ACCEPTANCE] pass/fail line (run pytest with -s to
see them on success; they always appear for failures).
"""
import contextlib
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from tlsfit import (
    Matrix,
    Method,
    NoTlsSolutionError,
    PointCloud,
    Vector,
    fit_hyperplane_tls,
    householder_qr,
    jacobi_svd,
    point_hyperplane_distance,
    simple_regression,
    solve_ols,
    solve_tls_fixed,
    solve_tls_multi,
    solve_tls_system,
)
from oracles import line_angle_search, sym_eigen_closed_form

SQUARE_CORNERS = [[1, 1], [-1, 1], [1, -1], [-1, -1]]
RANK1_A = [[1, 0], [0, 0], [0, 0]]
ONES_RHS = [1.0, 1.0, 1.0]


@contextlib.contextmanager
def criterion(number, title):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] criterion {number} ({title}): FAIL",
              flush=True)
        raise
    elapsed = time.perf_counter() - started
    print(f"[ACCEPTANCE] criterion {number} ({title}): PASS "
          f"[{elapsed:.2f}s]", flush=True)


def test_criterion_1_square_cloud():
    with criterion(1, "square cloud: OLS line y=0, tied TLS spectrum"):
        started = time.perf_counter()
        pts = np.array(SQUARE_CORNERS, dtype=float)

        ols = simple_regression(Vector(pts[:, 0]), Vector(pts[:, 1]))
        assert ols.coefficients[0] == 0.0  # exact
        assert ols.coefficients[1] == 0.0  # exact

        fit = fit_hyperplane_tls(PointCloud(pts))
        np.testing.assert_allclose(fit.sigma.array, [2.0, 2.0],
                                   rtol=0, atol=1e-12)
        assert fit.unique is False
        assert abs(fit.objective - 4.0) <= 1e-10

        search = line_angle_search(PointCloud(pts), samples=3600)
        assert abs(search.best_objective - 4.0) <= 1e-10
        grid = np.arange(3600) * math.pi / 3600
        values = np.sum((np.outer(pts[:, 0], np.sin(grid))
                         - np.outer(pts[:, 1], np.cos(grid))) ** 2, axis=0)
        assert values.max() - values.min() <= 1e-10

        assert time.perf_counter() - started < 1.0


def test_criterion_2_rank_deficient_system():
    with criterion(2, "rank-deficient system: min-norm OLS, no TLS solution"):
        started = time.perf_counter()
        a = Matrix(RANK1_A)
        b = Vector(ONES_RHS)

        ols = solve_ols(a, b, Method.SVD)
        assert abs(ols.coefficients[0] - 1.0) <= 1e-12
        assert abs(ols.coefficients[1]) <= 1e-12
        assert ols.rank_deficient is True

        with pytest.raises(NoTlsSolutionError) as info:
            solve_tls_system(a, b)
        err = info.value
        null = err.null_vector.array
        assert min(np.abs(null - [0, 1, 0]).max(),
                   np.abs(null + [0, 1, 0]).max()) <= 1e-10
        expected = [math.sqrt(2 + math.sqrt(2)),
                    math.sqrt(2 - math.sqrt(2)), 0.0]
        np.testing.assert_allclose(err.sigma.array, expected,
                                   rtol=0, atol=1e-10)

        assert time.perf_counter() - started < 1.0


def test_criterion_3_centroid_lemma():
    with criterion(3, "500 random clouds: centroid on plane, objective id"):
        rng = np.random.default_rng(100)
        checked_explicit = 0
        for _ in range(500):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(n, 51))
            pts = rng.standard_normal((m, n)) * rng.uniform(0.5, 3.0) \
                + rng.standard_normal(n)
            fit = fit_hyperplane_tls(PointCloud(pts))

            # Containment: the centroid is at distance zero, and when the
            # plane is explicit, plugging the centroid in closes exactly.
            assert point_hyperplane_distance(fit, fit.centroid) <= 1e-12
            scale = max(1.0, np.abs(pts).max())
            if fit.expressible:
                coeffs = fit.explicit_coeffs.array
                zbar = fit.centroid.array
                gap = coeffs[0] + coeffs[1:] @ zbar[:-1] - zbar[-1]
                assert abs(gap) <= 1e-10 * max(scale, np.abs(coeffs).max())
                checked_explicit += 1

            total = sum(point_hyperplane_distance(fit, Vector(p)) ** 2
                        for p in pts)
            # s * s, not s ** 2: the power of a numpy scalar goes through
            # C pow, which can miss the correctly rounded square by an ulp.
            sigma_min2 = fit.sigma.array[-1] * fit.sigma.array[-1]
            assert fit.objective == sigma_min2
            assert abs(total - sigma_min2) <= 1e-9 * max(sigma_min2, 1e-12)
        assert checked_explicit >= 400


def test_criterion_4_angle_oracle_equivalence():
    with criterion(4, "200 random 2-d clouds match the angle oracle"):
        rng = np.random.default_rng(101)
        for _ in range(200):
            m = int(rng.integers(2, 40))
            pts = rng.uniform(-1.0, 1.0, size=(m, 2))  # unit-scale data
            fit = fit_hyperplane_tls(PointCloud(pts))
            search = line_angle_search(PointCloud(pts), samples=720)
            assert abs(fit.objective - search.best_objective) <= 1e-6


def test_criterion_5_multi_rhs_theorem():
    with criterion(5, "multi-RHS: consistency, energy identity, recovery"):
        rng = np.random.default_rng(102)
        q1 = np.linalg.qr(rng.standard_normal((8, 8)))[0][:, :3]
        q2 = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        a = q1 @ np.diag([3.0, 2.0, 1.0]) @ q2  # well conditioned 8x3
        x0 = rng.standard_normal((3, 2))
        # Noise decades chosen so the energy identity stays resolvable in
        # double precision: forming (A|B) - E loses eps/noise relative.
        for noise_level in (1e-2, 1e-3, 1e-4):
            noise = rng.standard_normal((8, 2))
            noise *= noise_level / np.linalg.norm(noise)
            b = a @ x0 + noise
            sol = solve_tls_multi(Matrix(a), Matrix(b))
            e = sol.nearest_system.array
            f, g = e[:, :3], e[:, 3:]
            scale = max(1.0, np.linalg.norm(e))
            assert np.linalg.norm(f @ sol.x.array - g) <= 1e-8 * scale
            gap2 = np.linalg.norm(np.column_stack([a, b]) - e) ** 2
            tail2 = float(np.sum(sol.sigma.array[3:] ** 2))
            assert abs(gap2 - tail2) <= 1e-9 * max(tail2, 1e-30)
            assert np.linalg.norm(sol.x.array - x0) <= 10.0 * noise_level


def test_criterion_6_fixed_columns_reductions():
    with criterion(6, "frozen columns: multi/OLS/regression reductions"):
        rng = np.random.default_rng(103)

        # j = 0 reduces to plain multi-RHS TLS.
        a = rng.standard_normal((9, 2))
        b = rng.standard_normal((9, 1))
        fixed = solve_tls_fixed(Matrix(np.zeros((9, 0))), Matrix(a), Matrix(b))
        multi = solve_tls_multi(Matrix(a), Matrix(b))
        assert np.abs(fixed.x2.array - multi.x.array).max() <= 1e-10

        # k = 0, p = 1 reduces to ordinary least squares.
        a1 = rng.standard_normal((10, 3))
        y = rng.standard_normal((10, 1))
        fixed = solve_tls_fixed(Matrix(a1), Matrix(np.zeros((10, 0))),
                                Matrix(y))
        ols = solve_ols(Matrix(a1), Vector(y[:, 0]), Method.QR)
        assert np.abs(fixed.x1.array[:, 0]
                      - ols.coefficients.array).max() <= 1e-8

        # A frozen all-ones column recovers the geometric line fit.
        recovered = 0
        for _ in range(20):
            m = int(rng.integers(4, 30))
            x = rng.standard_normal(m) * 1.5
            yy = -0.4 + 1.1 * x + 0.3 * rng.standard_normal(m)
            fit = fit_hyperplane_tls(PointCloud(np.column_stack([x, yy])))
            if not (fit.expressible and fit.unique):
                continue
            sol = solve_tls_fixed(Matrix(np.ones((m, 1))),
                                  Matrix(x.reshape(-1, 1)),
                                  Matrix(yy.reshape(-1, 1)))
            line = fit.explicit_coeffs.array
            assert abs(sol.x1[0, 0] - line[0]) <= 1e-8
            assert abs(sol.x2[0, 0] - line[1]) <= 1e-8
            recovered += 1
        assert recovered >= 15

        # Rank-deficient frozen block: objective flat along its null space.
        column = rng.standard_normal((12, 1))
        a1 = np.column_stack([column, -3.0 * column])
        a2 = rng.standard_normal((12, 2))
        bb = rng.standard_normal((12, 1))
        sol = solve_tls_fixed(Matrix(a1), Matrix(a2), Matrix(bb))
        assert sol.x1_unique is False
        v2 = jacobi_svd(Matrix(a1)).v.array[:, 1:]

        def objective(x1):
            residual = a1 @ x1 + a2 @ sol.x2.array - bb
            gram = sol.x2.array.T @ sol.x2.array + np.eye(1)
            return float(np.trace(residual @ np.linalg.solve(gram,
                                                             residual.T)))

        base = objective(sol.x1.array)
        for _ in range(10):
            w = rng.standard_normal((1, 1))
            moved = objective(sol.x1.array + v2 @ w)
            assert abs(moved - base) <= 1e-10 * max(1.0, base)


def test_criterion_7_kernel_quality():
    with criterion(7, "1000-matrix kernel sweep at stated tolerances"):
        started = time.perf_counter()
        rng = np.random.default_rng(104)
        for trial in range(1000):
            m = int(rng.integers(1, 21))
            n = int(rng.integers(1, 11))
            a = rng.standard_normal((m, n))
            if trial % 5 == 1:
                r = int(rng.integers(0, min(m, n) + 1))
                a = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
            if trial % 5 == 2:
                a = a * 10.0 ** int(rng.integers(-6, 7))
            svd = jacobi_svd(Matrix(a))
            u, s, v = svd.u.array, svd.sigma.array, svd.v.array
            k = min(m, n)
            assert np.all(s >= 0.0) and np.all(np.diff(s) <= 0.0)
            assert np.linalg.norm(u.T @ u - np.eye(m)) <= 1e-12 * m
            assert np.linalg.norm(v.T @ v - np.eye(n)) <= 1e-12 * n
            recon = (u[:, :k] * s) @ v[:, :k].T
            assert np.linalg.norm(recon - a) <= \
                1e-11 * max(1.0, np.linalg.norm(a))
            if m >= n:
                qr = householder_qr(Matrix(a))
                assert np.linalg.norm(qr.q.array @ qr.r_upper.array - a) <= \
                    1e-12 * max(1.0, np.linalg.norm(a))
        for _ in range(200):
            n = int(rng.integers(2, 4))
            g = rng.uniform(-10.0, 10.0, size=(int(rng.integers(n, 8)), n))
            svd = jacobi_svd(Matrix(g))
            eigs = sym_eigen_closed_form(Matrix(g.T @ g)).array
            np.testing.assert_allclose(svd.sigma.array,
                                       np.sqrt(np.maximum(eigs, 0.0)),
                                       rtol=0, atol=1e-9)
        assert time.perf_counter() - started < 30.0


def test_criterion_8_cli_conformance(tmp_path):
    with criterion(8, "CLI reproduces both examples, byte-identical JSON"):
        e1 = tmp_path / "square.csv"
        e1.write_text("1,1\n-1,1\n1,-1\n-1,-1\n", encoding="utf-8")
        e2 = tmp_path / "nosolution.csv"
        e2.write_text("1,0,1\n0,0,1\n0,0,1\n", encoding="utf-8")

        def invoke(args):
            return subprocess.run(
                [sys.executable, "-m", "tlsfit", *args], capture_output=True)

        runs = [invoke(["tls-line", "--input", str(e1)]) for _ in range(2)]
        assert all(r.returncode == 0 for r in runs)
        assert runs[0].stdout == runs[1].stdout
        payload = json.loads(runs[0].stdout)
        assert payload["unique"] is False
        assert payload["objective"] == 4.0

        runs = [invoke(["tls-system", "--input", str(e2), "--rhs-cols", "1"])
                for _ in range(2)]
        assert all(r.returncode == 2 for r in runs)
        assert runs[0].stdout == runs[1].stdout
        payload = json.loads(runs[0].stdout)
        assert payload["error"]["kind"] == "no_tls_solution"
        assert payload["singular_values"][-1] == 0.0
        null = np.array(payload["error"]["null_vector"])
        assert np.allclose(np.abs(null), [0.0, 1.0, 0.0], atol=1e-10)
