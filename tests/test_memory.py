"""Memory: no solver builds an m x m factor.

On a 20000 x 3 problem a single m x m float array is 3.2 GB, so each
solver path's tracemalloc peak bounds the factors it asked for.  The
20000 x 20 problem takes the QR-preconditioned SVD, whose reflectors, R
and U = Q [J; 0] are each at most one m x n array.
"""
import tracemalloc

import numpy as np
import pytest

from tlsfit import (
    Matrix,
    Method,
    PointCloud,
    Vector,
    fit_hyperplane_tls,
    solve_ols,
    solve_tls_fixed,
    solve_tls_multi,
    solve_tls_system,
)

ROWS = 20000
PEAK_BOUND = 16 << 20
# 20000 x 20: peaks measured 2.2 (ols_qr) to 4.5 (tls_fixed) m n doubles.
WIDE_COLS = 20
WIDE_PEAK_BOUND = 8 * ROWS * WIDE_COLS * 8


def _tall_problem():
    rng = np.random.default_rng(90)
    a = rng.standard_normal((ROWS, 3)) * np.array([3.0, 1.0, 0.3])
    y = a @ np.array([1.0, -2.0, 0.5]) + 0.1 * rng.standard_normal(ROWS)
    return a, y


def _calls():
    """Solver path -> (function, *arguments), inputs already wrapped."""
    a, y = _tall_problem()
    ay = np.column_stack([a[:, :2], y])
    col = [Matrix(a[:, [i]]) for i in range(3)]
    return {
        "ols_svd": (solve_ols, Matrix(a), Vector(y), Method.SVD),
        "ols_qr": (solve_ols, Matrix(a), Vector(y), Method.QR),
        "hyperplane": (fit_hyperplane_tls, PointCloud(ay)),
        "tls_system": (solve_tls_system, Matrix(a[:, :2]), Vector(y)),
        "tls_multi": (solve_tls_multi, Matrix(a[:, :2]),
                      Matrix(y.reshape(-1, 1))),
        "tls_fixed": (solve_tls_fixed, col[0], col[1],
                      Matrix(y.reshape(-1, 1))),
    }


CALLS = _calls()


def _wide_calls():
    """The same six paths, each factoring about WIDE_COLS columns."""
    rng = np.random.default_rng(91)
    a = rng.standard_normal((ROWS, WIDE_COLS)) * np.geomspace(3.0, 0.3,
                                                              WIDE_COLS)
    y = a @ rng.standard_normal(WIDE_COLS) + 0.1 * rng.standard_normal(ROWS)
    b = Matrix(y.reshape(-1, 1))
    return {
        "ols_svd": (solve_ols, Matrix(a), Vector(y), Method.SVD),
        "ols_qr": (solve_ols, Matrix(a), Vector(y), Method.QR),
        "hyperplane": (fit_hyperplane_tls,
                       PointCloud(np.column_stack([a[:, 1:], y]))),
        "tls_system": (solve_tls_system, Matrix(a[:, 1:]), Vector(y)),
        "tls_multi": (solve_tls_multi, Matrix(a[:, 1:]), b),
        "tls_fixed": (solve_tls_fixed, Matrix(a[:, :5]), Matrix(a[:, 5:]), b),
    }


WIDE_CALLS = _wide_calls()


@pytest.mark.parametrize("path", sorted(CALLS))
def test_solver_peak_memory_is_linear_in_rows(path):
    fn, *args = CALLS[path]
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < PEAK_BOUND, f"{path}: peak {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("path", sorted(WIDE_CALLS))
def test_preconditioned_solver_peak_memory(path):
    fn, *args = WIDE_CALLS[path]
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < WIDE_PEAK_BOUND, \
        f"{path}: peak {peak / (ROWS * WIDE_COLS * 8):.2f} m n doubles"
