"""TLS solution of overdetermined systems via the augmented-matrix SVD."""
import math
import re

import numpy as np
import pytest

from tlsfit import (
    DimensionError,
    Matrix,
    Method,
    NoTlsSolutionError,
    RangeError,
    Vector,
    augment,
    solve_ols,
    solve_tls_fixed,
    solve_tls_multi,
    solve_tls_system,
    tls_objective,
)
from tlsfit import system
from tlsfit.cli import EXIT_NO_TLS_SOLUTION, FitRequest, run
from tlsfit.tolerances import EXISTENCE_TOL
from oracles import perturbation_probe

RANK1_A = [[1, 0], [0, 0], [0, 0]]
ONES_RHS = [1.0, 1.0, 1.0]
ZERO_COLUMN_SIGMA = (math.sqrt(2 + math.sqrt(2)), math.sqrt(2 - math.sqrt(2)), 0.0)


def noisy_system(rng, m, n, noise=1e-2):
    a = rng.standard_normal((m, n))
    x = rng.standard_normal(n)
    b = a @ x + noise * rng.standard_normal(m)
    return a, x, b


def test_augment_zero_rhs():
    out = augment(Matrix(np.eye(2)), Vector([0.0, 0.0]))
    assert np.array_equal(out.array, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


def test_augment_negates_rhs_column():
    out = augment(Matrix(RANK1_A), Vector(ONES_RHS))
    assert np.array_equal(out.array,
                          [[1.0, 0.0, -1.0], [0.0, 0.0, -1.0], [0.0, 0.0, -1.0]])


def test_augment_copies_columns():
    rng = np.random.default_rng(60)
    a = rng.standard_normal((5, 3))
    b = rng.standard_normal(5)
    out = augment(Matrix(a), Vector(b)).array
    assert np.array_equal(out[:, :3], a)
    assert np.array_equal(out[:, 3], -b)


def test_augment_length_mismatch():
    with pytest.raises(DimensionError):
        augment(Matrix(np.eye(2)), Vector([1.0, 2.0, 3.0]))


def test_zero_null_component_has_no_tls_solution():
    with pytest.raises(NoTlsSolutionError) as info:
        solve_tls_system(Matrix(RANK1_A), Vector(ONES_RHS))
    err = info.value
    null = err.null_vector.array
    assert (np.allclose(null, [0.0, 1.0, 0.0], atol=1e-10)
            or np.allclose(null, [0.0, -1.0, 0.0], atol=1e-10))
    np.testing.assert_allclose(err.sigma.array, ZERO_COLUMN_SIGMA,
                               rtol=0, atol=1e-10)


def test_no_solution_message_states_s22_and_its_threshold(tmp_path):
    """One check decides and reports a missing TLS solution for all three
    solvers: the message gives s22, the smallest singular value of the
    trailing block V22, next to EXISTENCE_TOL.  The CLI still exits 2."""
    a, b = Matrix(RANK1_A), Vector(ONES_RHS)
    rhs = Matrix(np.array(ONES_RHS).reshape(-1, 1))
    calls = [lambda: solve_tls_system(a, b), lambda: solve_tls_multi(a, rhs),
             lambda: solve_tls_fixed(Matrix(np.zeros((3, 0))), a, rhs)]
    messages = []
    for call in calls:
        with pytest.raises(NoTlsSolutionError) as info:
            call()
        messages.append(str(info.value))
    found = re.fullmatch(
        r"no TLS solution: the trailing block of the right singular matrix "
        r"is singular \(smallest singular value (\S+) <= EXISTENCE_TOL "
        r"(\S+)\)", messages[0])
    assert found and float(found[1]) <= float(found[2]) == EXISTENCE_TOL
    assert messages == [messages[0]] * 3
    path = tmp_path / "sys.csv"
    path.write_text("1,0,1\n0,0,1\n0,0,1\n", encoding="utf-8")
    report, code = run(FitRequest(mode="tls-system", input_path=str(path)))
    assert code == EXIT_NO_TLS_SOLUTION
    assert report.error["detail"] == messages[0]


def test_exactly_solvable_system_is_fixed_point():
    sol = solve_tls_system(Matrix([[1.0], [1.0]]), Vector([1.0, 1.0]))
    np.testing.assert_allclose(sol.coefficients.array, [1.0], atol=1e-14)
    assert sol.tls_residual <= 1e-14
    np.testing.assert_allclose(sol.nearest_system.array,
                               [[1.0, -1.0], [1.0, -1.0]], atol=1e-12)


def test_recovers_generating_coefficients():
    rng = np.random.default_rng(61)
    a, x, b = noisy_system(rng, 6, 2, noise=1e-4)
    noise_fro = np.linalg.norm(a @ x - b)
    sol = solve_tls_system(Matrix(a), Vector(b))
    assert np.abs(sol.coefficients.array - x).max() <= 1e-3
    assert sol.tls_residual <= noise_fro + 1e-12


def test_solution_invariants():
    rng = np.random.default_rng(62)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(n + 1, n + 12))
        a, _, b = noisy_system(rng, m, n, noise=0.1)
        try:
            sol = solve_tls_system(Matrix(a), Vector(b))
        except NoTlsSolutionError:
            continue
        aug = np.column_stack([a, -b])
        e = sol.nearest_system.array
        e_norm = np.linalg.norm(e)
        # The null vector of the truncation annihilates E.
        chat = np.append(sol.coefficients.array, 1.0)
        v_null = chat / np.linalg.norm(chat)
        assert np.linalg.norm(e @ v_null) <= 1e-9 * max(e_norm, 1.0)
        # Truncation discards exactly the smallest singular value.
        assert np.linalg.norm(aug - e) == pytest.approx(
            sol.tls_residual, rel=1e-9, abs=1e-12)
        # The nearest system is consistent: F c = g.
        f = e[:, :n]
        g = -e[:, n]
        assert np.linalg.norm(f @ sol.coefficients.array - g) <= \
            1e-8 * max(e_norm, 1.0)


def test_truncation_beats_random_rank_n_competitors():
    rng = np.random.default_rng(63)
    a, _, b = noisy_system(rng, 7, 2, noise=0.5)
    sol = solve_tls_system(Matrix(a), Vector(b))
    aug = np.column_stack([a, -b])
    base = np.linalg.norm(aug - sol.nearest_system.array)
    assert base == pytest.approx(sol.tls_residual, rel=1e-9)
    for _ in range(200):
        competitor = rng.standard_normal((7, 2)) @ rng.standard_normal((2, 3))
        assert base <= np.linalg.norm(aug - competitor) + 1e-12


def test_objective_zero_when_consistent():
    rng = np.random.default_rng(64)
    a = rng.standard_normal((5, 2))
    c = rng.standard_normal(2)
    assert tls_objective(Matrix(a), Vector(a @ c), Vector(c)) <= 1e-20


def test_objective_attains_smallest_singular_value_squared():
    rng = np.random.default_rng(65)
    for _ in range(10):
        a, _, b = noisy_system(rng, 8, 3, noise=0.2)
        sol = solve_tls_system(Matrix(a), Vector(b))
        value = tls_objective(Matrix(a), Vector(b), sol.coefficients)
        assert value == pytest.approx(sol.tls_residual ** 2, rel=1e-8)


def test_objective_increases_away_from_minimizer():
    rng = np.random.default_rng(66)
    a, _, b = noisy_system(rng, 9, 3, noise=0.3)
    sol = solve_tls_system(Matrix(a), Vector(b))
    objective = lambda c: tls_objective(Matrix(a), Vector(b), c)
    assert perturbation_probe(objective, sol.coefficients, 100, 1e-3, seed=4)


def test_tls_objective_below_ols_objective():
    rng = np.random.default_rng(67)
    for _ in range(10):
        a, _, b = noisy_system(rng, 10, 3, noise=0.5)
        tls = solve_tls_system(Matrix(a), Vector(b))
        ols = solve_ols(Matrix(a), Vector(b), Method.QR)
        lhs = tls_objective(Matrix(a), Vector(b), tls.coefficients)
        rhs = tls_objective(Matrix(a), Vector(b), ols.coefficients)
        assert lhs <= rhs + 1e-12


def test_zero_column_never_gives_silent_answer():
    rng = np.random.default_rng(68)
    for _ in range(10):
        a = rng.standard_normal((6, 2))
        a = np.column_stack([a, np.zeros(6)])
        b = rng.standard_normal(6)
        try:
            sol = solve_tls_system(Matrix(a), Vector(b))
        except NoTlsSolutionError:
            continue
        assert not sol.unique


def test_objective_scales_exactly_by_powers_of_two():
    """tls_objective squares only values divided by exact powers of two:
    scaling A and b by 2^k scales it by exactly 2^(2k), also for
    coefficients near 1e200 whose squares overflow, and an 8 x 2 system
    at 1e160 raises RangeError instead of returning inf."""
    rng = np.random.default_rng(69)
    a, b = rng.standard_normal((8, 2)), rng.standard_normal(8)
    for c in (rng.standard_normal(2), 1e200 * rng.standard_normal(2)):
        base = tls_objective(Matrix(a), Vector(b), Vector(c))
        assert 0.0 < base < np.inf
        for k in (-500, 300, 500):
            scaled = tls_objective(Matrix(np.ldexp(a, k)),
                                   Vector(np.ldexp(b, k)), Vector(c))
            assert scaled == math.ldexp(base, 2 * k)
    with pytest.raises(RangeError, match="objective"):
        tls_objective(Matrix(1e160 * a), Vector(1e160 * b), Vector(c))


def test_readme_null_vector_after_the_sign_rule():
    """The README's system with no TLS solution reports the null vector
    (0, 1, 0) exactly, sign included; a 900 x 8 system with an exactly
    zero column, which the preconditioned SVD takes, reports that
    column's unit vector the same way."""
    with pytest.raises(NoTlsSolutionError) as info:
        solve_tls_system(Matrix([[1, 0], [0, 0], [0, 0]]), Vector([1, 1, 1]))
    assert info.value.null_vector.array.tolist() == [0.0, 1.0, 0.0]
    rng = np.random.default_rng(70)
    a = rng.standard_normal((900, 8))
    a[:, 3] = 0.0
    with pytest.raises(NoTlsSolutionError) as info:
        solve_tls_system(Matrix(a), Vector(rng.standard_normal(900)))
    assert info.value.null_vector.array.tolist() == np.eye(9)[3].tolist()


def test_objective_dimension_checks():
    with pytest.raises(DimensionError):
        tls_objective(Matrix(np.eye(2)), Vector([1.0, 2.0]), Vector([1.0]))
    with pytest.raises(DimensionError):
        tls_objective(Matrix(np.eye(2)), Vector([1.0]), Vector([1.0, 2.0]))


def test_system_requires_strictly_overdetermined():
    with pytest.raises(DimensionError):
        solve_tls_system(Matrix(np.eye(2)), Vector([1.0, 2.0]))


def nearest_problem(m, n, p, zero, scale=0):
    """Solver, arguments and C = (A | -b) or (A | B) of a noisy m x n
    system with p right-hand sides (seeded by its shape), all scaled by
    2^scale; ``zero`` names the block, "A" or "B", whose column 1 or last
    column is exactly zero."""
    rng = np.random.default_rng(m * 100 + n)
    a = rng.standard_normal((m, n))
    b = a @ rng.standard_normal((n, p)) + 0.1 * rng.standard_normal((m, p))
    if zero == "A":
        a[:, 1] = 0.0
    elif zero == "B":
        b[:, -1] = 0.0
    a, b = np.ldexp(a, scale), np.ldexp(b, scale)
    if p == 1:
        return (solve_tls_system, (Matrix(a), Vector(b[:, 0])),
                np.column_stack([a, -b]))
    return solve_tls_multi, (Matrix(a), Matrix(b)), np.column_stack([a, b])


# 40 x 3 sweeps C on A; 1200 x 8 and 300 x 40 (p = 2) sweep R^T of the
# preconditioned SVD.  A zero column of A leaves no TLS solution; one of B
# gives C an exactly zero singular value that still has a solution.
@pytest.mark.parametrize("zero", [None, "A", "B"])
@pytest.mark.parametrize("m, n, p", [(40, 3, 1), (1200, 8, 1), (300, 40, 2)])
def test_nearest_system_is_the_rank_n_truncation(m, n, p, zero):
    solver, args, c = nearest_problem(m, n, p, zero)
    if zero == "A":
        with pytest.raises(NoTlsSolutionError) as info:
            solver(*args)
        null_vector = info.value.null_vector.array
        assert null_vector.tolist() == np.eye(n + p)[1].tolist()
        assert info.value.sigma.array[-1] == 0.0
        for k in (600, -600):
            solver, args, _ = nearest_problem(m, n, p, zero, k)
            with pytest.raises(NoTlsSolutionError) as scaled:
                solver(*args)
            assert np.array_equal(scaled.value.sigma.array,
                                  np.ldexp(info.value.sigma.array, k))
        return
    sol = solver(*args)
    near, s = sol.nearest_system.array, sol.sigma.array
    c_norm = np.linalg.norm(c)
    assert np.linalg.norm(c - near) ** 2 == pytest.approx(
        np.sum(s[n:] ** 2), rel=1e-12, abs=1e-24 * c_norm ** 2)
    v2 = np.linalg.svd(c, full_matrices=False)[2][n:].T  # LAPACK basis
    assert np.linalg.norm(near @ v2) <= 1e-13 * c_norm
    x = sol.x.array if p > 1 else sol.coefficients.array[:, None]
    g = near[:, n:] if p > 1 else -near[:, n:]
    assert np.linalg.norm(near[:, :n] @ x - g) <= 1e-12 * np.linalg.norm(g)
    for k in (600, -600):
        solver, args, _ = nearest_problem(m, n, p, zero, k)
        assert np.array_equal(solver(*args).nearest_system.array,
                              np.ldexp(near, k))


def test_tls_fits_ask_for_u_only_on_the_v22_block(monkeypatch):
    """The nearest system comes from C and V alone: the one SVD of a TLS
    system or multi-RHS fit that forms U is that of the p x p V22."""
    calls = []
    thin_svd = system._thin_svd

    def recording(a, with_u=True):
        calls.append((a.shape, with_u))
        return thin_svd(a, with_u)

    monkeypatch.setattr(system, "_thin_svd", recording)
    for m, n, p in [(40, 3, 1), (1200, 8, 1), (300, 40, 2), (30, 4, 3)]:
        solver, args, c = nearest_problem(m, n, p, None)
        calls.clear()
        solver(*args)
        assert calls == [(c.shape, False), ((p, p), True)]
