"""Brute-force and closed-form checkers for the test suite.

Deliberately naive: nothing here calls the QR/SVD kernels or the fitting
routines, so these results are independent evidence.  Randomized probes
take an explicit seed so failures reproduce exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from tlsfit import DimensionError, Matrix, PointCloud, Vector

__all__ = [
    "AngleSearchResult",
    "line_angle_search",
    "sym_eigen_closed_form",
    "perturbation_probe",
    "graded_known_sigma",
    "steep_rows",
    "tied_known_sigma",
]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class AngleSearchResult:
    """Best line angle found by exhaustive search plus refinement."""

    best_angle: float
    best_objective: float
    samples: int


def line_angle_search(cloud: PointCloud, samples: int = 3600) -> AngleSearchResult:
    """Minimize the squared-distance sum over lines through the centroid.

    A line at angle phi has unit normal (sin phi, -cos phi); the objective
    sum_i (sin(phi) dx_i - cos(phi) dy_i)^2 is scanned on a uniform grid
    over [0, pi) and then refined by golden-section search around the best
    cell until the bracket is narrower than 1e-10 radians.
    """
    if cloud.dim != 2:
        raise DimensionError(
            f"line_angle_search: only 2-d clouds, got dimension {cloud.dim}")
    if samples < 360:
        raise ValueError(f"line_angle_search: need samples >= 360, got {samples}")
    pts = cloud.points.array
    dx = pts[:, 0] - pts[:, 0].mean()
    dy = pts[:, 1] - pts[:, 1].mean()

    def objective(phi: float) -> float:
        return float(np.sum((math.sin(phi) * dx - math.cos(phi) * dy) ** 2))

    grid = np.arange(samples) * (math.pi / samples)
    values = np.sum(
        (np.outer(dx, np.sin(grid)) - np.outer(dy, np.cos(grid))) ** 2, axis=0)
    k = int(np.argmin(values))
    best_angle = float(grid[k])
    best_value = float(values[k])

    # Golden-section refinement on the bracket around the best grid cell.
    lo = best_angle - math.pi / samples
    hi = best_angle + math.pi / samples
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = objective(c), objective(d)
    while (b - a) > 1e-10:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = objective(d)
    for phi, val in ((c, fc), (d, fd)):
        if val < best_value:
            best_angle, best_value = phi, val
    return AngleSearchResult(
        best_angle=best_angle % math.pi,
        best_objective=best_value,
        samples=samples,
    )


def _det3(s: np.ndarray) -> float:
    return (s[0, 0] * (s[1, 1] * s[2, 2] - s[1, 2] * s[2, 1])
            - s[0, 1] * (s[1, 0] * s[2, 2] - s[1, 2] * s[2, 0])
            + s[0, 2] * (s[1, 0] * s[2, 1] - s[1, 1] * s[2, 0]))


def sym_eigen_closed_form(s: Matrix) -> Vector:
    """Eigenvalues of a symmetric 2x2 or 3x3 matrix, descending.

    2x2 by the quadratic formula; 3x3 by the trigonometric solution of
    the characteristic cubic.
    """
    n = s.rows
    if s.cols != n or n not in (2, 3):
        raise DimensionError(
            f"sym_eigen_closed_form: need square 2x2 or 3x3, got {s.rows}x{s.cols}")
    a = s.array
    if np.abs(a - a.T).max() > 1e-12:
        raise DimensionError("sym_eigen_closed_form: matrix is not symmetric")
    if n == 2:
        half_trace = (a[0, 0] + a[1, 1]) / 2.0
        radius = math.hypot((a[0, 0] - a[1, 1]) / 2.0, a[0, 1])
        return Vector([half_trace + radius, half_trace - radius])
    off2 = a[0, 1] ** 2 + a[0, 2] ** 2 + a[1, 2] ** 2
    q = (a[0, 0] + a[1, 1] + a[2, 2]) / 3.0
    if off2 == 0.0:
        return Vector(sorted((a[0, 0], a[1, 1], a[2, 2]), reverse=True))
    p2 = ((a[0, 0] - q) ** 2 + (a[1, 1] - q) ** 2 + (a[2, 2] - q) ** 2
          + 2.0 * off2)
    p = math.sqrt(p2 / 6.0)
    b = (a - q * np.eye(3)) / p
    r = min(1.0, max(-1.0, _det3(b) / 2.0))
    phi = math.acos(r) / 3.0
    eig1 = q + 2.0 * p * math.cos(phi)
    eig3 = q + 2.0 * p * math.cos(phi + 2.0 * math.pi / 3.0)
    eig2 = 3.0 * q - eig1 - eig3
    return Vector(sorted((eig1, eig2, eig3), reverse=True))


def graded_known_sigma(rng: np.random.Generator, m: int, n: int,
                       smallest: float = 1e-30):
    """An m x n matrix with known, widely graded singular values.

    A = Q D: Q is the orthonormal factor of LAPACK's QR of a Gaussian
    matrix, D is diagonal with entries spaced geometrically from 1 down
    to ``smallest``, in random order.  A^T A = D^2, so the singular values
    are the entries of D; Q's departure from orthonormality and the
    rounding of its scaled columns move each of them by O(sqrt(n) eps)
    relative, however small it is (Demmel & Veselic, SIAM J. Matrix
    Anal. Appl. 13(4), 1992).  Returns (A, sigma) with sigma descending.
    """
    if not 1 <= n <= m:
        raise DimensionError(
            f"graded_known_sigma: need 1 <= n <= m, got {m} x {n}")
    q, _ = np.linalg.qr(rng.standard_normal((m, n)))
    d = np.geomspace(1.0, smallest, n)
    return q * d[rng.permutation(n)], d


def steep_rows(rng: np.random.Generator, m: int, n: int):
    """An m x n Gaussian matrix whose rows are graded steeply: the first n
    geometrically from 1 to 1e-30, all others at 1e-33, then shuffled."""
    scale = np.concatenate([np.geomspace(1.0, 1e-30, n),
                            np.full(m - n, 1e-33)])
    return (rng.standard_normal((m, n)) * scale[:, None])[rng.permutation(m)]


def tied_known_sigma(rng: np.random.Generator, m: int, n: int):
    """An m x n matrix A = Q diag(s) P^T whose singular values come in
    exactly tied pairs, geometrically from 2 down to 1/2 (odd n ends in one
    untied value); Q and P are the orthonormal factors of LAPACK's QR of
    Gaussian matrices.  Returns (A, s) with s descending."""
    q = np.linalg.qr(rng.standard_normal((m, n)))[0]
    p = np.linalg.qr(rng.standard_normal((n, n)))[0]
    sigma = np.repeat(np.geomspace(2.0, 0.5, (n + 1) // 2), 2)[:n]
    return (q * sigma) @ p.T, sigma


def perturbation_probe(
    objective: Callable[[Vector], float],
    point: Vector,
    trials: int,
    radius: float,
    seed: int = 0,
) -> bool:
    """True iff no sampled perturbation of the given radius improves.

    Draws ``trials`` directions uniformly on the sphere and checks
    objective(point) <= objective(point + delta) + 1e-12 for each.
    """
    if radius <= 0.0:
        raise ValueError(f"perturbation_probe: radius must be > 0, got {radius}")
    if trials < 1:
        raise ValueError(f"perturbation_probe: trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    base = objective(point)
    x = point.array
    for _ in range(trials):
        direction = rng.standard_normal(x.shape[0])
        norm = np.linalg.norm(direction)
        if norm == 0.0:
            continue
        delta = direction * (radius / norm)
        if base > objective(Vector(x + delta)) + 1e-12:
            return False
    return True
