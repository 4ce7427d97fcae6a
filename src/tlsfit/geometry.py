"""Orthogonal-distance (total least squares) line and hyperplane fitting.

The fitted hyperplane always passes through the centroid of the cloud;
its unit normal is the right singular vector of the centered data matrix
belonging to the smallest singular value.  The fit always exists, but it
is unique only when the two smallest singular values are separated, and
it is expressible as y = c0 + sum_k c_k x_k only when the normal has a
nonzero last component.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionError
from .linalg import Matrix, Vector
from .system import _tls_split

__all__ = [
    "PointCloud",
    "HyperplaneFit",
    "centroid",
    "center_matrix",
    "fit_hyperplane_tls",
    "point_hyperplane_distance",
]


class PointCloud:
    """A cloud of m points in R^n (m >= 2, n >= 2), one point per row."""

    __slots__ = ("_points",)

    def __init__(self, points):
        mat = points if isinstance(points, Matrix) else Matrix(points)
        if mat.rows < 2 or mat.cols < 2:
            raise DimensionError(
                f"PointCloud: need at least 2 points in R^(n>=2), "
                f"got {mat.rows} x {mat.cols}")
        self._points = mat

    @property
    def points(self) -> Matrix:
        return self._points

    @property
    def size(self) -> int:
        return self._points.rows

    @property
    def dim(self) -> int:
        return self._points.cols

    def __repr__(self):
        return f"PointCloud({self._points.array.tolist()!r})"


@dataclass(frozen=True)
class HyperplaneFit:
    """Result of a TLS hyperplane fit.

    ``objective`` is the minimized sum of squared orthogonal distances,
    equal to the square of the smallest singular value of the centered
    data matrix.  ``explicit_coeffs`` holds (c0, ..., c_{n-1}) of the
    explicit form y = c0 + c1 x1 + ... and is present iff ``expressible``.
    ``sigma`` lists all singular values of the centered matrix.
    """

    centroid: Vector
    normal: Vector
    objective: float
    unique: bool
    expressible: bool
    explicit_coeffs: Optional[Vector]
    sigma: Vector


def centroid(cloud: PointCloud) -> Vector:
    """Coordinate-wise mean of the cloud."""
    return Vector(cloud.points.array.mean(axis=0))


def center_matrix(cloud: PointCloud) -> Matrix:
    """The cloud with its centroid subtracted from every row."""
    pts = cloud.points.array
    return Matrix(pts - pts.mean(axis=0))


def fit_hyperplane_tls(cloud: PointCloud) -> HyperplaneFit:
    """Fit the hyperplane minimizing the sum of squared true distances.

    Requires at least as many points as coordinates.  A fit is always
    returned; non-uniqueness (tied smallest singular values) and
    non-expressibility (vertical hyperplane) are reported as flags, with
    the deterministic SVD sign convention picking the reported normal.
    """
    m, n = cloud.size, cloud.dim
    if m < n:
        raise DimensionError(
            f"fit_hyperplane_tls: need at least {n} points in R^{n}, got {m}")
    center = cloud.points.array.mean(axis=0)
    # y = c0 + slope . x is the one-column TLS split of the centered cloud.
    centered = cloud.points.array - center
    (_, s, v), x, _, _, unique = _tls_split(centered, n - 1)
    explicit = None
    if x is not None:
        slope = x[:, 0]
        c0 = center[n - 1] - slope @ center[:n - 1]
        explicit = Vector(np.concatenate(([c0], slope)))
    return HyperplaneFit(
        centroid=Vector(center),
        normal=Vector(v[:, n - 1]),
        objective=float(s[n - 1] ** 2),
        unique=unique,
        expressible=x is not None,
        explicit_coeffs=explicit,
        sigma=Vector(s),
    )


def point_hyperplane_distance(fit: HyperplaneFit, z: Vector) -> float:
    """Euclidean distance |r . (z - centroid)| from a point to the fit."""
    if z.len != fit.centroid.len:
        raise DimensionError(
            f"point_hyperplane_distance: point has dimension {z.len}, "
            f"fit lives in R^{fit.centroid.len}")
    return float(abs(fit.normal.array @ (z.array - fit.centroid.array)))
