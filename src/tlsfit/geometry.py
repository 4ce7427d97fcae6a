"""Orthogonal-distance (total least squares) line and hyperplane fitting.

The fitted hyperplane always passes through the centroid of the cloud;
its unit normal is the right singular vector of the centered data matrix
belonging to the smallest singular value.  The fit always exists, but it
is unique only when the two smallest singular values are separated, and
it is expressible as y = c0 + sum_k c_k x_k only when the normal has a
nonzero last component.
"""
from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from .errors import DimensionError
from .linalg import (Matrix, Vector, _binary_exponent, _ldexp_in_range,
                     _sum_of_squares)
from .system import _tls_split

__all__ = ["PointCloud", "HyperplaneFit", "fit_hyperplane_tls",
           "point_hyperplane_distance"]


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


class HyperplaneFit(NamedTuple):
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


def fit_hyperplane_tls(cloud: PointCloud) -> HyperplaneFit:
    """Fit the hyperplane minimizing the sum of squared true distances.

    Requires at least as many points as coordinates.  A fit is always
    returned; non-uniqueness (tied smallest singular values) and
    non-expressibility (vertical hyperplane) are reported as flags, with
    the deterministic SVD sign convention picking the reported normal.
    The cloud is centered after scaling it by an exact power of two, so
    the centroid of any finite cloud is representable; RangeError means
    that a singular value, the intercept c0 or the objective is not.
    """
    m, n = cloud.size, cloud.dim
    if m < n:
        raise DimensionError(
            f"fit_hyperplane_tls: need at least {n} points in R^{n}, got {m}")
    exponent = _binary_exponent(cloud.points.array)
    centered = np.ldexp(cloud.points.array, -exponent)
    center = np.add.reduce(centered, axis=0) / m
    centered -= center
    # y = c0 + slope . x is the one-column TLS split of the centered cloud.
    s, v, x, _, _, unique = _tls_split(centered, n - 1, exponent)
    explicit = None
    if x is not None:
        slope = x[:, 0]
        c0 = _ldexp_in_range(center[n - 1] - slope @ center[:n - 1],
                             exponent, "intercept c0")
        explicit = Vector(np.concatenate(([c0], slope)))
    return HyperplaneFit(
        centroid=Vector(np.ldexp(center, exponent)),
        normal=Vector(v[:, n - 1]),
        objective=_sum_of_squares(s[n - 1:], "objective"),
        unique=unique,
        expressible=x is not None,
        explicit_coeffs=explicit,
        sigma=Vector(s),
    )


def point_hyperplane_distance(fit: HyperplaneFit, z: Vector) -> float:
    """Euclidean distance |r . (z - centroid)| from a point to the fit, on
    z and the centroid scaled by one exact power of two (RangeError beyond
    the float range)."""
    if z.len != fit.centroid.len:
        raise DimensionError(
            f"point_hyperplane_distance: point has dimension {z.len}, "
            f"fit lives in R^{fit.centroid.len}")
    e = max(_binary_exponent(z.array), _binary_exponent(fit.centroid.array))
    diff = np.ldexp(z.array, -e) - np.ldexp(fit.centroid.array, -e)
    return float(_ldexp_in_range(abs(fit.normal.array @ diff), e, "distance"))
