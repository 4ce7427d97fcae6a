"""Independent reference answers built on LAPACK (np.linalg) alone.

Nothing here imports tlsfit.  Each ``*_ref`` function returns a dict of
named reference values together with the scale each is compared on, and
the yes/no verdicts computed with the documented thresholds.  ``check``
compares what the program returned against it.
"""
from __future__ import annotations

import math

import numpy as np

# A value counts as correct when its normwise relative error is at most
# TOLERANCE; digits are -log10 of that error, capped at DIGITS_CAP.
TOLERANCE = 1e-8
DIGITS_CAP = 16.0
# Documented verdict thresholds: rank cutoff relative to sigma_1, tie gap
# relative to max(sigma_1, 1), and the expressibility bound on the
# normal's last component.
RANK_REL_TOL = 1e-12
GAP_TOL = 1e-10
EXPRESSIBILITY_TOL = 1e-10


def _unique(sigma, k):
    return bool(sigma[k - 1] - sigma[k] > GAP_TOL * max(sigma[0], 1.0))


def _norm(x):
    return float(np.linalg.norm(x))


def ols_ref(a, y):
    """Minimum-norm least squares solution of a c = y."""
    sigma = np.linalg.svd(a, compute_uv=False)
    c = np.linalg.lstsq(a, y, rcond=None)[0]
    residual = _norm(a @ c - y)
    ynorm = max(_norm(y), 1e-300)
    return {
        "values": {"coefficients": (c, _norm(c)),
                   "residual_norm": (residual, ynorm),
                   "objective": (residual ** 2, ynorm ** 2),
                   "singular_values": (sigma, sigma[0])},
        "flags": {"rank_deficient": bool(
            (sigma <= RANK_REL_TOL * sigma[0]).any())},
    }


def hyperplane_ref(points):
    """Orthogonal-distance hyperplane through the centroid."""
    n = points.shape[1]
    center = points.mean(axis=0)
    _, sigma, vt = np.linalg.svd(points - center, full_matrices=False)
    normal = vt[n - 1]
    unique = _unique(sigma, n - 1)
    ref = {
        "values": {"centroid": (center, max(_norm(center), 1.0)),
                   "objective": (sigma[-1] ** 2, sigma[0] ** 2),
                   "singular_values": (sigma, sigma[0])},
        "flags": {"unique": unique},
        # Any unit vector in the span of the tied directions is a valid
        # normal; a unique normal is fixed up to sign.
        "normal_basis": vt[n - 2:] if not unique else vt[n - 1:],
    }
    if unique:
        expressible = abs(normal[-1]) > EXPRESSIBILITY_TOL
        ref["flags"]["expressible"] = bool(expressible)
        if expressible:
            slope = -normal[:-1] / normal[-1]
            coeffs = np.concatenate(([center[-1] - slope @ center[:-1]],
                                     slope))
            ref["values"]["explicit_coeffs"] = (coeffs, _norm(coeffs))
    return ref


def _tls_blocks(c, n):
    """X = -V12 V22^-1 and the rank-n truncation of c."""
    u, sigma, vt = np.linalg.svd(c, full_matrices=False)
    v = vt.T
    x = -v[:n, n:] @ np.linalg.inv(v[n:, n:])
    nearest = (u[:, :n] * sigma[:n]) @ vt[:n]
    return x, nearest, sigma


def tls_system_ref(a, b):
    n = a.shape[1]
    aug = np.column_stack([a, -b])
    x, nearest, sigma = _tls_blocks(aug, n)
    # (A | -b)(x; 1) = 0 differs from (A | B) X = 0 only in the sign of b.
    x = -x[:, 0]
    return {
        "values": {"coefficients": (x, _norm(x)),
                   "nearest_system": (nearest, _norm(sigma)),
                   "singular_values": (sigma, sigma[0]),
                   "tls_residual": (sigma[n], sigma[0]),
                   "objective": (sigma[n] ** 2, sigma[0] ** 2)},
        "flags": {"unique": _unique(sigma, n)},
    }


def tls_multi_ref(a, b):
    n = a.shape[1]
    x, nearest, sigma = _tls_blocks(np.column_stack([a, b]), n)
    return {
        "values": {"x": (x, _norm(x)),
                   "nearest_system": (nearest, _norm(sigma)),
                   "singular_values": (sigma, sigma[0]),
                   "objective": (float(np.sum(sigma[n:] ** 2)),
                                 sigma[0] ** 2)},
        "flags": {"unique": _unique(sigma, n)},
    }


def tls_fixed_ref(a1, a2, b):
    """Mixed LS-TLS: project A2 and B off range(A1), solve the TLS problem
    there, then the minimum-norm least squares problem for X1."""
    k = a2.shape[1]
    u1, s1, _ = np.linalg.svd(a1, full_matrices=False)
    rank = int(np.count_nonzero(s1 > RANK_REL_TOL * s1[0]))
    basis = u1[:, :rank]
    block = np.column_stack([a2, b])
    projected = block - basis @ (basis.T @ block)
    x2, _, sigma = _tls_blocks(projected, k)
    x1 = np.linalg.lstsq(a1, b - a2 @ x2, rcond=RANK_REL_TOL)[0]
    minimized = float(np.sum(sigma[k:] ** 2))
    stacked = np.vstack([x1, x2])
    return {
        "values": {"x1": (x1, _norm(x1)), "x2": (x2, _norm(x2)),
                   "coefficients": (stacked, _norm(stacked)),
                   "minimized_value": (minimized, _norm(block) ** 2),
                   "objective": (minimized, _norm(block) ** 2)},
        "flags": {"x1_unique": rank == a1.shape[1],
                  "unique": rank == a1.shape[1]},
    }


def _relative_error(got, want, scale):
    """Normwise relative error; NaN when ``got`` is missing (None) or has
    the wrong shape, so that it can only fail."""
    if got is None:
        return math.nan
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return math.nan
    return _norm(got - want) / (scale if scale > 0.0 else 1.0)


def check(ref, got):
    """Compare the program's values and verdicts with the reference.

    ``got`` holds "values" (name -> array, None where the program left a
    value out), "flags" (name -> bool) and optionally "normal"; its names
    are every value the output form carries.  Each value that both sides
    name is compared, so a value the reference has and the output leaves
    out fails, as does any error that is not finite.  Returns (ok, digits):
    digits lie in [0, DIGITS_CAP] and are 0 when a value could not be
    compared or nothing was; they are None when a verdict differs.
    """
    for name, flag in got["flags"].items():
        if name in ref["flags"] and ref["flags"][name] is not flag:
            return False, None
    errors = [_relative_error(value, *ref["values"][name])
              for name, value in got["values"].items()
              if name in ref["values"]]
    if "normal" in got:
        normal, basis = got["normal"], ref["normal_basis"]
        normal = np.asarray(math.nan if normal is None else normal,
                            dtype=float)
        if normal.shape != basis.shape[1:]:
            return False, 0.0
        # Distance from the reference span, then distance from unit length.
        errors += [_norm(normal - basis.T @ (basis @ normal)),
                   abs(_norm(normal) - 1.0)]
    if not errors or not all(math.isfinite(e) for e in errors):
        return False, 0.0
    worst = max(errors)
    digits = DIGITS_CAP if worst == 0.0 else \
        min(DIGITS_CAP, max(0.0, -math.log10(worst)))
    return worst <= TOLERANCE, digits
