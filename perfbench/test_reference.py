"""check() fails every value it cannot trust.

Run from the repository root: python -m pytest perfbench/test_reference.py
"""
import math
import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import reference  # noqa: E402

RNG = np.random.default_rng(0)
A = RNG.standard_normal((20, 3))
Y = A @ np.array([1.0, -2.0, 0.5]) + 0.1 * RNG.standard_normal(20)
REF = reference.ols_ref(A, Y)
EXACT = np.linalg.lstsq(A, Y, rcond=None)[0]
RESIDUAL = float(np.linalg.norm(A @ EXACT - Y))


def got(coefficients, residual=RESIDUAL, rank_deficient=False):
    return {"values": {"coefficients": coefficients,
                       "residual_norm": residual},
            "flags": {"rank_deficient": rank_deficient}}


def test_exact_values_pass_with_finite_digits():
    ok, digits = reference.check(REF, got(EXACT))
    assert ok and 12.0 <= digits <= reference.DIGITS_CAP


def test_nan_value_fails():
    assert reference.check(REF, got(EXACT * math.nan)) == (False, 0.0)
    assert reference.check(REF, got(EXACT, residual=math.nan)) == (False, 0.0)


def test_missing_value_fails():
    assert reference.check(REF, got(None)) == (False, 0.0)
    assert reference.check(REF, got(EXACT, residual=None)) == (False, 0.0)


def test_wrong_shape_fails_with_finite_digits():
    assert reference.check(REF, got(EXACT[:2])) == (False, 0.0)


def test_nothing_compared_fails():
    assert reference.check(REF, {"values": {}, "flags": {}}) == (False, 0.0)


def test_wrong_verdict_fails():
    assert not reference.check(REF, got(EXACT, rank_deficient=True))[0]


def test_inaccurate_value_fails_with_its_digits():
    ok, digits = reference.check(REF, got(EXACT * (1 + 1e-5)))
    assert not ok and 4.0 < digits < 6.0


def test_missing_normal_fails():
    points = RNG.standard_normal((30, 3)) * [3.0, 1.0, 0.2]
    ref = reference.hyperplane_ref(points)
    form = {"values": {"centroid": points.mean(axis=0)},
            "flags": {"unique": True}, "normal": None}
    assert reference.check(ref, form) == (False, 0.0)
