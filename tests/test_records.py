"""Result records, FitRequest and FitReport: immutable named tuples."""
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from tlsfit import (FixedColsSolution, HyperplaneFit, Matrix, Method,
                    MultiRhsSolution, OlsSolution, PointCloud, QrResult,
                    SvdResult, TlsSystemSolution, Vector, fit_hyperplane_tls,
                    householder_qr, jacobi_svd, solve_ols, solve_tls_fixed,
                    solve_tls_multi, solve_tls_system)
from tlsfit.cli import FitReport, FitRequest

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

# Each record with its fields in order and its documented defaults.
RECORDS = [
    (QrResult, ("q", "r_upper"), {}),
    (SvdResult, ("u", "sigma", "v"), {}),
    (OlsSolution, ("coefficients", "residual_norm", "method",
                   "rank_deficient", "sigma"), {"sigma": None}),
    (HyperplaneFit, ("centroid", "normal", "objective", "unique",
                     "expressible", "explicit_coeffs", "sigma"), {}),
    (TlsSystemSolution, ("coefficients", "nearest_system", "sigma", "unique",
                         "tls_residual"), {}),
    (MultiRhsSolution, ("x", "nearest_system", "sigma", "unique"), {}),
    (FixedColsSolution, ("x1", "x2", "minimized_value", "x1_unique"), {}),
    (FitRequest, ("mode", "input_path", "rhs_cols", "frozen_cols",
                  "output_format"),
     {"rhs_cols": 1, "frozen_cols": 0, "output_format": "json"}),
    (FitReport, ("mode", "coefficients", "normal", "centroid", "objective",
                 "singular_values", "unique", "expressible", "error"),
     {name: None for name in ("coefficients", "normal", "centroid",
                              "objective", "singular_values", "unique",
                              "expressible", "error")}),
]


@pytest.mark.parametrize("cls, names, defaults", RECORDS,
                         ids=[cls.__name__ for cls, _, _ in RECORDS])
def test_record_fields_defaults_and_immutability(cls, names, defaults):
    assert cls._fields == names
    assert cls._field_defaults == defaults
    required = {name: f"<{name}>" for name in names if name not in defaults}
    record = cls(**required)
    assert record._asdict() == {**required, **defaults}
    assert tuple(record) == tuple({**required, **defaults}[n] for n in names)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    with pytest.raises(AttributeError):
        record.extra = 0


def test_solvers_return_records_that_unpack():
    """Every public solver returns its record, which unpacks in field
    order."""
    rng = np.random.default_rng(7)
    a, b = Matrix(rng.standard_normal((6, 2))), rng.standard_normal((6, 2))
    y = Vector(b[:, 0])
    results = [
        (householder_qr(a), QrResult), (jacobi_svd(a), SvdResult),
        (solve_ols(a, y, Method.QR), OlsSolution),
        (fit_hyperplane_tls(PointCloud(b)), HyperplaneFit),
        (solve_tls_system(a, y), TlsSystemSolution),
        (solve_tls_multi(a, Matrix(b)), MultiRhsSolution),
        (solve_tls_fixed(Matrix(b[:, :1]), a, Matrix(b[:, 1:])),
         FixedColsSolution),
    ]
    for result, cls in results:
        assert type(result) is cls
        assert [*result] == [getattr(result, n) for n in cls._fields]
    u, sigma, v = jacobi_svd(a)
    assert (u.shape, sigma.len, v.shape) == ((6, 6), 2, (2, 2))


def test_report_fields_follow_the_readme_key_order():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"The JSON report has a fixed key order:\s*```json\n"
                      r"(.*?)```", text, re.S)[1]
    assert FitReport._fields == tuple(re.findall(r'"(\w+)": \.\.\.', block))


def test_importing_the_cli_loads_no_dataclasses():
    """The records are named tuples, so importing the package and its CLI
    generates no dataclass code."""
    code = ("import sys; before = set(sys.modules); import tlsfit.cli; "
            "print(sorted(set(sys.modules) - before))")
    loaded = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, check=True).stdout
    assert "'tlsfit.cli'" in loaded
    assert "dataclasses" not in loaded
