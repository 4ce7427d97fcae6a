"""Command-line front end: CSV in, JSON or plain-text fit report out.

Exit codes: 0 on success, 1 on input or usage errors, 2 when the TLS
problem has no solution (the report is still emitted, with the error
block populated).  JSON output is deterministic: fixed key order and
floats rendered with 17 significant digits.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .errors import (
    ConvergenceError,
    DegenerateAbscissaError,
    DimensionError,
    EmptyDataError,
    FitError,
    FormatError,
    NoTlsSolutionError,
    RangeError,
    RankDeficiencyError,
)
from .extensions import solve_tls_fixed, solve_tls_multi
from .geometry import PointCloud, fit_hyperplane_tls
from .linalg import Matrix, Vector, _sum_of_squares
from .ols import Method, solve_ols
from .system import solve_tls_system

__all__ = ["FitRequest", "FitReport", "parse_csv", "run", "main"]

MODES = ("ols", "tls-line", "tls-plane", "tls-system", "tls-multi", "tls-fixed")

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_NO_TLS_SOLUTION = 2


@dataclass(frozen=True)
class FitRequest:
    """One fitting job: a mode, an input file and the column split."""

    mode: str
    input_path: str
    rhs_cols: int = 1
    frozen_cols: int = 0
    output_format: str = "json"


@dataclass
class FitReport:
    """Everything a caller needs from one fit, solution or diagnosis.

    Exactly one of the solution fields and ``error`` is populated.
    ``singular_values`` is filled whenever a decomposition was reached,
    including the no-TLS-solution case.
    """

    mode: str
    coefficients: Optional[list] = None
    normal: Optional[list] = None
    centroid: Optional[list] = None
    objective: Optional[float] = None
    singular_values: Optional[list] = None
    unique: Optional[bool] = None
    expressible: Optional[bool] = None
    error: Optional[dict] = None

    def fields(self):
        return tuple((f.name, getattr(self, f.name)) for f in fields(self))


def parse_csv(path: str) -> Matrix:
    """Read a rectangular numeric CSV into a Matrix, rows in file order.

    A single leading header row is skipped when any of its cells is
    non-numeric; an all-numeric first row counts as data.  Blank lines
    are ignored.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    width = None
    values = []
    header_allowed = True
    for lineno, record in enumerate(rows, start=1):
        if not record or all(cell.strip() == "" for cell in record):
            continue
        parsed = []
        bad_col = None
        for col, cell in enumerate(record, start=1):
            try:
                value = float(cell.strip())
            except ValueError:
                bad_col = col
                break
            if not math.isfinite(value):
                bad_col = col
                break
            parsed.append(value)
        if bad_col is not None:
            if header_allowed:
                header_allowed = False
                continue
            raise FormatError(
                f"non-numeric cell at line {lineno}, column {bad_col}",
                line=lineno, col=bad_col)
        header_allowed = False
        if width is None:
            width = len(parsed)
        elif len(parsed) != width:
            raise FormatError(
                f"ragged row at line {lineno}: {len(parsed)} cells, "
                f"expected {width}", line=lineno)
        values.append(parsed)
    if not values:
        raise EmptyDataError(f"{path}: no numeric data rows")
    return Matrix(values)


def _fit_ols(data: Matrix, report: FitReport) -> None:
    if data.cols < 2:
        raise DimensionError("ols: need at least 2 columns (x..., y)")
    arr = data.array
    design = Matrix(np.column_stack([np.ones(data.rows), arr[:, :-1]]))
    y = Vector(arr[:, -1])
    solution = solve_ols(design, y, Method.SVD)
    report.coefficients = solution.coefficients.array.tolist()
    report.objective = _sum_of_squares(solution.residual_norm, "objective")
    report.singular_values = solution.sigma.array.tolist()
    report.unique = not solution.rank_deficient


def _fit_geometry(data: Matrix, report: FitReport, line_only: bool) -> None:
    if line_only and data.cols != 2:
        raise DimensionError(
            f"tls-line: need exactly 2 columns, got {data.cols}")
    fit = fit_hyperplane_tls(PointCloud(data))
    report.normal = fit.normal.array.tolist()
    report.centroid = fit.centroid.array.tolist()
    report.objective = fit.objective
    report.singular_values = fit.sigma.array.tolist()
    report.unique = fit.unique
    report.expressible = fit.expressible
    if fit.explicit_coeffs is not None:
        report.coefficients = fit.explicit_coeffs.array.tolist()


def _fit_system(data: Matrix, request: FitRequest, report: FitReport) -> None:
    if request.rhs_cols != 1:
        raise DimensionError("tls-system: exactly one right-hand-side column")
    if data.cols < 2:
        raise DimensionError("tls-system: need at least 2 columns")
    arr = data.array
    a = Matrix(arr[:, :-1])
    b = Vector(arr[:, -1])
    solution = solve_tls_system(a, b)
    report.coefficients = solution.coefficients.array.tolist()
    report.objective = _sum_of_squares(solution.tls_residual, "objective")
    report.singular_values = solution.sigma.array.tolist()
    report.unique = solution.unique


def _fit_multi(data: Matrix, request: FitRequest, report: FitReport) -> None:
    p = request.rhs_cols
    if not 1 <= p <= data.cols - 1:
        raise DimensionError(
            f"tls-multi: rhs-cols must be in [1, {data.cols - 1}], got {p}")
    arr = data.array
    solution = solve_tls_multi(Matrix(arr[:, :-p]), Matrix(arr[:, -p:]))
    n = data.cols - p
    report.coefficients = solution.x.array.tolist()
    report.objective = _sum_of_squares(solution.sigma.array[n:], "objective")
    report.singular_values = solution.sigma.array.tolist()
    report.unique = solution.unique


def _fit_fixed(data: Matrix, request: FitRequest, report: FitReport) -> None:
    j, p = request.frozen_cols, request.rhs_cols
    if j < 0 or p < 1 or j + p >= data.cols:
        raise DimensionError(
            f"tls-fixed: need 0 <= frozen-cols and frozen-cols + rhs-cols "
            f"< {data.cols}, got {j} + {p}")
    arr = data.array
    solution = solve_tls_fixed(
        Matrix(arr[:, :j]), Matrix(arr[:, j:data.cols - p]),
        Matrix(arr[:, data.cols - p:]))
    report.coefficients = np.vstack(
        [solution.x1.array, solution.x2.array]).tolist()
    report.objective = solution.minimized_value
    report.unique = solution.x1_unique


_ERROR_KINDS = (
    (FormatError, "format_error"),
    (EmptyDataError, "empty_data"),
    (DegenerateAbscissaError, "degenerate_abscissa"),
    (DimensionError, "dimension_error"),
    (RankDeficiencyError, "rank_deficiency"),
    (ConvergenceError, "convergence_error"),
    (RangeError, "range_error"),
    (MemoryError, "memory_error"),
)


def _error_kind(exc: Exception) -> str:
    for cls, kind in _ERROR_KINDS:
        if isinstance(exc, cls):
            return kind
    return "io_error" if isinstance(exc, OSError) else "usage_error"


def run(request: FitRequest):
    """Execute one request; returns (FitReport, exit_code)."""
    report = FitReport(mode=request.mode)
    try:
        if request.mode not in MODES:
            raise ValueError(f"unknown mode {request.mode!r}")
        data = parse_csv(request.input_path)
        if request.mode == "ols":
            _fit_ols(data, report)
        elif request.mode == "tls-line":
            _fit_geometry(data, report, line_only=True)
        elif request.mode == "tls-plane":
            _fit_geometry(data, report, line_only=False)
        elif request.mode == "tls-system":
            _fit_system(data, request, report)
        elif request.mode == "tls-multi":
            _fit_multi(data, request, report)
        else:
            _fit_fixed(data, request, report)
    except NoTlsSolutionError as exc:
        report.error = {
            "kind": "no_tls_solution",
            "detail": str(exc),
            "null_vector": exc.null_vector.array.tolist(),
        }
        report.singular_values = exc.sigma.array.tolist()
        return report, EXIT_NO_TLS_SOLUTION
    except (FitError, OSError, ValueError, MemoryError) as exc:
        # A fit that fails after filling some fields reports none of them.
        return FitReport(mode=request.mode, error={
            "kind": _error_kind(exc),
            "detail": str(exc) or "out of memory",
            "null_vector": None,
        }), EXIT_INPUT_ERROR
    return report, EXIT_OK


# ---------------------------------------------------------------------------
# Rendering


def _json_value(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value + 0.0, ".17g")  # +0.0 folds -0.0 into 0
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_json_value(item) for item in value) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(
            f"{json.dumps(key)}: {_json_value(item)}"
            for key, item in value.items()) + "}"
    raise TypeError(f"cannot serialize {type(value)!r}")


def render_json(report: FitReport) -> str:
    body = ", ".join(f"{json.dumps(name)}: {_json_value(value)}"
                     for name, value in report.fields())
    return "{" + body + "}"


def render_text(report: FitReport) -> str:
    lines = []
    for name, value in report.fields():
        lines.append(f"{name}: {_json_value(value)}")
    return "\n".join(lines)


class _Parser(argparse.ArgumentParser):
    # Usage mistakes are input errors: exit 1, not argparse's default 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def main(argv=None) -> int:
    parser = _Parser(
        prog="fit",
        description="Fit data by ordinary or total least squares and "
                    "report coefficients plus diagnostics.")
    parser.add_argument("mode", choices=MODES, help="fitting mode")
    parser.add_argument("--input", required=True, metavar="PATH",
                        help="rectangular numeric CSV (optional header row)")
    parser.add_argument("--rhs-cols", type=int, default=1, metavar="N",
                        help="number of trailing right-hand-side columns "
                             "(system modes; default 1)")
    parser.add_argument("--frozen-cols", type=int, default=0, metavar="J",
                        help="number of leading frozen columns (tls-fixed)")
    parser.add_argument("--format", choices=("json", "text"), default="json",
                        dest="output_format", help="report format")
    args = parser.parse_args(argv)
    request = FitRequest(
        mode=args.mode,
        input_path=args.input,
        rhs_cols=args.rhs_cols,
        frozen_cols=args.frozen_cols,
        output_format=args.output_format,
    )
    report, code = run(request)
    render = render_json if request.output_format == "json" else render_text
    sys.stdout.write(render(report) + "\n")
    if report.error is not None:
        sys.stderr.write(f"fit: {report.error['kind']}: "
                         f"{report.error['detail']}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
