"""Command-line front end: CSV in, JSON or plain-text fit report out.

Exit codes: 0 on success, 1 on input or usage errors, 2 when the TLS
problem has no solution (the report is still emitted, with the error
block populated).  JSON output is deterministic: fixed key order and
floats rendered with 17 significant digits.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from typing import NamedTuple, Optional

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

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_NO_TLS_SOLUTION = 2


class FitRequest(NamedTuple):
    """One fitting job: a mode, an input file and the column split."""

    mode: str
    input_path: str
    rhs_cols: int = 1
    frozen_cols: int = 0
    output_format: str = "json"


class FitReport(NamedTuple):
    """Everything a caller needs from one fit, solution or diagnosis.

    Exactly one of the solution fields and ``error`` is populated; the
    field order is the key order of the JSON report.  ``singular_values``
    is filled whenever a decomposition was reached, including the
    no-TLS-solution case, except that a solved ``tls-fixed`` fit leaves
    it None: the fixed-column solution carries no spectrum.
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
        return tuple(zip(self._fields, self))


def _finite_number(cell: str) -> bool:
    try:
        return math.isfinite(float(cell.strip()))
    except ValueError:
        return False


def parse_csv(path: str) -> Matrix:
    """Read a rectangular numeric CSV into a Matrix, rows in file order.

    A single leading header row is skipped when any of its cells does not
    parse as a number; an all-numeric first row counts as data.  A
    non-finite cell (inf, nan) is a FormatError on any line, the first
    included.  Blank lines are ignored.  The file is UTF-8, with or
    without a leading byte order mark; a byte that is not UTF-8 is a
    FormatError naming its line, and so is a record the csv module cannot
    read, such as one with a cell over ``csv.field_size_limit()``.  Lines
    are those of the file: an error in a record with a quoted cell that
    spans lines names its first line.
    """
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        text = raw.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        # One byte appended stands in for the line the bad byte is on.
        lineno = len((raw[:exc.start] + b".").splitlines())
        raise FormatError(f"non-UTF-8 byte 0x{raw[exc.start]:02x} at line "
                          f"{lineno}", line=lineno) from None
    # Lines end at \n, \r or \r\n only, as in a file opened with
    # newline=""; str.splitlines would also split at \x1c, \x85 and more.
    rows = csv.reader(io.StringIO(text, newline=""))
    width = None
    values = []
    header_allowed = True
    next_line = 1
    try:
        for record in rows:
            lineno, next_line = next_line, rows.line_num + 1
            if not record or all(cell.strip() == "" for cell in record):
                continue
            try:
                parsed = [float(cell.strip()) for cell in record]
            except ValueError:
                if header_allowed:
                    header_allowed = False
                    continue
                parsed = None
            header_allowed = False
            if parsed is None or not all(map(math.isfinite, parsed)):
                bad_col = next(col for col, cell in enumerate(record, start=1)
                               if not _finite_number(cell))
                raise FormatError(
                    f"non-numeric cell at line {lineno}, column {bad_col}",
                    line=lineno, col=bad_col)
            if width is None:
                width = len(parsed)
            elif len(parsed) != width:
                raise FormatError(
                    f"ragged row at line {lineno}: {len(parsed)} cells, "
                    f"expected {width}", line=lineno)
            values.append(parsed)
    except csv.Error as exc:  # e.g. a cell over csv.field_size_limit()
        raise FormatError(f"unreadable record at line {next_line}: {exc}",
                          line=next_line) from None
    if not values:
        raise EmptyDataError(f"{path}: no numeric data rows")
    return Matrix(values)


# Each _fit_* helper returns the report fields its mode fills.


def _fit_ols(data: Matrix, request: FitRequest) -> dict:
    if data.cols < 2:
        raise DimensionError("ols: need at least 2 columns (x..., y)")
    arr = data.array
    design = Matrix(np.column_stack([np.ones(data.rows), arr[:, :-1]]))
    solution = solve_ols(design, Vector(arr[:, -1]), Method.SVD)
    return dict(
        coefficients=solution.coefficients.array.tolist(),
        objective=_sum_of_squares(solution.residual_norm, "objective"),
        singular_values=solution.sigma.array.tolist(),
        unique=not solution.rank_deficient)


def _fit_geometry(data: Matrix, request: FitRequest) -> dict:
    if request.mode == "tls-line" and data.cols != 2:
        raise DimensionError(
            f"tls-line: need exactly 2 columns, got {data.cols}")
    fit = fit_hyperplane_tls(PointCloud(data))
    explicit = fit.explicit_coeffs
    return dict(
        coefficients=None if explicit is None else explicit.array.tolist(),
        normal=fit.normal.array.tolist(),
        centroid=fit.centroid.array.tolist(),
        objective=fit.objective,
        singular_values=fit.sigma.array.tolist(),
        unique=fit.unique,
        expressible=fit.expressible)


def _fit_system(data: Matrix, request: FitRequest) -> dict:
    if request.rhs_cols != 1:
        raise DimensionError("tls-system: exactly one right-hand-side column")
    if data.cols < 2:
        raise DimensionError("tls-system: need at least 2 columns")
    arr = data.array
    solution = solve_tls_system(Matrix(arr[:, :-1]), Vector(arr[:, -1]))
    return dict(
        coefficients=solution.coefficients.array.tolist(),
        objective=_sum_of_squares(solution.tls_residual, "objective"),
        singular_values=solution.sigma.array.tolist(),
        unique=solution.unique)


def _fit_multi(data: Matrix, request: FitRequest) -> dict:
    p = request.rhs_cols
    if not 1 <= p <= data.cols - 1:
        raise DimensionError(
            f"tls-multi: rhs-cols must be in [1, {data.cols - 1}], got {p}")
    arr = data.array
    solution = solve_tls_multi(Matrix(arr[:, :-p]), Matrix(arr[:, -p:]))
    s = solution.sigma.array
    return dict(
        coefficients=solution.x.array.tolist(),
        objective=_sum_of_squares(s[data.cols - p:], "objective"),
        singular_values=s.tolist(),
        unique=solution.unique)


def _fit_fixed(data: Matrix, request: FitRequest) -> dict:
    j, p = request.frozen_cols, request.rhs_cols
    if j < 0 or p < 1 or j + p >= data.cols:
        raise DimensionError(
            f"tls-fixed: need 0 <= frozen-cols and frozen-cols + rhs-cols "
            f"< {data.cols}, got {j} + {p}")
    arr = data.array
    solution = solve_tls_fixed(
        Matrix(arr[:, :j]), Matrix(arr[:, j:data.cols - p]),
        Matrix(arr[:, data.cols - p:]))
    return dict(
        coefficients=np.vstack(
            [solution.x1.array, solution.x2.array]).tolist(),
        objective=solution.minimized_value,
        unique=solution.x1_unique)


_FITS = {"ols": _fit_ols, "tls-line": _fit_geometry,
         "tls-plane": _fit_geometry, "tls-system": _fit_system,
         "tls-multi": _fit_multi, "tls-fixed": _fit_fixed}
MODES = tuple(_FITS)


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
    try:
        if request.mode not in MODES:
            raise ValueError(f"unknown mode {request.mode!r}")
        data = parse_csv(request.input_path)
        filled = _FITS[request.mode](data, request)
    except NoTlsSolutionError as exc:
        return FitReport(
            mode=request.mode,
            singular_values=exc.sigma.array.tolist(),
            error={"kind": "no_tls_solution", "detail": str(exc),
                   "null_vector": exc.null_vector.array.tolist()},
        ), EXIT_NO_TLS_SOLUTION
    except (FitError, OSError, ValueError, MemoryError) as exc:
        # A fit that fails reports no solution field.
        return FitReport(mode=request.mode, error={
            "kind": _error_kind(exc),
            "detail": str(exc) or "out of memory",
            "null_vector": None,
        }), EXIT_INPUT_ERROR
    return FitReport(mode=request.mode, **filled), EXIT_OK


# ---------------------------------------------------------------------------
# Rendering


def _json_value(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value + 0.0, ".17g")  # +0.0 folds -0.0 into 0
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
    return "\n".join(f"{name}: {_json_value(value)}"
                     for name, value in report.fields())


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
                        dest="input_path",
                        help="rectangular numeric CSV (optional header row)")
    parser.add_argument("--rhs-cols", type=int, default=1, metavar="N",
                        help="number of trailing right-hand-side columns "
                             "(system modes; default 1)")
    parser.add_argument("--frozen-cols", type=int, default=0, metavar="J",
                        help="number of leading frozen columns (tls-fixed)")
    parser.add_argument("--format", choices=("json", "text"), default="json",
                        dest="output_format", help="report format")
    request = FitRequest(**vars(parser.parse_args(argv)))
    report, code = run(request)
    render = render_json if request.output_format == "json" else render_text
    sys.stdout.write(render(report) + "\n")
    if report.error is not None:
        sys.stderr.write(f"fit: {report.error['kind']}: "
                         f"{report.error['detail']}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
