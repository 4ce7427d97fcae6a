"""Command-line front end: CSV in, JSON or plain-text fit report out.

Exit codes: 0 on success, 1 on input or usage errors, 2 when the TLS
problem has no solution (the report is still emitted, with the error
block populated).  JSON output is deterministic: fixed key order and
floats rendered with 17 significant digits.
"""
from __future__ import annotations

import argparse
import atexit
import csv
import gc
import io
import json
import math
import os
import sys
from typing import TYPE_CHECKING, NamedTuple, Optional

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

if TYPE_CHECKING:
    from .linalg import Matrix

__all__ = ["FitRequest", "FitReport", "parse_csv", "run", "main", "entry"]

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
            if all(cell.strip() == "" for cell in record):
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
    from .linalg import Matrix
    return Matrix(values)


# Each mode is fitted by its function in _fits.FITS.
MODES = ("ols", "tls-line", "tls-plane", "tls-system", "tls-multi",
         "tls-fixed")


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
        from ._fits import FITS
        filled = FITS[request.mode](data, request)
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
    return _json_value(report._asdict())


def render_text(report: FitReport) -> str:
    return "\n".join(f"{name}: {_json_value(value)}"
                     for name, value in report._asdict().items())


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


def entry() -> int:
    """Process entry of `fit` and `python -m tlsfit`: ``main()`` with the
    cyclic collector off, then an exit that skips the interpreter's
    teardown.

    A process serves one request, and reference counting frees what it
    allocates, so the collector would only walk numpy's import heap and
    the fit's arrays.  After ``main`` the atexit handlers run and stdout
    and stderr are flushed, as at a normal exit, and ``os._exit`` then
    skips module teardown.  A tracer, a profiler or a second thread gets
    the normal exit, and so does a failed flush, which the normal exit
    reports.  ``main`` called in process leaves the caller's collector
    alone.  CHANGES.md gives the measured saving.
    """
    gc.disable()
    code = main()
    monitoring = getattr(sys, "monitoring", None)  # 3.12+: cProfile's hook
    if (sys.gettrace() is not None or sys.getprofile() is not None
            or len(sys._current_frames()) > 1
            or monitoring is not None and any(
                monitoring.get_tool(tool) is not None for tool in range(6))):
        return code
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        return code
    os._exit(code)


if __name__ == "__main__":
    sys.exit(entry())
