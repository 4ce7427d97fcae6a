"""CSV parsing, mode dispatch, exit codes and deterministic reports."""
import csv
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tlsfit import (
    EmptyDataError,
    FormatError,
    Matrix,
    NoTlsSolutionError,
    Vector,
    solve_tls_multi,
    solve_tls_system,
    tls_objective,
)
from tlsfit.cli import (
    EXIT_INPUT_ERROR,
    EXIT_NO_TLS_SOLUTION,
    EXIT_OK,
    MODES,
    FitReport,
    FitRequest,
    main,
    parse_csv,
    render_json,
    render_text,
    run,
)
from tlsfit.linalg import _sum_of_squares

SQUARE_CSV = "1,1\n-1,1\n1,-1\n-1,-1\n"
NO_SOLUTION_CSV = "1,0,1\n0,0,1\n0,0,1\n"
BOM = b"\xef\xbb\xbf"
# A frozen column of +-2^-1022 beside A2 = (1..6) and B = 2 A2 + noise:
# X1 is 1.35e306, but at the scale of (A2 | B) sigma of A1 is subnormal
# and 1 / sigma overflows.
FROZEN_TINY_CSV = "".join(
    f"{sign * 2.0 ** -1022!r},{a2},{b}\n" for sign, a2, b in zip(
        (1, -1) * 3, range(1, 7), (2.1, 3.9, 6.05, 8, 9.95, 12.02)))


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def write_bytes(tmp_path, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    return str(path)


# ---------------------------------------------------------------------------
# parse_csv


def test_parse_square_cloud(tmp_path):
    mat = parse_csv(write(tmp_path, "e1.csv", SQUARE_CSV))
    assert np.array_equal(mat.array, [[1, 1], [-1, 1], [1, -1], [-1, -1]])


def test_parse_header_skipped(tmp_path):
    mat = parse_csv(write(tmp_path, "h.csv", "x,y\n0,0\n"))
    assert mat.shape == (1, 2)
    assert np.array_equal(mat.array, [[0.0, 0.0]])


def test_parse_numeric_header_kept_as_data(tmp_path):
    mat = parse_csv(write(tmp_path, "n.csv", "1,2\n3,4\n"))
    assert mat.shape == (2, 2)


def test_parse_ragged_row(tmp_path):
    with pytest.raises(FormatError) as info:
        parse_csv(write(tmp_path, "r.csv", "1,2\n3\n"))
    assert info.value.line == 2


def test_parse_non_numeric_cell(tmp_path):
    with pytest.raises(FormatError) as info:
        parse_csv(write(tmp_path, "c.csv", "1,2\n3,oops\n"))
    assert info.value.line == 2
    assert info.value.col == 2


@pytest.mark.parametrize("text, line, col, message", [
    ('a,b\n"1\n",2\nx,3\n', 4, 1, "non-numeric cell at line 4, column 1"),
    ('1,"2\r\n\r\n"\r\n3,4,5\r\n', 4, None,
     "ragged row at line 4: 3 cells, expected 2"),
], ids=["cell-after-header", "ragged-after-data"])
def test_parse_errors_name_lines_after_a_multiline_cell(tmp_path, text, line,
                                                        col, message):
    """A quoted cell that spans lines does not shift later errors: each
    names the line of the file on which its record starts."""
    with pytest.raises(FormatError) as info:
        parse_csv(write(tmp_path, "multiline.csv", text))
    assert (info.value.line, info.value.col) == (line, col)
    assert str(info.value) == message


def test_parse_rejects_non_finite(tmp_path):
    with pytest.raises(FormatError):
        parse_csv(write(tmp_path, "inf.csv", "1,2\n3,inf\n"))


@pytest.mark.parametrize("text, line, col", [
    ("1,inf\n2,3\n4,5.5\n6,7\n", 1, 2),  # first row: not a header
    ("2,3\n1,inf\n4,5.5\n6,7\n", 2, 2),
    ("nan,1\n2,3\n4,5.5\n", 1, 1),
])
def test_parse_rejects_non_finite_on_any_line(tmp_path, capsys, text, line,
                                              col):
    """Only a cell that does not parse as a float makes row 1 a header; a
    cell that parses to inf or nan is a format error on every line."""
    path = write(tmp_path, "nonfinite.csv", text)
    with pytest.raises(FormatError) as info:
        parse_csv(path)
    assert (info.value.line, info.value.col) == (line, col)
    assert main(["tls-line", "--input", path]) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert json.loads(captured.out)["error"]["kind"] == "format_error"
    assert captured.err == (f"fit: format_error: non-numeric cell at line "
                            f"{line}, column {col}\n")


def test_parse_header_with_non_finite_and_text_cells(tmp_path):
    """A first row with a cell that is no number is a header, whatever its
    other cells hold."""
    mat = parse_csv(write(tmp_path, "h.csv", "inf,x\n1,2\n3,4\n"))
    assert np.array_equal(mat.array, [[1.0, 2.0], [3.0, 4.0]])


def test_parse_empty_file(tmp_path):
    with pytest.raises(EmptyDataError):
        parse_csv(write(tmp_path, "empty.csv", ""))
    with pytest.raises(EmptyDataError):
        parse_csv(write(tmp_path, "header_only.csv", "x,y\n"))


def test_parse_crlf_and_trailing_blank(tmp_path):
    mat = parse_csv(write(tmp_path, "crlf.csv", "1,2\r\n3,4\r\n\r\n"))
    assert np.array_equal(mat.array, [[1.0, 2.0], [3.0, 4.0]])


def test_parse_leading_byte_order_mark(tmp_path, capsys):
    """A UTF-8 byte order mark is not part of row 1: that row stays data,
    and a header row after the mark is still skipped."""
    rows = b"0,0\n1,1\n2,2.5\n3,2.9\n"
    plain = parse_csv(write_bytes(tmp_path, "plain.csv", rows)).array
    marked = write_bytes(tmp_path, "bom.csv", BOM + rows)
    assert np.array_equal(parse_csv(marked).array, plain)
    headed = write_bytes(tmp_path, "bom_header.csv",
                         BOM + b"x,y\r\n" + rows.replace(b"\n", b"\r\n"))
    assert np.array_equal(parse_csv(headed).array, plain)
    assert main(["tls-line", "--input", marked]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["centroid"] == [1.5, 1.6]


@pytest.mark.parametrize("data, line, byte", [
    (b"0,0\n1,1\xff\n2,2.5\n", 2, 0xFF),
    (b"\xfex,y\n0,0\n1,1\n", 1, 0xFE),
    (BOM + b"x,y\r\n0,0\r\n1,\xc3\r\n", 3, 0xC3),  # cut-off sequence
    (b"0,0\r1,1\r\xe9,2\r", 3, 0xE9),  # Latin-1, CR line ends
], ids=["line-2", "line-1", "after-bom", "cr-line-ends"])
def test_parse_non_utf8_byte_is_a_format_error(tmp_path, capsys, data, line,
                                               byte):
    """A byte that is not UTF-8 is a format error naming its line."""
    path = write_bytes(tmp_path, "latin1.csv", data)
    with pytest.raises(FormatError) as info:
        parse_csv(path)
    assert (info.value.line, info.value.col) == (line, None)
    assert main(["tls-line", "--input", path]) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert json.loads(captured.out)["error"]["kind"] == "format_error"
    assert captured.err == (f"fit: format_error: non-UTF-8 byte "
                            f"0x{byte:02x} at line {line}\n")


def test_parse_cell_over_the_field_limit_is_a_format_error(tmp_path, capsys):
    """A cell longer than csv.field_size_limit() is a format error that
    names the line of its record, not a csv.Error traceback."""
    path = write(tmp_path, "long.csv",
                 "x,y\n1," + "7" * 200_000 + "\n2,3\n3,4\n")
    with pytest.raises(FormatError) as info:
        parse_csv(path)
    assert (info.value.line, info.value.col) == (2, None)
    assert main(["tls-line", "--input", path]) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert json.loads(captured.out)["error"]["kind"] == "format_error"
    assert captured.err == (
        f"fit: format_error: unreadable record at line 2: field larger than "
        f"field limit ({csv.field_size_limit()})\n")


# ---------------------------------------------------------------------------
# run


def test_run_square_cloud_tls_line(tmp_path):
    request = FitRequest(mode="tls-line",
                         input_path=write(tmp_path, "e1.csv", SQUARE_CSV))
    report, code = run(request)
    assert code == EXIT_OK
    assert report.error is None
    assert report.unique is False
    assert report.objective == pytest.approx(4.0, abs=1e-10)
    np.testing.assert_allclose(report.singular_values, [2.0, 2.0], atol=1e-12)


def test_run_no_solution_tls_system(tmp_path):
    request = FitRequest(mode="tls-system",
                         input_path=write(tmp_path, "e2.csv", NO_SOLUTION_CSV))
    report, code = run(request)
    assert code == EXIT_NO_TLS_SOLUTION
    assert report.coefficients is None and report.objective is None
    assert report.error["kind"] == "no_tls_solution"
    null = np.array(report.error["null_vector"])
    assert np.allclose(np.abs(null), [0.0, 1.0, 0.0], atol=1e-10)
    assert report.singular_values[-1] == pytest.approx(0.0, abs=1e-12)


def system_cases():
    """(mode, p, data, exit code): random systems, a tied spectrum and two
    inputs with no TLS solution."""
    rng = np.random.default_rng(17)
    cases = [pytest.param("tls-system", 1, rng.standard_normal((m, n)),
                          EXIT_OK, id=f"tls-system-{m}x{n}")
             for m, n in ((3, 2), (12, 3), (200, 8))]
    cases += [pytest.param("tls-multi", p, rng.standard_normal((m, n)),
                           EXIT_OK, id=f"tls-multi-{m}x{n}-p{p}")
              for m, n, p in ((5, 3, 1), (30, 5, 2), (600, 10, 3))]
    no_solution = rng.standard_normal((20, 5))
    no_solution[:, 0] = 0.0
    return cases + [
        pytest.param("tls-system", 1,
                     np.loadtxt(SQUARE_CSV.splitlines(), delimiter=","),
                     EXIT_OK, id="tied"),
        pytest.param("tls-system", 1,
                     np.loadtxt(NO_SOLUTION_CSV.splitlines(), delimiter=","),
                     EXIT_NO_TLS_SOLUTION, id="tls-system-no-solution"),
        pytest.param("tls-multi", 2, no_solution, EXIT_NO_TLS_SOLUTION,
                     id="tls-multi-no-solution"),
    ]


@pytest.mark.parametrize("mode, p, data, exit_code", system_cases())
def test_system_modes_report_the_public_solver_record(tmp_path, capsys, mode,
                                                      p, data, exit_code):
    """tls-system and tls-multi report the public solver's record bit for
    bit; the objective is the sum of squares of the trailing sigma."""
    n = data.shape[1] - p
    a, b = Matrix(data[:, :n]), data[:, n:]
    path = write_rows(tmp_path, "system.csv", data)
    assert main([mode, "--input", path, "--rhs-cols", str(p)]) == exit_code
    report = json.loads(capsys.readouterr().out)
    try:
        if mode == "tls-system":
            solution = solve_tls_system(a, Vector(b[:, 0]))
            coefficients = solution.coefficients.array.tolist()
            assert solution.tls_residual == solution.sigma[n]
        else:
            solution = solve_tls_multi(a, Matrix(b))
            coefficients = solution.x.array.tolist()
    except NoTlsSolutionError as exc:
        assert exit_code == EXIT_NO_TLS_SOLUTION
        assert report["error"]["kind"] == "no_tls_solution"
        assert report["error"]["detail"] == str(exc)
        assert report["error"]["null_vector"] == exc.null_vector.array.tolist()
        assert report["singular_values"] == exc.sigma.array.tolist()
        return
    sigma = solution.sigma.array
    assert exit_code == EXIT_OK
    assert report["coefficients"] == coefficients
    assert report["singular_values"] == sigma.tolist()
    assert report["unique"] is solution.unique
    assert report["objective"] == _sum_of_squares(sigma[n:], "objective")


def test_run_ols_collinear(tmp_path):
    request = FitRequest(mode="ols",
                         input_path=write(tmp_path, "c.csv", "0,0\n1,1\n2,2\n"))
    report, code = run(request)
    assert code == EXIT_OK
    np.testing.assert_allclose(report.coefficients, [0.0, 1.0], atol=1e-12)
    assert report.objective == pytest.approx(0.0, abs=1e-20)


def test_run_tls_plane(tmp_path):
    rng = np.random.default_rng(90)
    pts = rng.standard_normal((12, 3))
    text = "\n".join(",".join(repr(float(v)) for v in row) for row in pts) + "\n"
    request = FitRequest(mode="tls-plane",
                         input_path=write(tmp_path, "p.csv", text))
    report, code = run(request)
    assert code == EXIT_OK
    assert len(report.normal) == 3
    assert len(report.singular_values) == 3
    assert abs(np.linalg.norm(report.normal) - 1.0) <= 1e-12


def test_run_tls_multi(tmp_path):
    rng = np.random.default_rng(91)
    a = rng.standard_normal((8, 2))
    x0 = rng.standard_normal((2, 2))
    data = np.column_stack([a, a @ x0 + 1e-6 * rng.standard_normal((8, 2))])
    text = "\n".join(",".join(repr(float(v)) for v in row) for row in data) + "\n"
    request = FitRequest(mode="tls-multi", rhs_cols=2,
                         input_path=write(tmp_path, "m.csv", text))
    report, code = run(request)
    assert code == EXIT_OK
    assert np.abs(np.array(report.coefficients) - x0).max() <= 1e-4


def test_run_tls_fixed(tmp_path):
    rng = np.random.default_rng(92)
    x = rng.standard_normal(10)
    y = 2.0 - 0.5 * x + 0.1 * rng.standard_normal(10)
    data = np.column_stack([np.ones(10), x, y])
    text = "\n".join(",".join(repr(float(v)) for v in row) for row in data) + "\n"
    request = FitRequest(mode="tls-fixed", frozen_cols=1, rhs_cols=1,
                         input_path=write(tmp_path, "f.csv", text))
    report, code = run(request)
    assert code == EXIT_OK
    coeffs = np.array(report.coefficients)
    assert coeffs.shape == (2, 1)
    assert report.unique is True


def test_run_round_trip_objectives(tmp_path):
    rng = np.random.default_rng(93)
    a = rng.standard_normal((9, 2))
    b = a @ np.array([0.5, -2.0]) + 0.05 * rng.standard_normal(9)
    data = np.column_stack([a, b])
    text = "\n".join(",".join(repr(float(v)) for v in row) for row in data) + "\n"
    path = write(tmp_path, "rt.csv", text)

    report, code = run(FitRequest(mode="tls-system", input_path=path))
    assert code == EXIT_OK
    value = tls_objective(Matrix(a), Vector(b),
                          Vector(report.coefficients))
    assert report.objective == pytest.approx(value, rel=1e-9)

    report, code = run(FitRequest(mode="ols", input_path=path))
    assert code == EXIT_OK
    design = np.column_stack([np.ones(9), a])
    residual = design @ np.array(report.coefficients) - b
    assert report.objective == pytest.approx(float(residual @ residual),
                                             rel=1e-9)


def test_run_input_errors(tmp_path):
    report, code = run(FitRequest(mode="ols", input_path="/nonexistent.csv"))
    assert code == EXIT_INPUT_ERROR
    assert report.error["kind"] == "io_error"

    bad = write(tmp_path, "bad.csv", "1,2\n3\n")
    report, code = run(FitRequest(mode="ols", input_path=bad))
    assert code == EXIT_INPUT_ERROR
    assert report.error["kind"] == "format_error"

    three = write(tmp_path, "three.csv", "1,2,3\n4,5,6\n7,8,9\n")
    report, code = run(FitRequest(mode="tls-line", input_path=three))
    assert code == EXIT_INPUT_ERROR
    assert report.error["kind"] == "dimension_error"

    report, code = run(FitRequest(mode="tls-fixed", frozen_cols=2,
                                  rhs_cols=1, input_path=three))
    assert code == EXIT_INPUT_ERROR
    assert report.error["kind"] == "dimension_error"

    one = write(tmp_path, "one.csv", "1\n2\n3\n")
    for request, kind, detail in [
        (FitRequest("ols", one), "dimension_error",
         "ols: need at least 2 columns (x..., y)"),
        (FitRequest("tls-system", three, rhs_cols=2), "dimension_error",
         "tls-system: exactly one right-hand-side column"),
        (FitRequest("tls-system", one), "dimension_error",
         "tls-system: need at least 2 columns"),
        (FitRequest("tls-multi", three, rhs_cols=0), "dimension_error",
         "tls-multi: rhs-cols must be in [1, 2], got 0"),
        (FitRequest("tls-multi", three, rhs_cols=3), "dimension_error",
         "tls-multi: rhs-cols must be in [1, 2], got 3"),
        (FitRequest("bogus", three), "usage_error", "unknown mode 'bogus'"),
    ]:
        report, code = run(request)
        assert code == EXIT_INPUT_ERROR
        assert report == FitReport(mode=request.mode, error={
            "kind": kind, "detail": detail, "null_vector": None})


def test_memory_error_is_a_typed_report(tmp_path, monkeypatch, capsys):
    def exhausted(*args):
        raise MemoryError()

    monkeypatch.setattr("tlsfit.cli.solve_tls_system", exhausted)
    path = write(tmp_path, "e1.csv", SQUARE_CSV)
    report, code = run(FitRequest(mode="tls-system", input_path=path))
    assert code == EXIT_INPUT_ERROR
    assert report.error == {"kind": "memory_error", "detail": "out of memory",
                            "null_vector": None}

    assert main(["tls-system", "--input", path]) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert json.loads(captured.out)["error"]["kind"] == "memory_error"
    assert captured.err == "fit: memory_error: out of memory\n"


@pytest.mark.parametrize("shape", [(60, 30), (20, 4)])
def test_convergence_error_is_a_typed_report(tmp_path, monkeypatch, capsys,
                                            shape):
    monkeypatch.setattr("tlsfit.linalg.JACOBI_MAX_SWEEPS", 1)
    points = np.random.default_rng(71).standard_normal(shape)
    path = write(tmp_path, "cloud.csv", "".join(
        ",".join(repr(float(x)) for x in row) + "\n" for row in points))
    assert main(["tls-plane", "--input", path]) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert json.loads(captured.out)["error"]["kind"] == "convergence_error"
    assert captured.err.startswith("fit: convergence_error: one-sided Jacobi")
    assert "Traceback" not in captured.err


# (mode, columns, rhs_cols, frozen_cols): every mode on one 8-row shape.
MODE_SHAPES = [("ols", 3, 1, 0), ("tls-line", 2, 1, 0), ("tls-plane", 3, 1, 0),
               ("tls-system", 3, 1, 0), ("tls-multi", 3, 1, 0),
               ("tls-fixed", 3, 1, 1)]


def write_rows(tmp_path, name, data):
    return write(tmp_path, name, "".join(
        ",".join(repr(float(x)) for x in row) + "\n" for row in data))


def reject_constant(name):
    raise ValueError(f"non-finite number {name} in the JSON report")


@pytest.mark.parametrize("mode, cols, p, j", MODE_SHAPES)
def test_objective_beyond_float_range_is_a_typed_report(tmp_path, capsys,
                                                        mode, cols, p, j):
    """At 1e160 every objective is near 1e320, beyond the float range: the
    report is a range_error with no partial solution, its JSON parses with
    no non-finite number, and no RuntimeWarning (an error under this
    suite's settings) or traceback escapes."""
    data = np.random.default_rng(94).standard_normal((8, cols)) * 1e160
    path = write_rows(tmp_path, "big.csv", data)
    argv = [mode, "--input", path, "--rhs-cols", str(p), "--frozen-cols",
            str(j)]
    assert main(argv) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    report = json.loads(captured.out, parse_constant=reject_constant)
    assert report["error"]["kind"] == "range_error"
    assert "beyond the float range" in report["error"]["detail"]
    assert all(value is None for key, value in report.items()
               if key not in ("mode", "error"))
    assert captured.err.startswith("fit: range_error: ")


@pytest.mark.parametrize("mode, cols, p, j", MODE_SHAPES)
def test_objective_scales_exactly_by_powers_of_two(tmp_path, mode, cols, p, j):
    """Scaling the data by 2^500 scales every objective by exactly 2^1000.
    For ols only y is scaled: the prepended intercept column cannot scale
    with the data, and OLS is exact under scaling y alone."""
    data = np.random.default_rng(95).standard_normal((8, cols))
    scaled = data.copy()
    if mode == "ols":
        scaled[:, -1] = np.ldexp(data[:, -1], 500)
    else:
        scaled = np.ldexp(data, 500)
    objectives = []
    for name, values in (("one.csv", data), ("big.csv", scaled)):
        report, code = run(FitRequest(
            mode=mode, input_path=write_rows(tmp_path, name, values),
            rhs_cols=p, frozen_cols=j))
        assert code == EXIT_OK
        objectives.append(report.objective)
    assert objectives[1] == math.ldexp(objectives[0], 1000)


# Cells of numeric files: moderate and any finite floats, the extremes and
# the zeros.
CELLS = st.one_of(st.floats(-100.0, 100.0), st.integers(-3, 3).map(float),
                  st.floats(allow_nan=False, allow_infinity=False),
                  st.sampled_from([0.0, -0.0, 5e-324, -2.2e-308,
                                   sys.float_info.max, -sys.float_info.max]))
NUMERIC_FILES = st.integers(1, 5).flatmap(lambda cols: st.lists(
    st.lists(CELLS, min_size=cols, max_size=cols), max_size=12)).map(
    lambda rows: "".join(",".join(map(repr, row)) + "\n"
                         for row in rows).encode())
FILES = st.one_of(st.binary(max_size=200),
                  st.text("0123456789.,-+eE \r\n\"xnaif", max_size=120).map(
                      str.encode),
                  NUMERIC_FILES)


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=FILES, mode=st.sampled_from(MODES),
       rhs_cols=st.just(1) | st.integers(-1, 4),
       frozen_cols=st.just(0) | st.integers(-1, 4))
@example(data=b"x,y\n1," + b"7" * 200_000 + b"\n2,3\n3,4\n",
         mode="tls-line", rhs_cols=1, frozen_cols=0)
@example(data=FROZEN_TINY_CSV.encode(), mode="tls-fixed", rhs_cols=1,
         frozen_cols=1)
def test_every_input_ends_in_a_typed_report(tmp_path, data, mode, rhs_cols,
                                            frozen_cols):
    """Whatever the file holds and however the columns are split, ``run``
    returns a report with exit code 0, 1 or 2, its JSON parses with no
    non-finite number, and its text renders."""
    path = write_bytes(tmp_path, "any.csv", data)
    report, code = run(FitRequest(mode, path, rhs_cols, frozen_cols))
    assert isinstance(report, FitReport)
    assert code in (EXIT_OK, EXIT_INPUT_ERROR, EXIT_NO_TLS_SOLUTION)
    assert (report.error is None) == (code == EXIT_OK)
    json.loads(render_json(report), parse_constant=reject_constant)
    render_text(report)


# ---------------------------------------------------------------------------
# rendering and entry point


def test_json_report_is_valid_and_stable(tmp_path):
    request = FitRequest(mode="tls-line",
                         input_path=write(tmp_path, "e1.csv", SQUARE_CSV))
    report, _ = run(request)
    text = render_json(report)
    parsed = json.loads(text)
    assert parsed["mode"] == "tls-line"
    assert parsed["objective"] == 4.0
    assert parsed["unique"] is False
    report2, _ = run(request)
    assert render_json(report2) == text


def test_text_format_mirrors_json_fields(tmp_path):
    request = FitRequest(mode="tls-line",
                         input_path=write(tmp_path, "e1.csv", SQUARE_CSV))
    report, _ = run(request)
    lines = render_text(report).splitlines()
    names = [line.split(":", 1)[0] for line in lines]
    assert names == [name for name, _ in report.fields()]


def test_main_writes_report(tmp_path, capsys):
    path = write(tmp_path, "e1.csv", SQUARE_CSV)
    code = main(["tls-line", "--input", path])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert json.loads(out)["objective"] == 4.0


def test_main_error_path(tmp_path, capsys):
    path = write(tmp_path, "e2.csv", NO_SOLUTION_CSV)
    code = main(["tls-system", "--input", path])
    captured = capsys.readouterr()
    assert code == EXIT_NO_TLS_SOLUTION
    assert json.loads(captured.out)["error"]["kind"] == "no_tls_solution"
    assert "no_tls_solution" in captured.err


def test_main_rejects_unknown_mode(tmp_path):
    with pytest.raises(SystemExit) as info:
        main(["warp", "--input", "x.csv"])
    assert info.value.code == EXIT_INPUT_ERROR


def test_main_has_no_seed_option(tmp_path):
    path = write(tmp_path, "e1.csv", SQUARE_CSV)
    with pytest.raises(SystemExit) as info:
        main(["tls-line", "--input", path, "--seed", "1"])
    assert info.value.code == EXIT_INPUT_ERROR


def test_cli_subprocess_examples_and_determinism(tmp_path):
    e1 = write(tmp_path, "e1.csv", SQUARE_CSV)
    e2 = write(tmp_path, "e2.csv", NO_SOLUTION_CSV)

    def invoke(args):
        return subprocess.run([sys.executable, "-m", "tlsfit", *args],
                              capture_output=True)

    first = invoke(["tls-line", "--input", e1])
    second = invoke(["tls-line", "--input", e1])
    assert first.returncode == EXIT_OK
    assert first.stdout == second.stdout  # byte-identical JSON
    assert json.loads(first.stdout)["objective"] == 4.0

    broken = invoke(["tls-system", "--input", e2, "--rhs-cols", "1"])
    again = invoke(["tls-system", "--input", e2, "--rhs-cols", "1"])
    assert broken.returncode == EXIT_NO_TLS_SOLUTION
    assert broken.stdout == again.stdout
    payload = json.loads(broken.stdout)
    assert payload["error"]["kind"] == "no_tls_solution"
    assert payload["singular_values"][-1] == 0.0
