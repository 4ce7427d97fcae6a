"""Print every output of tlsfit on the benchmark corpora, one line a problem.

A refactor that claims "same behaviour" runs this at the parent commit and
at the change and compares the two files byte for byte:

    python tools/same_outputs.py > change.txt   # in each checkout
    cmp parent.txt change.txt

(A checkout that predates this file gets a copy of it in its ``tools/``.)
The script imports ``tlsfit`` from ``src/``, and the problem generators
(``perfbench/corpus.py``) and the benchmark's solver calls
(``perfbench/worker.py``) of the checkout it sits in; it writes nothing
there.

Each public solver runs on the library corpora lib_small, lib_tall and
lib_wide, seeds 1-3.  A line holds every field of the result, or the
error's type, message and attributes (``null_vector`` and ``sigma`` of
a NoTlsSolutionError), plus any warning: floats as ``float.hex``, arrays
as shape, dtype, memory order and the hex of their bytes.  ``cli.main``
runs in process on the CLI corpus, seeds 1-5, with ``--format json`` and
``--format text``; a line holds its exit code, stdout and stderr.

A last, "hard" section gives fixed inputs (``hard_corpus``, with the
generators of ``tests/oracles.py``) to the public kernels ``jacobi_svd``
and ``householder_qr``, one line each, holding their square factors.
"""
from __future__ import annotations

import contextlib
import enum
import io
import os
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
LIB_WORKLOADS = ("lib_small", "lib_tall", "lib_wide")
LIB_SEEDS = (1, 2, 3)
CLI_SEEDS = (1, 2, 3, 4, 5)


def encode(value) -> str:
    """An exact text form of a result, an error or one of their fields."""
    if value is None or isinstance(value, (bool, int, str, enum.Enum)):
        return repr(value)
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, np.ndarray):
        order = "".join(flag for flag, on in (
            ("C", value.flags.c_contiguous), ("F", value.flags.f_contiguous))
            if on)
        return (f"ndarray({value.shape}, {value.dtype}, {order or '-'}, "
                f"{value.tobytes().hex()})")
    if isinstance(value, BaseException):
        attrs = "".join(f", {key}={encode(val)}"
                        for key, val in sorted(vars(value).items()))
        return f"{type(value).__name__}({str(value)!r}{attrs})"
    if isinstance(value, tuple):
        fields = getattr(value, "_fields", None)
        return f"{type(value).__name__}(" + ", ".join(
            encode(item) if fields is None else f"{name}={encode(item)}"
            for name, item in zip(fields or value, value)) + ")"
    if hasattr(value, "array"):  # Matrix, Vector
        return f"{type(value).__name__}({encode(value.array)})"
    raise TypeError(f"no exact form for {type(value).__name__}")


def hard_corpus(oracles):
    """(label, array) of every input of the hard section, each drawn from
    a generator seeded for it alone.

    Gaussian inputs (column scales over one decade) at widths on both sides
    of the kernel's cutoffs, as they stand: 3-5 around the round-robin
    cutoff (4 columns), 14-17 around the first rounds on arrays, followed
    by product steps (16 columns, 8 pairs), 6 and 7 columns at
    m n >= 5000 around the preconditioner's column cutoff, and 50 and 51
    columns just below and above its 5000 entries; 26-29 straddle no
    cutoff now, and stay so that the corpus does not change.  Then, at
    5, 12 and 30 columns swept on A and at 170 x 30 on R^T: columns
    graded to 1e-30 (random and with known singular values), steeply
    graded rows, data scaled by 2^1000 and by 2^-1000, subnormal data, a
    zero column and a duplicated column.  Then exactly tied singular
    values at 100 x 40, 100 x 41 (a bye seat) and 170 x 30 (on R^T).
    Last, one column, which is its own SVD: a Gaussian 40 x 1, a zero
    column, that column scaled by 2^1000, 2^-1000 and 2^-1060
    (subnormal), a negative 1 x 1, and a 1 x 9 row, whose SVD is that
    of its transpose.
    """
    def gaussian(seed, m, n):
        rng = np.random.default_rng(seed)
        return rng.standard_normal((m, n)) * rng.uniform(0.5, 5.0, n)

    for n in (3, 4, 5, 14, 15, 16, 17, 26, 27, 28, 29):
        yield "gaussian", gaussian(n, 3 * n, n)
    for m, n in ((834, 6), (715, 7), (99, 50), (100, 50), (98, 51), (99, 51)):
        yield "gaussian", gaussian(m + n, m, n)
    for m, n in ((15, 5), (36, 12), (90, 30), (170, 30)):
        rng = np.random.default_rng(1000 + m + n)
        yield "graded columns", rng.standard_normal((m, n)) * np.geomspace(
            1.0, 1e-30, n)[rng.permutation(n)]
        yield "known graded columns", oracles.graded_known_sigma(rng, m, n)[0]
        yield "steep rows", oracles.steep_rows(rng, m, n)
        a = gaussian(2000 + m + n, m, n)
        yield "scaled 2^1000", np.ldexp(a, 1000)
        yield "scaled 2^-1000", np.ldexp(a, -1000)
        yield "subnormal", np.ldexp(a, -1060)
        zero, duplicated = a.copy(), a.copy()
        zero[:, 1] = 0.0
        duplicated[:, -1] = duplicated[:, 0]
        yield "zero column", zero
        yield "duplicated column", duplicated
    for seed, (m, n) in ((96, (100, 40)), (97, (100, 41)), (98, (170, 30))):
        yield "tied", oracles.tied_known_sigma(np.random.default_rng(seed),
                                               m, n)[0]
    column = gaussian(40, 40, 1)
    yield "gaussian", column
    yield "zero column", np.zeros((40, 1))
    for k in (1000, -1000):
        yield f"scaled 2^{k}", np.ldexp(column, k)
    yield "subnormal", np.ldexp(column, -1060)
    yield "gaussian", gaussian(4, 1, 1)  # negative
    yield "gaussian", gaussian(9, 1, 9)


def _recorded(call):
    """encode(call()), or of the exception it raised, then its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = encode(call())
        except Exception as exc:  # every error type is an output here
            out = "raised " + encode(exc)
    return out + "".join(f" warning {w.category.__name__}({str(w.message)!r})"
                         for w in caught)


def _cli_run(cli, argv):
    """(exit code, stdout, stderr) of ``cli.main(argv)`` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def main() -> int:
    # Without bytecode, importing leaves no __pycache__ under perfbench/.
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"),
                    str(ROOT / "tests")]
    import corpus
    import oracles
    import tlsfit as tl
    from tlsfit import cli
    from worker import lib_call

    write = sys.stdout.write
    for workload in LIB_WORKLOADS:
        for seed in LIB_SEEDS:
            for i, problem in enumerate(corpus.lib_corpus(workload, seed)):
                write(f"{workload} seed={seed} #{i} {problem['kind']} "
                      f"{problem['shape']} "
                      f"{_recorded(lambda: lib_call(tl, problem))}\n")
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        # A relative input path keeps messages that name it the same in
        # every run.
        os.chdir(tmp)
        try:
            for seed in CLI_SEEDS:
                for i, problem in enumerate(corpus.cli_corpus(seed)):
                    Path("input.csv").write_bytes(
                        problem["csv"].encode("utf-8"))
                    for fmt in ("json", "text"):
                        argv = problem["argv"] + ["--input", "input.csv",
                                                  "--format", fmt]
                        result = _recorded(lambda: _cli_run(cli, argv))
                        write(f"cli seed={seed} #{i} {' '.join(argv)} "
                              f"{result}\n")
        finally:
            os.chdir(home)
    for i, (label, a) in enumerate(hard_corpus(oracles)):
        for kernel in (tl.jacobi_svd, tl.householder_qr):
            write(f"hard #{i} {label} {a.shape} {kernel.__name__} "
                  f"{_recorded(lambda: kernel(tl.Matrix(a)))}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
