"""Seeded problem generators for the benchmark workloads.

Every workload has a fixed grid of shapes; the seed draws the data and
the order of the problems.  Degenerate inputs are degenerate by
construction, so their expected outcome is known without running any
solver:

* a zero column in A leaves (A | b) with an exact zero singular value
  whose right singular vector has a zero last component: no TLS solution;
* a duplicated column makes the design rank-deficient;
* a cloud whose two smallest principal axes have equal spread (a square
  cross-section) has a tied spectrum, so its fit is not unique.
"""
from __future__ import annotations

import numpy as np

LIB_KINDS = ("ols_normal", "ols_qr", "ols_svd", "simple_regression",
             "hyperplane", "tls_system", "tls_multi", "tls_fixed")

# (rows, width) grids.  Width is the number of data columns a kind sees:
# columns of A for OLS, coordinates for a hyperplane, columns of the
# augmented matrix for the TLS kinds.  DEGENERATE lists the grid indices
# whose problem is built degenerate for every kind that has a degenerate
# form (all but simple_regression).
LIB_GRIDS = {
    # Per-call Python overhead dominates; U completion is negligible.
    "lib_small": [(8, 2), (10, 3), (16, 4), (24, 2), (32, 5), (48, 3),
                  (64, 6), (96, 4), (128, 7), (160, 8), (200, 5), (200, 8)],
    # The O(m^2) full U and Q dominate time and memory.
    "lib_tall": [(1000, 2), (1100, 6), (1200, 10), (1300, 3), (1500, 8),
                 (1600, 4), (1700, 5), (1900, 9), (2000, 2), (2200, 7),
                 (2400, 3), (2500, 10)],
    # Jacobi sweeps dominate; U completion is small.
    "lib_wide": [(100, 20), (120, 30), (150, 40), (180, 24), (200, 50),
                 (220, 36), (250, 60), (280, 28), (300, 44), (340, 32),
                 (370, 56), (400, 48)],
}
DEGENERATE = {"lib_small": (4, 9), "lib_tall": (2, 7), "lib_wide": (3, 8)}


def _rotation(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _design(rng, m, n):
    """Gaussian columns with scales spread over one decade."""
    return rng.standard_normal((m, n)) * rng.uniform(0.5, 5.0, n)


def _noisy(rng, a, x):
    y = a @ x
    return y + 0.1 * rng.standard_normal(y.shape) * (1.0 + np.abs(y).mean())


def _cloud(rng, m, n, tied):
    """m points in R^n with distinct principal spreads, or the two
    smallest spreads exactly equal when ``tied``."""
    spread = np.geomspace(3.0, 0.3, n) * rng.uniform(0.9, 1.1, n)
    if tied:
        spread[-1] = spread[-2]
        # Centered orthonormal columns give singular values exactly
        # sqrt(m) * spread, so the tie survives to rounding level.
        basis = np.column_stack([np.ones(m), rng.standard_normal((m, n))])
        q, _ = np.linalg.qr(basis)
        core = q[:, 1:] * np.sqrt(m)
    else:
        core = rng.standard_normal((m, n))
    offset = rng.uniform(-10.0, 10.0, n)
    return offset + (core * spread) @ _rotation(rng, n)


def lib_problem(rng, kind, m, w, degenerate):
    """Arguments (plain arrays) of one solver call and its expected outcome.

    ``expect`` is "value" or the name of the exception the call must raise.
    """
    expect = "value"
    if kind in ("ols_normal", "ols_qr", "ols_svd"):
        a = _design(rng, m, w)
        if degenerate:
            a[:, -1] = a[:, 0]
            if kind != "ols_svd":
                expect = "RankDeficiencyError"
        args = (a, _noisy(rng, a, rng.standard_normal(w)))
    elif kind == "simple_regression":
        x = rng.uniform(-5.0, 5.0, m)
        args = (x, 2.0 + 3.0 * x + rng.standard_normal(m))
    elif kind == "hyperplane":
        args = (_cloud(rng, m, w, degenerate),)
    elif kind == "tls_system":
        a = _design(rng, m, w - 1)
        b = _noisy(rng, a, rng.standard_normal(w - 1))
        if degenerate:
            a[:, -1] = 0.0
            expect = "NoTlsSolutionError"
        args = (a, b)
    elif kind == "tls_multi":
        p = 1 + m % min(3, w - 1)
        a = _design(rng, m, w - p)
        b = _noisy(rng, a, rng.standard_normal((w - p, p)))
        if degenerate:
            a[:, 0] = 0.0
            expect = "NoTlsSolutionError"
        args = (a, b)
    elif kind == "tls_fixed":
        w = max(w, 4 if degenerate else 3)
        j = max(2 if degenerate else 1, w // 3)
        k, p = w - j - 1, 1
        a1, a2 = _design(rng, m, j), _design(rng, m, k)
        if degenerate:
            a1[:, -1] = a1[:, 0]
        b = _noisy(rng, np.hstack([a1, a2]), rng.standard_normal((j + k, p)))
        args = (a1, a2, b)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return {"kind": kind, "args": args, "expect": expect,
            "degenerate": degenerate, "shape": (m, w)}


def lib_corpus(workload, seed):
    """All problems of a library workload, interleaved by kind."""
    rng = np.random.default_rng(seed)
    grid = LIB_GRIDS[workload]
    degenerate = DEGENERATE[workload]
    return _interleave(rng, [
        [lib_problem(rng, kind, m, w,
                     kind != "simple_regression" and i in degenerate)
         for i, (m, w) in enumerate(grid)]
        for kind in LIB_KINDS])


def _interleave(rng, groups):
    """Shuffle each group, then take one problem from each in turn, so any
    run of len(groups) consecutive problems covers every group."""
    shuffled = [[group[i] for i in rng.permutation(len(group))]
                for group in groups]
    out = []
    for rank in range(max(len(group) for group in shuffled)):
        out += [group[rank] for group in shuffled if rank < len(group)]
    return out


# CLI corpus: (mode, rows, cols, rhs_cols, frozen_cols, variant).  Variant
# "dup" duplicates a column, "square" ties the spectrum, "nosol" zeroes a
# column of A (exit 2), "badcell"/"ragged" make the file malformed (exit 1).
CLI_GRID = [
    ("ols", 10, 2, 1, 0, ""), ("ols", 100, 4, 1, 0, ""),
    ("ols", 1000, 6, 1, 0, ""), ("ols", 300, 10, 1, 0, ""),
    ("ols", 100, 5, 1, 0, "dup"),
    ("tls-line", 10, 2, 1, 0, ""), ("tls-line", 100, 2, 1, 0, ""),
    ("tls-line", 1000, 2, 1, 0, ""), ("tls-line", 40, 2, 1, 0, "square"),
    ("tls-plane", 20, 3, 1, 0, ""), ("tls-plane", 200, 6, 1, 0, ""),
    ("tls-plane", 500, 10, 1, 0, ""), ("tls-plane", 64, 4, 1, 0, "square"),
    ("tls-system", 10, 2, 1, 0, ""), ("tls-system", 100, 5, 1, 0, ""),
    ("tls-system", 1000, 8, 1, 0, ""), ("tls-system", 50, 4, 1, 0, "nosol"),
    ("tls-multi", 20, 4, 1, 0, ""), ("tls-multi", 200, 7, 2, 0, ""),
    ("tls-multi", 600, 10, 3, 0, ""), ("tls-multi", 60, 5, 2, 0, "nosol"),
    ("tls-fixed", 30, 4, 1, 1, ""), ("tls-fixed", 300, 8, 2, 2, ""),
    ("tls-fixed", 600, 10, 2, 3, ""), ("tls-fixed", 80, 6, 1, 2, "dup"),
    ("tls-plane", 50, 3, 1, 0, "badcell"), ("ols", 40, 3, 1, 0, "ragged"),
]


def _cli_data(rng, mode, rows, cols, p, j, variant):
    if mode in ("tls-line", "tls-plane"):
        return _cloud(rng, rows, cols, variant == "square")
    n = cols - p
    a = _design(rng, rows, n)
    data = np.hstack([a, _noisy(rng, a, rng.standard_normal((n, p)))])
    if variant == "dup":
        data[:, j - 1 if j else 1] = data[:, 0]
    elif variant == "nosol":
        data[:, 0] = 0.0
    return data


def cli_file(mode, data, p=1, j=0, variant="", header=False):
    """The CLI form of a data matrix: CSV text, argv and expectation."""
    rows, cols = data.shape
    lines = [",".join(repr(float(v)) for v in row) for row in data]
    if variant == "badcell":
        lines[rows // 2] = lines[rows // 2].replace(",", ",n/a,", 1)
    elif variant == "ragged":
        lines[rows // 2] = lines[rows // 2].rsplit(",", 1)[0]
    if header:
        lines.insert(0, ",".join(f"c{k}" for k in range(cols)))
    argv = [mode]
    if mode in ("tls-multi", "tls-fixed"):
        argv += ["--rhs-cols", str(p)]
    if mode == "tls-fixed":
        argv += ["--frozen-cols", str(j)]
    return {"kind": mode, "argv": argv, "data": data, "rhs_cols": p,
            "frozen_cols": j, "csv": "\n".join(lines) + "\n",
            "expect": {"nosol": 2, "badcell": 1, "ragged": 1}.get(variant, 0),
            "degenerate": variant in ("dup", "square", "nosol"),
            "shape": (rows, cols)}


def cli_corpus(seed):
    """All CLI problems, interleaved by mode; every third file has a
    header row."""
    rng = np.random.default_rng(seed)
    groups = {}
    for i, (mode, rows, cols, p, j, variant) in enumerate(CLI_GRID):
        data = _cli_data(rng, mode, rows, cols, p, j, variant)
        groups.setdefault(mode, []).append(
            cli_file(mode, data, p, j, variant, header=i % 3 == 0))
    return _interleave(rng, list(groups.values()))
