"""Run one workload in this process and stream raw measurements.

Started by run.py, one child per run, from the root of the checkout with
src/ on PYTHONPATH.  Output lines, in order:

  C <slowness>               the calibration kernel's time over its nominal
                             time, before each set-up, after it, and
                             between ops
  S <json>                   set-up time and a description of the corpus
  O <i> <seconds> <ok> <digits>
                             one per op: problem index, and "-" for
                             digits when none were computed
  E <json>                   peak memory or layers

so that run.py keeps every completed op even if this process is killed.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

import numpy as np

import corpus
import reference
import tracer

SETUP_REPEATS = 5
CALIBRATION_LOOPS = 20000
STARTUP_PROBES = 5
CLI_TIMEOUT_S = 60.0
HERE = os.path.dirname(os.path.abspath(__file__))


def emit(tag, payload):
    sys.stdout.write(f"{tag} {payload}\n")
    sys.stdout.flush()


def emit_op(i, seconds, ok, digits):
    emit("O", f"{i} {seconds!r} {int(ok)} "
              f"{'-' if digits is None else repr(digits)}")


def calibrate(work):
    """Run the workload's calibration kernel, which uses no tlsfit code, and
    emit its time over the kernel's nominal time.

    On a shared 2-core virtual machine the speed drifts by up to 1.8x
    within a minute, in CPU time as well as wall time; run.py scales each
    op by the kernel's slowness around it."""
    start = time.perf_counter()
    work.kernel()
    emit("C", repr((time.perf_counter() - start) / work.KERNEL_NOMINAL_S))


def python_kernel():
    """A fixed pure-Python loop: in-process ops track its time closely."""
    total, table = 0, {}
    for i in range(CALIBRATION_LOOPS):
        total += i * i
        table[i % 97] = i


def start_kernel():
    """Start a bare interpreter (no site, no tlsfit): `fit` processes track
    its time, through slow spells of process start-up that leave the
    pure-Python loop unchanged."""
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)


def rss_mb(who):
    return resource.getrusage(who).ru_maxrss * 1024 / 1e6


# ---------------------------------------------------------------------------
# Library workloads: one op is one public solver call, inputs wrapped in
# Matrix/Vector inside the timed region.


def lib_call(tl, problem):
    kind, args = problem["kind"], problem["args"]
    if kind.startswith("ols_"):
        method = {"ols_normal": tl.Method.NORMAL_EQUATIONS,
                  "ols_qr": tl.Method.QR, "ols_svd": tl.Method.SVD}[kind]
        return tl.solve_ols(tl.Matrix(args[0]), tl.Vector(args[1]), method)
    if kind == "simple_regression":
        return tl.simple_regression(tl.Vector(args[0]), tl.Vector(args[1]))
    if kind == "hyperplane":
        return tl.fit_hyperplane_tls(tl.PointCloud(args[0]))
    if kind == "tls_system":
        return tl.solve_tls_system(tl.Matrix(args[0]), tl.Vector(args[1]))
    if kind == "tls_multi":
        return tl.solve_tls_multi(tl.Matrix(args[0]), tl.Matrix(args[1]))
    return tl.solve_tls_fixed(*(tl.Matrix(a) for a in args))


def lib_reference(problem):
    if problem["expect"] != "value":
        return None
    kind, args = problem["kind"], problem["args"]
    if kind.startswith("ols_"):
        return reference.ols_ref(*args)
    if kind == "simple_regression":
        x, y = args
        return reference.ols_ref(np.column_stack([np.ones_like(x), x]), y)
    if kind == "hyperplane":
        return reference.hyperplane_ref(*args)
    return getattr(reference, f"{kind}_ref")(*args)


def lib_values(kind, r):
    """The returned values and verdicts, by reference name."""
    if kind.startswith("ols_") or kind == "simple_regression":
        return {"values": {"coefficients": r.coefficients.array,
                           "residual_norm": r.residual_norm},
                "flags": {"rank_deficient": r.rank_deficient}}
    if kind == "hyperplane":
        explicit = r.explicit_coeffs
        values = {"centroid": r.centroid.array, "objective": r.objective,
                  "singular_values": r.sigma.array,
                  "explicit_coeffs": None if explicit is None
                  else explicit.array}
        return {"values": values, "normal": r.normal.array,
                "flags": {"unique": r.unique, "expressible": r.expressible}}
    if kind == "tls_system":
        return {"values": {"coefficients": r.coefficients.array,
                           "nearest_system": r.nearest_system.array,
                           "singular_values": r.sigma.array,
                           "tls_residual": r.tls_residual},
                "flags": {"unique": r.unique}}
    if kind == "tls_multi":
        return {"values": {"x": r.x.array,
                           "nearest_system": r.nearest_system.array,
                           "singular_values": r.sigma.array},
                "flags": {"unique": r.unique}}
    return {"values": {"x1": r.x1.array, "x2": r.x2.array,
                       "minimized_value": r.minimized_value},
            "flags": {"x1_unique": r.x1_unique}}


class LibWorkload:
    kernel = staticmethod(python_kernel)
    KERNEL_NOMINAL_S = 0.003
    # The timed loop calibrates after the first op that ends this long
    # after the last calibration.
    CALIBRATE_EVERY_S = 0.1

    def __init__(self, name, seed, workdir):
        self.name, self.seed, self.workdir = name, seed, workdir
        self.tl = None
        self.import_s = 0.0
        self.summaries = []
        self._tracer = None

    def setup(self):
        if self.tl is None:
            start = time.perf_counter()
            import tlsfit
            self.import_s = time.perf_counter() - start
            self.tl = tlsfit
        self.problems = corpus.lib_corpus(self.name, self.seed)
        self.refs = [lib_reference(p) for p in self.problems]
        for i in self.warmup_indices():
            self.op(i)

    def warmup_indices(self):
        smallest = {}
        for i, p in enumerate(self.problems):
            if p["kind"] not in smallest or \
                    p["shape"] < self.problems[smallest[p["kind"]]]["shape"]:
                smallest[p["kind"]] = i
        return list(smallest.values())

    def op(self, i, trace=None):
        """Run problem i; returns (seconds, ok, digits).

        With ``trace`` ("time" or "memory") the call runs under the span
        tracer and its summary is appended to self.summaries.
        """
        problem = self.problems[i]
        call, clock = lib_call, time.perf_counter
        if trace:
            spans = self.spans(memory=trace == "memory")
            call, clock = functools.partial(spans.call, "op", lib_call), spans.now
        raised, result = None, None
        start = clock()
        try:
            result = call(self.tl, problem)
        except Exception as exc:  # any failure is the op's outcome
            raised = type(exc).__name__
        seconds = clock() - start
        if trace:
            self.summaries.append((problem, spans.summary()))
        if problem["expect"] != "value":
            return seconds, raised == problem["expect"], None
        if raised is not None:
            return seconds, False, None
        try:
            ok, digits = reference.check(self.refs[i],
                                         lib_values(problem["kind"], result))
        except Exception:  # a result of the wrong form is a wrong outcome
            return seconds, False, None
        return seconds, ok, digits

    def spans(self, memory):
        """The installed tracer, emptied for the next op."""
        if self._tracer is None:
            self._tracer = tracer.Tracer()
            tracer.install(self._tracer)
        if memory and not tracemalloc.is_tracing():
            tracemalloc.start()
        self._tracer.reset(memory)
        return self._tracer

    def peak_rss_mb(self):
        return rss_mb(resource.RUSAGE_SELF)


# ---------------------------------------------------------------------------
# CLI workload: one op is one `python -m tlsfit` process.


def cli_reference(problem):
    data, p, j = problem["data"], problem["rhs_cols"], problem["frozen_cols"]
    mode, expect = problem["kind"], problem["expect"]
    if expect == 1:
        return None
    if expect == 2:
        sigma = np.linalg.svd(data, compute_uv=False)
        return {"values": {"singular_values": (sigma, sigma[0])}, "flags": {}}
    if mode == "ols":
        design = np.column_stack([np.ones(len(data)), data[:, :-1]])
        ref = reference.ols_ref(design, data[:, -1])
        ref["flags"]["unique"] = not ref["flags"]["rank_deficient"]
        return ref
    if mode in ("tls-line", "tls-plane"):
        return reference.hyperplane_ref(data)
    if mode == "tls-system":
        return reference.tls_system_ref(data[:, :-1], data[:, -1])
    if mode == "tls-multi":
        ref = reference.tls_multi_ref(data[:, :-p], data[:, -p:])
        ref["values"]["coefficients"] = ref["values"]["x"]
        return ref
    return reference.tls_fixed_ref(data[:, :j], data[:, j:-p], data[:, -p:])


def cli_values(mode, report):
    """The report's values and verdicts, by reference name; a field the
    report leaves null stays None, so that check() fails it where the
    reference has a value."""
    if report["error"] is not None:
        return {"values": {"singular_values": report["singular_values"]},
                "flags": {}}
    names = ("coefficients", "objective", "singular_values", "centroid")
    values = {k: report[k] for k in names}
    flags = {"unique": report["unique"]}
    got = {"values": values, "flags": flags}
    if mode in ("tls-line", "tls-plane"):
        values["explicit_coeffs"] = values.pop("coefficients")
        flags["expressible"] = report["expressible"]
        got["normal"] = report["normal"]
    return got


class CliWorkload:
    kernel = staticmethod(start_kernel)
    KERNEL_NOMINAL_S = 0.02
    CALIBRATE_EVERY_S = 0.5

    def __init__(self, name, seed, workdir):
        self.name, self.seed, self.workdir = name, seed, workdir
        self.import_s = 0.0
        self.summaries = []

    def setup(self):
        """Write the corpus's CSV files, compute their references and run
        the smallest problem once."""
        self.problems = corpus.cli_corpus(self.seed)
        self.paths = []
        for i, problem in enumerate(self.problems):
            path = os.path.join(self.workdir, f"{self.name}{i}.csv")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(problem["csv"])
            self.paths.append(path)
        self.refs = [cli_reference(p) for p in self.problems]
        sizes = [p["data"].size for p in self.problems]
        self.op(sizes.index(min(sizes)))

    def op(self, i, trace=None):
        """Run problem i in a fresh process; returns (seconds, ok, digits).

        With ``trace`` ("time" or "memory") the process is traced_fit.py and
        its span summary is appended to self.summaries.
        """
        problem = self.problems[i]
        argv = problem["argv"] + ["--input", self.paths[i]]
        cmd = [sys.executable, "-m", "tlsfit"] + argv
        if trace:
            out = os.path.join(self.workdir, "spans.json")
            if os.path.exists(out):
                os.remove(out)
            cmd = [sys.executable, os.path.join(HERE, "traced_fit.py"), out,
                   trace] + argv
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return time.perf_counter() - start, False, None
        seconds = time.perf_counter() - start
        if trace and os.path.exists(out):
            with open(out, encoding="utf-8") as handle:
                self.summaries.append((problem, json.load(handle)))
        if proc.returncode != problem["expect"]:
            return seconds, False, None
        try:
            report = json.loads(proc.stdout)
            kind = (report["error"] or {}).get("kind")
            if problem["expect"] == 1:
                return seconds, kind == "format_error", None
            if problem["expect"] == 2 and kind != "no_tls_solution":
                return seconds, False, None
            ok, digits = reference.check(self.refs[i],
                                         cli_values(problem["kind"], report))
        except Exception:  # output of the wrong form is a wrong outcome
            return seconds, False, None
        return seconds, ok, digits

    def peak_rss_mb(self):
        return rss_mb(resource.RUSAGE_CHILDREN)


# ---------------------------------------------------------------------------
# Runs


def timed_loop(work, seconds, minimum=1, limit=None, trace=None):
    """Closed loop, one caller: cycle the corpus from its start for
    ``seconds`` (at least ``minimum`` ops, at most ``limit``), calibrating
    at its start, every work.CALIBRATE_EVERY_S and at its end.  Returns
    the per-op seconds."""
    latencies = []
    start = calibrated = time.perf_counter()
    calibrate(work)
    while limit is None or len(latencies) < limit:
        i = len(latencies) % len(work.problems)
        seconds_op, ok, digits = work.op(i, trace)
        emit_op(i, seconds_op, ok, digits)
        latencies.append(seconds_op)
        now = time.perf_counter()
        if now - calibrated >= work.CALIBRATE_EVERY_S:
            calibrate(work)
            calibrated = now
        if len(latencies) >= minimum and now - start >= seconds:
            break
    calibrate(work)
    return latencies


def startup_probe():
    """Median wall time of `python -c pass` and of `import tlsfit`."""
    def wall(code):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        return time.perf_counter() - start
    bare, imported = [], []
    for _ in range(STARTUP_PROBES):
        bare.append(wall("pass"))
        imported.append(wall("import tlsfit"))
    python = statistics.median(bare)
    return python, statistics.median(imported) - python


def merge(runs):
    """Sum the span summaries of (problem, summary) pairs."""
    total = defaultdict(Counter)
    for _, summary in runs:
        for key, value in summary.items():
            if isinstance(value, dict):
                total[key].update(value)
            else:
                total[key][""] += value
    return total


def factorizations(summary):
    calls = summary["calls"]
    return calls.get("linalg.svd", 0) + calls.get("linalg.qr", 0)


def layer_metrics(spans, memory):
    """Per-op layer metrics from the traced (problem, summary) pairs."""
    ops, mem_ops = len(spans), len(memory)
    spans, memory = merge(spans), merge(memory)

    def ms(source, key, count):
        return source["self_s"][key] / count * 1e3
    lapack = spans["lapack_s"][""]
    return {
        "cli.parse_csv_ms": ms(spans, "cli.parse_csv", ops),
        "cli.render_json_ms": ms(spans, "cli.render_json", ops),
        "cli.run_self_ms": ms(spans, "cli.run", ops),
        "linalg.factorizations_per_op": factorizations(spans) / ops,
        "linalg.svd_ms": ms(spans, "linalg.svd", ops),
        "linalg.qr_ms": ms(spans, "linalg.qr", ops),
        "linalg.other_ms": ms(spans, "linalg.other", ops),
        "linalg.factor_bytes_per_op": spans["factor_bytes"][""] / ops,
        "linalg.container_ms": ms(spans, "linalg.container", ops),
        "linalg.container_bytes_per_op":
            memory["peak_bytes"]["linalg.container"] / mem_ops,
        "ols.self_ms": ms(spans, "ols", ops),
        "geometry.self_ms": ms(spans, "geometry", ops),
        "system.self_ms": ms(spans, "system", ops),
        "extensions.self_ms": ms(spans, "extensions", ops),
        "mem.peak_mb_per_op": memory["peak_bytes"]["op"] / mem_ops / 1e6,
        "linalg.lapack_floor_ratio":
            spans["incl_s"]["linalg.svd"] / lapack if lapack else 0.0,
    }


def by_kind(runs):
    """Factorizations, factor bytes, SVD time and op time per op kind,
    inputs expected to fail counted apart under their expected outcome."""
    groups = defaultdict(list)
    for problem, summary in runs:
        kind, expect = problem["kind"], problem["expect"]
        groups[kind if expect in ("value", 0) else f"{kind} ({expect})"
               ].append(summary)
    out = {}
    for kind, summaries in sorted(groups.items()):
        n = len(summaries)
        out[kind] = {
            "ops": n,
            "factorizations_per_op": sum(map(factorizations, summaries)) / n,
            "factor_bytes_per_op": sum(s["factor_bytes"] for s in summaries) / n,
            "svd_ms": sum(s["incl_s"].get("linalg.svd", 0.0)
                          for s in summaries) / n * 1e3,
            "op_ms": sum(s["incl_s"]["op"] for s in summaries) / n * 1e3}
    return out


def traced_run(work, seconds):
    """Layer metrics: startup probes, an untraced pass, the same ops with
    span timing, then ops with tracemalloc on."""
    start = time.perf_counter()
    python_s, import_s = startup_probe()
    # Consecutive corpus entries cycle through the kinds, so this many ops
    # per phase reach every layer.
    minimum = len({p["kind"] for p in work.problems})
    left = seconds - (time.perf_counter() - start)
    plain = timed_loop(work, 0.3 * left, minimum=minimum)
    traced = timed_loop(work, 0.45 * left, minimum=minimum,
                        limit=len(plain), trace="time")
    spans, work.summaries = work.summaries, []
    timed_loop(work, seconds - (time.perf_counter() - start),
               minimum=minimum, trace="memory")
    layers = layer_metrics(spans, work.summaries)
    layers.update({
        "startup.python_ms": python_s * 1e3,
        "startup.import_ms": import_s * 1e3,
        # The lib workloads read no CSV; their cli.* metrics are 0.
        "cli.csv_bytes": statistics.fmean(len(p.get("csv", ""))
                                          for p, _ in spans),
        "trace.overhead_frac": sum(traced) / sum(plain[:len(traced)]) - 1.0,
    })
    return layers, by_kind(spans)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    kind = CliWorkload if args.workload == "cli_mixed" else LibWorkload
    work = kind(args.workload, args.seed, args.workdir)

    setups = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        calibrate(work)
        start = time.perf_counter()
        work.setup()
        setups.append(time.perf_counter() - start)
    calibrate(work)
    problems = work.problems
    emit("S", json.dumps({
        "setup_s": statistics.median(setups) + work.import_s,
        "corpus": {
            "problems": len(problems),
            "degenerate_share":
                sum(p["degenerate"] for p in problems) / len(problems),
            "error_share": sum(p["expect"] not in ("value", 0)
                               for p in problems) / len(problems),
            "shapes": sorted({tuple(p["shape"]) for p in problems}),
        }}))

    if args.trace:
        layers, kinds = traced_run(work, args.seconds)
        emit("E", json.dumps({"layers": layers, "by_kind": kinds}))
    else:
        timed_loop(work, args.seconds)
        emit("E", json.dumps({"peak_rss_mb": work.peak_rss_mb()}))


if __name__ == "__main__":
    main()
