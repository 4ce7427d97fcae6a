"""tlsfit benchmark: one workload, one seed, one result line.

Run from the root of a tlsfit checkout:

  python3 perfbench/run.py --workload lib_small --seed 1 --seconds 30 --trace 0

Workloads are listed in BENCHMARK.json.  The workload runs in its own child
process (worker.py) with src/ on PYTHONPATH and BLAS pinned to one thread;
the child streams one line per op, so a child killed by a signal still
yields a result in which the op it was running counts as failed.  Times
are scaled to a nominal host speed, measured by a calibration kernel run
between ops (see CALIBRATION_WINDOW).  With --trace 0 the last line
holds the end-to-end metrics, with --trace 1 the per-layer metrics of a
separate traced run.  Lines before it describe the corpus and, when
traced, break the factorization counts down by op kind.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
# Wall-clock cap on the child beyond --seconds, and its address-space cap:
# a runaway allocation fails as MemoryError instead of taking the box down.
GRACE_S = 120.0
MEMORY_LIMIT = 4 << 30
# Times are reported at the host speed at which the worker's calibration
# kernel takes its nominal time: each op's wall time is divided by the
# median slowness of the CALIBRATION_WINDOW calibrations on either side of
# it (single ones are too noisy; the host's speed drifts over seconds),
# set-up time by the median of the set-up's calibrations, and per-layer
# times by the median of the traced run's.  Ratios and memory are not
# scaled.
CALIBRATION_WINDOW = 4


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def _kill_group(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_worker(args, root):
    """Run the workload child; returns (setup, ops, end, killed).

    Each op is (seconds, ok, digits, scale) with its speed scale; the
    set-up's scale is in setup["scale"] and the whole run's after it in
    end["scale"]."""
    src = os.path.join(root, "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    os.makedirs(os.path.join(root, ".perfbench"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=os.path.join(root, ".perfbench"))
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    setup, end, ops, calibrations, blocks = None, None, [], [], []
    try:
        # Own session, so a timeout or a killed child leaves no process of
        # its group (e.g. a fit process it started) running.
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                env=env, cwd=root, preexec_fn=_limit_memory,
                                start_new_session=True)
        watchdog = threading.Timer(args.seconds + GRACE_S, _kill_group, [proc])
        watchdog.start()
        try:
            for line in proc.stdout:
                tag, _, payload = line.rstrip("\n").partition(" ")
                if tag == "O":
                    _, seconds, ok, digits = payload.split()
                    ops.append((float(seconds), ok == "1",
                                None if digits == "-" else float(digits)))
                    blocks.append(len(calibrations) - 1)
                elif tag == "C":
                    calibrations.append(float(payload))
                elif tag == "S":
                    setup = json.loads(payload)
                    set_up = len(calibrations)
                    setup["scale"] = 1.0 / statistics.median(calibrations)
                elif tag == "E":
                    end = json.loads(payload)
                    end["scale"] = 1.0 / statistics.median(
                        calibrations[set_up:])
            code = proc.wait()
        finally:
            watchdog.cancel()
            _kill_group(proc)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if code > 0 or (code == 0 and (setup is None or end is None)):
        raise SystemExit(f"perfbench: worker failed with exit code {code}")
    window = CALIBRATION_WINDOW
    ops = [op + (1.0 / statistics.median(
               calibrations[max(k + 1 - window, 0):k + 1 + window]),)
           for op, k in zip(ops, blocks)]
    return setup, ops, end, code < 0


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        spec = json.load(handle)
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(why))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "tlsfit", "__init__.py")):
        sys.exit("perfbench: src/tlsfit not found; run from the root of a "
                 "tlsfit checkout")

    setup, ops, end, killed = run_worker(args, root)
    # The op in flight when the child was killed counts as failed.
    attempted = len(ops) + killed
    failed = sum(1 for _, ok, _, _ in ops if not ok) + killed
    if setup is not None:
        print(json.dumps({"workload": args.workload, "seed": args.seed,
                          "why": why[args.workload], "samples": len(ops),
                          **setup["corpus"]}))
    if args.trace:
        declared = spec["per_layer"]
        values = {}
        if end:
            units = {m["name"]: m["unit"] for m in declared}
            values = {name: value * end["scale"] if units.get(name) == "ms"
                      else value for name, value in end["layers"].items()}
            print(json.dumps({"by_kind": end["by_kind"]}))
    else:
        latencies = sorted(seconds * scale
                           for seconds, _, _, scale in ops) or [0.0]
        digits = [d for _, _, d, _ in ops if d is not None] or [0.0]
        peak = end["peak_rss_mb"] if end else \
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024 / 1e6
        values = {
            "latency_p50_ms": statistics.median(latencies) * 1e3,
            "latency_p90_ms": percentile(latencies, 90) * 1e3,
            # One caller, so throughput is ops over the time spent in them.
            "ops_per_s": len(ops) / sum(latencies) if ops else 0.0,
            "peak_rss_mb": peak,
            "ok_frac": (attempted - failed) / max(attempted, 1),
            "min_correct_digits": min(digits),
            "setup_s": setup["setup_s"] * setup["scale"] if setup else 0.0,
        }
        declared = spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing and not killed:
        raise SystemExit(f"perfbench: worker reported no {', '.join(missing)}")
    # Only a killed traced child leaves layers unmeasured; they read 0.
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in declared}
    print(json.dumps({"correct": failed == 0 and not killed,
                      "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
