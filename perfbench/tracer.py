"""Spans at the module boundaries of tlsfit, for the traced run only.

``install`` rebinds every function that one tlsfit module imports from
another, in the importing module's namespace (the package namespace
included, which is where the benchmark's own calls into the public entry
points go through).  Each rebinding records a span keyed by the layer the
callee belongs to.  Matrix and Vector construction is wrapped at the class,
because ``isinstance`` checks need the real classes.  Names that contain
"svd" or "qr" count as factorizations, so a new factorization entry point
gets a span without any change here.

A span's self time is its duration minus the time of the spans it
caused.  With ``memory=True`` tracemalloc is on and each span also records
the peak bytes allocated while it was open; times are then not used.
"""
from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import pkgutil
import time
import tracemalloc
from collections import Counter

import numpy as np


class Tracer:
    def __init__(self, memory=False):
        self.reset(memory)

    def reset(self, memory):
        """Drop everything recorded; spans already installed keep
        reporting to this object."""
        self.memory = memory
        self.self_s = Counter()
        self.incl_s = Counter()
        self.calls = Counter()
        self.peak_bytes = Counter()
        self.factor_bytes = 0
        self.lapack_s = 0.0
        # Time spent on the LAPACK floor measurement, hidden from spans.
        self.hidden = 0.0
        # Open spans: [child seconds, base bytes, peak bytes before reset].
        self._stack = []

    def now(self):
        return time.perf_counter() - self.hidden

    def call(self, key, fn, *args, **kwargs):
        frame = [0.0, 0, 0]
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._stack:
                self._stack[-1][2] = max(self._stack[-1][2], peak)
            tracemalloc.reset_peak()
            frame[1] = frame[2] = current
        self._stack.append(frame)
        start = self.now()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = self.now() - start
            self._stack.pop()
            self.self_s[key] += elapsed - frame[0]
            self.incl_s[key] += elapsed
            self.calls[key] += 1
            if self._stack:
                self._stack[-1][0] += elapsed
            if self.memory:
                peak = max(frame[2], tracemalloc.get_traced_memory()[1])
                self.peak_bytes[key] += peak - frame[1]
                if self._stack:
                    self._stack[-1][2] = max(self._stack[-1][2], peak)

    def factorized(self, key, args, result):
        """Count the factor bytes returned and, for an SVD, time LAPACK's
        thin SVD on the same matrix (hidden from every span)."""
        self.factor_bytes += _matrix_bytes(result)
        if key == "linalg.svd" and not self.memory:
            start = time.perf_counter()
            np.linalg.svd(getattr(args[0], "array", args[0]),
                          full_matrices=False)
            elapsed = time.perf_counter() - start
            self.hidden += elapsed
            self.lapack_s += elapsed

    def summary(self):
        return {"self_s": dict(self.self_s), "incl_s": dict(self.incl_s),
                "calls": dict(self.calls),
                "peak_bytes": dict(self.peak_bytes),
                "factor_bytes": self.factor_bytes,
                "lapack_s": self.lapack_s}


def _matrix_bytes(value):
    """Bytes of the 2-d arrays (U, Q, V, R) in a factorization result."""
    value = getattr(value, "array", value)
    if isinstance(value, np.ndarray):
        return value.nbytes if value.ndim == 2 else 0
    if isinstance(value, (tuple, list)):
        return sum(_matrix_bytes(item) for item in value)
    if dataclasses.is_dataclass(value):
        return sum(_matrix_bytes(getattr(value, f.name))
                   for f in dataclasses.fields(value))
    return 0


def _layer_key(module, name):
    layer = module.rsplit(".", 1)[1]
    if layer != "linalg":
        return layer
    lowered = name.lower()
    if "svd" in lowered:
        return "linalg.svd"
    if "qr" in lowered:
        return "linalg.qr"
    return "linalg.other"


def _wrap(tracer, key, fn):
    if key in ("linalg.svd", "linalg.qr"):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = tracer.call(key, fn, *args, **kwargs)
            tracer.factorized(key, args, result)
            return result
    else:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(key, fn, *args, **kwargs)
    return wrapper


def install(tracer):
    """Wrap the cross-module calls of every tlsfit module, plus the CLI's
    run, parse_csv and render_json.  Call once per process."""
    import tlsfit
    modules = [tlsfit] + [
        importlib.import_module(f"tlsfit.{info.name}")
        for info in pkgutil.iter_modules(tlsfit.__path__)
        if info.name != "__main__"]
    for module in modules:
        for name, obj in list(vars(module).items()):
            home = getattr(obj, "__module__", "") or ""
            if (inspect.isfunction(obj) and home.startswith("tlsfit.")
                    and home != module.__name__):
                setattr(module, name,
                        _wrap(tracer, _layer_key(home, name), obj))
    linalg = importlib.import_module("tlsfit.linalg")
    for cls in (linalg.Matrix, linalg.Vector):
        cls.__init__ = _wrap(tracer, "linalg.container", cls.__init__)
    cli = importlib.import_module("tlsfit.cli")
    for name in ("run", "parse_csv", "render_json"):
        setattr(cli, name, _wrap(tracer, f"cli.{name}", getattr(cli, name)))
