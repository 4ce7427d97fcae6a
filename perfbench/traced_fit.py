"""Run one `fit` command under the tracer and save the span summary.

Usage: python traced_fit.py SUMMARY_JSON time|memory MODE [fit options...]

Behaves like `python -m tlsfit MODE ...` (same stdout, stderr and exit
code), with spans at the module boundaries; the summary is written to
SUMMARY_JSON.  The root span "op" covers the CLI's main().
"""
import json
import sys
import tracemalloc

import tracer


def main():
    out, kind, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    spans = tracer.Tracer(memory=kind == "memory")
    tracer.install(spans)
    from tlsfit import cli
    if spans.memory:
        tracemalloc.start()
    code = spans.call("op", cli.main, argv)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(spans.summary(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
