"""Run one clifcpt CLI command with the layer tracer installed.

    PYTHONPATH=src python3 bench/traced_cli.py TRACE.json <clifcpt arguments>

The command's output and exit code are those of `clifcpt`; the counters
of this process go to TRACE.json. Pool workers of `sweep --jobs N` are
not traced.
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from layers import Tracer  # noqa: E402


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    from clifcpt import cli

    tracer = Tracer()
    tracer.install()
    t0 = time.perf_counter_ns()
    try:
        code = cli.main(argv)
    finally:
        wall_s = (time.perf_counter_ns() - t0) / 1e9
        patched = tracer.patched()
        tracer.uninstall()
        restored = all(vars(owner)[attr] is original for owner, attr, original in patched)
        record = dict(tracer.raw(), wall_s=wall_s, wrapped=len(patched), restored=restored)
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
