#!/usr/bin/env python3
"""Record bench/golden.json, the outputs the benchmark checks against.

    python3 bench/make_golden.py

It runs the CLI of the current checkout, so run it only at a commit whose
outputs are known to be right, and only when an output is meant to change.
The file holds the sha256 of the `atlas` sweep, the `verify` report
without timings, and the canonical classification of every signature the
`filebasis` workload uses, which its basis files must reproduce.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys

import filebasis
import run


def main() -> int:
    work = os.path.join(run.ROOT, ".bench_out", "golden")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ctx = run.Context(work, 1, dict(os.environ, PYTHONPATH=run.SRC, CLIFCPT_COLOR="0"))
    try:
        sweep = run._sweep_jobs(ctx, 1)[0]
        code, _, _, _, _, _ = run.spawn([sys.executable, "-c", run.CLI_MAIN, *sweep.args], ctx)
        if code != 0:
            raise SystemExit(f"sweep exited with {code}")
        with open(sweep.out_file, "rb") as fh:
            atlas = fh.read()
        code, stdout, _, _, _, _ = run.spawn(
            [sys.executable, "-c", run.CLI_MAIN, *run.VERIFY_ARGS], ctx)
        if code != 0:
            raise SystemExit(f"verify exited with {code}")
        cells = {}
        for p, q in sorted({(p, q) for p, q, _ in filebasis.job_specs()}):
            code, out, _, _, _, _ = run.spawn(
                [sys.executable, "-c", run.CLI_MAIN, "classify", "--p", str(p), "--q", str(q)], ctx)
            if code != 0:
                raise SystemExit(f"classify --p {p} --q {q} exited with {code}")
            cells[f"{p},{q}"] = run.realization_fields(json.loads(out))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    golden = {
        "atlas_sha256": hashlib.sha256(atlas).hexdigest(),
        "verify_lines": run.strip_timing(stdout.decode()),
        "cells": cells,
    }
    with open(run.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {run.GOLDEN}: {len(cells)} cells, {len(golden['verify_lines'])} verify lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
