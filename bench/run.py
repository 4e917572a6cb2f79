#!/usr/bin/env python3
"""Benchmark of the clifcpt command-line batch engine.

Run from the root of a source checkout; the package need not be
installed:

    python3 bench/run.py --workload atlas --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all

Every job is a fresh `clifcpt` process run with PYTHONPATH=src, because a
user pays the imports and the per-process caches on every invocation.
One pass runs a workload's jobs one after another (a closed loop with one
client). A run repeats passes until the next one would end after
`--seconds`, and always makes at least one.

With `--trace 0` the run reports the end-to-end metrics: medians over its
passes and the peak over its processes. The job latency percentile is
taken within each pass, then its median over passes.

Times are given at a reference machine speed. On a shared machine the
speed of the interpreter drifts by tens of percent within minutes, which
moves every raw time with it. So the benchmark times a fixed loop of
stdlib Fraction arithmetic and dict hashing, the kind of work clifcpt
does, before the first job, after every job, and every SAMPLE_EVERY_S
while a job runs, with the job's process group stopped meanwhile; the
stopped time is left out of the job's wall time. Each job's raw seconds
are scaled by REF_SECONDS / (the median of those loop times), and a
set-up sample by REF_SECONDS / (the loop time just before it). The loop
never runs beside a job, because a loop that shares the machine with a
job measures the job as well. Code in the package cannot change the
loop, so a scaled time still moves with any change to the program. The
report prints the raw seconds as well.

With `--trace 1` it makes one untraced and one traced pass, and reports
the per-layer metrics from the traced one (see layers.py) with the
tracing overhead. Every job's output is checked against golden.json, and
traced output against untraced output. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(BENCH_DIR, "golden.json")
TRACED_CLI = os.path.join(BENCH_DIR, "traced_cli.py")
CLI_MAIN = "import sys; from clifcpt.cli import main; sys.exit(main())"

SWEEP_DIM = 8
VERIFY_ARGS = ["verify", "--suite", "all", "--max-dim", "6"]
SETUP_SAMPLES = 7
JOB_TIMEOUT_S = 150
# A job is stopped this often to time the reference loop.
SAMPLE_EVERY_S = 0.5
# Seconds the reference loop takes on the machine that times are scaled to.
REF_SECONDS = 0.03

sys.path.insert(0, BENCH_DIR)

import filebasis  # noqa: E402
import layers  # noqa: E402

_TIMING = re.compile(r" \(\d+\.\d+s\)")


@dataclass
class Job:
    label: str
    args: list[str]
    check: Callable[[JobResult, dict], str | None]
    items: int
    out_file: str | None = None


@dataclass
class JobResult:
    job: Job
    code: int
    stdout: bytes
    output: bytes
    wall_s: float
    cpu_s: float
    rss_mb: float
    speed: float = 1.0  # REF_SECONDS / reference-loop seconds around and during the job
    error: str | None = None


@dataclass
class Pass:
    """One pass over a workload's jobs, which run one after another."""

    results: list[JobResult]

    @property
    def raw_wall_s(self) -> float:
        """Seconds from each spawn to its exit, summed; the benchmark's own
        bookkeeping between jobs is left out."""
        return sum(r.wall_s for r in self.results)

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s * r.speed for r in self.results)

    @property
    def raw_cpu_s(self) -> float:
        return sum(r.cpu_s for r in self.results)

    @property
    def cpu_s(self) -> float:
        return sum(r.cpu_s * r.speed for r in self.results)

    @property
    def items(self) -> int:
        return sum(r.job.items for r in self.results if r.error is None)


@dataclass
class Context:
    work: str
    nproc: int
    env: dict
    manifest: list = field(default_factory=list)
    reference: list = field(default_factory=list)  # reference-loop seconds, in order

    def sample_reference(self) -> float:
        self.reference.append(reference_loop_s())
        return self.reference[-1]


# --- correctness ------------------------------------------------------------


def strip_timing(text: str) -> list[str]:
    """verify output lines without their "(N.NNs)" timings."""
    return [_TIMING.sub("", line) for line in text.splitlines()]


def realization_fields(cell: dict) -> list[dict]:
    """The classification of a matrix cell that must not depend on its basis."""
    return [
        {
            "signature": r["signature"],
            "label": r["label"],
            "cpt_fiber": r["cpt_cover"]["fiber"],
            "pt_fiber": r["pt_cover"]["fiber"],
            "order_structure": r["order_structure"],
            "closure_order": r["closure"]["order"],
            "verdict": r["predicted_vs_computed"],
        }
        for r in cell["realizations"]
    ]


def check_atlas(res: JobResult, golden: dict) -> str | None:
    digest = hashlib.sha256(res.output).hexdigest()
    if digest != golden["atlas_sha256"]:
        return f"sweep output sha256 {digest} differs from the recorded digest"
    return None


def check_verify(res: JobResult, golden: dict) -> str | None:
    lines = strip_timing(res.stdout.decode("utf-8", "replace"))
    if lines != golden["verify_lines"]:
        return "verify report differs from the recorded one: " + " | ".join(lines[-3:])
    return None


def check_classify(p: int, q: int):
    def check(res: JobResult, golden: dict) -> str | None:
        try:
            cell = json.loads(res.stdout)
            got = realization_fields(cell)
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable classify output: {exc!r}"
        if cell.get("status") != "matrix" or got != golden["cells"][f"{p},{q}"]:
            return f"Cl({p},{q}) file basis does not classify as the canonical cell"
        return None

    return check


# --- workloads ----------------------------------------------------------------


def _sweep_jobs(ctx: Context, jobs: int) -> list[Job]:
    out = os.path.join(ctx.work, "atlas.json")
    args = ["sweep", "--max-dim", str(SWEEP_DIM), "--field", "real", "--jobs", str(jobs)]
    args += ["--format", "json", "--out", out]
    cells = (SWEEP_DIM + 1) * (SWEEP_DIM + 2) // 2
    return [Job("sweep", args, check_atlas, cells, out_file=out)]


def _verify_jobs(ctx: Context, golden: dict) -> list[Job]:
    checks = len(golden["verify_lines"]) - 1
    return [Job("verify", VERIFY_ARGS, check_verify, checks)]


def _filebasis_jobs(ctx: Context) -> list[Job]:
    return [
        Job(
            f"{m['kind']}-{m['p']}-{m['q']}",
            ["classify", "--p", str(m["p"]), "--q", str(m["q"]), "--basis", "file:" + m["path"]],
            check_classify(m["p"], m["q"]),
            1,
        )
        for m in ctx.manifest
    ]


@dataclass(frozen=True)
class Workload:
    """Why each workload is in the benchmark is recorded in BENCHMARK.json."""

    name: str
    seeded: bool
    make_jobs: Callable[[Context, dict], list[Job]]
    parallelism: Callable[[Context], int] = lambda ctx: 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("atlas", False, lambda ctx, golden: _sweep_jobs(ctx, 1)),
        # The CLI's default --jobs is the core count; never ask for more.
        Workload(
            "atlas-jobs2",
            False,
            lambda ctx, golden: _sweep_jobs(ctx, min(2, ctx.nproc)),
            lambda ctx: min(2, ctx.nproc),
        ),
        Workload("verify", False, _verify_jobs),
        Workload("filebasis", True, lambda ctx, golden: _filebasis_jobs(ctx)),
    )
}


# --- processes ------------------------------------------------------------------


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(cmd: list[str], ctx: Context, sample_every: float | None = None):
    """Run cmd to its end; (exit code, stdout, wall s, cpu s, max RSS MB,
    reference-loop seconds sampled while it ran).

    CPU time and RSS come from wait4, which counts the process and every
    descendant it waited for, such as the workers of a process pool. With
    `sample_every`, the process group is stopped at that interval while the
    reference loop is timed, then continued; stopped time is left out of
    the wall time."""
    stdout_path = os.path.join(ctx.work, "stdout")
    samples: list[float] = []
    pauses: list[list[float]] = []
    done = threading.Event()

    def sample(pgid: int) -> None:
        while not done.wait(sample_every):
            pause = [time.perf_counter(), math.inf]
            pauses.append(pause)
            try:
                os.killpg(pgid, signal.SIGSTOP)
                samples.append(reference_loop_s())
            except ProcessLookupError:
                return
            finally:
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(pgid, signal.SIGCONT)
                pause[1] = time.perf_counter()

    with open(stdout_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd, stdout=out, stderr=subprocess.DEVNULL, env=ctx.env, cwd=ROOT,
            start_new_session=True,
        )
        timer = threading.Timer(JOB_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        sampler = threading.Thread(target=sample, args=(proc.pid,))
        if sample_every:
            sampler.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            t1 = time.perf_counter()
            timer.cancel()
            done.set()
            if sampler.is_alive():
                sampler.join()
    stopped = sum(max(0.0, min(end, t1) - begin) for begin, end in pauses)
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    with open(stdout_path, "rb") as fh:
        stdout = fh.read()
    cpu = usage.ru_utime + usage.ru_stime
    return code, stdout, t1 - t0 - stopped, cpu, usage.ru_maxrss / 1024, samples


def run_job(job: Job, ctx: Context, golden: dict, trace_path: str | None = None) -> JobResult:
    """Run one job and check its output. Untraced jobs are paused for
    reference samples; traced ones are not, since pauses would enter their
    spans."""
    if job.out_file and os.path.exists(job.out_file):
        os.unlink(job.out_file)
    if trace_path is None:
        cmd = [sys.executable, "-c", CLI_MAIN, *job.args]
    else:
        cmd = [sys.executable, TRACED_CLI, trace_path, *job.args]
    before = ctx.reference[-1]
    code, stdout, wall, cpu, rss, samples = spawn(
        cmd, ctx, SAMPLE_EVERY_S if trace_path is None else None)
    ctx.reference.extend(samples)
    loops = [before, *samples, ctx.sample_reference()]
    output = stdout
    if job.out_file and os.path.exists(job.out_file):
        with open(job.out_file, "rb") as fh:
            output = fh.read()
    res = JobResult(job, code, stdout, output, wall, cpu, rss,
                    REF_SECONDS / statistics.median(loops))
    res.error = f"exit code {code}" if code != 0 else job.check(res, golden)
    return res


def run_pass(jobs: list[Job], ctx: Context, golden: dict, traced: bool = False,
             before_job: Callable[[], None] = lambda: None) -> tuple[Pass, list]:
    results, traces = [], []
    if not ctx.reference:
        ctx.sample_reference()
    for i, job in enumerate(jobs):
        before_job()
        trace_path = os.path.join(ctx.work, f"trace-{i}.json") if traced else None
        results.append(run_job(job, ctx, golden, trace_path))
        if traced and os.path.exists(trace_path):
            with open(trace_path, encoding="utf-8") as fh:
                traces.append(json.load(fh))
    return Pass(results), traces


def measure_setup(ctx: Context) -> tuple[float, float]:
    """Seconds for a fresh interpreter to import clifcpt.cli: (scaled, raw)."""
    speed = REF_SECONDS / ctx.sample_reference()
    code, _, wall, _, _, _ = spawn([sys.executable, "-c", "import clifcpt.cli"], ctx)
    if code != 0:
        raise RuntimeError("cannot import clifcpt.cli from src/")
    return wall * speed, wall


def reference_loop_s() -> float:
    """Median seconds of three runs of the fixed reference loop."""

    def loop():
        t0 = time.perf_counter()
        seen: dict = {}
        for i in range(1, 3001):
            x = Fraction(i, i + 1) * Fraction(i + 2, 2 * i + 3) + Fraction(1, i)
            seen[x] = seen.get(x, 0) + 1
        return time.perf_counter() - t0

    return statistics.median(loop() for _ in range(3))


def measure_passes(jobs: list[Job], ctx: Context, golden: dict, seconds: float):
    """Passes until the next would end after `seconds`, and set-up samples
    spread evenly over the same time, so that both see the same load."""
    setup: list[tuple[float, float]] = []  # (scaled, raw) seconds
    passes: list[Pass] = []
    t0 = time.perf_counter()

    def sample_setup():
        due = (time.perf_counter() - t0) * SETUP_SAMPLES / seconds
        if len(setup) < min(due, SETUP_SAMPLES):
            setup.append(measure_setup(ctx))

    took: list[float] = []  # elapsed seconds of each pass, pauses included
    while True:
        start = time.perf_counter()
        passes.append(run_pass(jobs, ctx, golden, before_job=sample_setup)[0])
        took.append(time.perf_counter() - start)
        if time.perf_counter() - t0 + statistics.median(took) > seconds:
            break
    while len(setup) < SETUP_SAMPLES:
        setup.append(measure_setup(ctx))
    return passes, setup


# --- environment ------------------------------------------------------------------


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


# --- metrics ------------------------------------------------------------------------


def p95(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def end_to_end(passes: list[Pass], setup: list[tuple[float, float]]) -> dict:
    """name -> (value, unit, how it was taken); times are scaled."""
    walls = [p.wall_s for p in passes]
    n = len(passes)
    raw = " ".join(f"{p.raw_wall_s:.2f}" for p in passes)
    raw_cpu = statistics.median(p.raw_cpu_s for p in passes)
    raw_setup = statistics.median(r for _, r in setup)
    return {
        "wall_s": (statistics.median(walls), "s", f"median of {n} passes; raw {raw}"),
        "cpu_s": (statistics.median([p.cpu_s for p in passes]), "s",
                  f"median of {n} passes; raw {raw_cpu:.4f}"),
        "setup_s": (statistics.median(s for s, _ in setup), "s",
                    f"median of {len(setup)} imports; raw {raw_setup:.4f}"),
        "peak_rss_mb": (
            max(r.rss_mb for p in passes for r in p.results), "MB",
            f"max of {sum(len(p.results) for p in passes)} processes"
        ),
        "items_per_s": (
            statistics.median([p.items / p.wall_s for p in passes]), "1/s", f"median of {n} passes"
        ),
        # A pass of one job has that job as its tail, so there this is wall_s.
        "job_p95_s": (
            statistics.median(p95([r.wall_s * r.speed for r in p.results]) for p in passes), "s",
            f"median of {n} passes of the p95 of {len(passes[0].results)} jobs"
        ),
    }


def per_layer(plain: Pass, traced: Pass, traces: list, parallelism: int) -> dict:
    out = {name: (value, unit, "traced pass") for name, (value, unit) in
           layers.layer_metrics(layers.merge_raw(traces)).items()}
    out["pipeline.pool.cpu_util"] = (
        plain.raw_cpu_s / (plain.raw_wall_s * parallelism), "ratio", "untraced pass")
    out["cli.output.bytes"] = (
        sum(len(r.output) + (len(r.stdout) if r.job.out_file else 0) for r in traced.results),
        "bytes", "traced pass")
    out["trace.overhead_frac"] = (traced.wall_s / plain.wall_s - 1, "ratio", "traced / untraced - 1")
    return out


def _same_output(a: JobResult, b: JobResult) -> bool:
    if a.job.label == "verify":
        return strip_timing(a.stdout.decode(errors="replace")) == strip_timing(
            b.stdout.decode(errors="replace"))
    return a.output == b.output and a.stdout == b.stdout


# --- one workload --------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, golden: dict) -> dict:
    workload = WORKLOADS[name]
    work = os.path.join(ROOT, ".bench_out", f"{name}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ, PYTHONPATH=SRC, CLIFCPT_COLOR="0")
    ctx = Context(work, nproc, env)
    try:
        if workload.seeded:
            sys.path.insert(0, SRC)
            ctx.manifest = filebasis.write_inputs(seed, os.path.join(work, "inputs"))
        jobs = workload.make_jobs(ctx, golden)
        record = {
            "workload": name,
            "git_rev": git_revision(),
            "nproc": nproc,
            "python": sys.version.split()[0],
            "cpu_model": cpu_model(),
            "loadavg_before": os.getloadavg(),
            "seed": seed,
            "inputs": [
                {"p": m["p"], "q": m["q"], "kind": m["kind"]} for m in ctx.manifest
            ] if workload.seeded else "fixed inputs; the seed is ignored",
            "jobs": [" ".join(["clifcpt", *j.args]) for j in jobs[:1]] + (
                [f"... {len(jobs)} jobs"] if len(jobs) > 1 else []),
        }
        if trace:
            plain, _ = run_pass(jobs, ctx, golden)
            traced, traces = run_pass(jobs, ctx, golden, traced=True)
            passes = [plain, traced]
            mismatched = [b for a, b in zip(plain.results, traced.results)
                          if b.error is None and not _same_output(a, b)]
            for res in mismatched:
                res.error = "traced output differs from untraced output"
            unrestored = sum(1 for t in traces if not t.get("restored"))
            if unrestored or len(traces) != len(jobs):
                traced.results[0].error = "tracer did not report or restore every wrapper"
            metrics = per_layer(plain, traced, traces, workload.parallelism(ctx))
        else:
            passes, setup = measure_passes(jobs, ctx, golden, seconds)
            metrics = end_to_end(passes, setup)
        record["loadavg_after"] = os.getloadavg()
        record["reference_loop_s"] = {
            "median": statistics.median(ctx.reference), "min": min(ctx.reference),
            "max": max(ctx.reference), "samples": len(ctx.reference), "scaled_to": REF_SECONDS,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    results = [r for p in passes for r in p.results]
    failures = [r for r in results if r.error is not None]
    return {
        "record": record,
        "metrics": metrics,
        "attempted": len(results),
        "failed": len(failures),
        "errors": [f"{r.job.label}: {r.error}" for r in failures[:5]],
    }


def report(name: str, outcome: dict) -> None:
    print("env " + json.dumps(outcome["record"], sort_keys=True))
    for error in outcome["errors"]:
        print(f"FAIL {name} {error}")
    rows = dict(outcome["metrics"])
    rows["fail_frac"] = (outcome["failed"] / outcome["attempted"], "ratio",
                         f"{outcome['failed']} of {outcome['attempted']} jobs")
    for metric, (value, unit, how) in rows.items():
        print(f"{name:<12} {metric:<42} {value:>14.6f} {unit:<6} {how}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "clifcpt", "cli.py")):
        print(f"error: no clifcpt sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        outcome = run_workload(name, args.seed, args.seconds, bool(args.trace), golden)
        report(name, outcome)
        attempted += outcome["attempted"]
        failed += outcome["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, (value, unit, _) in outcome["metrics"].items():
            metrics[prefix + metric] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
