"""Self-checks of the benchmark's tracer and input generator; each runs
in seconds."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [BENCH_DIR, SRC]

import filebasis  # noqa: E402
import layers  # noqa: E402


def _traced_sweep(tmp_path, tag: str) -> dict:
    trace = tmp_path / f"trace-{tag}.json"
    out = tmp_path / f"sweep-{tag}.json"
    subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "traced_cli.py"), str(trace),
         "sweep", "--max-dim", "4", "--jobs", "1", "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=SRC), check=True, capture_output=True, timeout=60,
    )
    return json.loads(trace.read_text())


@pytest.fixture(scope="module")
def two_traces(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("traces")
    return _traced_sweep(tmp, "a"), _traced_sweep(tmp, "b")


def test_traced_counts_repeat_exactly(two_traces):
    a, b = two_traces
    assert a["calls"]["exact.matmul"] > 0
    assert a["calls"] == b["calls"]
    assert a["extra"] == b["extra"]


def test_self_times_fit_in_wall_time(two_traces):
    for trace in two_traces:
        assert 0 < sum(trace["self_s"].values()) <= trace["wall_s"]


def test_traced_process_restores_every_wrapper(two_traces):
    for trace in two_traces:
        assert trace["restored"] and trace["wrapped"] > 40


def test_uninstall_restores_every_binding():
    from clifcpt import pipeline

    modules = layers._package_modules()
    before = {name: dict(vars(m)) for name, m in modules.items()}
    before_matrix = dict(vars(modules["exact"].GaussMatrix))
    tracer = layers.Tracer()
    tracer.install()
    try:
        cell = pipeline.classify_cell(2, 0)
        assert vars(modules["pipeline"])["classify_cell"] is not before["pipeline"]["classify_cell"]
    finally:
        tracer.uninstall()
    assert cell["status"] == "matrix"
    assert tracer.calls["pipeline.classify_cell"] == 1
    for name, module in modules.items():
        assert all(vars(module).get(k) is v for k, v in before[name].items()), name
    matrix = vars(modules["exact"].GaussMatrix)
    assert all(matrix.get(k) is v for k, v in before_matrix.items())


def test_filebasis_inputs_follow_the_seed(tmp_path):
    def files(seed, where):
        manifest = filebasis.write_inputs(seed, str(tmp_path / where))
        return [open(m["path"], "rb").read() for m in manifest]

    first, again = files(5, "a"), files(5, "b")
    assert first == again
    assert len(first) == len(filebasis.job_specs())
    for data in first:
        rows = json.loads(data)["generators"]
        assert not all(filebasis.is_pauli_word(g) for g in rows)
    draw = filebasis._givens_product
    assert draw(8, random.Random(5)) != draw(8, random.Random(6))


def test_pauli_word_detector_accepts_canonical_generators():
    from clifcpt.algebra import REAL, MetricSignature
    from clifcpt.spinrep import build_spinbasis

    for p, q in filebasis.even_signatures((2, 4, 6)):
        gens = build_spinbasis(MetricSignature(p, q, REAL)).gens
        assert all(filebasis.is_pauli_word(g.to_strings()) for g in gens)
    assert not filebasis.is_pauli_word([["0", "1"], ["1", "1"]])
    assert not filebasis.is_pauli_word([["3/5", "0"], ["0", "1"]])
    controlled_z = [["1" if i == j else "0" for j in range(4)] for i in range(4)]
    controlled_z[3][3] = "-1"
    assert not filebasis.is_pauli_word(controlled_z)
