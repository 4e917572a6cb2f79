import json
import os
import subprocess
import sys

import pytest

from clifcpt import autmat, fingroup, pipeline, verify
from clifcpt.algebra import Multivector
from clifcpt.exact import GaussMatrix
from clifcpt.pipeline import classify_cell, sweep, sweep_to_csv, sweep_to_markdown, to_json


def test_sweep_reuses_even_cells_and_ignores_jobs():
    serial = sweep(7, "real", jobs=1)
    pooled = sweep(7, "real", jobs=2)
    for render in (to_json, sweep_to_csv, sweep_to_markdown):
        assert render(serial) == render(pooled)
    odd = [c for c in serial["cells"] if c["status"] == "reduced"]
    assert len(odd) == 20
    for cell in odd:
        assert cell == classify_cell(cell["p"], cell["q"])


def test_sweep_pool_never_exceeds_cell_count(monkeypatch):
    requested = []
    real = pipeline.fan_out

    def recording(fn, shares):
        requested.append(len(shares))
        return real(fn, shares)

    monkeypatch.setattr(pipeline, "fan_out", recording)
    small = sweep(1, "real", jobs=64)  # three cells
    assert requested == [3]
    assert to_json(small) == to_json(sweep(1, "real", jobs=1))
    sweep(2, "real", jobs=2)  # six cells
    assert requested == [3, 1, 2]


def test_sweep_fault_in_either_share_reports_as_in_one_process(tmp_path, capsys, monkeypatch):
    from clifcpt.cli import main

    # At d = 4 with two jobs, Cl(1,3) falls in the forked child's share
    # and Cl(2,2) in this process's.
    real = autmat.check
    for cell in ((1, 3), (2, 2)):

        def broken(name, m, basis, cell=cell):
            if (basis.sig.p, basis.sig.q) == cell:
                return [f"{name} broken on Cl{cell}"]
            return real(name, m, basis)

        monkeypatch.setattr(autmat, "check", broken)
        runs = []
        for jobs in ("1", "2"):
            argv = ["sweep", "--max-dim", "4", "--jobs", jobs, "--out", str(tmp_path / "a.json")]
            code = main(argv)
            runs.append((code, *capsys.readouterr()))
        assert runs[0] == runs[1]
        assert runs[0] == (1, "", f"verification failure: W broken on Cl{cell}\n")
        assert not (tmp_path / "a.json").exists()


def test_fan_out_raises_for_a_child_that_ends_without_a_result():
    with pytest.raises(RuntimeError, match=r"^worker process \d+ ended without a result$") as info:
        pipeline.fan_out(lambda s: os._exit(3) if s else s, [0, 1])
    pid = int(info.value.args[0].split()[2])
    with pytest.raises(ChildProcessError):  # already reaped
        os.waitpid(pid, os.WNOHANG)


def _fresh(code: str) -> str:
    """The stdout of `code` run in a new interpreter, whose stdout is a
    block-buffered pipe."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_fan_out_reaps_every_child_when_its_own_share_raises():
    # The children's results overfill their pipes, so they end only once
    # their read ends are closed; a wait before that close never returns.
    code = """
import os
from clifcpt.pipeline import fan_out

def work(share):
    if share == 0:
        raise ValueError("own share")
    return b"x" * (1 << 20)

try:
    fan_out(work, [0, 1, 2])
except ValueError as exc:
    print(exc)
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("no child left")
"""
    assert _fresh(code) == "own share\nno child left\n"


def test_fan_out_flushes_stdout_before_it_forks():
    # A child that flushes its copy of an unflushed buffer would print it twice.
    code = """
import sys
from clifcpt.pipeline import fan_out, sweep

sys.stdout.write("marker\\n")
sweep(4, jobs=2)
sys.stdout.write("second\\n")
fan_out(lambda share: sys.stdout.flush(), [0, 1])
"""
    assert _fresh(code) == "marker\nsecond\n"


def test_fan_out_runs_in_process_without_fork(monkeypatch):
    serial = to_json(sweep(4, "real", jobs=1))
    monkeypatch.delattr(os, "fork")
    assert to_json(sweep(4, "real", jobs=2)) == serial
    assert pipeline.fan_out(lambda share: os.getpid(), [0, 1]) == [os.getpid()] * 2


def test_a_flipped_closure_sign_breaks_label_consistency(monkeypatch):
    # `label_consistent` and verify's sweep-label-consistency compare the
    # commutation table read off the closure with the polarization of the
    # squares, so one flipped sign must fail both.
    read_signs = autmat.read_signs

    def flipped(group):
        squares, table = read_signs(group)
        rows = [list(row) for row in table]
        rows[1][4] = -rows[1][4]  # W against Pi
        return squares, tuple(tuple(row) for row in rows)

    assert classify_cell(2, 2)["realizations"][0]["label_consistent"] is True
    monkeypatch.setattr(autmat, "read_signs", flipped)
    assert classify_cell(2, 2)["realizations"][0]["label_consistent"] is False
    check = {c.name: c for c in verify.suite_groups(2)}["sweep-label-consistency"]
    assert not check.passed and "is not the polarization" in check.detail


def test_realizations_close_signed_blades_not_matrices(monkeypatch):
    # The realization stage closes signed blades and hashes no matrix, yet
    # tests all seven intertwining conditions on matrices, 7 per cell: W,
    # the E and Pi the choice rule names, and C, K, S and F. The record
    # reads every group fact off that one closure.
    cells = [(1, 3, "real", "dirac"), (3, 3, "real", "canonical"), (6, 0, "complex", "canonical")]
    expected = [classify_cell(*cell) for cell in cells]
    closures = realizations = checks = hashes_inside = 0
    inside = False
    closure, check, realize = autmat.signed_closure, autmat.check, pipeline.realize
    matrix_hash = GaussMatrix.__hash__

    def blade_closure(gens, identity):
        nonlocal closures
        closures += 1
        assert all(isinstance(x, Multivector) for x in (*gens, identity))
        return closure(gens, identity)

    def counting_check(*args, **kwargs):
        nonlocal checks
        checks += 1
        return check(*args, **kwargs)

    def tracked_realize(basis):
        nonlocal inside, realizations
        realizations += 1
        inside = True
        try:
            return realize(basis)
        finally:
            inside = False

    def tracked_hash(m):
        nonlocal hashes_inside
        hashes_inside += inside
        return matrix_hash(m)

    def refuse(*args, **kwargs):
        raise AssertionError("the record recomputed a group fact")

    monkeypatch.setattr(autmat, "signed_closure", blade_closure)
    monkeypatch.setattr(autmat, "check", counting_check)
    monkeypatch.setattr(pipeline, "realize", tracked_realize)
    monkeypatch.setattr(GaussMatrix, "__hash__", tracked_hash)
    monkeypatch.setattr(fingroup, "signed_closure", refuse)
    monkeypatch.setattr(fingroup, "order_structure", refuse)
    assert [classify_cell(*cell) for cell in cells] == expected
    assert realizations == closures == len(cells)
    assert checks == 7 * len(cells)
    assert hashes_inside == 0


_COUNT_SWEEP_OPS = """
import json
from collections import Counter
from clifcpt import classify, exact, pipeline

counts = Counter()

def counting(owner, name):
    raw = getattr(owner, name)
    counts[name] = 0

    def wrapped(*args):
        counts[name] += 1
        return raw(*args)

    setattr(owner, name, wrapped)

for name in ("__mul__", "__neg__", "product_signed_eq"):
    counting(exact.GaussMatrix, name)
for name in ("blade_square_sign", "blades_commute"):
    counting(classify, name)
pipeline.sweep(8, "real", jobs=1)
print(json.dumps(counts))
"""


def _run_fresh(code: str):
    """The JSON that `code` prints, run in a fresh process so that no basis
    or stored numerators carry over from other tests."""
    import clifcpt

    src = os.path.dirname(os.path.dirname(os.path.abspath(clifcpt.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return json.loads(out.stdout)


def test_sweep_matrix_op_counts_are_pinned():
    # Matrix work on sweep(8): no candidate the choice rule rules out, no
    # product with I on the left in `product_over`, and no dense
    # Pi * conj(Pi) in the predictor comparison. The idempotent search
    # stops at its k-th blade instead of testing the square of every mask.
    # `check` and certification compare products on their integer
    # numerators, which every matrix stores, and build none: 7 conditions
    # on each of the 140 generators of the 25 bases (980), one square test
    # per generator against its metric sign (140), one anticommutation
    # test per pair (390), and one antisymmetry test g * I == -(g^T * I)
    # per antisymmetric generator (64), which forms no negated matrix, so
    # no matrix is negated at all. A rise means repeated work.
    assert _run_fresh(_COUNT_SWEEP_OPS) == {
        "__mul__": 411,
        "__neg__": 0,
        "product_signed_eq": 1574,
        "blade_square_sign": 2008,
        "blades_commute": 1304,
    }


_COUNT_LIVE_BASES = """
import gc
from clifcpt import pipeline
from clifcpt.spinrep import SpinBasis

pipeline.sweep(8, "real", jobs=1)
gc.collect()
print(sum(isinstance(o, SpinBasis) for o in gc.get_objects()))
"""


def test_a_sweep_keeps_no_basis_alive():
    # A sweep uses each basis for one cell, so no module-level cache may
    # keep its 25 bases; `autmat._primed_generators` keeps the last one.
    assert _run_fresh(_COUNT_LIVE_BASES) <= 1


def _count_calls(monkeypatch, owners, name):
    """Wrap function `name` on every module in `owners` with one shared
    call counter, a one-element list."""
    calls = [0]
    raw = getattr(owners[0], name)

    def counted(*args):
        calls[0] += 1
        return raw(*args)

    for owner in owners:
        monkeypatch.setattr(owner, name, counted)
    return calls


def test_a_sweep_certifies_and_predicts_each_basis_once(monkeypatch):
    from clifcpt import covering, spinrep

    certified = _count_calls(monkeypatch, [spinrep], "certify_spinbasis")
    predicted = _count_calls(monkeypatch, [covering, autmat], "predict_realization")
    sweep(8, "real", jobs=1)
    # 1 + 3 + 5 + 7 + 9 even cells with p + q <= 8.
    assert (certified, predicted) == ([25], [25])


def test_verify_builds_each_basis_once(monkeypatch):
    from clifcpt import SUITE_NAMES, covering

    canonical = _count_calls(monkeypatch, [verify], "build_spinbasis")
    preset = _count_calls(monkeypatch, [verify], "preset_spinbasis")
    predicted = _count_calls(monkeypatch, [covering, autmat], "predict_realization")
    assert all(r.passed for r in verify.run_suites(SUITE_NAMES, 6))
    # 16 real and 4 complex even signatures with n <= 6, and dirac.
    assert (canonical, preset, predicted) == ([20], [1], [21])
