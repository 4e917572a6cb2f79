import json
import os
import random
import subprocess
import sys

import pytest

from clifcpt import autmat, fingroup, pipeline, spinrep, verify
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


# Quote, backslash, controls, DEL, non-ASCII, LINE SEPARATOR, a lone
# surrogate and an astral character; "B" sorts before "a" by code point.
_JSON_CHARS = 'aB_ "\\/\x00\x1f\x7f\xe9\u2028\ud800\U0001f600'


def _random_json(rng, depth):
    """A seeded document of the types to_json accepts, nested up to
    `depth` containers deep."""

    def text(length):
        return "".join(rng.choice(_JSON_CHARS) for _ in range(rng.randrange(length)))

    kind = rng.randrange(5 if depth == 0 else 7)
    if kind == 0:
        return rng.choice((True, False, None))
    if kind == 1:
        return rng.choice((0, -1, 2**64 + 1, -(2**64) - 1, rng.randrange(-(2**80), 2**80)))
    if kind <= 4:
        return text(5)
    if kind == 5:
        return [_random_json(rng, depth - 1) for _ in range(rng.randrange(4))]
    return {text(3): _random_json(rng, depth - 1) for _ in range(rng.randrange(5))}


def test_to_json_writes_the_bytes_of_json_dumps():
    rng = random.Random(32)
    deep = {"a": [{"b": [{"c": [[], {}]}]}], "B": None, "\u2028": [True, False, -(2**70)]}
    docs = [deep, [], {}, "", 2**64 + 1] + [_random_json(rng, 6) for _ in range(300)]
    for doc in docs:
        assert to_json(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    # Only what the artifacts hold: no float, tuple, set or non-str key.
    for doc in (0.5, (1,), {1}, {1: "a"}, {"a": [{"b": 0.5}]}):
        with pytest.raises(TypeError):
            to_json(doc)


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

    def failure_in_both_modes():
        runs = []
        for jobs in ("1", "2"):
            argv = ["sweep", "--max-dim", "4", "--jobs", jobs, "--out", str(tmp_path / "a.json")]
            code = main(argv)
            runs.append((code, *capsys.readouterr()))
        assert runs[0] == runs[1]
        assert not (tmp_path / "a.json").exists()
        return runs[0]

    # At d = 4 with two jobs, Cl(1,3) falls in the forked child's share
    # and Cl(2,2) in this process's.
    real = autmat.conditions
    for cell in ((1, 3), (2, 2)):

        def broken(basis, cell=cell):
            if (basis.sig.p, basis.sig.q) == cell:
                return lambda name, m: [f"{name} broken on Cl{cell}"]
            return real(basis)

        monkeypatch.setattr(autmat, "conditions", broken)
        assert failure_in_both_modes() == (1, "", f"verification failure: W broken on Cl{cell}\n")
    monkeypatch.setattr(autmat, "conditions", real)

    # A certification failure crosses the pipe with its violations intact.
    certify = spinrep.certify_spinbasis

    def uncertified(sig, gens):
        if (sig.p, sig.q) == (1, 3):
            raise spinrep.CertificationError(["generator 1 is broken", "generator 2 is broken"])
        return certify(sig, gens)

    monkeypatch.setattr(spinrep, "certify_spinbasis", uncertified)
    message = "spin basis certification failed:\n  generator 1 is broken\n  generator 2 is broken"
    assert failure_in_both_modes() == (1, "", f"verification failure: {message}\n")


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


# The CPUs this process may run on when the tests start; every fan-out
# must leave the caller with exactly these.
_CPUS = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else set()
_placement = pytest.mark.skipif(len(_CPUS) < 2, reason="placement needs sched_setaffinity and two usable CPUs")


@_placement
def test_fan_out_runs_share_k_on_cpu_k_mod_the_cpu_count():
    # On two CPUs: [[c0], [c1], [c0]].
    cpus = sorted(_CPUS)
    expected = [[cpus[k % len(cpus)]] for k in range(3)]
    assert pipeline.fan_out(lambda s: sorted(os.sched_getaffinity(0)), [0, 1, 2]) == expected
    assert os.sched_getaffinity(0) == _CPUS


@_placement
@pytest.mark.parametrize("failing", [None, 0, 1])
def test_fan_out_restores_the_callers_affinity(failing):
    def work(share):
        if share == failing:
            raise ValueError(f"share {share}")
        return share

    if failing is None:
        assert pipeline.fan_out(work, [0, 1]) == [0, 1]
    else:
        with pytest.raises(ValueError, match=f"^share {failing}$"):
            pipeline.fan_out(work, [0, 1])
    assert os.sched_getaffinity(0) == _CPUS


@_placement
def test_fan_out_ignores_a_placement_that_fails(monkeypatch):
    def refuse(pid, cpus):
        raise OSError("placement refused")

    # The children inherit the patch through the fork.
    monkeypatch.setattr(os, "sched_setaffinity", refuse)
    assert pipeline.fan_out(lambda s: s * s, [1, 2, 3]) == [1, 4, 9]
    assert os.sched_getaffinity(0) == _CPUS


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
    # tests all seven intertwining conditions on matrices, with one
    # intertwining test per cell and 7 calls of it: W, the E and Pi the
    # choice rule names, and C, K, S and F. The record reads every group
    # fact off that one closure.
    cells = [(1, 3, "real", "dirac"), (3, 3, "real", "canonical"), (6, 0, "complex", "canonical")]
    expected = [classify_cell(*cell) for cell in cells]
    closures = realizations = tests = checks = hashes_inside = 0
    inside = False
    closure, conditions, realize = autmat.signed_closure, autmat.conditions, pipeline.realize
    matrix_hash = GaussMatrix.__hash__

    def blade_closure(gens, identity):
        nonlocal closures
        closures += 1
        assert all(isinstance(x, Multivector) for x in (*gens, identity))
        return closure(gens, identity)

    def counting_conditions(basis):
        nonlocal tests
        tests += 1
        test = conditions(basis)

        def counting_test(name, m):
            nonlocal checks
            checks += 1
            return test(name, m)

        return counting_test

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
    monkeypatch.setattr(autmat, "conditions", counting_conditions)
    monkeypatch.setattr(pipeline, "realize", tracked_realize)
    monkeypatch.setattr(GaussMatrix, "__hash__", tracked_hash)
    monkeypatch.setattr(fingroup, "signed_closure", refuse)
    monkeypatch.setattr(fingroup, "order_structure", refuse)
    assert [classify_cell(*cell) for cell in cells] == expected
    assert realizations == closures == tests == len(cells)
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
for name in ("_square_parity", "_commute_parity"):
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
    # stops at its k-th blade instead of testing the square of every mask:
    # it reads the square of each of the 2050 masks it passes once, and
    # the commutation of a +1-square mask outside the span with each
    # chosen blade up to the first that anticommutes.
    # `check` and certification compare products on their integer
    # numerators, which every matrix stores, and build none: 7 conditions
    # on each of the 140 generators of the 25 bases (980), one square test
    # per generator against the sign its reality and symmetry force (140),
    # one anticommutation test per pair (390), and one antisymmetry test
    # g * I == -(g^T * I) per antisymmetric generator (64), which forms no
    # negated matrix, so no matrix is negated at all. A rise means
    # repeated work.
    assert _run_fresh(_COUNT_SWEEP_OPS) == {
        "__mul__": 411,
        "__neg__": 0,
        "product_signed_eq": 1574,
        "_square_parity": 2050,
        "_commute_parity": 1304,
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
    # keep any of its 25 bases.
    assert _run_fresh(_COUNT_LIVE_BASES) == 0


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
