import json
import os
import random
import select
import subprocess
import sys
import time

import pytest

from clifcpt import autmat, fingroup, pipeline, spinrep, verify
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


def _forked(monkeypatch):
    """Record the pid of every child that os.fork starts from now on."""
    pids = []
    fork = os.fork

    def recording():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    return pids


def test_sweep_pool_never_exceeds_cell_count(monkeypatch):
    pids = _forked(monkeypatch)
    small = sweep(1, "real", jobs=64)  # three cells: two children
    assert len(pids) == 2
    assert to_json(small) == to_json(sweep(1, "real", jobs=1))
    assert len(pids) == 2
    sweep(2, "real", jobs=2)  # six cells
    assert len(pids) == 3


def test_sweep_queues_the_costliest_cells_first(monkeypatch):
    queued = []
    real = pipeline.fan_out

    def recording(fn, tasks, jobs):
        queued.append(tasks)
        return real(fn, tasks, jobs)

    monkeypatch.setattr(pipeline, "fan_out", recording)
    sweep(3, "real", jobs=2)
    sweep(3, "complex", jobs=2)
    assert [len(tasks) for tasks in queued] == [10, 4]
    for tasks in queued:
        dims = [p + q for p, q, _ in tasks]
        assert dims == sorted(dims, reverse=True)


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

    # At d = 4 with two jobs, either worker may take Cl(1,3) or Cl(2,2).
    # Every canonical basis is one of Pauli words, so `realize` tests its
    # elements with `word_conditions`: the fault goes there.
    real = autmat.word_conditions
    for cell in ((1, 3), (2, 2)):

        def broken(basis, cell=cell):
            if (basis.sig.p, basis.sig.q) == cell:
                return lambda name, m: [f"{name} broken on Cl{cell}"]
            return real(basis)

        monkeypatch.setattr(autmat, "word_conditions", broken)
        assert failure_in_both_modes() == (1, "", f"verification failure: W broken on Cl{cell}\n")
    monkeypatch.setattr(autmat, "word_conditions", real)

    # A certification failure crosses the pipe with its violations intact.
    certify = spinrep.certify_spinbasis

    def uncertified(sig, gens):
        if (sig.p, sig.q) == (1, 3):
            raise spinrep.CertificationError(["generator 1 is broken", "generator 2 is broken"])
        return certify(sig, gens)

    monkeypatch.setattr(spinrep, "certify_spinbasis", uncertified)
    message = "spin basis certification failed:\n  generator 1 is broken\n  generator 2 is broken"
    assert failure_in_both_modes() == (1, "", f"verification failure: {message}\n")


def _read_exactly(fd: int, n: int) -> bytes:
    data = b""
    while len(data) < n:
        assert select.select([fd], [], [], 60)[0], "a worker did not start its task"
        data += os.read(fd, n - len(data))
    return data


def _one_task_each(jobs: int, body) -> list:
    """fan_out over `jobs` tasks with as many workers, each of which runs
    exactly one task: a child's task waits until this process's task has
    seen every child start one. body(task, caller) runs each task, caller
    being whether it runs in this process."""
    arrive_r, arrive_w = os.pipe()
    go_r, go_w = os.pipe()
    caller = os.getpid()

    def task(t):
        if os.getpid() == caller:
            _read_exactly(arrive_r, jobs - 1)
            os.write(go_w, b"x" * (jobs - 1))
            return body(t, True)
        os.write(arrive_w, b"x")
        _read_exactly(go_r, 1)
        return body(t, False)

    try:
        return pipeline.fan_out(task, list(range(jobs)), jobs)
    finally:
        for fd in (arrive_r, arrive_w, go_r, go_w):
            os.close(fd)


def _assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_fan_out_runs_each_task_once_and_returns_the_results_in_order(jobs, tmp_path):
    log = os.open(tmp_path / "log", os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def work(t):
        os.write(log, b"%d\n" % t)
        return t * t

    try:
        assert pipeline.fan_out(work, list(range(300)), jobs) == [t * t for t in range(300)]
    finally:
        os.close(log)
    assert sorted(map(int, (tmp_path / "log").read_text().split())) == list(range(300))


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_fan_out_raises_the_exception_of_the_lowest_failing_task(jobs):
    # Task 5 fails last: by then another worker has failed task 200.
    def work(t):
        if t == 5:
            time.sleep(0.2)
        if t in (5, 200):
            raise KeyError(f"task {t}")
        return t

    with pytest.raises(KeyError, match="^'task 5'$"):
        pipeline.fan_out(work, list(range(300)), jobs)


def test_fan_out_raises_for_a_child_that_ends_without_a_result(monkeypatch):
    pids = _forked(monkeypatch)

    def body(task, caller):
        return task if caller else os._exit(3)

    with pytest.raises(RuntimeError, match=r"^worker process \d+ ended without a result$") as info:
        _one_task_each(3, body)
    assert int(info.value.args[0].split()[2]) in pids
    assert len(pids) == 2
    _assert_reaped(pids)


def test_fan_out_refuses_more_tasks_than_its_queue_holds(monkeypatch):
    pids = _forked(monkeypatch)
    with pytest.raises(ValueError, match="^the indices of 524288 tasks do not fit in one pipe$"):
        pipeline.fan_out(lambda t: t, range(1 << 19), 2)
    assert pids == []


def _fresh(code: str) -> str:
    """The stdout of `code` run in a new interpreter, whose stdout is a
    block-buffered pipe."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_fan_out_reaps_every_child_when_its_own_share_raises():
    # Each child holds a result that overfills its pipe when this
    # process's own task raises. An exception is raised once every child
    # is read; an interrupt at once, and the children, blocked on their
    # full pipes, end only once their read ends are closed: a wait before
    # that close never returns.
    code = """
import os
from clifcpt.pipeline import fan_out

caller = os.getpid()
arrive_r, arrive_w = os.pipe()
go_r, go_w = os.pipe()

def work(task):
    # Each child starts one task before this process's task raises.
    if os.getpid() != caller:
        os.write(arrive_w, b"x")
        os.read(go_r, 1)
        return b"x" * (1 << 20)
    os.read(arrive_r, 1)
    os.read(arrive_r, 1)
    os.write(go_w, b"xx")
    raise error("own task")

for error in (ValueError, KeyboardInterrupt):
    try:
        fan_out(work, [0, 1, 2], 3)
    except error as exc:
        print(type(exc).__name__, exc)
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        print("no child left")
"""
    assert _fresh(code) == "ValueError own task\nno child left\nKeyboardInterrupt own task\nno child left\n"


def test_fan_out_flushes_stdout_before_it_forks():
    # A child that flushes its copy of an unflushed buffer would print it
    # twice; the tasks take long enough that the child runs some of them.
    code = """
import sys, time
from clifcpt.pipeline import fan_out, sweep

sys.stdout.write("marker\\n")
sweep(4, jobs=2)
sys.stdout.write("second\\n")
fan_out(lambda task: time.sleep(0.005) or sys.stdout.flush(), list(range(20)), 2)
"""
    assert _fresh(code) == "marker\nsecond\n"


def test_fan_out_runs_in_process_without_fork(monkeypatch):
    serial = to_json(sweep(4, "real", jobs=1))
    monkeypatch.delattr(os, "fork")
    assert to_json(sweep(4, "real", jobs=2)) == serial
    assert pipeline.fan_out(lambda task: os.getpid(), [0, 1], 2) == [os.getpid()] * 2


def test_fan_out_with_one_worker_opens_no_pipe(monkeypatch):
    monkeypatch.delattr(os, "pipe")
    assert pipeline.fan_out(lambda t: -t, [1, 2, 3], 1) == [-1, -2, -3]
    assert pipeline.fan_out(lambda t: -t, [1], 4) == [-1]


# The CPUs this process may run on when the tests start; every fan-out
# must leave the caller with exactly these.
_CPUS = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else set()
_placement = pytest.mark.skipif(len(_CPUS) < 2, reason="placement needs sched_setaffinity and two usable CPUs")


@_placement
def test_fan_out_runs_worker_k_on_cpu_k_mod_the_cpu_count():
    # Three workers: this process, worker 0, on cpus[0]; its children on
    # cpus[1] and cpus[2 % len(cpus)], in either order.
    cpus = sorted(_CPUS)
    placed = _one_task_each(3, lambda task, caller: (caller, sorted(os.sched_getaffinity(0))))
    assert [on for caller, on in placed if caller] == [[cpus[0]]]
    assert sorted(on for caller, on in placed if not caller) == sorted([[cpus[1]], [cpus[2 % len(cpus)]]])
    assert os.sched_getaffinity(0) == _CPUS


@_placement
@pytest.mark.parametrize("failing", [None, 0, 1])
def test_fan_out_restores_the_callers_affinity(failing):
    # Worker 0 is this process, worker 1 its child.
    def body(task, caller):
        if failing == (0 if caller else 1):
            raise ValueError(f"worker {failing}")
        return task

    if failing is None:
        assert _one_task_each(2, body) == [0, 1]
    else:
        with pytest.raises(ValueError, match=f"^worker {failing}$"):
            _one_task_each(2, body)
    assert os.sched_getaffinity(0) == _CPUS


@_placement
def test_fan_out_ignores_a_placement_that_fails(monkeypatch):
    def refuse(pid, cpus):
        raise OSError("placement refused")

    # The children inherit the patch through the fork.
    monkeypatch.setattr(os, "sched_setaffinity", refuse)
    assert pipeline.fan_out(lambda s: s * s, [1, 2, 3], 3) == [1, 4, 9]
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
    # choice rule names, and C, K, S and F. These bases are of Pauli words,
    # so the test is `word_conditions`, and no dense test is built. The
    # record reads every group fact off that one closure.
    cells = [(1, 3, "real", "dirac"), (3, 3, "real", "canonical"), (6, 0, "complex", "canonical")]
    expected = [classify_cell(*cell) for cell in cells]
    closures = realizations = tests = checks = hashes_inside = 0
    inside = False
    closure, conditions, realize = autmat.signed_closure, autmat.word_conditions, pipeline.realize
    matrix_hash = GaussMatrix.__hash__

    def blade_closure(gens, identity, mul, minus_identity):
        nonlocal closures
        closures += 1
        # Signed blades as plain ints, with their own product and -I.
        assert all(type(x) is int for x in (*gens, identity, minus_identity))
        return closure(gens, identity, mul, minus_identity)

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

    def dense_test(basis):
        raise AssertionError("a word basis built the dense intertwining test")

    monkeypatch.setattr(autmat, "signed_closure", blade_closure)
    monkeypatch.setattr(autmat, "word_conditions", counting_conditions)
    monkeypatch.setattr(autmat, "conditions", dense_test)
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
from clifcpt import autmat, classify, exact, pipeline, spinrep

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
for owner in (spinrep, autmat):
    counting(owner, "as_word")
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
    # Every basis of the sweep is one of Pauli words, so certification and
    # the intertwining test run on the bits that `spinrep.as_word` reads
    # off each matrix, and compare no product: no `product_signed_eq`
    # call (1574 on the dense route). A word is read 455 times: the 140
    # generators of the 25 bases once in certification and once more in
    # `autmat.word_conditions`, and each of the 7 element matrices of the
    # 25 bases (175), which `product_over` forms from the generators with
    # the 411 products, none with I on the left. No matrix is negated.
    # A rise means repeated work.
    assert _run_fresh(_COUNT_SWEEP_OPS) == {
        "__mul__": 411,
        "__neg__": 0,
        "product_signed_eq": 0,
        "_square_parity": 2050,
        "_commute_parity": 1304,
        "as_word": 455,
    }


_COUNT_MV_PRODUCTS = """
import json
from clifcpt import pipeline
from clifcpt.algebra import Multivector

raw = Multivector.__mul__
counts = {}

def counted(a, b):
    counts[field] += 1
    return raw(a, b)

Multivector.__mul__ = counted
for field in ("real", "complex"):
    counts[field] = 0
    pipeline.sweep(8, field, jobs=1)
print(json.dumps(counts))
"""


def test_sweep_makes_no_multivector_product():
    # The realization stage closes signed blades held as ints, and the
    # idempotent is formed by doubling, so no sweep multiplies two
    # multivectors.
    assert _run_fresh(_COUNT_MV_PRODUCTS) == {"real": 0, "complex": 0}


def _multivector_cayley(r, count: int, physics: bool) -> tuple:
    """The ext (count 8) or aut (count 4) table of `r` and its legend,
    from products of `Multivector.blade`s of the generator masks, each
    product matched against +-rep with earlier representatives first."""
    from clifcpt.algebra import Multivector
    from clifcpt.autmat import ELEMENT_NAMES, mask_label

    masks = [r.predicted.masks.get(name, 0) for name in ELEMENT_NAMES[:count]]
    reps = [Multivector.blade(r.basis.sig, m) for m in masks]
    cells = []
    for x in reps:
        row = []
        for y in reps:
            prod = x * y
            row.append(
                next(
                    (sign, lab)
                    for lab, rep in zip(ELEMENT_NAMES, reps)
                    for sign, signed in ((1, rep), (-1, rep.scale(-1)))
                    if prod == signed
                )
            )
        cells.append(tuple(row))
    legend = {"I": "1"}
    for name, m in zip(ELEMENT_NAMES[1:count], masks[1:]):
        legend[name] = mask_label(m, physics)
    return fingroup.CayleyTable(ELEMENT_NAMES[:count], tuple(cells)), legend


def test_ext_and_aut_tables_are_the_multivector_tables(monkeypatch):
    # cayley_for multiplies signed-blade ints; its md and json text must
    # be that of the Multivector products, on every canonical even cell
    # with n <= 8 and on dirac. Multivector products refuse inside it.
    from clifcpt.algebra import Multivector

    def refuse(a, b):
        raise AssertionError("cayley_for formed a Multivector product")

    cells = [(p, n - p, "canonical") for n in range(0, 9, 2) for p in range(n + 1)]
    cells.append((1, 3, "dirac"))
    for p, q, basis_spec in cells:
        r = pipeline.realize(pipeline.resolve_basis(p, q, "real", basis_spec))
        for set_name, count in (("ext", 8), ("aut", 4)):
            want, want_legend = _multivector_cayley(r, count, basis_spec == "dirac")
            with monkeypatch.context() as m:
                m.setattr(Multivector, "__mul__", refuse)
                got, legend = pipeline.cayley_for(p, q, set_name, basis_spec)
            where = (p, q, basis_spec, set_name)
            assert got.to_markdown(legend) == want.to_markdown(want_legend), where
            assert to_json(dict(got.to_json_obj(), legend=legend)) == to_json(
                dict(want.to_json_obj(), legend=want_legend)
            ), where


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
