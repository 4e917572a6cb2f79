from clifcpt import autmat, fingroup, pipeline
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
    import concurrent.futures

    requested = []

    class RecordingPool:
        # Runs the cells in this process: the test starts no worker.
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    small = sweep(1, "real", jobs=64)  # three cells
    assert requested == [3]
    assert to_json(small) == to_json(sweep(1, "real", jobs=1))
    sweep(2, "real", jobs=2)  # six cells
    assert requested == [3, 2]


def test_realizations_close_signed_blades_not_matrices(monkeypatch):
    # The realization stage closes signed blades and hashes no matrix, yet
    # tests the intertwining conditions on matrices as often as the matrix
    # closure did: W once, each E and Pi candidate, and C, K, S and F per
    # realization, 8 per cell here. The record reads every group fact off
    # that one closure.
    cells = [(1, 3, "real", "dirac"), (3, 3, "real", "canonical"), (6, 0, "complex", "canonical")]
    expected = [classify_cell(*cell) for cell in cells]
    closures = completions = checks = hashes_inside = 0
    inside = False
    closure, complete_set, check = autmat.signed_closure, autmat.complete_set, autmat.check
    enumerate_realizations = pipeline.enumerate_realizations
    matrix_hash = GaussMatrix.__hash__

    def blade_closure(gens, identity):
        nonlocal closures
        closures += 1
        assert all(isinstance(x, Multivector) for x in (*gens, identity))
        return closure(gens, identity)

    def counting_complete_set(*args, **kwargs):
        nonlocal completions
        completions += 1
        return complete_set(*args, **kwargs)

    def counting_check(*args, **kwargs):
        nonlocal checks
        checks += 1
        return check(*args, **kwargs)

    def tracked_enumerate(basis):
        nonlocal inside
        inside = True
        try:
            return enumerate_realizations(basis)
        finally:
            inside = False

    def tracked_hash(m):
        nonlocal hashes_inside
        hashes_inside += inside
        return matrix_hash(m)

    def refuse(*args, **kwargs):
        raise AssertionError("the record recomputed a group fact")

    monkeypatch.setattr(autmat, "signed_closure", blade_closure)
    monkeypatch.setattr(autmat, "complete_set", counting_complete_set)
    monkeypatch.setattr(autmat, "check", counting_check)
    monkeypatch.setattr(pipeline, "enumerate_realizations", tracked_enumerate)
    monkeypatch.setattr(GaussMatrix, "__hash__", tracked_hash)
    monkeypatch.setattr(fingroup, "signed_closure", refuse)
    monkeypatch.setattr(fingroup, "order_structure", refuse)
    assert [classify_cell(*cell) for cell in cells] == expected
    assert completions >= len(cells) and closures == completions
    assert checks == 8 * len(cells)
    assert hashes_inside == 0
