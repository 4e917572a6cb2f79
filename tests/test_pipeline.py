from clifcpt import autmat, fingroup
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


def test_record_never_closes_the_group_again(monkeypatch):
    cells = [(1, 3, "real", "dirac"), (3, 3, "real", "canonical"), (6, 0, "complex", "canonical")]
    expected = [classify_cell(*cell) for cell in cells]
    closures = completions = 0
    closure, complete_set = autmat.signed_closure, autmat.complete_set

    def counting_closure(*args, **kwargs):
        nonlocal closures
        closures += 1
        return closure(*args, **kwargs)

    def counting_complete_set(*args, **kwargs):
        nonlocal completions
        completions += 1
        return complete_set(*args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("the record recomputed a group fact")

    monkeypatch.setattr(autmat, "signed_closure", counting_closure)
    monkeypatch.setattr(autmat, "complete_set", counting_complete_set)
    monkeypatch.setattr(fingroup, "signed_closure", refuse)
    monkeypatch.setattr(fingroup, "order_structure", refuse)
    assert [classify_cell(*cell) for cell in cells] == expected
    assert completions >= len(cells) and closures == completions
