"""Outside-in layer tracing for the clifcpt benchmark.

`Tracer.install()` replaces public functions and methods of the clifcpt
modules with wrappers that record spans, and `Tracer.uninstall()` puts
every original back. A span records its call count and its self time:
its duration minus the time its child spans cover. Kernels that run
millions of times get count-only wrappers, because a span would swamp
them. Nothing in the package itself changes.

`Tracer.raw()` gives counters that add up across processes;
`layer_metrics()` turns their sum into the per-layer metrics.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter

MODULES = (
    "exact",
    "algebra",
    "classify",
    "spinrep",
    "autmat",
    "fingroup",
    "covering",
    "pipeline",
    "verify",
    "cli",
)

# metric prefix -> (kind, module, attribute paths). Attributes missing from
# the package are skipped, so the tracer keeps working when code is removed.
TARGETS = {
    "exact.matmul": ("span", "exact", ("GaussMatrix.__mul__",)),
    "exact.mat_hash": ("span", "exact", ("GaussMatrix.__hash__",)),
    "exact.mat_eq": ("span", "exact", ("GaussMatrix.__eq__",)),
    "exact.mat_new": ("span", "exact", ("GaussMatrix.__init__", "GaussMatrix._from_monomial")),
    "exact.mat_unary": (
        "span",
        "exact",
        (
            "GaussMatrix.transpose",
            "GaussMatrix.conj",
            "GaussMatrix.__neg__",
            "GaussMatrix.scale",
            "GaussMatrix.inverse",
            "GaussMatrix.pm_identity",
        ),
    ),
    "exact.kron": ("span", "exact", ("kron",)),
    "algebra.mv_mul": ("span", "algebra", ("Multivector.__mul__",)),
    "algebra.involution": (
        "span",
        "algebra",
        (
            "Multivector.grade_involution",
            "Multivector.reversion",
            "Multivector.conjugation",
            "Multivector.complex_conjugation",
        ),
    ),
    "algebra.blade_product": ("count", "algebra", ("blade_product",)),
    "classify.idempotent": ("span", "classify", ("primitive_idempotent",)),
    "spinrep.build": ("span", "spinrep", ("build_spinbasis", "preset_spinbasis")),
    "spinrep.load": ("span", "spinrep", ("load_spinbasis",)),
    "spinrep.certify": ("span", "spinrep", ("certify_spinbasis",)),
    "spinrep.product_over": ("count", "spinrep", ("product_over",)),
    "autmat.enumerate": ("span", "autmat", ("enumerate_realizations",)),
    "autmat.complete_set": ("span", "autmat", ("complete_set",)),
    "autmat.check": (
        "span",
        "autmat",
        ("check_W", "check_E", "check_C", "check_Pi", "check_K", "check_S", "check_F"),
    ),
    "fingroup.closure": ("span", "fingroup", ("signed_closure",)),
    "fingroup.identify": ("span", "fingroup", ("identify_abstract",)),
    "fingroup.cayley": ("span", "fingroup", ("cayley_table",)),
    "covering.predict": (
        "span",
        "covering",
        (
            "predict_aut_real",
            "predict_aut_complex",
            "predict_pi_square",
            "predict_k_square",
            "predict_s_square",
            "predict_f_square",
            "predict_pi_k_commutation",
            "predict_s_f_commutation",
        ),
    ),
    "pipeline.classify_cell": ("span", "pipeline", ("classify_cell",)),
    "pipeline.record": ("span", "pipeline", ("realization_record",)),
    "pipeline.render": ("span", "pipeline", ("to_json", "sweep_to_csv", "sweep_to_markdown")),
    "verify.run_suites": ("span", "verify", ("run_suites",)),
}

# verify checks whose CheckResult.seconds become metrics.
VERIFY_CHECKS = (
    "involution-laws",
    "predictor-vs-computation",
    "intertwining-conditions",
    "sweep-label-consistency",
    "label-fiber-families",
)

CALL_METRICS = (
    "exact.matmul",
    "exact.mat_hash",
    "exact.mat_eq",
    "exact.mat_new",
    "algebra.mv_mul",
    "algebra.involution",
    "algebra.blade_product",
    "classify.idempotent",
    "spinrep.product_over",
    "autmat.enumerate",
    "autmat.complete_set",
    "fingroup.closure",
    "pipeline.classify_cell",
)

SELF_METRICS = (
    "exact.matmul",
    "exact.mat_hash",
    "exact.mat_eq",
    "exact.mat_new",
    "exact.mat_unary",
    "exact.kron",
    "algebra.mv_mul",
    "algebra.involution",
    "classify.idempotent",
    "spinrep.build",
    "spinrep.load",
    "spinrep.certify",
    "autmat.enumerate",
    "autmat.check",
    "fingroup.closure",
    "fingroup.identify",
    "fingroup.cayley",
    "covering.predict",
    "pipeline.record",
    "pipeline.render",
)


def _package_modules():
    return {name: importlib.import_module(f"clifcpt.{name}") for name in MODULES}


def _resolve(module, path: str):
    """(owner, attribute, raw value) for a dotted path, or None if missing."""
    owner = module
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if attr not in vars(owner):
        return None
    return owner, attr, vars(owner)[attr]


class Tracer:
    """Spans and counters around the clifcpt layers of one process."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.extra: Counter = Counter()
        self.check_seconds: dict[str, float] = {}
        self._stack: list[list] = []
        self._paused = 0
        self._patches: list[tuple[object, str, object]] = []
        self._cells: set = set()
        self._certify = None

    # --- wrappers -----------------------------------------------------
    def _span(self, name: str, fn, observe=None):
        stack = self._stack
        calls, self_ns, extra = self.calls, self.self_ns, self.extra
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else None
            frame = [name, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                calls[name] += 1
                self_ns[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if parent == "fingroup.closure" and name == "exact.matmul":
                    extra["closure_products"] += 1
            if observe is not None:
                tracer._paused += 1
                try:
                    observe(args, result)
                finally:
                    tracer._paused -= 1
            return result

        return wrapper

    def _count(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # --- observers ----------------------------------------------------
    def _observe_cell(self, args, result):
        key = tuple(args) + (None,) * (4 - len(args))
        if key in self._cells:
            self.extra["classify_cell_repeats"] += 1
        self._cells.add(key)

    def _observe_enumerate(self, args, result):
        self.extra["realizations_kept"] += len(result)

    def _observe_closure(self, args, result):
        self.extra["closure_new"] += len(result.elements) - len(set(args[0]))

    def _observe_suites(self, args, result):
        for r in result:
            self.check_seconds[r.name] = r.seconds

    # --- install / uninstall -----------------------------------------
    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        observers = {
            "pipeline.classify_cell": self._observe_cell,
            "autmat.enumerate": self._observe_enumerate,
            "fingroup.closure": self._observe_closure,
            "verify.run_suites": self._observe_suites,
        }
        self._certify = getattr(modules["spinrep"], "certify_spinbasis", None)
        for name, (kind, mod, paths) in TARGETS.items():
            for path in paths:
                found = _resolve(modules[mod], path)
                if found is None:
                    continue
                owner, attr, raw = found
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._span(name, raw.__func__))
                elif kind == "count":
                    wrapped = self._count(name, raw)
                else:
                    wrapped = self._span(name, raw, observers.get(name))
                self._patch(owner, attr, raw, wrapped)
                if owner is modules[mod]:
                    # Other modules bind the function by name at import.
                    for other in modules.values():
                        if other is not owner and vars(other).get(attr) is raw:
                            self._patch(other, attr, raw, wrapped)

    def _patch(self, owner, attr: str, original, wrapped) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def patched(self) -> list[tuple[object, str, object]]:
        """(owner, attribute, original) of every binding installed."""
        return list(self._patches)

    # --- results ------------------------------------------------------
    def raw(self) -> dict:
        """Counters of this process; they add up across processes."""
        extra = dict(self.extra)
        extra["classify_cell_calls"] = self.calls["pipeline.classify_cell"]
        if self._certify is not None and hasattr(self._certify, "cache_info"):
            info = self._certify.cache_info()
            extra["certify_hits"] = info.hits
            extra["certify_misses"] = info.misses
        return {
            "calls": dict(self.calls),
            "self_s": {k: v / 1e9 for k, v in self.self_ns.items()},
            "extra": extra,
            "check_seconds": dict(self.check_seconds),
        }


def merge_raw(raws: list[dict]) -> dict:
    """Sum the counters of several processes."""
    total = {"calls": Counter(), "self_s": Counter(), "extra": Counter(), "check_seconds": Counter()}
    for raw in raws:
        for key in total:
            total[key].update(raw.get(key, {}))
    return {key: dict(value) for key, value in total.items()}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(raw: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, name -> (value, unit), from merged counters."""
    calls, self_s, extra = raw["calls"], raw["self_s"], raw["extra"]
    out: dict[str, tuple[float, str]] = {}
    for name in CALL_METRICS:
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
    for name in SELF_METRICS:
        out[f"{name}.self_s"] = (round(self_s.get(name, 0.0), 6), "s")
    hits, misses = extra.get("certify_hits", 0), extra.get("certify_misses", 0)
    out["spinrep.certify.hit_frac"] = (_ratio(hits, hits + misses), "ratio")
    out["autmat.keep_frac"] = (
        _ratio(extra.get("realizations_kept", 0), calls.get("autmat.complete_set", 0)),
        "ratio",
    )
    out["fingroup.closure.new_frac"] = (
        _ratio(extra.get("closure_new", 0), extra.get("closure_products", 0)),
        "ratio",
    )
    out["pipeline.classify_cell.redo_frac"] = (
        _ratio(extra.get("classify_cell_repeats", 0), extra.get("classify_cell_calls", 0)),
        "ratio",
    )
    for check in VERIFY_CHECKS:
        out[f"verify.check.{check}.s"] = (round(raw["check_seconds"].get(check, 0.0), 6), "s")
    return out
