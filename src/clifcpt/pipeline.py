"""End-to-end classification pipeline shared by the CLI and the tests.

A classification cell runs: arithmetic classification (ring, idempotent,
dimension audit), canonical spin basis construction, the basis's CPT
realization, finite-group identification, covering labels, and the
predictor-versus-computation comparison.
"""

from __future__ import annotations

import os
import sys
from json.encoder import encode_basestring_ascii as _json_str

from . import covering, fingroup
from .algebra import COMPLEX, REAL, MetricSignature, Multivector, blade_indices
from .autmat import ELEMENT_NAMES, Realization, mask_label, realize
from .classify import dimension_audit, idempotent_factor_count, primitive_idempotent, ring_type
from .exact import GaussMatrix
from .fingroup import cayley_table, classify_form, minus_count, polarization, sig_str
from .spinrep import SpinBasis, build_spinbasis, load_spinbasis, preset_spinbasis

SWEEP_CSV_COLUMNS = [
    "p",
    "q",
    "field",
    "ring",
    "k",
    "status",
    "realization",
    "choiceE",
    "choicePi",
    "signature",
    "label",
    "abelian",
    "order_structure",
    "cpt_fiber",
    "cliffordian",
    "pt_fiber",
    "predicted_vs_computed",
    "note",
]


# Largest p + q any command accepts: the atlas and the schemas stop here,
# and the blade and matrix sizes grow as 2^(p+q).
MAX_DIM = 12


class BasisSpecError(ValueError):
    """The requested basis does not apply to the requested signature."""


def resolve_basis(p: int, q: int, field: str, basis_spec: str) -> SpinBasis:
    sig = MetricSignature(p, q, field)
    if basis_spec == "canonical":
        return build_spinbasis(sig)
    if basis_spec == "dirac":
        if (p, q, field) != (1, 3, REAL):
            raise BasisSpecError("the dirac preset is a basis of Cl(1,3) over the reals")
        return preset_spinbasis("dirac")
    if basis_spec.startswith("file:"):
        return load_spinbasis(basis_spec[5:], sig)
    raise BasisSpecError(f"unknown basis spec {basis_spec!r}")


def predictor_analysis(r: Realization) -> dict:
    """Compare the count-profile prediction against the signs read off the
    closure. Pi is a real matrix (see `predict_realization`), so the
    computed Pi * conj(Pi) is the closure's Pi^2."""
    sig, prof, pred = r.basis.sig, r.basis.profile, r.predicted
    checks: dict[str, dict] = {}
    failures: list[str] = []

    def record(name: str, predicted, computed):
        ok = predicted == computed
        checks[name] = {"predicted": predicted, "computed": computed, "agree": ok}
        if not ok:
            failures.append(name)

    for name, i in (("pi_times_conj_pi", 3), ("k_square", 4), ("s_square", 5), ("f_square", 6)):
        record(name, pred.signature[i], r.signature[i])
    record("pi_k_commutation", pred.commutation[4][5], r.commutation[4][5])
    record("s_f_commutation", pred.commutation[6][7], r.commutation[6][7])

    tag = ring_type(sig.p, sig.q).tag
    full_scope = tag == "H" or (tag == "R" and prof.mask(real=False) == 0)
    reason = ""
    if full_scope:
        pred_aut = classify_form(pred.signature[:3])
        record("aut_triple", sig_str(pred.signature[:3]), sig_str(r.signature[:3]))
        record("aut_abelian", pred_aut.abelian, r.aut_abelian)
        record("pt_fiber", pred_aut.fiber, classify_form(r.signature[:3]).fiber)
    else:
        reason = (
            "real-ring signature represented with complex-entry generators; "
            "square signs are phase dependent"
        )

    verdict = "agree" if not failures else "disagree:" + ",".join(failures)
    return {
        "scope": "full" if full_scope else "universal-only",
        "reason": reason,
        "checks": checks,
        "verdict": verdict,
    }


def realization_record(r: Realization) -> dict:
    form = classify_form(r.signature)
    aut = classify_form(r.signature[:3])
    abstract = fingroup.identify_abstract(r.group)
    predictor = predictor_analysis(r)
    return {
        "choiceE": r.predicted.choice_e,
        "choicePi": r.predicted.choice_pi,
        "signature": sig_str(r.signature),
        "squares": dict(zip(ELEMENT_NAMES[1:], r.signature)),
        "commute": [list(row) for row in r.commutation],
        "abelian": r.abelian,
        "masks": {name: blade_indices(mask) for name, mask in r.predicted.masks.items()},
        "rep_signs": dict(r.rep_signs),
        "label": form.label,
        # The closure's commutation table against the one its squares imply.
        "label_consistent": r.commutation == polarization(r.signature),
        "order_structure": list(r.order_counts),
        "closure": {
            "order": r.group.order,
            "contains_minus_I": r.group.contains_minus_I,
            "abelian": abstract["abelian"],
            "center_size": abstract["center_size"],
            "exponent": abstract["exponent"],
            "order_histogram": {str(k): v for k, v in abstract["order_histogram"].items()},
        },
        "aut": {"signature": sig_str(r.signature[:3]), "label": aut.label, "abelian": aut.abelian},
        "pt_cover": {"fiber": aut.fiber, "cliffordian": not aut.abelian},
        "cpt_cover": {"fiber": form.fiber, "cliffordian": not form.abelian},
        "predictor": predictor,
        "predicted_vs_computed": predictor["verdict"],
    }


def _arith_section(p: int, q: int) -> dict:
    sig = MetricSignature(p, q, REAL)
    ring = ring_type(p, q)
    idem = primitive_idempotent(sig)
    audit = dimension_audit(p, q)
    return {
        "ring": ring.tag,
        "pq_mod8": ring.pq_mod8,
        "k": idempotent_factor_count(p, q),
        "idempotent": str(idem.f),
        "idempotent_factors": idem.generator_strings(),
        "dimension_audit": {
            "passed": audit.passed,
            "total_dim": audit.total_dim,
            "summands": audit.summands,
            "matrix_size": audit.matrix_size,
            "ring_dim": audit.ring_dim,
        },
    }


def classify_cell(p: int, q: int, field: str = REAL, basis_spec: str = "canonical") -> dict:
    if basis_spec != "canonical" and (field == COMPLEX or (p + q) % 2 == 1):
        raise BasisSpecError(
            f"basis {basis_spec!r} does not apply to Cl({p},{q}) over the {field} field: "
            "odd and complex cells are classified with canonical bases"
        )
    if field == COMPLEX:
        return _classify_complex(p, q)
    if (p + q) % 2 == 1:
        out = _reduced_cell(p, q)
        red = out["reduction"]
        red["target_summaries"] = [
            _target_summary(classify_cell(tp, tq)) for tp, tq in red["targets"]
        ]
        return out
    out: dict = {"p": p, "q": q, "n": p + q, "field": REAL}
    out.update(_arith_section(p, q))
    out["status"] = "matrix"
    basis = resolve_basis(p, q, REAL, basis_spec)
    prof = basis.profile
    out["basis"] = {"provenance": basis.provenance, "dim": basis.dim, "profile": prof.as_dict()}
    out["realizations"] = [realization_record(realize(basis))]
    return out


def _reduced_cell(p: int, q: int) -> dict:
    """An odd real cell without its `target_summaries`, which come from
    the canonical classification of its even reduction targets."""
    out: dict = {"p": p, "q": q, "n": p + q, "field": REAL}
    out.update(_arith_section(p, q))
    out["status"] = "reduced"
    red = covering.reduce_odd(p, q)
    out["reduction"] = {
        "targets": [list(t) for t in red.targets],
        "omega_sq": red.omega_sq,
        "complex_target": red.complex_target,
    }
    return out


def _target_summary(target: dict) -> dict:
    return {
        "p": target["p"],
        "q": target["q"],
        "ring": target["ring"],
        "signatures": [r["signature"] for r in target["realizations"]],
        "labels": [r["label"] for r in target["realizations"]],
        "cpt_fibers": [r["cpt_cover"]["fiber"] for r in target["realizations"]],
    }


def _classify_complex(p: int, q: int) -> dict:
    n = p + q
    pred = covering.predict_aut_complex(n)
    out: dict = {
        "p": p,
        "q": q,
        "n": n,
        "field": COMPLEX,
        "type": "even" if n % 2 == 0 else "odd",
        "predicted": {
            "group": pred.group,
            "signature": sig_str(pred.triple),
            "abelian": pred.abelian,
            "arm": pred.arm,
        },
    }
    if n % 2 == 1:
        out["status"] = "reduced"
        out["reduction"] = {"complex_target": n - 1}
        return out
    out["status"] = "matrix"
    sig = MetricSignature(p, q, COMPLEX)
    basis = build_spinbasis(sig)
    prof = basis.profile
    r = realize(basis)
    cover = classify_form(pred.triple)
    out["basis"] = {"provenance": basis.provenance, "dim": basis.dim, "profile": prof.as_dict()}
    out["aut"] = {
        "raw_signature": sig_str(r.signature[:3]),
        "phase_normalized_signature": sig_str(pred.triple),
        "abelian": r.aut_abelian,
        "commute": [list(row[:4]) for row in r.commutation[:4]],
        "agree": r.aut_abelian == pred.abelian,
    }
    out["pin_cover"] = {"fiber": cover.fiber, "cliffordian": not cover.abelian}
    return out


# --- Cayley table sets -----------------------------------------------------

_WIGNER_SLOT_SEQUENCES = {
    "1": (),
    "P": (1,),
    "T": (2, 4),
    "PT": (1, 2, 4),
    "C": (3, 1),
    "CP": (3,),
    "CT": (3, 1, 2, 4),
    "CPT": (3, 2, 4),
}


def wigner_reps(basis: SpinBasis) -> list[tuple[str, GaussMatrix]]:
    """The reflection-representation CPT set of the dirac preset, with
    each representative built in the literal factor order of its label."""
    if basis.provenance != "preset:dirac":
        raise BasisSpecError("the cpt-wigner set is defined for the dirac preset basis")
    out = []
    for label, seq in _WIGNER_SLOT_SEQUENCES.items():
        m = GaussMatrix.identity(basis.dim)
        for slot in seq:
            m = m * basis.gens[slot - 1]
        out.append((label, m))
    return out


def ext_reps(r: Realization) -> list[tuple[str, Multivector]]:
    """Normalized representatives: each element replaced by the blade of
    its generator mask, sign +1."""
    sig = r.basis.sig
    return [(name, Multivector.blade(sig, r.predicted.masks.get(name, 0))) for name in ELEMENT_NAMES]


def cayley_for(p: int, q: int, set_name: str, basis_spec: str = "canonical"):
    """Build the requested Cayley table; returns (table, legend)."""
    basis = resolve_basis(p, q, REAL, basis_spec)
    physics = basis.provenance == "preset:dirac"
    if set_name == "cpt-wigner":
        reps = wigner_reps(basis)
        # Legend subscripts follow the literal factor order of each label.
        legend = {
            lab: ("g" + "".join(str(s - 1) for s in seq) if seq else "1")
            for lab, seq in _WIGNER_SLOT_SEQUENCES.items()
        }
        return cayley_table(reps), legend
    r = realize(basis)
    if set_name == "ext":
        reps = ext_reps(r)
    elif set_name == "aut":
        reps = ext_reps(r)[:4]
    else:
        raise BasisSpecError(f"unknown table set {set_name!r}")
    legend = {"I": "1"}
    for name in ELEMENT_NAMES[1 : len(reps)]:
        legend[name] = mask_label(r.predicted.masks[name], physics)
    return cayley_table(reps), legend


# --- sweep ------------------------------------------------------------------


def fan_out(fn, shares: list) -> list:
    """[fn(s) for s in shares], with the first share run in this process
    and each other one in a forked child.

    A child pickles (ok, result or exception) into a pipe and always ends
    with os._exit, so it runs no exit handler and flushes no inherited
    buffer. A child's exception is raised again here with its type and
    message; a child that ends without a result raises RuntimeError. Every
    child is reaped, also when this process's own share raises. Forking is
    only safe in a process without threads, as every clifcpt command is.
    Where os.fork does not exist, the shares run here one after another.

    Where the process may run on two or more CPUs, share k runs on
    cpus[k % len(cpus)], cpus being the sorted CPUs it may run on: each
    child pins itself first, this process pins itself to cpus[0] and takes
    its former affinity back once every child is reaped. A cpuset with
    sched_load_balance = 0 never moves a forked child off its parent's CPU,
    so unpinned shares took turns on one CPU: two forked copies of a busy
    loop ran 2.05-2.2 times as long as one (2-vCPU VM). Placement is a hint:
    an OSError from sched_setaffinity is ignored.
    """
    if len(shares) < 2 or not hasattr(os, "fork"):
        return [fn(s) for s in shares]
    # Imported here: only a fan-out over two or more shares uses it.
    import pickle

    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []

    def place(k: int | None = None) -> None:
        """Pin this process to share k's CPU, or with no k to all of cpus."""
        if len(cpus) > 1:
            try:
                os.sched_setaffinity(0, cpus if k is None else (cpus[k % len(cpus)],))
            except OSError:
                pass

    sys.stdout.flush()
    sys.stderr.flush()
    children: list[tuple[int, int]] = []  # (pid, read end of its pipe)
    try:
        for k, share in enumerate(shares[1:], 1):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                try:
                    place(k)
                    os.close(r)
                    for _, fd in children:
                        os.close(fd)
                    try:
                        payload = pickle.dumps((True, fn(share)))
                    except BaseException as exc:
                        payload = pickle.dumps((False, exc))
                    with open(w, "wb") as pipe:
                        pipe.write(payload)
                finally:
                    os._exit(0)
            os.close(w)
            children.append((pid, r))
        place(0)
        results = [fn(shares[0])]
        for pid, fd in children:
            with open(fd, "rb", closefd=False) as pipe:
                data = pipe.read()
            if not data:
                raise RuntimeError(f"worker process {pid} ended without a result")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        # Read ends first: a child blocked on a full pipe ends only when
        # its reader is gone.
        for _, fd in children:
            os.close(fd)
        for pid, _ in children:
            os.waitpid(pid, 0)
        place()


def _sweep_cell(args) -> dict:
    p, q, field = args
    if field == REAL and (p + q) % 2 == 1:
        return _reduced_cell(p, q)
    return classify_cell(p, q, field, "canonical")


def sweep(max_dim: int, field: str = REAL, jobs: int = 1) -> dict:
    """Classify every signature with p+q <= max_dim; deterministic order.

    Each cell is classified once: an odd real cell takes the summaries of
    its even reduction targets from the even cells of the same sweep.
    With jobs > 1, share k of the cells is every jobs-th cell from the
    k-th, so that each share takes cells of every dimension.
    """
    if not 0 <= max_dim <= MAX_DIM:
        raise ValueError(f"max_dim must be between 0 and {MAX_DIM}")
    if field == COMPLEX:
        tasks = [(n, 0, COMPLEX) for n in range(0, max_dim + 1)]
    else:
        tasks = [
            (p, n - p, REAL) for n in range(0, max_dim + 1) for p in range(n, -1, -1)
        ]
        tasks.sort(key=lambda t: (t[0] + t[1], t[0]))
    jobs = max(1, min(jobs, len(tasks)))
    shares = [tasks[k::jobs] for k in range(jobs)]
    parts = fan_out(lambda share: [_sweep_cell(t) for t in share], shares)
    cells = [cell for part in parts for cell in part]
    cells.sort(key=lambda c: (c["n"], c["p"]))
    matrix_cells = {(c["p"], c["q"]): c for c in cells if c["status"] == "matrix"}
    for cell in cells:
        red = cell.get("reduction", {})
        if "targets" in red:
            red["target_summaries"] = [
                _target_summary(matrix_cells[tuple(t)]) for t in red["targets"]
            ]

    census = fingroup.census_64()
    realized: dict[int, int] = {}
    agreement = {"agree": 0, "disagree": 0, "universal_only": 0}
    for cell in cells:
        for r in cell.get("realizations", []):
            signs = tuple(r["squares"][k] for k in ELEMENT_NAMES[1:])
            mc = minus_count(signs)
            realized[mc] = realized.get(mc, 0) + 1
            if r["predicted_vs_computed"] == "agree":
                agreement["agree"] += 1
            else:
                agreement["disagree"] += 1
            if r["predictor"]["scope"] == "universal-only":
                agreement["universal_only"] += 1
    summary = {
        "max_dim": max_dim,
        "field": field,
        "cells": len(cells),
        "admissible_signatures": census["total"],
        "census_by_minus_count": {str(k): v for k, v in census["by_minus_count"].items()},
        "realized_minus_counts": {str(k): v for k, v in sorted(realized.items())},
        "agreement": agreement,
    }
    return {"summary": summary, "cells": cells}


def sweep_to_csv(result: dict) -> str:
    # Imported here: only sweep --format csv uses them.
    import csv
    import io

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=SWEEP_CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for cell in result["cells"]:
        base = {
            "p": cell["p"],
            "q": cell["q"],
            "field": cell["field"],
            "ring": cell.get("ring", ""),
            "k": cell.get("k", ""),
            "status": cell["status"],
        }
        if cell["status"] == "reduced":
            red = cell.get("reduction", {})
            note = ""
            if "targets" in red:
                tgt = ";".join(f"({a},{b})" for a, b in red["targets"])
                note = f"targets={tgt};omega_sq={red['omega_sq']:+d}"
                if red.get("complex_target") is not None:
                    note += f";complex_target={red['complex_target']}"
            elif "complex_target" in red:
                note = f"complex_target={red['complex_target']}"
            writer.writerow(dict(base, note=note))
            continue
        if cell["field"] == COMPLEX:
            aut = cell["aut"]
            writer.writerow(
                dict(
                    base,
                    realization=0,
                    signature=aut["phase_normalized_signature"],
                    label=cell["predicted"]["group"],
                    abelian=aut["abelian"],
                    cliffordian=cell["pin_cover"]["cliffordian"],
                    pt_fiber=cell["pin_cover"]["fiber"],
                    predicted_vs_computed="agree" if aut["agree"] else "disagree:abelian",
                    note="raw_signature=" + aut["raw_signature"],
                )
            )
            continue
        for idx, r in enumerate(cell.get("realizations", [])):
            writer.writerow(
                dict(
                    base,
                    realization=idx,
                    choiceE=r["choiceE"],
                    choicePi=r["choicePi"],
                    signature=r["signature"],
                    label=r["label"],
                    abelian=r["abelian"],
                    order_structure=f"({r['order_structure'][0]},{r['order_structure'][1]})",
                    cpt_fiber=r["cpt_cover"]["fiber"],
                    cliffordian=r["cpt_cover"]["cliffordian"],
                    pt_fiber=r["pt_cover"]["fiber"],
                    predicted_vs_computed=r["predicted_vs_computed"],
                )
            )
    return buf.getvalue()


def sweep_to_markdown(result: dict) -> str:
    s = result["summary"]
    lines = [
        f"# Classification atlas (max dim {s['max_dim']}, field {s['field']})",
        "",
        f"- cells: {s['cells']}",
        f"- admissible signatures: {s['admissible_signatures']}",
        f"- realized minus counts: {s['realized_minus_counts']}",
        f"- predictor agreement: {s['agreement']}",
        "",
        "| p | q | ring | k | status | signature | label | cover | agreement |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    for cell in result["cells"]:
        if cell["status"] == "reduced":
            red = cell.get("reduction", {})
            tgt = ";".join(f"({a},{b})" for a, b in red.get("targets", []))
            lines.append(
                f"| {cell['p']} | {cell['q']} | {cell.get('ring','')} | {cell.get('k','')} "
                f"| reduced to {tgt or 'C_' + str(red.get('complex_target'))} | | | | |"
            )
            continue
        if cell["field"] == COMPLEX:
            aut = cell["aut"]
            lines.append(
                f"| {cell['p']} | {cell['q']} | C | | matrix | {aut['phase_normalized_signature']} "
                f"| {cell['predicted']['group']} | {cell['pin_cover']['fiber']} "
                f"| {'agree' if aut['agree'] else 'disagree'} |"
            )
            continue
        for r in cell.get("realizations", []):
            lines.append(
                f"| {cell['p']} | {cell['q']} | {cell['ring']} | {cell['k']} | matrix "
                f"| {r['signature']} | {r['label']} | {r['cpt_cover']['fiber']} "
                f"| {r['predicted_vs_computed']} |"
            )
    return "\n".join(lines) + "\n"


def to_json(obj) -> str:
    """The exact text of json.dumps(obj, indent=2, sort_keys=True) + "\n".

    With indent set, json falls back to its pure-Python encoder; this
    writes the same text in one pass into one list. It accepts only what
    the artifacts hold: dicts with str keys, lists, str, bool, int and
    None. Anything else raises TypeError.
    """
    out: list[str] = []
    _write_json(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _write_json(obj, newline: str, out: list[str]) -> None:
    # bool is a subclass of int, so True and False are tested first.
    if isinstance(obj, str):
        out.append(_json_str(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep, comma = "{" + inner, "," + inner
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"to_json: key {key!r} is not a str")
            out.append(sep)
            out.append(_json_str(key))
            out.append(": ")
            _write_json(obj[key], inner, out)
            sep = comma
        out.append(newline + "}")
    elif isinstance(obj, list):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        sep, comma = "[" + inner, "," + inner
        for item in obj:
            out.append(sep)
            _write_json(item, inner, out)
            sep = comma
        out.append(newline + "]")
    else:
        raise TypeError(f"to_json cannot write {type(obj).__name__}")
