"""End-to-end classification pipeline shared by the CLI and the tests.

A classification cell runs: arithmetic classification (ring, idempotent,
dimension audit), canonical spin basis construction, enumeration of the
automorphism-matrix realizations, finite-group identification, covering
labels, and the predictor-versus-computation comparison.
"""

from __future__ import annotations

import csv
import io
import json

from . import covering, fingroup
from .algebra import COMPLEX, REAL, MetricSignature, blade_indices
from .autmat import ELEMENT_NAMES, Realization, enumerate_realizations, mask_label
from .classify import dimension_audit, idempotent_factor_count, primitive_idempotent, ring_type
from .exact import GaussMatrix
from .fingroup import aut_label, cayley_table, minus_count, sig_str, signature_label
from .spinrep import SpinBasis, build_spinbasis, certify_spinbasis, load_spinbasis, preset_spinbasis

_CHOICE_E_JSON = {"skew_product": "skew", "sym_product": "sym"}
_CHOICE_PI_JSON = {"complex_product": "complex", "real_product": "real", "identity": "identity"}

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
        basis = load_spinbasis(basis_spec[5:])
        if (basis.sig.p, basis.sig.q) != (p, q):
            raise BasisSpecError(
                f"basis file is for Cl({basis.sig.p},{basis.sig.q}), requested Cl({p},{q})"
            )
        return basis
    raise BasisSpecError(f"unknown basis spec {basis_spec!r}")


def _aut_sub_signature(r: Realization) -> tuple[int, int, int]:
    return r.signature[:3]


def _aut_sub_abelian(r: Realization) -> bool:
    return all(r.commutation[i][j] == 1 for i in (1, 2, 3) for j in (1, 2, 3))


def _we_commute(r: Realization) -> bool:
    return r.commutation[1][2] == 1


def predictor_analysis(p: int, q: int, prof, r: Realization) -> dict:
    """Compare every theorem predictor against the matrix computation."""
    checks: dict[str, dict] = {}
    failures: list[str] = []

    def record(name: str, predicted, computed):
        ok = predicted == computed
        checks[name] = {"predicted": predicted, "computed": computed, "agree": ok}
        if not ok:
            failures.append(name)

    pi = r.matrix("Pi")
    pipidot = (pi * pi.conj()).pm_identity()
    record("pi_times_conj_pi", covering.predict_pi_square(prof, r.choice_pi), pipidot)
    record("k_square", covering.predict_k_square(prof, r.masks["K"]), r.signature[4])
    record("s_square", covering.predict_s_square(prof, r.masks["S"]), r.signature[5])
    record("f_square", covering.predict_f_square(prof, r.masks["F"]), r.signature[6])
    record("pi_k_commutation", covering.predict_pi_k_commutation(prof), r.commutation[4][5])
    record(
        "s_f_commutation",
        covering.predict_s_f_commutation(r.masks["S"], r.masks["F"]),
        r.commutation[6][7],
    )

    tag = ring_type(p, q).tag
    full_scope = tag == "H" or (tag == "R" and prof.mask(real=False) == 0)
    reason = ""
    if full_scope:
        pred = covering.predict_aut_real(p, q, prof)
        record("aut_triple", sig_str(pred.triple), sig_str(_aut_sub_signature(r)))
        record("aut_abelian", pred.abelian, _aut_sub_abelian(r))
        pred_fiber = covering.pt_cover_label(*pred.triple, pt_commutes=pred.abelian).fiber
        comp_fiber = covering.pt_cover_label(
            *_aut_sub_signature(r), pt_commutes=_we_commute(r)
        ).fiber
        record("pt_fiber", pred_fiber, comp_fiber)
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


def realization_record(p: int, q: int, prof, r: Realization) -> dict:
    label = signature_label(r.signature, r.abelian)
    abstract = fingroup.identify_abstract(r.group)
    aut_sig = _aut_sub_signature(r)
    aut_ab = _aut_sub_abelian(r)
    try:
        aut_tag = aut_label(aut_sig, aut_ab).tag
    except fingroup.ClassificationError as exc:
        aut_tag = f"inconsistent:{exc}"
    cpt = covering.cpt_cover_label(r.signature, r.abelian)
    pt = covering.pt_cover_label(*aut_sig, pt_commutes=_we_commute(r))
    predictor = predictor_analysis(p, q, prof, r)
    return {
        "choiceE": _CHOICE_E_JSON[r.choice_e],
        "choicePi": _CHOICE_PI_JSON[r.choice_pi],
        "signature": sig_str(r.signature),
        "squares": dict(zip(ELEMENT_NAMES[1:], r.signature)),
        "commute": [list(row) for row in r.commutation],
        "abelian": r.abelian,
        "masks": {name: blade_indices(r.masks[name]) for name in r.masks},
        "rep_signs": dict(r.rep_signs),
        "label": label.tag,
        "label_consistent": label.consistent,
        "order_structure": list(r.order_counts),
        "closure": {
            "order": r.group.order,
            "contains_minus_I": r.group.contains_minus_I,
            "abelian": abstract["abelian"],
            "center_size": abstract["center_size"],
            "exponent": abstract["exponent"],
            "order_histogram": {str(k): v for k, v in abstract["order_histogram"].items()},
        },
        "aut": {"signature": sig_str(aut_sig), "label": aut_tag, "abelian": aut_ab},
        "pt_cover": {"fiber": pt.fiber, "cliffordian": pt.cliffordian},
        "cpt_cover": {"fiber": cpt.fiber, "cliffordian": cpt.cliffordian},
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
    prof = certify_spinbasis(basis)
    out["basis"] = {"provenance": basis.provenance, "dim": basis.dim, "profile": prof.as_dict()}
    out["realizations"] = [
        realization_record(p, q, prof, r) for r in enumerate_realizations(basis)
    ]
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
    prof = certify_spinbasis(basis)
    r = enumerate_realizations(basis)[0]
    abelian = _aut_sub_abelian(r)
    cover = covering.pt_cover_label(*pred.triple, pt_commutes=pred.abelian)
    out["basis"] = {"provenance": basis.provenance, "dim": basis.dim, "profile": prof.as_dict()}
    out["aut"] = {
        "raw_signature": sig_str(_aut_sub_signature(r)),
        "phase_normalized_signature": sig_str(pred.triple),
        "abelian": abelian,
        "commute": [list(row[:4]) for row in r.commutation[:4]],
        "agree": abelian == pred.abelian,
    }
    out["pin_cover"] = {"fiber": cover.fiber, "cliffordian": cover.cliffordian}
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


def ext_reps(r: Realization) -> list[tuple[str, GaussMatrix]]:
    """Normalized representatives: each element replaced by the
    increasing-index product over its generator mask, sign +1."""
    return list(zip(ELEMENT_NAMES, r.reps))


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
    r = enumerate_realizations(basis)[0]
    if set_name == "ext":
        reps = ext_reps(r)
    elif set_name == "aut":
        reps = ext_reps(r)[:4]
    else:
        raise BasisSpecError(f"unknown table set {set_name!r}")
    legend = {"I": "1"}
    for name in ELEMENT_NAMES[1 : len(reps)]:
        legend[name] = mask_label(r.masks[name], physics)
    return cayley_table(reps), legend


# --- sweep ------------------------------------------------------------------


def _sweep_cell(args) -> dict:
    p, q, field = args
    if field == REAL and (p + q) % 2 == 1:
        return _reduced_cell(p, q)
    return classify_cell(p, q, field, "canonical")


def sweep(max_dim: int, field: str = REAL, jobs: int = 1) -> dict:
    """Classify every signature with p+q <= max_dim; deterministic order.

    Each cell is classified once: an odd real cell takes the summaries of
    its even reduction targets from the even cells of the same sweep.
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
    if jobs > 1:
        # Imported here: loading multiprocessing slows the start of every
        # command, and only a sweep with jobs > 1 uses it.
        from concurrent.futures import ProcessPoolExecutor

        # A forking pool starts all its workers at the first submit, so
        # never ask for more than there are cells.
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            cells = list(pool.map(_sweep_cell, tasks))
    else:
        cells = [_sweep_cell(t) for t in tasks]
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
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
