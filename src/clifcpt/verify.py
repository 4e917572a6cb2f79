"""Runtime verification suites behind the `verify` CLI command.

Each suite returns a list of CheckResult records; the acceptance tests
reuse the same functions, so the CLI and the test suite agree on what is
being verified.
"""

from __future__ import annotations

import os
import random
import time
import traceback
from dataclasses import dataclass
from itertools import product as iterproduct

from . import covering
from .algebra import (
    COMPLEX,
    REAL,
    MetricSignature,
    Multivector,
    OddDimensionError,
    involution_via_omega_check,
    random_multivector,
)
from .autmat import ELEMENT_NAMES, Realization, check, enumerate_realizations, sig_str
from .classify import dimension_audit, idempotent_factor_count, primitive_idempotent, radon_hurwitz, ring_type
from .fingroup import (
    cayley_table,
    census_64,
    identify_abstract,
    order_structure,
    signature_label,
    signed_closure,
)
from .goldens import (
    DIRAC_EXT_SIGNATURE,
    DIRAC_EXT_TABLE,
    WIGNER_CPT_SIGNATURE,
    WIGNER_CPT_TABLE,
    signed_cells,
)
from .pipeline import ext_reps, predictor_analysis, wigner_reps
from .spinrep import SpinBasis, build_spinbasis, certify_spinbasis, preset_spinbasis

SUITE_NAMES = ("automorphisms", "theorems", "groups", "coverings")

_SEED = 20260810


@dataclass
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str
    seconds: float


def _run(suite: str, name: str, fn) -> CheckResult:
    """Run one check; a check that raises fails, and the run goes on."""
    t0 = time.monotonic()
    try:
        detail = fn() or ""
        passed = True
    except AssertionError as exc:
        detail = str(exc)
        passed = False
    except Exception as exc:
        # A check that crashes must not lose the results of the others.
        where = traceback.extract_tb(exc.__traceback__)[-1]
        at = f"{os.path.basename(where.filename)}:{where.lineno}"
        detail = f"{type(exc).__name__}: {exc} (at {at})"
        passed = False
    return CheckResult(suite, name, passed, detail, time.monotonic() - t0)


def _realizations(table: dict, basis: SpinBasis) -> list[Realization]:
    """The realizations of `basis`, enumerated once per verify run."""
    if basis not in table:
        table[basis] = enumerate_realizations(basis)
    return table[basis]


def _real_sigs(max_dim: int):
    for n in range(0, max_dim + 1):
        for p in range(n, -1, -1):
            yield MetricSignature(p, n - p, REAL)


def _even_real_sigs(max_dim: int):
    for sig in _real_sigs(max_dim):
        if sig.n % 2 == 0:
            yield sig


# --- automorphism-law suite -------------------------------------------------


def _maps(sig: MetricSignature):
    """The eight coefficient/blade maps as (star, rev, bar) bit triples."""

    def apply(bits, a: Multivector) -> Multivector:
        s, r, b = bits
        out = a
        if s:
            out = out.grade_involution()
        if r:
            out = out.reversion()
        if b:
            out = out.complex_conjugation()
        return out

    return apply


def suite_automorphisms(max_dim: int, realizations: dict | None = None) -> list[CheckResult]:
    """Laws of the four involutions; `realizations` is unused here and is
    accepted so that every suite takes the run's realization table."""
    rng = random.Random(_SEED)
    out = []

    def law_pack():
        count = 0
        for sig in _real_sigs(max_dim):
            samples = [random_multivector(sig, rng, allow_complex_coeffs=True) for _ in range(100)]
            for a in samples:
                assert a.grade_involution().grade_involution() == a
                assert a.reversion().reversion() == a
                assert a.conjugation().conjugation() == a
                assert a.complex_conjugation().complex_conjugation() == a
                assert a.reversion().grade_involution() == a.grade_involution().reversion()
                assert a.conjugation() == a.reversion().grade_involution()
            for i in range(0, len(samples) - 1, 2):
                a, b = samples[i], samples[i + 1]
                ab = a * b
                assert ab.grade_involution() == a.grade_involution() * b.grade_involution()
                assert ab.reversion() == b.reversion() * a.reversion()
                assert ab.conjugation() == b.conjugation() * a.conjugation()
                assert ab.complex_conjugation() == a.complex_conjugation() * b.complex_conjugation()
                count += 1
        return f"{count} random product pairs across p+q <= {max_dim}"

    out.append(_run("automorphisms", "involution-laws", law_pack))

    def omega_identity():
        hits = 0
        for sig in _real_sigs(max_dim):
            if sig.n % 2 == 0:
                for _ in range(20):
                    assert involution_via_omega_check(random_multivector(sig, rng))
                    hits += 1
            else:
                try:
                    involution_via_omega_check(Multivector.scalar(sig, 1))
                    raise AssertionError(f"odd n={sig.n} did not report inapplicability")
                except OddDimensionError:
                    pass
        return f"{hits} even-dimension checks, odd dimensions report inapplicability"

    out.append(_run("automorphisms", "volume-element-conjugation", omega_identity))

    def table4():
        sig = MetricSignature(1, 3, REAL)
        apply = _maps(sig)
        for _ in range(100):
            a = random_multivector(sig, rng, allow_complex_coeffs=True)
            for b1 in iterproduct((0, 1), repeat=2):
                for b2 in iterproduct((0, 1), repeat=2):
                    lhs = apply(b1 + (0,), apply(b2 + (0,), a))
                    composed = tuple(x ^ y for x, y in zip(b1, b2)) + (0,)
                    assert lhs == apply(composed, a)
        return "4x4 composition tableau == Klein four-group on 100 samples"

    out.append(_run("automorphisms", "four-map-tableau", table4))

    def table8():
        sig = MetricSignature(1, 3, REAL)
        apply = _maps(sig)
        for _ in range(100):
            a = random_multivector(sig, rng, allow_complex_coeffs=True)
            for b1 in iterproduct((0, 1), repeat=3):
                for b2 in iterproduct((0, 1), repeat=3):
                    lhs = apply(b1, apply(b2, a))
                    composed = tuple(x ^ y for x, y in zip(b1, b2))
                    assert lhs == apply(composed, a)
        return "8x8 composition tableau == Z2 x Z2 x Z2 on 100 samples"

    out.append(_run("automorphisms", "eight-map-tableau", table8))
    return out


# --- theorem suite -----------------------------------------------------------


def suite_theorems(max_dim: int, realizations: dict | None = None) -> list[CheckResult]:
    realizations = {} if realizations is None else realizations
    out = []

    def predictor_agreement():
        total = full = 0
        for sig in _even_real_sigs(max_dim):
            basis = build_spinbasis(sig)
            prof = certify_spinbasis(basis)
            for r in _realizations(realizations, basis):
                rep = predictor_analysis(sig.p, sig.q, prof, r)
                assert rep["verdict"] == "agree", (
                    f"Cl({sig.p},{sig.q}): {rep['verdict']}"
                )
                total += 1
                if rep["scope"] == "full":
                    full += 1
        return f"{total} realizations agree ({full} with ring-level arms)"

    out.append(_run("theorems", "predictor-vs-computation", predictor_agreement))

    def complex_commutativity():
        for n in range(0, max_dim + 1, 2):
            sig = MetricSignature(n, 0, COMPLEX)
            basis = build_spinbasis(sig)
            from .autmat import build_C, build_W, find_E

            w = build_W(basis)
            e = find_E(basis)[0][0]
            c = build_C(e, w, basis)
            pred = covering.predict_aut_complex(n)
            pairs = [(w, e), (w, c), (e, c)]
            commuting = all(x * y == y * x for x, y in pairs)
            assert commuting == pred.abelian, f"n={n}: commutativity vs prediction"
        return f"complex automorphism commutativity matches n mod 4 through n={max_dim}"

    out.append(_run("theorems", "complex-automorphism-groups", complex_commutativity))

    def intertwining():
        bases = [preset_spinbasis("dirac")]
        for sig in _even_real_sigs(max_dim):
            bases.append(build_spinbasis(sig))
        for n in range(0, max_dim + 1, 2):
            bases.append(build_spinbasis(MetricSignature(n, 0, COMPLEX)))
        for basis in bases:
            for r in _realizations(realizations, basis):
                for name, m in zip(ELEMENT_NAMES[1:], r.aut.seven()):
                    bad = check(name, m, basis)
                    assert not bad, f"{basis.provenance} Cl({basis.sig.p},{basis.sig.q}): {bad}"
        return f"{len(bases)} bases, all seven conditions exhaustive"

    out.append(_run("theorems", "intertwining-conditions", intertwining))
    return out


# --- group suite --------------------------------------------------------------


def suite_groups(max_dim: int, realizations: dict | None = None) -> list[CheckResult]:
    realizations = {} if realizations is None else realizations
    out = []

    def dirac_goldens():
        r = _realizations(realizations, preset_spinbasis("dirac"))[0]
        assert r.signature == DIRAC_EXT_SIGNATURE, sig_str(r.signature)
        table = cayley_table(ext_reps(r.aut))
        assert table.cells == signed_cells(DIRAC_EXT_TABLE), "extended-set table mismatch"
        closure = signed_closure(list(r.aut.matrices()))
        assert closure.order == 16 and closure.contains_minus_I
        label = signature_label(r.signature, r.abelian)
        assert label.tag == "Z4*xZ2" and label.consistent
        return "signature, 64-cell table, order-16 closure, label"

    out.append(_run("groups", "dirac-extended-set", dirac_goldens))

    def wigner_goldens():
        basis = preset_spinbasis("dirac")
        reps = wigner_reps(basis)
        table = cayley_table(reps)
        assert table.cells == signed_cells(WIGNER_CPT_TABLE), "reflection-set table mismatch"
        signs = tuple((m * m).pm_identity() for _, m in reps[1:])
        assert signs == WIGNER_CPT_SIGNATURE, sig_str(signs)  # type: ignore[arg-type]
        assert order_structure([m for _, m in reps]) == (3, 4)
        closure = signed_closure([m for _, m in reps])
        info = identify_abstract(closure)
        assert not info["abelian"] and closure.order == 16
        label = signature_label(signs, abelian=False)  # type: ignore[arg-type]
        assert label.tag == "Z4*xZ2"
        return "64-cell table, signature, order structure (3,4), label"

    out.append(_run("groups", "wigner-reflection-set", wigner_goldens))

    def closure_closedness():
        r = _realizations(realizations, preset_spinbasis("dirac"))[0]
        closure = signed_closure(list(r.aut.matrices()))
        elems = set(closure.elements)
        for x in closure.elements:
            for y in closure.elements:
                assert (x * y) in elems
        return f"order-{closure.order} closure closed under all {closure.order ** 2} products"

    out.append(_run("groups", "closure-closedness", closure_closedness))

    def census():
        c = census_64()
        assert c["total"] == 64, c["total"]
        assert c["by_minus_count"] == {0: 1, 2: 21, 4: 35, 6: 7}
        return "1 + 21 + 35 + 7 = 64"

    out.append(_run("groups", "signature-census", census))

    def sweep_labels():
        from .autmat import minus_count

        for sig in _even_real_sigs(max_dim):
            for r in _realizations(realizations, build_spinbasis(sig)):
                assert minus_count(r.signature) in (0, 2, 4, 6), sig_str(r.signature)
                label = signature_label(r.signature, r.abelian)
                assert label.consistent, f"Cl({sig.p},{sig.q}): {label.note}"
        return f"all realized signatures admissible and label-consistent to p+q={max_dim}"

    out.append(_run("groups", "sweep-label-consistency", sweep_labels))
    return out


# --- covering suite -----------------------------------------------------------


def suite_coverings(max_dim: int, realizations: dict | None = None) -> list[CheckResult]:
    realizations = {} if realizations is None else realizations
    out = []

    def pt_rows():
        expect = {
            (1, 1, 1, True): ("Z2xZ2xZ2", False),
            (1, -1, -1, True): ("Z2xZ4", False),
            (-1, 1, -1, True): ("Z2xZ4", False),
            (-1, -1, 1, True): ("Z2xZ4", False),
            (-1, -1, -1, False): ("Q4", True),
            (-1, 1, 1, False): ("D4", True),
            (1, -1, 1, False): ("D4", True),
            (1, 1, -1, False): ("D4", True),
        }
        for (a, b, c, comm), (fiber, cliff) in expect.items():
            lab = covering.pt_cover_label(a, b, c, comm)
            assert (lab.fiber, lab.cliffordian) == (fiber, cliff)
        try:
            covering.pt_cover_label(1, 1, 1, False)
            raise AssertionError("off-table row accepted")
        except covering.TableLookupError:
            pass
        return "8 rows plus off-table rejection"

    out.append(_run("coverings", "pt-cover-table", pt_rows))

    def cpt_rows():
        assert covering.cpt_cover_label((1,) * 7, True).fiber == "Z2xZ2xZ2xZ2"
        assert covering.cpt_cover_label((1, -1, -1, 1, -1, -1, 1), False).fiber == "Z4*xZ2xZ2"
        assert covering.cpt_cover_label((-1, -1, 1, -1, -1, 1, 1), False).fiber == "Z4*xZ2xZ2"
        assert covering.cpt_cover_label((1, 1, 1, -1, -1, -1, -1), True).fiber == "Z4xZ2xZ2"
        assert covering.cpt_cover_label((1, -1, -1, -1, -1, -1, -1), False).fiber == "Q4xZ2"
        assert covering.cpt_cover_label((1, 1, 1, 1, 1, -1, -1), False).fiber == "D4xZ2"
        for signs, abelian in (
            ((1,) * 7, True),
            ((1, 1, 1, -1, -1, -1, -1), True),
            ((1, 1, 1, 1, 1, -1, -1), False),
            ((1, -1, -1, -1, -1, -1, -1), False),
            ((1, -1, -1, 1, -1, -1, 1), False),
        ):
            lab = covering.cpt_cover_label(signs, abelian)
            assert lab.cliffordian == (not abelian or lab.fiber in ("D4xZ2", "Q4xZ2", "Z4*xZ2xZ2"))
            assert lab.cliffordian != (lab.fiber in ("Z2xZ2xZ2xZ2", "Z4xZ2xZ2"))
        return "5 fiber families, Cliffordian flag = non-abelian fiber"

    out.append(_run("coverings", "cpt-cover-table", cpt_rows))

    def odd_reduction():
        r30 = covering.reduce_odd(3, 0)
        assert r30.omega_sq == -1 and r30.targets == ((0, 2),)
        r03 = covering.reduce_odd(0, 3)
        assert r03.omega_sq == 1 and r03.targets == ((0, 2),)
        r21 = covering.reduce_odd(2, 1)
        assert set(r21.targets) == {(2, 0), (1, 1)}
        assert covering.reduce_odd(1, 0).targets == ((0, 0),)
        try:
            covering.reduce_odd(2, 2)
            raise AssertionError("even input accepted")
        except ValueError:
            pass
        return "volume-element squares and reduction targets"

    out.append(_run("coverings", "odd-dimension-reduction", odd_reduction))

    def label_fiber_families():
        family = {
            "Z2xZ2xZ2": "Z2xZ2xZ2xZ2",
            "Z4xZ2": "Z4xZ2xZ2",
            "Z4*xZ2": "Z4*xZ2xZ2",
            "D4": "D4xZ2",
            "Q4": "Q4xZ2",
        }
        count = 0
        for sig in _even_real_sigs(max_dim):
            for r in _realizations(realizations, build_spinbasis(sig)):
                tag = signature_label(r.signature, r.abelian).tag
                fiber = covering.cpt_cover_label(r.signature, r.abelian).fiber
                assert fiber == family[tag], f"Cl({sig.p},{sig.q}): {tag} vs {fiber}"
                count += 1
        return f"label and cover fiber agree on {count} realizations"

    out.append(_run("coverings", "label-fiber-families", label_fiber_families))

    def arithmetic_pack():
        for i in range(-16, 17):
            assert radon_hurwitz(i + 8) == radon_hurwitz(i) + 4
        assert [radon_hurwitz(i) for i in range(8)] == [0, 1, 2, 2, 3, 3, 3, 3]
        for n in range(0, max_dim + 1):
            for p in range(n + 1):
                q = n - p
                assert dimension_audit(p, q).passed, f"audit failed for ({p},{q})"
                sig = MetricSignature(p, q, REAL)
                idem = primitive_idempotent(sig)
                assert idem.f * idem.f == idem.f
                assert idem.k == idempotent_factor_count(p, q)
                assert ring_type(p + 4, q + 4).tag == ring_type(p, q).tag
        return f"ring/idempotent/audit arithmetic through p+q={max_dim}"

    out.append(_run("coverings", "arithmetic-classification", arithmetic_pack))
    return out


_SUITES = {
    "automorphisms": suite_automorphisms,
    "theorems": suite_theorems,
    "groups": suite_groups,
    "coverings": suite_coverings,
}


def run_suites(names, max_dim: int = 8) -> list[CheckResult]:
    realizations: dict[SpinBasis, list[Realization]] = {}
    results = []
    for name in names:
        results.extend(_SUITES[name](max_dim, realizations))
    return results


def report_dict(results: list[CheckResult]) -> dict:
    return {
        "checks": [
            {
                "suite": r.suite,
                "name": r.name,
                "passed": r.passed,
                "detail": r.detail,
                "seconds": round(r.seconds, 4),
            }
            for r in results
        ],
        "passed": all(r.passed for r in results),
        "total": len(results),
        "failures": sum(1 for r in results if not r.passed),
    }
