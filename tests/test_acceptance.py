"""Acceptance criteria, one test per criterion, each printing a PASS line.

All comparisons are exact; the timed criteria assert their stated wall
budgets."""

import time
from itertools import product as iterproduct

import pytest

from clifcpt import covering
from clifcpt.algebra import COMPLEX, MetricSignature, signed_blade_mul
from clifcpt.autmat import ELEMENT_NAMES, conditions, realize
from clifcpt.classify import (
    dimension_audit,
    idempotent_factor_count,
    primitive_idempotent,
    radon_hurwitz,
    ring_type,
)
from clifcpt.exact import GaussMatrix
from clifcpt.fingroup import (
    GroupStructureError,
    cayley_table,
    census_64,
    classify_form,
    identify_abstract,
    minus_count,
    order_structure,
    sig_str,
    signed_closure,
)
from clifcpt.goldens import (
    DIRAC_EXT_LEGEND,
    DIRAC_EXT_SIGNATURE,
    DIRAC_EXT_TABLE,
    WIGNER_CPT_LEGEND,
    WIGNER_CPT_SIGNATURE,
    WIGNER_CPT_TABLE,
    signed_cells,
)
from clifcpt.pipeline import cayley_for, ext_reps, predictor_analysis, wigner_reps
from clifcpt.spinrep import build_spinbasis, preset_spinbasis
from clifcpt.verify import realization_matrices, run_suites
from gammas import gamma_matrices, product


def _report(num, name, detail=""):
    print(f"ACCEPTANCE C{num:02d} ({name}): PASS {detail}")


def _even_real_sigs(max_dim):
    for n in range(0, max_dim + 1, 2):
        for p in range(n, -1, -1):
            yield MetricSignature(p, n - p)


def test_c01_dirac_realization():
    t0 = time.monotonic()
    basis = preset_spinbasis("dirac")
    r = realize(basis)
    g0, g1, g2, g3 = gamma_matrices()
    expected = {
        "W": product(g0, g1, g2, g3),
        "E": product(g1, g3),
        "C": product(g0, g2),
        "Pi": product(g0, g1, g3),
        "K": g2,
        "S": g0,
        "F": product(g1, g2, g3),
    }
    mats = dict(zip(ELEMENT_NAMES, realization_matrices(r)))
    for name, want in expected.items():
        got = mats[name]
        assert got in (want, -want), f"{name} not equal up to sign"
        assert got == want.scale(r.rep_signs[name]), f"{name} sign not the documented one"
    assert r.signature == DIRAC_EXT_SIGNATURE
    assert sig_str(r.signature) == "(-,-,+,-,-,+,+)"
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _report(1, "dirac realization", f"signature {sig_str(r.signature)} in {elapsed:.2f}s")


def test_c02_both_cayley_tableaux():
    basis = preset_spinbasis("dirac")
    r = realize(basis)
    ext_cells = cayley_table(ext_reps(r), signed_blade_mul(basis.sig), 1 << basis.sig.n).cells
    wig_cells = cayley_table(wigner_reps(basis)).cells
    golden_ext = signed_cells(DIRAC_EXT_TABLE)
    golden_wig = signed_cells(WIGNER_CPT_TABLE)
    matches = 0
    for got, want in ((ext_cells, golden_ext), (wig_cells, golden_wig)):
        for row_got, row_want in zip(got, want):
            for cell_got, cell_want in zip(row_got, row_want):
                assert cell_got == cell_want
                matches += 1
    assert matches == 128
    _report(2, "both Cayley tableaux", "128/128 cells exact")


def test_dirac_cayley_legends_match_goldens():
    assert cayley_for(1, 3, "ext", "dirac")[1] == DIRAC_EXT_LEGEND
    assert cayley_for(1, 3, "cpt-wigner", "dirac")[1] == WIGNER_CPT_LEGEND


def test_c03_wigner_group_identification():
    basis = preset_spinbasis("dirac")
    reps = wigner_reps(basis)
    signs = tuple((m * m).pm_identity() for _, m in reps[1:])
    assert signs == WIGNER_CPT_SIGNATURE
    assert sig_str(signs) == "(+,-,-,+,-,-,+)"
    mats = [m for _, m in reps]
    assert order_structure(mats) == (3, 4)
    closure = signed_closure(mats, GaussMatrix.identity(basis.dim))
    info = identify_abstract(closure)
    assert not info["abelian"]
    assert classify_form(signs) == (False, "Z4*xZ2", "Z4*xZ2xZ2")
    _report(3, "reflection-set group", "non-abelian, (3,4), Z4*xZ2")


def test_c04_radon_hurwitz():
    assert [radon_hurwitz(i) for i in range(8)] == [0, 1, 2, 2, 3, 3, 3, 3]
    for i in range(-16, 17):
        assert radon_hurwitz(i + 8) == radon_hurwitz(i) + 4
    _report(4, "Radon-Hurwitz numbers", "table + recurrence on [-16,16]")


def test_c05_ring_tags_and_audit():
    t0 = time.monotonic()
    mod8_expect = {
        0: "R",
        1: "R+R",
        2: "R",
        3: "C",
        4: "H",
        5: "H+H",
        6: "H",
        7: "C",
    }
    cells = 0
    for n in range(0, 11):
        for p in range(n + 1):
            q = n - p
            assert ring_type(p, q).tag == mod8_expect[(p - q) % 8]
            assert dimension_audit(p, q).passed
            cells += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _report(5, "ring tags + dimension audit", f"{cells} signatures in {elapsed:.2f}s")


def test_c06_idempotents():
    cells = 0
    for n in range(0, 11):
        for p in range(n + 1):
            q = n - p
            sig = MetricSignature(p, q)
            data = primitive_idempotent(sig)
            assert data.f * data.f == data.f
            assert data.k == q - radon_hurwitz(q - p) == idempotent_factor_count(p, q)
            assert len(data.generators_used) == data.k
            cells += 1
    _report(6, "primitive idempotents", f"f^2 = f and factor counts for {cells} signatures")


def test_c07_certification_and_intertwining():
    bases = [preset_spinbasis("dirac")]
    for sig in _even_real_sigs(8):
        bases.append(build_spinbasis(sig))
    for n in range(2, 9, 2):
        bases.append(build_spinbasis(MetricSignature(n, 0, COMPLEX)))
    tested = 0
    # Each basis was certified when it was made.
    for basis in bases:
        test = conditions(basis)
        for name, m in zip(ELEMENT_NAMES[1:], realization_matrices(realize(basis))[1:]):
            assert not test(name, m)
            tested += 1
    _report(7, "certification + intertwining", f"{len(bases)} bases, {tested} conditions")


def test_c08_automorphism_law_suite():
    results = run_suites(("automorphisms",), 8)
    for r in results:
        assert r.passed, f"{r.name}: {r.detail}"
    _report(8, "automorphism laws", f"{len(results)} checks on 100 samples per signature")


def test_c09_theorem_vs_computation():
    t0 = time.monotonic()
    total = full = 0
    for sig in _even_real_sigs(8):
        rep = predictor_analysis(realize(build_spinbasis(sig)))
        assert rep["verdict"] == "agree", f"Cl({sig.p},{sig.q}): {rep['verdict']}"
        total += 1
        if rep["scope"] == "full":
            full += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    assert total == 25 and full == 21
    _report(
        9,
        "theorem vs computation",
        f"{total}/{total} realizations agree ({full} ring-level) in {elapsed:.2f}s",
    )


def test_c10_commutation_rules():
    checked = 0
    for sig in _even_real_sigs(8):
        basis = build_spinbasis(sig)
        pred = covering.predict_realization(basis.profile)
        r = realize(basis)
        # Pi and K commute as (-1)^(a*b), a and b the imaginary and
        # real counts; S and F, with disjoint masks, as (-1)^(s*f).
        assert r.commutation[4][5] == pred.commutation[4][5]
        assert r.commutation[6][7] == pred.commutation[6][7]
        checked += 1
    _report(10, "commutation rules", f"both sign rules on {checked} realizations")


def test_c11_census():
    c = census_64()
    assert c["total"] == 64
    assert c["by_minus_count"] == {0: 1, 2: 21, 4: 35, 6: 7}
    realized = set()
    for sig in _even_real_sigs(8):
        mc = minus_count(realize(build_spinbasis(sig)).signature)
        assert mc in (0, 2, 4, 6)
        realized.add(mc)
    assert realized == {0, 2, 4, 6}
    _report(11, "signature census", "1+21+35+7 = 64; realized minus counts admissible")


# The paper's tables as (signs, abelian, label, fiber): the W, E, C
# triples with the {I, W, E, C} group and the PT fiber, then seven-sign
# tuples with the CPT group and the CPT fiber. Cliffordian = not abelian.
FORM_ROWS = [
    ((1, 1, 1), True, "Z2xZ2", "Z2xZ2xZ2"),
    ((1, -1, -1), True, "Z4", "Z2xZ4"),
    ((-1, 1, -1), True, "Z4", "Z2xZ4"),
    ((-1, -1, 1), True, "Z4", "Z2xZ4"),
    ((-1, -1, -1), False, "Q4/Z2", "Q4"),
    ((-1, 1, 1), False, "D4/Z2", "D4"),
    ((1, -1, 1), False, "D4/Z2", "D4"),
    ((1, 1, -1), False, "D4/Z2", "D4"),
    ((1,) * 7, True, "Z2xZ2xZ2", "Z2xZ2xZ2xZ2"),
    ((1, 1, 1, -1, -1, -1, -1), True, "Z4xZ2", "Z4xZ2xZ2"),
    ((1, -1, -1, 1, -1, -1, 1), False, "Z4*xZ2", "Z4*xZ2xZ2"),
    ((-1, -1, 1, -1, -1, 1, 1), False, "Z4*xZ2", "Z4*xZ2xZ2"),
    ((1, -1, -1, -1, -1, -1, -1), False, "Q4", "Q4xZ2"),
    ((1, 1, 1, 1, 1, -1, -1), False, "D4", "D4xZ2"),
    ((-1, -1, 1, 1, 1, 1, 1), False, "D4", "D4xZ2"),
]


def test_c12_covering_label_tables():
    for signs, abelian, label, fiber in FORM_ROWS:
        assert classify_form(signs) == (abelian, label, fiber), signs
    # (k, minus count, abelian) -> (label, fiber), every class of the rows.
    names = {(len(s).bit_length(), minus_count(s), ab): rest for s, ab, *rest in FORM_ROWS}
    assert len(names) == 9
    forms = {2: [], 3: []}
    for k in (2, 3):
        for signs in iterproduct((1, -1), repeat=2**k - 1):
            if k == 3 and minus_count(signs) % 2 == 1:
                with pytest.raises(GroupStructureError):
                    classify_form(signs)
                continue
            # Abelian exactly when q is a character of Z2^k.
            q = (1, *signs)
            linear = all(q[v ^ w] == q[v] * q[w] for v in range(2**k) for w in range(2**k))
            form = classify_form(signs)
            assert form == (linear, *names[k, minus_count(signs), linear]), signs
            forms[k].append(signs)
    assert len(forms[2]) == 8 and forms[3] == census_64()["tuples"]
    _report(12, "covering label tables", "8 two-reflection rows + 5 seven-sign rows")


def test_c13_odd_reduction_volume_squares():
    assert covering.reduce_odd(3, 0).omega_sq == -1
    assert covering.reduce_odd(0, 3).omega_sq == 1
    _report(13, "odd-dimension reduction", "omega^2 signs for (3,0) and (0,3)")
