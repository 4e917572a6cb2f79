from collections import Counter
from math import lcm

import pytest

from clifcpt.algebra import COMPLEX, MetricSignature
from clifcpt.autmat import build_C, build_W, enumerate_realizations, find_E, find_Pi, read_signs
from clifcpt.exact import GaussMatrix, GaussRational
from clifcpt.fingroup import (
    CLOSURE_LIMIT,
    ClassificationError,
    GroupStructureError,
    aut_label,
    cayley_table,
    census_64,
    identify_abstract,
    order_structure,
    signature_label,
    signed_closure,
)
from clifcpt.goldens import (
    DIRAC_EXT_LABELS,
    DIRAC_EXT_TABLE,
    WIGNER_CPT_LABELS,
    WIGNER_CPT_TABLE,
    signed_cells,
)
from clifcpt.pipeline import ext_reps, wigner_reps
from clifcpt.spinrep import build_spinbasis, preset_spinbasis
from gammas import gamma_matrices, product


def test_closure_identity_only():
    g = signed_closure([GaussMatrix.identity(4)])
    assert g.order == 1 and not g.contains_minus_I


def test_closure_dirac_ext_is_sixteen():
    basis = preset_spinbasis("dirac")
    r = enumerate_realizations(basis)[0]
    g = signed_closure(list(r.matrices()))
    assert g.order == 16
    assert g.contains_minus_I
    elems = set(g.elements)
    for x in g.elements:
        for y in g.elements:
            assert x * y in elems


def test_closure_reflection_pair_order_eight():
    g0, g1, _, g3 = gamma_matrices()
    g = signed_closure([g0, product(g1, g3)])
    assert g.order == 8


def test_order_structure_examples():
    basis = preset_spinbasis("dirac")
    reps = [m for _, m in wigner_reps(basis)]
    assert order_structure(reps) == (3, 4)

    eye = GaussMatrix.identity(2)
    commuting = [eye] + [GaussMatrix([[1, 0], [0, -1]])] * 7
    assert order_structure(commuting) == (7, 0)

    # One plus-square and six minus-squares among the non-identity reps.
    i_unit = GaussRational(0, 1)
    i_eye = eye.scale(i_unit)
    quaternionish = [eye, -eye] + [i_eye, -i_eye] * 3
    assert order_structure(quaternionish) == (1, 6)


def test_element_order():
    def histogram(gen):
        return identify_abstract(signed_closure([gen]))["order_histogram"]

    eye = GaussMatrix.identity(2)
    assert histogram(eye) == {1: 1}
    assert histogram(-eye) == {1: 1, 2: 1}
    assert histogram(eye.scale(GaussRational(0, 1))) == {1: 1, 2: 1, 4: 2}


def _identify_by_products(group):
    """Reference invariants from matrix products, independent of `mul`."""
    elems = group.elements
    eye = GaussMatrix.identity(elems[0].dim)
    central = [all(x * y == y * x for y in elems) for x in elems]

    def order(m):
        x, k = m, 1
        while x != eye:
            x, k = x * m, k + 1
        return k

    orders = [order(x) for x in elems]
    return {
        "order": len(elems),
        "abelian": all(central),
        "center_size": sum(central),
        "exponent": lcm(*orders),
        "order_histogram": dict(sorted(Counter(orders).items())),
        "contains_minus_I": -eye in elems,
    }


def _reference_realizations(max_n):
    """Every realization of the canonical real bases with even n <= max_n,
    then the dirac preset's."""
    out = []
    for n in range(0, max_n + 1, 2):
        for p in range(n, -1, -1):
            out.extend(enumerate_realizations(build_spinbasis(MetricSignature(p, n - p))))
    out.append(enumerate_realizations(preset_spinbasis("dirac"))[0])
    return out


def _reference_generator_sets(max_n):
    sets = [list(r.matrices()) for r in _reference_realizations(max_n)]
    sets.append([m for _, m in wigner_reps(preset_spinbasis("dirac"))])
    return sets


def _reference_closures():
    return [signed_closure(gens) for gens in _reference_generator_sets(8)]


def test_closure_forms_each_product_once(monkeypatch):
    sets = _reference_generator_sets(6)
    calls = 0
    mul = GaussMatrix.__mul__

    def counting_mul(a, b):
        nonlocal calls
        calls += 1
        return mul(a, b)

    monkeypatch.setattr(GaussMatrix, "__mul__", counting_mul)
    for gens in sets:
        calls = 0
        group = signed_closure(gens)
        assert calls == group.order**2


def test_closure_table_and_invariants_match_matrix_products():
    closures = _reference_closures()
    assert len(closures) == 27
    for g in closures:
        elems, n = g.elements, g.order
        assert len(g.mul) == n and all(len(row) == n for row in g.mul)
        for i in range(n):
            for j in range(n):
                assert elems[g.mul[i][j]] == elems[i] * elems[j]
        assert elems[g.identity] == GaussMatrix.identity(elems[0].dim)
        if g.minus_identity is not None:
            assert elems[g.minus_identity] == -elems[g.identity]
        info, ref = identify_abstract(g), _identify_by_products(g)
        assert {k: info[k] for k in ref} == ref


def _square_signs_by_products(mats):
    """Reference square signs of mats[1:], from matrix products."""
    signs = tuple((m * m).pm_identity() for m in mats[1:])
    assert None not in signs
    return signs


def _commutation_by_products(mats):
    """Reference commutation table, from matrix products."""
    table = []
    for x in mats:
        row = []
        for y in mats:
            xy, yx = x * y, y * x
            assert xy == yx or xy == -yx
            row.append(1 if xy == yx else -1)
        table.append(tuple(row))
    return tuple(table)


def _built_by_hand(r):
    """I, W, E, C, Pi, K, S, F from the single-matrix builders, for the
    (E, Pi) choice of realization `r`."""
    basis = r.basis
    w = build_W(basis)
    e = next(m for m, choice, _ in find_E(basis) if choice == r.choice_e)
    pi = next(m for m, choice, _ in find_Pi(basis) if choice == r.choice_pi)
    c = build_C(e, w, basis)
    return [GaussMatrix.identity(basis.dim), w, e, c, pi, pi * w, pi * e, pi * c]


def test_sign_readout_matches_matrix_products():
    realizations = _reference_realizations(8)
    for r in realizations:
        mats = list(r.matrices())
        assert mats == _built_by_hand(r)
        assert r.signature == _square_signs_by_products(mats)
        assert r.commutation == _commutation_by_products(mats)
        assert r.order_counts == order_structure(r.reps)
    sets = [[m for _, m in wigner_reps(preset_spinbasis("dirac"))]]
    for n in range(0, 9, 2):
        basis = build_spinbasis(MetricSignature(n, 0, COMPLEX))
        w = build_W(basis)
        e = find_E(basis)[0][0]
        gens = [GaussMatrix.identity(basis.dim), w, e, build_C(e, w, basis)]
        sets.append(gens)
        # The complex cell reads its W, E, C signs off its first realization.
        squares, table = read_signs(signed_closure(gens))
        first = enumerate_realizations(basis)[0]
        assert first.signature[:3] == squares
        assert tuple(row[:4] for row in first.commutation[:4]) == table
    for gens in sets:
        group = signed_closure(gens)
        assert [group.elements[k] for k in group.generators] == gens
        assert read_signs(group) == (_square_signs_by_products(gens), _commutation_by_products(gens))
    # At n = 0 all eight matrices are I: one element, one index.
    trivial = realizations[0].group
    assert trivial.order == 1 and trivial.generators == (0,) * 8


def test_singular_generator_raises_group_structure_error():
    projector = GaussMatrix([[1, 0], [0, 0]])
    with pytest.raises(GroupStructureError, match="identity"):
        signed_closure([projector])
    # The identity is present, but the projector has no inverse.
    semigroup = signed_closure([GaussMatrix.identity(2), projector])
    with pytest.raises(GroupStructureError):
        identify_abstract(semigroup)


def test_signature_label_families():
    assert signature_label((1, -1, -1, 1, -1, -1, 1), abelian=False).tag == "Z4*xZ2"
    assert signature_label((-1, -1, 1, -1, -1, 1, 1), abelian=False).tag == "Z4*xZ2"
    assert signature_label((1,) * 7, abelian=True).tag == "Z2xZ2xZ2"
    assert signature_label((1, 1, 1, -1, -1, -1, -1), abelian=True).tag == "Z4xZ2"
    assert signature_label((1, -1, -1, -1, -1, -1, -1), abelian=False).tag == "Q4"
    assert signature_label((1, 1, 1, 1, 1, -1, -1), abelian=False).tag == "D4"


def test_signature_label_consistency_flags():
    bad = signature_label((1,) * 7, abelian=False)
    assert not bad.consistent and "abelian" in bad.note
    with pytest.raises(ClassificationError):
        signature_label((1, 1, 1, 1, 1, 1, -1), abelian=False)


def test_aut_label():
    assert aut_label((1, 1, 1), True).tag == "Z2xZ2"
    assert aut_label((-1, -1, 1), True).tag == "Z4"
    assert aut_label((-1, -1, -1), False).tag == "Q4/Z2"
    assert aut_label((1, 1, -1), False).tag == "D4/Z2"
    with pytest.raises(ClassificationError):
        aut_label((-1, 1, 1), True)


def test_identify_quaternion_group():
    i_unit = GaussRational(0, 1)
    s1 = GaussMatrix([[0, 1], [1, 0]]).scale(i_unit)
    s3 = GaussMatrix([[1, 0], [0, -1]]).scale(i_unit)
    g = signed_closure([s1, s3])
    info = identify_abstract(g)
    assert info["order"] == 8
    assert not info["abelian"]
    assert info["order_histogram"] == {1: 1, 2: 1, 4: 6}
    assert info["order8_name"] == "Q8"


def test_identify_klein_like_closure():
    d = GaussMatrix([[1, 0], [0, -1]])
    g = signed_closure([d, -GaussMatrix.identity(2)])
    info = identify_abstract(g)
    assert info["order"] == 4 and info["abelian"]
    assert info["order_histogram"] == {1: 1, 2: 3}


def test_identify_wigner_closure_invariants():
    basis = preset_spinbasis("dirac")
    g = signed_closure([m for _, m in wigner_reps(basis)])
    info = identify_abstract(g)
    assert info["order"] == 16
    assert not info["abelian"]
    assert info["contains_minus_I"]


def test_cayley_tables_match_goldens():
    basis = preset_spinbasis("dirac")
    r = enumerate_realizations(basis)[0]
    ext_table = cayley_table(ext_reps(r))
    assert ext_table.labels == DIRAC_EXT_LABELS
    assert ext_table.cells == signed_cells(DIRAC_EXT_TABLE)

    wig_table = cayley_table(wigner_reps(basis))
    assert wig_table.labels == WIGNER_CPT_LABELS
    assert wig_table.cells == signed_cells(WIGNER_CPT_TABLE)


def test_cayley_specific_cells():
    basis = preset_spinbasis("dirac")
    r = enumerate_realizations(basis)[0]
    ext_table = cayley_table(ext_reps(r))
    # Row W, column Pi -> -K; row T, column T -> -1 in the reflection set.
    w_row = ext_table.cells[1]
    assert w_row[4] == (-1, "K")
    wig_table = cayley_table(wigner_reps(basis))
    assert wig_table.cells[2][2] == (-1, "1")
    # Identity row reproduces the header.
    assert [lab for s, lab in ext_table.cells[0]] == list(ext_table.labels)
    assert all(s == 1 for s, _ in ext_table.cells[0])


def test_cayley_rejects_non_closed_set():
    g0, g1, _, _ = gamma_matrices()
    with pytest.raises(GroupStructureError):
        cayley_table([("A", g0), ("B", g1)])  # product g0*g1 is outside


def test_cayley_markdown_render():
    basis = preset_spinbasis("dirac")
    r = enumerate_realizations(basis)[0]
    table = cayley_table(ext_reps(r))
    md = table.to_markdown({"W": "g0123"})
    lines = md.splitlines()
    assert lines[0].startswith("|      | I | W |")
    assert "| W | W | -I | C | -E |" in md
    assert "- W = g0123" in md


def test_census_64():
    c = census_64()
    assert c["total"] == 64
    assert c["by_minus_count"] == {0: 1, 2: 21, 4: 35, 6: 7}
    assert len(c["tuples"]) == 64
    assert all(sum(1 for s in t if s < 0) % 2 == 0 for t in c["tuples"])


def test_closure_limit_guard():
    assert CLOSURE_LIMIT == 256
    with pytest.raises(GroupStructureError):
        signed_closure([])
