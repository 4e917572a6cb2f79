from collections import Counter
from math import lcm

import pytest

from clifcpt.algebra import MetricSignature
from clifcpt.autmat import enumerate_realizations
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
    g = signed_closure(list(r.aut.matrices()))
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


def _reference_closures():
    sets = []
    for n in range(0, 9, 2):
        for p in range(n, -1, -1):
            basis = build_spinbasis(MetricSignature(p, n - p))
            sets.extend(list(r.aut.matrices()) for r in enumerate_realizations(basis))
    dirac = preset_spinbasis("dirac")
    sets.append(list(enumerate_realizations(dirac)[0].aut.matrices()))
    sets.append([m for _, m in wigner_reps(dirac)])
    return [signed_closure(gens) for gens in sets]


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
    ext_table = cayley_table(ext_reps(r.aut))
    assert ext_table.labels == DIRAC_EXT_LABELS
    assert ext_table.cells == signed_cells(DIRAC_EXT_TABLE)

    wig_table = cayley_table(wigner_reps(basis))
    assert wig_table.labels == WIGNER_CPT_LABELS
    assert wig_table.cells == signed_cells(WIGNER_CPT_TABLE)


def test_cayley_specific_cells():
    basis = preset_spinbasis("dirac")
    r = enumerate_realizations(basis)[0]
    ext_table = cayley_table(ext_reps(r.aut))
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
    table = cayley_table(ext_reps(r.aut))
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
