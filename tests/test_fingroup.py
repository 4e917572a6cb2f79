from collections import Counter
from math import lcm

import pytest

from clifcpt.algebra import COMPLEX, MetricSignature, signed_blade_mul
from clifcpt.autmat import ELEMENT_NAMES, read_signs, realize
from clifcpt.exact import GaussMatrix, GaussRational
from clifcpt.fingroup import (
    CLOSURE_LIMIT,
    GroupStructureError,
    cayley_table,
    census_64,
    classify_form,
    identify_abstract,
    order_structure,
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
from clifcpt.spinrep import build_spinbasis, preset_spinbasis, product_over
from clifcpt.verify import dense_realization, realization_matrices
from dense_reference import matrix_closure
from gammas import gamma_matrices, product


def test_closure_identity_only():
    g = matrix_closure([GaussMatrix.identity(4)])
    assert g.order == 1 and not g.contains_minus_I


def test_closure_dirac_ext_is_sixteen():
    g = matrix_closure(dense_realization(preset_spinbasis("dirac"))["matrices"])
    assert g.order == 16
    assert g.contains_minus_I
    elems = set(g.elements)
    for x in g.elements:
        for y in g.elements:
            assert x * y in elems


def test_closure_reflection_pair_order_eight():
    g0, g1, _, g3 = gamma_matrices()
    g = matrix_closure([g0, product(g1, g3)])
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
        return identify_abstract(matrix_closure([gen]))["order_histogram"]

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


def _reference_bases(max_n):
    """The canonical real bases with even n <= max_n, then the dirac preset."""
    bases = []
    for n in range(0, max_n + 1, 2):
        bases.extend(build_spinbasis(MetricSignature(p, n - p)) for p in range(n, -1, -1))
    bases.append(preset_spinbasis("dirac"))
    return bases


def _reference_generator_sets(max_n):
    """The eight matrices of every realization of the reference bases,
    built as literal products, then the reflection set."""
    sets = [dense_realization(b)["matrices"] for b in _reference_bases(max_n)]
    sets.append([m for _, m in wigner_reps(preset_spinbasis("dirac"))])
    return sets


def _reference_closures():
    return [matrix_closure(gens) for gens in _reference_generator_sets(8)]


def _tricky_generator_sets():
    """Inputs that no realization passes: duplicates, the identity not
    first, and an input that is redundant only up to sign."""
    eye, w, e, _, pi = dense_realization(preset_spinbasis("dirac"))["matrices"][:5]
    duplicates = [w, w, e, eye, e, pi, w]
    identity_late = [w, e, eye, pi]
    # In Cl(4,4), <W, E> = {I, W, E, E*W} holds no -I: -E*W lies outside
    # it, and its negative inside.
    eye, w, e = dense_realization(build_spinbasis(MetricSignature(4, 4)))["matrices"][:3]
    assert -eye not in _closure_members([w, e]) and e * w in _closure_members([w, e])
    sign_only = [eye, w, e, -(e * w)]
    return [duplicates, identity_late, sign_only]


def _all_pairs_closure(gens):
    """Reference closure: every ordered pair of members is multiplied until
    no new matrix appears. Returns {(x, y): x * y} over all members."""
    members = set(gens)
    products = {}
    grew = True
    while grew:
        grew = False
        for x in list(members):
            for y in list(members):
                if (x, y) not in products:
                    xy = products[x, y] = x * y
                    grew |= xy not in members
                    members.add(xy)
    return products


def _closure_members(gens):
    return {x for x, _ in _all_pairs_closure(gens)}


def test_closure_forms_each_product_once(monkeypatch):
    """Every element is right-multiplied once by each input that enlarges
    the closure of the inputs before it, and by nothing else."""
    sets = _reference_generator_sets(6) + _tricky_generator_sets()
    enlarging = []
    for gens in sets:
        members, k = set(), 0
        for i, g in enumerate(gens):
            if g not in members:
                k += 1
                members = _closure_members(gens[: i + 1])
        enlarging.append(k)
    assert enlarging[-3:] == [3, 3, 4]
    pairs = Counter()
    mul = GaussMatrix.__mul__

    def recording_mul(a, b):
        pairs[a, b] += 1
        return mul(a, b)

    monkeypatch.setattr(GaussMatrix, "__mul__", recording_mul)
    for gens, k in zip(sets, enlarging):
        pairs.clear()
        group = matrix_closure(gens)
        assert max(pairs.values()) == 1
        assert sum(pairs.values()) == group.order * k


def test_closure_matches_all_pairs_reference():
    for gens in _reference_generator_sets(8) + _tricky_generator_sets():
        group = matrix_closure(gens)
        products = _all_pairs_closure(gens)
        members = {x for x, _ in products}
        elems = group.elements
        assert len(set(elems)) == group.order and set(elems) == members
        eye = GaussMatrix.identity(elems[0].dim)
        assert elems[group.identity] == eye
        if -eye in members:
            assert elems[group.minus_identity] == -eye
        else:
            assert group.minus_identity is None
        assert [elems[k] for k in group.generators] == gens
        for x, row in zip(elems, group.mul):
            assert [elems[k] for k in row] == [products[x, y] for y in elems]


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
        assert identify_abstract(g) == _identify_by_products(g)


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


def test_sign_readout_matches_matrix_products():
    realizations = [realize(b) for b in _reference_bases(8)]
    for r in realizations:
        mats = realization_matrices(r)
        assert mats == dense_realization(r.basis)["matrices"]
        assert r.signature == _square_signs_by_products(mats)
        assert r.commutation == _commutation_by_products(mats)
        reps = [product_over(r.basis, r.predicted.masks.get(name, 0)) for name in ELEMENT_NAMES]
        assert r.order_counts == order_structure(reps)
    sets = [[m for _, m in wigner_reps(preset_spinbasis("dirac"))]]
    for n in range(0, 9, 2):
        basis = build_spinbasis(MetricSignature(n, 0, COMPLEX))
        gens = dense_realization(basis)["matrices"][:4]
        sets.append(gens)
        # The complex cell reads its W, E, C signs off its realization.
        squares, table = read_signs(matrix_closure(gens))
        r = realize(basis)
        assert r.signature[:3] == squares
        assert tuple(row[:4] for row in r.commutation[:4]) == table
    for gens in sets:
        group = matrix_closure(gens)
        assert [group.elements[k] for k in group.generators] == gens
        assert read_signs(group) == (_square_signs_by_products(gens), _commutation_by_products(gens))
    # At n = 0 all eight elements are I: one element, one index.
    trivial = realizations[0].group
    assert trivial.order == 1 and trivial.generators == (0,) * 8


def test_singular_generator_raises_group_structure_error():
    projector = GaussMatrix([[1, 0], [0, 0]])
    with pytest.raises(GroupStructureError, match="identity"):
        matrix_closure([projector])
    # The identity is present, but the projector has no inverse.
    semigroup = matrix_closure([GaussMatrix.identity(2), projector])
    with pytest.raises(GroupStructureError):
        identify_abstract(semigroup)


def test_signature_label_families():
    assert classify_form((1, -1, -1, 1, -1, -1, 1))[:2] == (False, "Z4*xZ2")
    assert classify_form((-1, -1, 1, -1, -1, 1, 1))[:2] == (False, "Z4*xZ2")
    assert classify_form((1,) * 7)[:2] == (True, "Z2xZ2xZ2")
    assert classify_form((1, 1, 1, -1, -1, -1, -1))[:2] == (True, "Z4xZ2")
    assert classify_form((1, -1, -1, -1, -1, -1, -1))[:2] == (False, "Q4")
    assert classify_form((1, 1, 1, 1, 1, -1, -1))[:2] == (False, "D4")
    # An odd minus count is not a form.
    with pytest.raises(GroupStructureError):
        classify_form((1, 1, 1, 1, 1, 1, -1))


def test_aut_label():
    assert classify_form((1, 1, 1))[:2] == (True, "Z2xZ2")
    assert classify_form((-1, -1, 1))[:2] == (True, "Z4")
    assert classify_form((-1, -1, -1))[:2] == (False, "Q4/Z2")
    assert classify_form((1, 1, -1))[:2] == (False, "D4/Z2")
    # One minus sign makes a non-abelian triple.
    assert classify_form((-1, 1, 1))[:2] == (False, "D4/Z2")


def test_identify_quaternion_group():
    i_unit = GaussRational(0, 1)
    s1 = GaussMatrix([[0, 1], [1, 0]]).scale(i_unit)
    s3 = GaussMatrix([[1, 0], [0, -1]]).scale(i_unit)
    g = matrix_closure([s1, s3])
    info = identify_abstract(g)
    assert info["order"] == 8
    assert not info["abelian"]
    assert info["order_histogram"] == {1: 1, 2: 1, 4: 6}
    assert info["center_size"] == 2


def test_identify_klein_like_closure():
    d = GaussMatrix([[1, 0], [0, -1]])
    g = matrix_closure([d, -GaussMatrix.identity(2)])
    info = identify_abstract(g)
    assert info["order"] == 4 and info["abelian"]
    assert info["order_histogram"] == {1: 1, 2: 3}


def test_identify_wigner_closure_invariants():
    basis = preset_spinbasis("dirac")
    g = matrix_closure([m for _, m in wigner_reps(basis)])
    info = identify_abstract(g)
    assert info["order"] == 16
    assert not info["abelian"]
    assert info["contains_minus_I"]


def _ext_table(r):
    """The table of the extended set of `r`, signed-blade ints."""
    return cayley_table(ext_reps(r), signed_blade_mul(r.basis.sig), 1 << r.basis.sig.n)


def test_cayley_tables_match_goldens():
    basis = preset_spinbasis("dirac")
    r = realize(basis)
    ext_table = _ext_table(r)
    assert ext_table.labels == DIRAC_EXT_LABELS
    assert ext_table.cells == signed_cells(DIRAC_EXT_TABLE)

    wig_table = cayley_table(wigner_reps(basis))
    assert wig_table.labels == WIGNER_CPT_LABELS
    assert wig_table.cells == signed_cells(WIGNER_CPT_TABLE)


def test_cayley_specific_cells():
    basis = preset_spinbasis("dirac")
    r = realize(basis)
    ext_table = _ext_table(r)
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


def test_cayley_labels_a_repeated_representative_by_the_earliest():
    # B is the negation of A and C repeats A, so +-B and +-C are already
    # indexed under A: every product is labeled I or A, never B or C, and
    # the sign tells +A from -A.
    g = GaussMatrix([[0, 1], [-1, 0]])  # g^2 = -I
    table = cayley_table([("I", GaussMatrix.identity(2)), ("A", g), ("B", -g), ("C", g)])
    assert table.labels == ("I", "A", "B", "C")
    row_a = ((1, "A"), (-1, "I"), (1, "I"), (-1, "I"))
    assert table.cells == (
        ((1, "I"), (1, "A"), (-1, "A"), (1, "A")),
        row_a,
        ((-1, "A"), (1, "I"), (-1, "I"), (1, "I")),
        row_a,
    )


def test_cayley_markdown_render():
    basis = preset_spinbasis("dirac")
    r = realize(basis)
    table = _ext_table(r)
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
        signed_closure([], GaussMatrix.identity(2))
