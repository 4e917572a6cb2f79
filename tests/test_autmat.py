import pytest

from clifcpt.algebra import COMPLEX, MetricSignature
from clifcpt.autmat import (
    ELEMENT_NAMES,
    ConditionError,
    build_C,
    build_W,
    check,
    commutation_table,
    enumerate_realizations,
    find_E,
    find_Pi,
    mask_label,
    minus_count,
    sig_str,
)
from clifcpt.exact import GaussMatrix
from clifcpt.spinrep import SpinBasis, build_spinbasis, preset_spinbasis
from gammas import gamma_matrices, product


@pytest.fixture(scope="module")
def dirac_realization():
    basis = preset_spinbasis("dirac")
    rs = enumerate_realizations(basis)
    assert len(rs) == 1
    return rs[0]


def test_dirac_matrices_up_to_documented_sign(dirac_realization):
    g0, g1, g2, g3 = gamma_matrices()
    r = dirac_realization
    aut = r.aut
    expected = {
        "W": product(g0, g1, g2, g3),
        "E": product(g1, g3),
        "C": product(g0, g2),
        "Pi": product(g0, g1, g3),
        "K": g2,
        "S": g0,
        "F": product(g1, g2, g3),
    }
    built = {
        "W": aut.W,
        "E": aut.E,
        "C": aut.C,
        "Pi": aut.Pi,
        "K": aut.K,
        "S": aut.S,
        "F": aut.F,
    }
    for name, want in expected.items():
        got = built[name]
        sign = aut.rep_signs[name]
        assert got == want.scale(sign), f"{name} differs beyond the documented sign"
    assert aut.rep_signs == {"W": 1, "E": 1, "C": 1, "Pi": 1, "K": 1, "S": -1, "F": -1}


def test_dirac_signature_and_commutation(dirac_realization):
    r = dirac_realization
    assert sig_str(r.signature) == "(-,-,+,-,-,+,+)"
    # Elements in order I, W, E, C, Pi, K, S, F.
    assert r.commutation[1][2] == 1  # W and E commute
    assert r.commutation[4][5] == -1  # Pi and K anticommute
    assert not r.abelian


def test_dirac_identity_web(dirac_realization):
    aut = dirac_realization.aut
    assert aut.K == aut.Pi * aut.W
    assert aut.S == aut.Pi * aut.E
    assert aut.F == aut.Pi * aut.C
    assert aut.C == aut.E * aut.W.transpose()
    sw = aut.S * aut.W
    assert aut.F in (sw, -sw)


def test_dirac_pi_times_conj_pi(dirac_realization):
    aut = dirac_realization.aut
    assert (aut.Pi * aut.Pi.conj()).pm_identity() == -1


def test_intertwining_conditions_dirac(dirac_realization):
    # Each matrix meets its own condition and no other, so a swapped or
    # mistyped row of the condition table fails here.
    basis = dirac_realization.aut.basis
    aut = dirac_realization.aut
    for x in ELEMENT_NAMES[1:]:
        for y in ELEMENT_NAMES[1:]:
            assert (not check(x, getattr(aut, y), basis)) == (x == y), (x, y)


def test_cl11_tower_products():
    basis = build_spinbasis(MetricSignature(1, 1))
    w = build_W(basis)
    assert w == basis.gens[0] * basis.gens[1]
    assert (w * w).pm_identity() == 1
    es = find_E(basis)
    assert len(es) == 1 and es[0][1] == "sym_product"


def test_cl20_e_is_identity_and_c_is_w_transpose():
    basis = build_spinbasis(MetricSignature(2, 0))
    w = build_W(basis)
    assert (w * w).pm_identity() == -1
    es = find_E(basis)
    assert len(es) == 1
    e, choice, mask = es[0]
    assert e == GaussMatrix.identity(2) and mask == 0
    c = build_C(e, w, basis)
    assert c == w.transpose()
    pis = find_Pi(basis)
    assert len(pis) == 1 and pis[0][1] == "identity"


def test_complex_c4_w_squares_plus():
    basis = build_spinbasis(MetricSignature(4, 0, COMPLEX))
    w = build_W(basis)
    assert (w * w).pm_identity() == 1


def test_complex_c2_e_choice_by_direct_check():
    basis = build_spinbasis(MetricSignature(2, 0, COMPLEX))
    es = find_E(basis)
    assert len(es) == 1
    e, choice, mask = es[0]
    # k = 1 odd, so only the symmetric product intertwines: E = generator 1.
    assert choice == "sym_product"
    assert e == basis.gens[0]


def test_enumerate_cl20_single_identity_pi_realization():
    basis = build_spinbasis(MetricSignature(2, 0))
    rs = enumerate_realizations(basis)
    assert len(rs) == 1
    r = rs[0]
    assert r.aut.choice_pi == "identity"
    # Pi = I collapse: d = +, e = a, f = b, g = c, and the extended set
    # reduces to the automorphism set.
    a, b, c, d, e, f, g = r.signature
    assert d == 1 and e == a and f == b and g == c
    assert r.aut.K == r.aut.W
    assert r.aut.S == r.aut.E
    assert r.aut.F == r.aut.C
    assert (r.aut.Pi * r.aut.Pi.conj()).pm_identity() == 1


def test_trivial_cl00_realization():
    basis = build_spinbasis(MetricSignature(0, 0))
    rs = enumerate_realizations(basis)
    assert len(rs) == 1
    assert rs[0].signature == (1,) * 7
    assert rs[0].abelian


def test_w_square_general_formula():
    # W^2 = (-1)^(n(n-1)/2) * product of generator squares.
    for p, q in ((1, 1), (2, 0), (1, 3), (2, 2), (0, 4), (3, 3), (4, 2)):
        basis = build_spinbasis(MetricSignature(p, q))
        n = p + q
        w = build_W(basis)
        expect = 1 if ((n * (n - 1) // 2) + q) % 2 == 0 else -1
        assert (w * w).pm_identity() == expect


def test_signature_minus_count_always_even():
    for p, q in ((0, 0), (1, 1), (0, 2), (1, 3), (4, 0), (2, 4), (3, 3)):
        basis = build_spinbasis(MetricSignature(p, q))
        for r in enumerate_realizations(basis):
            assert minus_count(r.signature) in (0, 2, 4, 6)


def test_condition_error_on_broken_basis():
    # A "basis" violating anticommutation is rejected by the builders.
    eye = GaussMatrix.identity(2)
    s1 = GaussMatrix([[0, 1], [1, 0]])
    broken = SpinBasis(MetricSignature(2, 0), (s1, s1), "test")
    with pytest.raises(Exception):
        find_E(broken)


def test_commutation_table_rejects_a_pair_that_neither_commutes_nor_anticommutes():
    eye = GaussMatrix.identity(2)
    x = GaussMatrix([[0, 1], [1, 0]])
    h = GaussMatrix([[1, 1], [1, -1]])
    assert commutation_table((eye, x)) == ((1, 1), (1, 1))
    with pytest.raises(ConditionError, match="neither commutes nor anticommutes"):
        commutation_table((eye, x, h))


def test_check_reports_failing_generator_indices():
    basis = preset_spinbasis("dirac")
    wrong = GaussMatrix.identity(4)
    bad = check("W", wrong, basis)
    assert bad and "generator 1" in bad[0]


def test_mask_label():
    assert mask_label(0) == "1"
    assert mask_label(0b1011) == "g124"
    assert mask_label(0b1011, physics_indices=True) == "g013"


def test_seven_conditions_extend_to_random_multivectors(dirac_realization):
    # The generator-level conditions extend linearly to the whole algebra:
    # each abstract map, pushed through the representation, equals its
    # matrix transform. Exercised on random multivectors with complex
    # coefficients.
    import random

    from clifcpt.algebra import random_multivector
    from clifcpt.spinrep import represent

    aut = dirac_realization.aut
    basis = aut.basis
    rng = random.Random(23)
    invs = {name: getattr(aut, name).inverse() for name in ("W", "E", "C", "Pi", "K", "S", "F")}
    for _ in range(30):
        a = random_multivector(basis.sig, rng, allow_complex_coeffs=True)
        m = represent(basis, a)
        mt = m.transpose()
        mc = m.conj()
        mtc = mt.conj()
        assert represent(basis, a.grade_involution()) == aut.W * m * invs["W"]
        assert represent(basis, a.reversion()) == aut.E * mt * invs["E"]
        assert represent(basis, a.conjugation()) == aut.C * mt * invs["C"]
        assert represent(basis, a.complex_conjugation()) == aut.Pi * mc * invs["Pi"]
        assert (
            represent(basis, a.grade_involution().complex_conjugation())
            == aut.K * mc * invs["K"]
        )
        assert (
            represent(basis, a.reversion().complex_conjugation())
            == aut.S * mtc * invs["S"]
        )
        assert (
            represent(basis, a.conjugation().complex_conjugation())
            == aut.F * mtc * invs["F"]
        )


def test_ext_legend_uses_slot_indices_for_tower_bases():
    from clifcpt.pipeline import cayley_for

    table, legend = cayley_for(2, 2, "ext", "canonical")
    assert legend["W"] == "g1234"
    assert table.labels[0] == "I"
