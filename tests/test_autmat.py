import pytest

from clifcpt import autmat, cli
from clifcpt.algebra import COMPLEX, MetricSignature, blade_indices
from clifcpt.autmat import (
    CONDITIONS,
    ELEMENT_NAMES,
    ConditionError,
    conditions,
    mask_label,
    read_signs,
    realize,
    word_conditions,
)
from clifcpt.covering import choice_candidates, predict_realization
from clifcpt.exact import I_UNIT, GaussMatrix
from clifcpt.fingroup import minus_count, sig_str, signed_closure
from clifcpt.pipeline import realization_record
from clifcpt.spinrep import (
    CertificationError,
    SpinBasis,
    build_spinbasis,
    pauli_word,
    preset_spinbasis,
    product_over,
)
from clifcpt.verify import dense_realization, realization_facts, realization_matrices
from dense_reference import conjugated_bases, kron, matrix_closure
from gammas import gamma_matrices, product
from pauli_bases import pauli_bases, sample_pauli_bases


@pytest.fixture(scope="module")
def dirac_realization():
    return realize(preset_spinbasis("dirac"))


def _matrices(r):
    """Element name -> the signed generator product of realization `r`."""
    return dict(zip(ELEMENT_NAMES, realization_matrices(r)))


def test_dirac_matrices_up_to_documented_sign(dirac_realization):
    g0, g1, g2, g3 = gamma_matrices()
    r = dirac_realization
    expected = {
        "W": product(g0, g1, g2, g3),
        "E": product(g1, g3),
        "C": product(g0, g2),
        "Pi": product(g0, g1, g3),
        "K": g2,
        "S": g0,
        "F": product(g1, g2, g3),
    }
    built = _matrices(r)
    for name, want in expected.items():
        got = built[name]
        sign = r.rep_signs[name]
        assert got == want.scale(sign), f"{name} differs beyond the documented sign"
    assert r.rep_signs == {"W": 1, "E": 1, "C": 1, "Pi": 1, "K": 1, "S": -1, "F": -1}


def test_dirac_signature_and_commutation(dirac_realization):
    r = dirac_realization
    assert sig_str(r.signature) == "(-,-,+,-,-,+,+)"
    # Elements in order I, W, E, C, Pi, K, S, F.
    assert r.commutation[1][2] == 1  # W and E commute
    assert r.commutation[4][5] == -1  # Pi and K anticommute
    assert not r.abelian


def test_dirac_identity_web(dirac_realization):
    w, e, c, pi, k, s, f = realization_matrices(dirac_realization)[1:]
    assert k == pi * w
    assert s == pi * e
    assert f == pi * c
    assert c == e * w.transpose()
    sw = s * w
    assert f in (sw, -sw)


def test_dirac_pi_times_conj_pi(dirac_realization):
    pi = _matrices(dirac_realization)["Pi"]
    assert (pi * pi.conj()).pm_identity() == -1


def _conjugation_form(name, m, basis):
    """Reference for `conditions`: m * g' * m^-1 == sign * g on every generator,
    with m^-1 = s * m where m * m = s * I."""
    transpose, conjugate, sign = CONDITIONS[name]
    inv = m.scale((m * m).pm_identity())
    for g in basis.gens:
        t = g.transpose() if transpose else g
        t = t.conj() if conjugate else t
        if m * t * inv != g.scale(sign):
            return False
    return True


def test_intertwining_conditions_dirac(dirac_realization):
    # For the Dirac basis each matrix meets its own condition and no other,
    # so a swapped or mistyped row of the condition table fails here.
    r = dirac_realization
    basis, test, mats = r.basis, conditions(r.basis), _matrices(r)
    for x in ELEMENT_NAMES[1:]:
        for y in ELEMENT_NAMES[1:]:
            assert (not test(x, mats[y])) == (x == y), (x, y)
    # On every realization of the canonical real and complex bases with
    # n <= 6 and of the Dirac basis, the commuting form that `conditions` tests
    # agrees with the conjugation form on all 7 x 7 (condition, matrix) pairs.
    bases = [basis]
    for n in range(0, 7, 2):
        bases += [build_spinbasis(MetricSignature(p, n - p)) for p in range(n + 1)]
        bases.append(build_spinbasis(MetricSignature(n, 0, COMPLEX)))
    pairs = 0
    for b in bases:
        test, mats = conditions(b), _matrices(realize(b))
        for x in ELEMENT_NAMES[1:]:
            for y in ELEMENT_NAMES[1:]:
                m = mats[y]
                want = _conjugation_form(x, m, b)
                assert (not test(x, m)) == want, (b.sig, x, y)
                pairs += want
    assert pairs >= 7 * len(bases)


def _dense_w(basis):
    return product_over(basis, (1 << basis.sig.n) - 1)


def _only_survivor(basis, name):
    """The (mask, choice) of the one candidate of `name`, of both, whose
    product meets its condition, checked densely."""
    ref = dense_realization(basis)
    return ref["masks"][name], ref["choices"][("E", "Pi").index(name)]


def test_cl11_tower_products():
    basis = build_spinbasis(MetricSignature(1, 1))
    w = _dense_w(basis)
    assert w == basis.gens[0] * basis.gens[1]
    assert (w * w).pm_identity() == 1
    r = realize(basis)
    choice = r.predicted.choice_e
    assert (r.predicted.masks["E"], choice) == _only_survivor(basis, "E") == (0b01, "sym")


def test_cl20_e_is_identity_and_c_is_w_transpose():
    basis = build_spinbasis(MetricSignature(2, 0))
    w = _dense_w(basis)
    assert (w * w).pm_identity() == -1
    r = realize(basis)
    pred = r.predicted
    assert (pred.masks["E"], pred.choice_e) == _only_survivor(basis, "E") == (0, "skew")
    e = product_over(basis, 0)
    assert e == GaussMatrix.identity(2)
    assert _matrices(r)["C"] == e * w.transpose() == w.transpose()
    assert (pred.masks["Pi"], pred.choice_pi) == _only_survivor(basis, "Pi") == (0, "identity")


def test_complex_c4_w_squares_plus():
    basis = build_spinbasis(MetricSignature(4, 0, COMPLEX))
    w = _dense_w(basis)
    assert (w * w).pm_identity() == 1


def test_complex_c2_e_choice_by_direct_check():
    basis = build_spinbasis(MetricSignature(2, 0, COMPLEX))
    r = realize(basis)
    mask, choice = r.predicted.masks["E"], r.predicted.choice_e
    assert (mask, choice) == _only_survivor(basis, "E")
    # k = 1 odd, so only the symmetric product intertwines: E = generator 1.
    assert choice == "sym"
    assert product_over(basis, mask) == basis.gens[0]


def test_enumerate_cl20_single_identity_pi_realization():
    r = realize(build_spinbasis(MetricSignature(2, 0)))
    assert r.predicted.choice_pi == "identity"
    # Pi = I collapse: d = +, e = a, f = b, g = c, and the extended set
    # reduces to the automorphism set.
    a, b, c, d, e, f, g = r.signature
    assert d == 1 and e == a and f == b and g == c
    mats = _matrices(r)
    assert mats["K"] == mats["W"]
    assert mats["S"] == mats["E"]
    assert mats["F"] == mats["C"]
    assert (mats["Pi"] * mats["Pi"].conj()).pm_identity() == 1


def test_trivial_cl00_realization():
    r = realize(build_spinbasis(MetricSignature(0, 0)))
    assert r.signature == (1,) * 7
    assert r.abelian


def test_w_square_general_formula():
    # W^2 = (-1)^(n(n-1)/2) * product of generator squares.
    for p, q in ((1, 1), (2, 0), (1, 3), (2, 2), (0, 4), (3, 3), (4, 2)):
        basis = build_spinbasis(MetricSignature(p, q))
        n = p + q
        w = _dense_w(basis)
        expect = 1 if ((n * (n - 1) // 2) + q) % 2 == 0 else -1
        assert (w * w).pm_identity() == expect


def test_signature_minus_count_always_even():
    for p, q in ((0, 0), (1, 1), (0, 2), (1, 3), (4, 0), (2, 4), (3, 3)):
        r = realize(build_spinbasis(MetricSignature(p, q)))
        assert minus_count(r.signature) in (0, 2, 4, 6)


def test_condition_error_on_broken_basis():
    # A "basis" violating anticommutation is rejected by certification
    # when it is made, so no condition is ever checked on it.
    s1 = GaussMatrix([[0, 1], [1, 0]])
    with pytest.raises(CertificationError, match="generators 1 and 2 do not anticommute"):
        SpinBasis(MetricSignature(2, 0), (s1, s1), "test")


@pytest.mark.parametrize("name", ["E", "Pi"])
def test_the_dense_check_catches_a_wrong_prediction(monkeypatch, capsys, name):
    # `realize` builds the element that `predict_realization` names and
    # checks it on its matrix, so a prediction that names the candidate
    # the choice rule rules out fails that element's condition.
    predict = autmat.predict_realization

    def wrong(prof):
        pred = predict(prof)
        (other,) = (m for m, _ in choice_candidates(prof)[name] if m != pred.masks[name])
        return pred._replace(masks=dict(pred.masks, **{name: other}))

    monkeypatch.setattr(autmat, "predict_realization", wrong)
    with pytest.raises(ConditionError, match=f"^{name} condition fails on generator"):
        realize(preset_spinbasis("dirac"))
    assert cli.main(["classify", "--p", "1", "--q", "3", "--basis", "dirac"]) == 1
    assert f"verification failure: {name} condition fails" in capsys.readouterr().err


def test_read_signs_rejects_a_pair_that_neither_commutes_nor_anticommutes():
    def perm(images):
        return GaussMatrix([[1 if images[j] == i else 0 for j in range(3)] for i in range(3)])

    eye = perm((0, 1, 2))
    s12, s23, cycle = perm((1, 0, 2)), perm((0, 2, 1)), perm((1, 2, 0))
    assert read_signs(matrix_closure((eye, s12))) == ((1,), ((1, 1), (1, 1)))
    s3 = matrix_closure((eye, s12, s23))
    assert s3.order == 6 and not s3.contains_minus_I
    with pytest.raises(ConditionError, match="neither commutes nor anticommutes"):
        read_signs(s3)
    with pytest.raises(ConditionError, match=r"W\^2 is not \+-I"):
        read_signs(matrix_closure((eye, cycle)))


def test_check_reports_failing_generator_indices():
    basis = preset_spinbasis("dirac")
    wrong = GaussMatrix.identity(4)
    bad = conditions(basis)("W", wrong)
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
    from dense_reference import represent

    basis, m = dirac_realization.basis, _matrices(dirac_realization)
    rng = random.Random(23)
    for _ in range(30):
        a = random_multivector(basis.sig, rng, allow_complex_coeffs=True)
        ra = represent(basis, a)
        rt, rc = ra.transpose(), ra.conj()
        rtc = rt.conj()
        assert represent(basis, a.grade_involution()) * m["W"] == m["W"] * ra
        assert represent(basis, a.reversion()) * m["E"] == m["E"] * rt
        assert represent(basis, a.conjugation()) * m["C"] == m["C"] * rt
        assert represent(basis, a.complex_conjugation()) * m["Pi"] == m["Pi"] * rc
        assert represent(basis, a.grade_involution().complex_conjugation()) * m["K"] == m["K"] * rc
        assert represent(basis, a.reversion().complex_conjugation()) * m["S"] == m["S"] * rtc
        assert represent(basis, a.conjugation().complex_conjugation()) * m["F"] == m["F"] * rtc


def test_ext_legend_uses_slot_indices_for_tower_bases():
    from clifcpt.pipeline import cayley_for

    table, legend = cayley_for(2, 2, "ext", "canonical")
    assert legend["W"] == "g1234"
    assert table.labels[0] == "I"


def _parity_bases():
    """Every canonical real basis with n <= 8 (n = 0 included), the
    complex bases with n <= 8, the Dirac basis, and the orthogonally
    conjugated bases, monomial and dense, transposed and complex-conjugated."""
    bases = [
        build_spinbasis(MetricSignature(p, n - p)) for n in range(0, 9, 2) for p in range(n, -1, -1)
    ]
    bases += [build_spinbasis(MetricSignature(n, 0, COMPLEX)) for n in range(0, 9, 2)]
    bases.append(preset_spinbasis("dirac"))
    bases += [basis for _, _, basis in conjugated_bases()]
    return bases


def test_blade_realizations_match_dense_reference():
    # Every fact the package reads off signed blades equals the one the
    # literal matrix products give: masks, choices, signs, the closure and
    # its invariants. A flipped transpose sign in W^T, or one that ignores
    # the symmetric generators, changes the sign of C and F here.
    bases = _parity_bases()
    assert len(bases) == 25 + 5 + 1 + 62
    for basis in bases:
        # The dense reference tries both candidates of E and of Pi, and
        # keeps the one that meets its condition.
        where = (basis.sig, basis.provenance)
        assert realization_facts(realize(basis)) == dense_realization(basis), where


def test_blade_closure_equals_the_dense_matrix_closure():
    # The module docstring's claim: the closure of the eight signed blades
    # and that of their eight signed generator products have the same
    # table, in the same insertion order, and element i of the one is
    # element i of the other. On every canonical basis with n <= 12 in
    # both fields, the Dirac basis, the conjugated bases and every
    # Pauli-word basis with 4 generators.
    bases = [
        build_spinbasis(MetricSignature(p, n - p)) for n in range(0, 13, 2) for p in range(n + 1)
    ]
    bases += [build_spinbasis(MetricSignature(n, 0, COMPLEX)) for n in range(0, 13, 2)]
    bases.append(preset_spinbasis("dirac"))
    bases += [basis for _, _, basis in conjugated_bases()]
    bases += pauli_bases(4)
    assert len(bases) == 49 + 7 + 1 + 62 + 480
    for basis in bases:
        where = (basis.sig, basis.provenance)
        r = realize(basis)
        blades, dense = r.group, signed_closure(realization_matrices(r), GaussMatrix.identity(basis.dim))
        assert blades.mul == dense.mul, where
        assert blades.generators == dense.generators, where
        assert (blades.identity, blades.minus_identity) == (dense.identity, dense.minus_identity), where
        n = basis.sig.n
        for x, m in zip(blades.elements, dense.elements):
            # A signed blade: its mask below bit n, its sign in bit n.
            assert product_over(basis, x & ((1 << n) - 1)).scale(-1 if x >> n else 1) == m, where


def test_last_positive_generator_times_i_is_a_basis_one_sign_over():
    # (i g)^2 = -g^2, i g anticommutes with every other generator and has
    # g's symmetry, and slot p is the last of Cl(p,q)'s positive slots; so
    # the basis with g_p replaced by i g_p is a basis of Cl(p-1, q+1) whose
    # slot p changes reality and squares to -I.
    for n in (2, 4, 6):
        for p in range(1, n + 1):
            canonical = build_spinbasis(MetricSignature(p, n - p))
            gens = list(canonical.gens)
            gens[p - 1] = gens[p - 1].scale(I_UNIT)
            basis = SpinBasis(MetricSignature(p - 1, n - p + 1), tuple(gens), "times-i")
            bit, old, new = 1 << (p - 1), canonical.profile, basis.profile
            assert new == old._replace(real_mask=old.real_mask ^ bit)
            assert (new.real_mask ^ new.sym_mask) & bit and not (old.real_mask ^ old.sym_mask) & bit
            assert realization_facts(realize(basis)) == dense_realization(basis), (p, n - p)


def test_permuting_slots_within_a_trait_class_keeps_the_realization():
    # The slots of one (reality, symmetry) class share their square by the
    # square rule, so rotating them gives a basis of the same signature and
    # profile. `realize` reads only the profile and the metric, so its
    # record (masks, signature, labels) stays the same, and the dense
    # reference of the rotated basis agrees with it.
    bases = [build_spinbasis(MetricSignature(p, n - p)) for n in range(0, 9, 2) for p in range(n + 1)]
    bases += [basis for _, _, basis in conjugated_bases()]
    variants = 0
    for basis in bases:
        prof, record = basis.profile, realization_record(realize(basis))
        for real in (True, False):
            for sym in (True, False):
                slots = blade_indices(prof.mask(real, sym))
                if len(slots) < 2:
                    continue
                assert len({basis.sig.metric_sign(i) for i in slots}) == 1
                gens = list(basis.gens)
                for i, j in zip(slots, slots[1:] + slots[:1]):
                    gens[i - 1] = basis.gens[j - 1]
                moved = SpinBasis(basis.sig, tuple(gens), "class-rotated")
                where = (basis.sig, basis.provenance, real, sym)
                assert moved.gens != basis.gens and moved.profile == prof, where
                r = realize(moved)
                assert realization_record(r) == record, where
                assert realization_facts(r) == dense_realization(moved), where
                variants += 1
    assert (len(bases), variants) == (25 + 62, 146)


def _kronecker_step(basis):
    """{g (x) Z} and I (x) X, I (x) XZ, positives first: g (x) Z keeps g's
    traits and square, anticommutes with both new generators, which
    anticommute with each other, so this is a basis of Cl(p+1, q+1)."""
    p, q = basis.sig.p, basis.sig.q
    eye, x, z = GaussMatrix.identity(basis.dim), pauli_word(1, 1, 0), pauli_word(1, 0, 1)
    old = [kron(g, z) for g in basis.gens]
    gens = old[:p] + [kron(eye, x)] + old[p:] + [kron(eye, x * z)]
    return SpinBasis(MetricSignature(p + 1, q + 1), tuple(gens), "kronecker-step")


def test_kronecker_step_adds_a_slot_of_each_sign():
    # The new +I slot I (x) X is real symmetric and the new -I slot
    # I (x) XZ real antisymmetric, as the square rule predicts; every old
    # slot keeps its traits, and the blade realization of each step equals
    # its dense reference. From the n = 4 conjugated bases up to n = 8.
    steps = 0
    for _, _, basis in conjugated_bases():
        if basis.sig.n != 4:
            continue
        while basis.sig.n < 8:
            p, n = basis.sig.p, basis.sig.n
            step = _kronecker_step(basis)
            old, new = basis.profile, step.profile

            def spread(mask):
                return mask & ((1 << p) - 1) | mask >> p << (p + 1)

            where = (step.sig, basis.provenance)
            assert new.real_mask == spread(old.real_mask) | 1 << p | 1 << (n + 1), where
            assert new.sym_mask == spread(old.sym_mask) | 1 << p, where
            assert realization_facts(realize(step)) == dense_realization(step), where
            basis = step
            steps += 1
    assert steps == 2 * 25


def _signature_step(basis):
    """{g1, g1 g2, ..., g1 gn}, positives first, for g1^2 = +I: g1 keeps its
    square, (g1 gk)^2 = -gk^2, and the products anticommute with g1 and
    with each other, so this is a basis of Cl(q+1, p-1) (Lounesto,
    Clifford Algebras and Spinors, 2nd ed., ch. 16)."""
    p, q = basis.sig.p, basis.sig.q
    g1, *rest = basis.gens
    products = [g1 * g for g in rest]
    gens = [g1] + products[p - 1 :] + products[: p - 1]
    return SpinBasis(MetricSignature(q + 1, p - 1), tuple(gens), "signature-step")


def test_signature_step_realizes_cl_q_plus_1_p_minus_1():
    # g1 gk is real exactly when g1 and gk share their reality, and
    # (g1 gk)^T = gk^T g1^T = -s1 sk g1 gk for symmetry signs s1, sk, so
    # it is symmetric exactly when g1 and gk differ in symmetry. From the
    # canonical bases with n <= 8 and the n = 4 conjugated ones, p >= 1.
    bases = [build_spinbasis(MetricSignature(p, n - p)) for n in range(2, 9, 2) for p in range(1, n + 1)]
    bases += [b for _, _, b in conjugated_bases() if b.sig.n == 4 and b.sig.p >= 1]
    for basis in bases:
        p, q = basis.sig.p, basis.sig.q
        old, step = basis.profile, _signature_step(basis)
        # Old slot k of each new slot j > 1: the q negatives, then g2..gp.
        slots = list(range(p + 1, p + q + 1)) + list(range(2, p + 1))

        def step_mask(mask, agree):
            # Slot 1 keeps its bit; slot j > 1 is set when the bits of old
            # slots 1 and k agree (reality) or differ (symmetry).
            first = mask & 1
            return first | sum(((first == mask >> (k - 1) & 1) == agree) << j for j, k in enumerate(slots, 1))

        real, sym = step_mask(old.real_mask, True), step_mask(old.sym_mask, False)
        where = (basis.sig, basis.provenance)
        assert step.sig == MetricSignature(q + 1, p - 1), where
        assert (step.profile.real_mask, step.profile.sym_mask) == (real, sym), where
        assert realization_facts(realize(step)) == dense_realization(step), where
    assert len(bases) == 20 + 20


def test_the_word_test_fails_where_the_dense_test_fails():
    # On every built-in basis and every Pauli-word basis with 2 or 4
    # generators, and a seeded sample with 6: each of the seven conditions,
    # on each element's matrix and on both candidates of each choice pair,
    # fails on the same generators under the parity test as under the
    # matrix comparison.
    bases = [preset_spinbasis("dirac")]
    for n in range(0, 13, 2):
        bases += [build_spinbasis(MetricSignature(p, n - p)) for p in range(n + 1)]
        bases.append(build_spinbasis(MetricSignature(n, 0, COMPLEX)))
    bases += pauli_bases(2) + pauli_bases(4) + sample_pauli_bases(6, 48, seed=6)
    tested = failing = 0
    for basis in bases:
        words, dense = word_conditions(basis), conditions(basis)
        masks = set(predict_realization(basis.profile).masks.values())
        masks |= {mask for pair in choice_candidates(basis.profile).values() for mask, _ in pair}
        for mask in sorted(masks):
            m = product_over(basis, mask)
            for name in CONDITIONS:
                bad = words(name, m)
                assert bad == dense(name, m), (basis.sig, basis.provenance, mask, name)
                tested += 1
                failing += bool(bad)
    assert (tested, failing) == (25648, 21469)


def test_the_word_test_is_for_words_only():
    # A basis with a generator that is no word gets no word test, and a
    # matrix that is no word fails the test of a word basis by name.
    for kind, _, basis in conjugated_bases():
        if kind in ("givens", "cayley"):
            assert word_conditions(basis) is None
    test = word_conditions(preset_spinbasis("dirac"))
    dense = GaussMatrix([[1, 1, 0, 0], [1, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    with pytest.raises(ConditionError, match="^E matrix is not a Pauli word$"):
        test("E", dense)
