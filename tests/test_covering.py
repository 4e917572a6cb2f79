import pytest

from clifcpt import algebra
from clifcpt.algebra import COMPLEX, MetricSignature, Multivector
from clifcpt.autmat import ELEMENT_NAMES, realize
from clifcpt.classify import ring_type
from clifcpt.covering import (
    TheoremCoverageError,
    predict_aut_complex,
    predict_realization,
    reduce_odd,
)
from clifcpt.exact import GaussMatrix
from clifcpt.fingroup import GroupStructureError, census_64, classify_form
from clifcpt.spinrep import BasisProfile, build_spinbasis, preset_spinbasis
from clifcpt.verify import realization_matrices
from dense_reference import conjugated_bases
from pauli_bases import pauli_bases, sample_pauli_bases


def _profile(traits):
    """A census from (real, symmetric) pairs, slot 1 first; the squares
    follow from them by the square rule of `spinrep.certify_spinbasis`."""
    masks = [0, 0]
    for i, flags in enumerate(traits):
        for j, flag in enumerate(flags):
            masks[j] |= flag << i
    return BasisProfile(len(traits), *masks)


def _aut(pred):
    """(W, E, C square signs, whether W, E and C commute) of a prediction."""
    abelian = all(pred.commutation[i][j] == 1 for i in (1, 2, 3) for j in (1, 2, 3))
    return pred.signature[:3], abelian


# The real-ring arms of the automorphism-group theorem, keyed by
# (p mod 4, q mod 4): the (W^2, E^2, C^2) signs, the group, abelianness.
REAL_ARMS = {
    (0, 0): ((1, 1, 1), "Z2xZ2", True),
    (2, 2): ((1, -1, -1), "Z4", True),
    (0, 2): ((-1, -1, 1), "Z4", True),
    (2, 0): ((-1, 1, -1), "Z4", True),
    (3, 3): ((1, -1, 1), "D4/Z2", False),
    (1, 1): ((1, 1, -1), "D4/Z2", False),
    (3, 1): ((-1, -1, -1), "Q4/Z2", False),
    (1, 3): ((-1, 1, 1), "D4/Z2", False),
}


def test_predicted_automorphisms_of_all_real_profiles_follow_the_real_arms():
    # An all-real basis of Cl(p,q) has p symmetric generators (+I) and q
    # antisymmetric ones (-I).
    for n in range(0, 13, 2):
        for p in range(n, -1, -1):
            q = n - p
            pred = predict_realization(_profile([(True, True)] * p + [(True, False)] * q))
            triple, group, abelian = REAL_ARMS[p % 4, q % 4]
            assert _aut(pred) == (triple, abelian), (p, q)
            assert classify_form(triple)[:2] == (abelian, group)
            assert pred.choice_pi == "identity"


def test_predict_realization_on_quaternionic_profiles():
    # Dirac census: slots 2 and 4 real antisymmetric, 1 real symmetric,
    # 3 imaginary symmetric; E is the even skew product.
    pred = predict_realization(preset_spinbasis("dirac").profile)
    assert (pred.choice_e, pred.choice_pi) == ("skew", "real")
    assert _aut(pred) == ((-1, -1, 1), True)
    assert classify_form(pred.signature[:3]).label == "Z4"

    # Cl(4,0) from two real symmetric and two imaginary antisymmetric
    # generators, all squaring to +I.
    pred = predict_realization(_profile([(True, True)] * 2 + [(False, False)] * 2))
    assert (pred.choice_e, pred.choice_pi) == ("skew", "complex")
    assert pred.masks["E"] == pred.masks["Pi"] == 0b1100
    assert _aut(pred) == ((1, -1, -1), True)


def test_predict_realization_requires_even_dimension():
    with pytest.raises(TheoremCoverageError):
        predict_realization(_profile([(True, True)] * 3))


def test_predict_aut_complex():
    def form(n):
        return classify_form(predict_aut_complex(n))

    assert form(4).abelian and predict_aut_complex(4) == (1, 1, 1)
    assert not form(2).abelian
    assert predict_aut_complex(2) == (-1, -1, -1)
    assert form(5).abelian
    assert (form(4).label, form(7).label) == ("Z2xZ2", "Q4/Z2")


def test_predict_pi_square():
    dirac = predict_realization(preset_spinbasis("dirac").profile)
    assert (dirac.choice_pi, dirac.masks["Pi"], dirac.signature[3]) == ("real", 0b1011, -1)
    tower = predict_realization(build_spinbasis(MetricSignature(2, 0)).profile)
    assert (tower.choice_pi, tower.masks["Pi"], tower.signature[3]) == ("identity", 0, 1)
    four_imag = predict_realization(_profile([(False, False)] * 4 + [(True, True)] * 2))
    assert (four_imag.choice_pi, four_imag.signature[3]) == ("complex", 1)  # 4 factors
    # Cl(1,1) from sigma2 (imaginary antisymmetric, +I) and i sigma1
    # (imaginary symmetric, -I): Pi = g1 g2 squares to -g1^2 g2^2 = +I.
    cl11 = predict_realization(_profile([(False, False), (False, True)]))
    assert (cl11.choice_pi, cl11.masks["Pi"], cl11.signature[3]) == ("complex", 0b11, 1)


def test_square_rule_predictors_on_dirac():
    pred = predict_realization(preset_spinbasis("dirac").profile)
    # Masks as generator-slot bitmasks: K = {3}, S = {1}, F = {2,3,4}.
    assert (pred.masks["K"], pred.masks["S"], pred.masks["F"]) == (0b0100, 0b0001, 0b1110)
    assert pred.signature == (-1, -1, 1, -1, -1, 1, 1)
    assert pred.commutation[4][5] == -1  # Pi = {1,2,4} and K = {3}: 3*1 + 0 odd
    assert pred.commutation[6][7] == -1  # S = {1} and F = {2,3,4}: 1*3 + 0 odd


def _agreement_bases():
    bases = [preset_spinbasis("dirac")]
    for n in range(0, 13, 2):
        bases += [build_spinbasis(MetricSignature(p, n - p)) for p in range(n, -1, -1)]
        bases.append(build_spinbasis(MetricSignature(n, 0, COMPLEX)))
    pauli = pauli_bases(2) + pauli_bases(4)
    assert len(pauli) == 492
    return bases + pauli + sample_pauli_bases(6, 48, seed=6)


def _refuse(*args, **kwargs):
    raise AssertionError("the predictor reached the blade or matrix stage")


def test_predict_realization_agrees_with_enumeration(monkeypatch):
    """The count-profile prediction equals the realization the blade
    stage computes, on canonical, preset and Pauli-word bases, without
    forming a single blade or matrix product."""
    for basis in _agreement_bases():
        prof = basis.profile
        with monkeypatch.context() as m:
            m.setattr(GaussMatrix, "__mul__", _refuse)
            m.setattr(Multivector, "__mul__", _refuse)
            m.setattr(algebra, "_sign_mask", _refuse)
            pred = predict_realization(prof)
        r = realize(basis)
        where = basis.provenance, basis.sig
        choices = r.predicted.choice_e, r.predicted.choice_pi
        assert (pred.choice_e, pred.choice_pi) == choices, where
        # The mask of each signed blade in the closure, its bits below the
        # sign bit n.
        blades = (r.group.elements[i] for i in r.group.generators[1:])
        low = (1 << basis.sig.n) - 1
        assert pred.masks == {name: x & low for name, x in zip(ELEMENT_NAMES[1:], blades)}, where
        assert pred.signature == r.signature, where
        assert pred.commutation == r.commutation, where
        pi = realization_matrices(r)[4]
        assert pred.signature[3] == (pi * pi.conj()).pm_identity(), where


def test_signature_fixes_w_square_s_and_f_masks_and_pi_square():
    """On every certified basis of Cl(p,q), n = p + q even: W^2 =
    (-1)^(n(n-1)/2 + q); S is +-e_Q, the product of the generators
    squaring to -I, when q is even and +-e_P when q is odd, and F is the
    other; Pi^2 is +1 when the ring is a real matrix algebra and -1 when
    it is quaternionic. Canonical, preset, conjugated and Pauli-word
    bases, some with imaginary generators."""
    bases = [build_spinbasis(MetricSignature(p, n - p)) for n in range(0, 13, 2) for p in range(n + 1)]
    bases.append(preset_spinbasis("dirac"))
    bases += [basis for _, _, basis in conjugated_bases()]
    bases += pauli_bases(2) + pauli_bases(4) + sample_pauli_bases(6, 48, seed=6)
    assert len(bases) == 652
    for basis in bases:
        p, q, n = basis.sig.p, basis.sig.q, basis.sig.n
        where = basis.provenance, basis.sig
        r = realize(basis)
        assert r.signature[0] == (-1) ** (n * (n - 1) // 2 + q), where
        neg = basis.profile.real_mask ^ basis.profile.sym_mask
        pos = neg ^ ((1 << n) - 1)
        s_and_f = (neg, pos) if q % 2 == 0 else (pos, neg)
        assert (r.predicted.masks["S"], r.predicted.masks["F"]) == s_and_f, where
        assert r.signature[3] == {"R": 1, "H": -1}[ring_type(p, q).tag], where


def test_pt_cover_table_rows():
    rows = {
        (1, 1, 1, True): ("Z2xZ2xZ2", False),
        (1, -1, -1, True): ("Z2xZ4", False),
        (-1, 1, -1, True): ("Z2xZ4", False),
        (-1, -1, 1, True): ("Z2xZ4", False),
        (-1, -1, -1, False): ("Q4", True),
        (-1, 1, 1, False): ("D4", True),
        (1, -1, 1, False): ("D4", True),
        (1, 1, -1, False): ("D4", True),
    }
    for (a, b, c, comm), (fiber, cliff) in rows.items():
        form = classify_form((a, b, c))
        assert (form.abelian, form.fiber, not form.abelian) == (comm, fiber, cliff)


def test_cpt_cover_table_rows():
    assert classify_form((1,) * 7)[::2] == (True, "Z2xZ2xZ2xZ2")
    assert classify_form((1, -1, -1, 1, -1, -1, 1))[::2] == (False, "Z4*xZ2xZ2")
    assert classify_form((1, 1, 1, -1, -1, -1, -1)).fiber == "Z4xZ2xZ2"
    assert classify_form((1, -1, -1, -1, -1, -1, -1)).fiber == "Q4xZ2"
    assert classify_form((-1, -1, 1, 1, 1, 1, 1)).fiber == "D4xZ2"
    with pytest.raises(GroupStructureError):
        classify_form((-1, 1, 1, 1, 1, 1, 1))  # minus count 1
    # The D4xZ2 fiber is never abelian.
    assert classify_form((1, 1, 1, 1, 1, -1, -1))[::2] == (False, "D4xZ2")


def test_cliffordian_iff_nonabelian_fiber():
    # The record's Cliffordian flag is `not abelian`: it must mark exactly
    # the non-abelian fibers.
    abelian_fibers = {"Z2xZ2xZ2xZ2", "Z4xZ2xZ2"}
    for signs in census_64()["tuples"]:
        form = classify_form(signs)
        assert (not form.abelian) == (form.fiber not in abelian_fibers), signs


def test_reduce_odd():
    r = reduce_odd(3, 0)
    assert r.targets == ((0, 2),) and r.omega_sq == -1
    assert r.complex_target == 2  # p - q = 3
    r = reduce_odd(0, 3)
    assert r.targets == ((0, 2),) and r.omega_sq == 1
    assert r.complex_target is None  # p - q = -3 = 5 mod 8
    r = reduce_odd(2, 1)
    assert set(r.targets) == {(2, 0), (1, 1)}
    with pytest.raises(ValueError):
        reduce_odd(2, 2)
