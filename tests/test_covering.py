import pytest

from clifcpt.algebra import MetricSignature
from clifcpt.covering import (
    CoverLabel,
    TableLookupError,
    TheoremCoverageError,
    cpt_cover_label,
    predict_aut_complex,
    predict_aut_real,
    predict_f_square,
    predict_k_square,
    predict_pi_k_commutation,
    predict_pi_square,
    predict_s_square,
    pt_cover_label,
    reduce_odd,
)
from clifcpt.spinrep import BasisProfile, build_spinbasis, certify_spinbasis, preset_spinbasis


def _profile(traits):
    """A census from (real, symmetric, square) triples, slot 1 first."""
    masks = [0, 0, 0]
    for i, (real, symmetric, square) in enumerate(traits):
        for j, flag in enumerate((real, symmetric, square < 0)):
            masks[j] |= flag << i
    return BasisProfile(len(traits), *masks)


def test_predict_aut_real_ring_r_arms():
    p31 = predict_aut_real(3, 1, _profile([(True, True, 1)] * 4))
    assert (p31.group, p31.triple, p31.abelian) == ("Q4/Z2", (-1, -1, -1), False)
    p = predict_aut_real(0, 0, _profile([]))
    assert (p.group, p.triple, p.abelian) == ("Z2xZ2", (1, 1, 1), True)
    p = predict_aut_real(1, 1, _profile([(True, True, 1), (True, False, -1)]))
    assert (p.group, p.triple, p.abelian) == ("D4/Z2", (1, 1, -1), False)
    p = predict_aut_real(2, 0, _profile([(True, True, 1), (True, True, 1)]))
    assert (p.group, p.triple) == ("Z4", (-1, 1, -1))


def test_predict_aut_real_ring_h_consumes_profile():
    # Dirac census: k=2 even, skew squares both -1, symmetric +1 and -1.
    prof = certify_spinbasis(preset_spinbasis("dirac"))
    p = predict_aut_real(1, 3, prof)
    assert (p.triple, p.abelian, p.group) == ((-1, -1, 1), True, "Z4")

    # A synthetic (4,0)-style census: k even, all square differences 0 mod 8.
    synthetic = _profile(
        [
            (True, True, 1),
            (True, True, -1),
            (False, False, 1),
            (False, False, -1),
        ]
    )
    p = predict_aut_real(4, 0, synthetic)
    assert (p.triple, p.group) == ((1, 1, 1), "Z2xZ2")


def test_predict_aut_real_requires_even_dimension():
    with pytest.raises(TheoremCoverageError):
        predict_aut_real(1, 2, _profile([]))


def test_predict_aut_complex():
    assert predict_aut_complex(4).abelian and predict_aut_complex(4).triple == (1, 1, 1)
    assert not predict_aut_complex(2).abelian
    assert predict_aut_complex(2).triple == (-1, -1, -1)
    assert predict_aut_complex(5).abelian


def test_predict_pi_square():
    dirac = certify_spinbasis(preset_spinbasis("dirac"))
    assert predict_pi_square(dirac, "real_product") == -1  # b = 3
    tower = certify_spinbasis(build_spinbasis(MetricSignature(2, 0)))
    assert predict_pi_square(tower, "identity") == 1
    four_complex = _profile([(False, True, 1)] * 4 + [(True, True, 1)] * 2)
    assert predict_pi_square(four_complex, "complex_product") == 1  # a = 4


def test_square_rule_predictors_on_dirac():
    prof = certify_spinbasis(preset_spinbasis("dirac"))
    # Masks as generator-slot bitmasks: K = {3}, S = {1}, F = {2,3,4}.
    assert predict_k_square(prof, 0b0100) == -1  # a+ - a- = -1 = 7 mod 8
    assert predict_s_square(prof, 0b0001) == 1  # ck + rs = 1
    assert predict_f_square(prof, 0b1110) == 1  # rk + cs = 3
    assert predict_pi_k_commutation(prof) == -1  # a*b = 3 odd


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
        lab = pt_cover_label(a, b, c, comm)
        assert lab == CoverLabel("PT", fiber, cliff)
    with pytest.raises(TableLookupError):
        pt_cover_label(-1, -1, -1, True)


def test_cpt_cover_table_rows():
    assert cpt_cover_label((1,) * 7, True) == CoverLabel("CPT", "Z2xZ2xZ2xZ2", False)
    assert cpt_cover_label((1, -1, -1, 1, -1, -1, 1), False) == CoverLabel(
        "CPT", "Z4*xZ2xZ2", True
    )
    assert cpt_cover_label((1, 1, 1, -1, -1, -1, -1), True).fiber == "Z4xZ2xZ2"
    assert cpt_cover_label((1, -1, -1, -1, -1, -1, -1), False).fiber == "Q4xZ2"
    assert cpt_cover_label((-1, -1, 1, 1, 1, 1, 1), False).fiber == "D4xZ2"
    with pytest.raises(TableLookupError):
        cpt_cover_label((-1, 1, 1, 1, 1, 1, 1), True)  # minus count 1
    with pytest.raises(TableLookupError):
        cpt_cover_label((1, 1, 1, 1, 1, -1, -1), True)  # D4 fiber cannot be abelian


def test_cliffordian_iff_nonabelian_fiber():
    abelian_fibers = {"Z2xZ2xZ2xZ2", "Z4xZ2xZ2"}
    for signs, ab in (
        ((1,) * 7, True),
        ((1, 1, 1, -1, -1, -1, -1), True),
        ((1, 1, 1, -1, -1, -1, -1), False),
        ((1, -1, -1, -1, -1, -1, -1), False),
        ((-1, -1, 1, 1, 1, 1, 1), False),
    ):
        lab = cpt_cover_label(signs, ab)
        assert lab.cliffordian == (lab.fiber not in abelian_fibers)


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
