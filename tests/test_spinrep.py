import json
import random

import pytest

from clifcpt.algebra import COMPLEX, MetricSignature, Multivector, random_multivector
from clifcpt.exact import GaussMatrix, GaussRational
from clifcpt.spinrep import (
    CertificationError,
    SpinBasis,
    SpinBasisFileError,
    UnsupportedSignatureError,
    build_spinbasis,
    certify_spinbasis,
    load_spinbasis,
    preset_spinbasis,
    represent,
    save_spinbasis,
)
from gammas import gamma_matrices


def test_cl11_tower():
    basis = build_spinbasis(MetricSignature(1, 1))
    s1 = GaussMatrix([[0, 1], [1, 0]])
    eps = GaussMatrix([[0, 1], [-1, 0]])
    assert basis.gens == (s1, eps)
    census = certify_spinbasis(basis).as_dict()
    assert (census["a"], census["b"], census["k"]) == (0, 2, 1)


def test_cl02_canonical():
    basis = build_spinbasis(MetricSignature(0, 2))
    i_s1 = GaussMatrix([[0, GaussRational(0, 1)], [GaussRational(0, 1), 0]])
    i_s3 = GaussMatrix([[GaussRational(0, 1), 0], [0, GaussRational(0, -1)]])
    assert basis.gens == (i_s1, i_s3)
    prof = certify_spinbasis(basis)
    census = prof.as_dict()
    assert (census["a"], census["b"]) == (2, 0)
    assert prof.neg_mask == prof.mask() == 0b11


def test_cl20_tower_real():
    basis = build_spinbasis(MetricSignature(2, 0))
    census = certify_spinbasis(basis).as_dict()
    assert census["a"] == 0 and census["k"] == 0


def test_real_tower_all_real():
    for p, q in ((0, 0), (1, 1), (2, 0), (2, 2), (3, 1), (3, 3), (4, 2), (4, 4)):
        prof = certify_spinbasis(build_spinbasis(MetricSignature(p, q)))
        assert prof.as_dict()["a"] == 0, f"Cl({p},{q}) tower has imaginary generators"


def test_complex_canonical_profile():
    prof = certify_spinbasis(build_spinbasis(MetricSignature(4, 0, COMPLEX)))
    census = prof.as_dict()
    assert (census["a"], census["b"]) == (2, 2)
    assert prof.neg_mask == 0


def test_odd_dimension_unsupported():
    with pytest.raises(UnsupportedSignatureError, match="reduction"):
        build_spinbasis(MetricSignature(2, 1))


def test_dirac_preset_matches_transcription():
    basis = preset_spinbasis("dirac")
    assert basis.gens == gamma_matrices()
    assert basis.provenance == "preset:dirac"


def test_dirac_profile_counts():
    # Independent scan: reality and symmetry read off the transcription.
    g = gamma_matrices()
    real_flags = [all(e.im == 0 for row in m.rows for e in row) for m in g]
    sym_flags = [m.transpose() == m for m in g]
    assert real_flags == [True, True, False, True]
    assert sym_flags == [True, False, True, False]

    prof = certify_spinbasis(preset_spinbasis("dirac"))
    assert (prof.real_mask, prof.sym_mask, prof.neg_mask) == (0b1011, 0b0101, 0b1110)
    c = prof.as_dict()
    assert (c["a"], c["b"], c["k"]) == (1, 3, 2)
    assert (c["cs"], c["ck"], c["rs"], c["rk"]) == (1, 0, 1, 2)
    assert (c["aplus"], c["aminus"], c["bplus"], c["bminus"]) == (0, 1, 1, 2)
    assert (c["sym_pos"], c["sym_neg"], c["skew_pos"], c["skew_neg"]) == (1, 1, 0, 2)


def test_unknown_preset():
    with pytest.raises(UnsupportedSignatureError):
        preset_spinbasis("majorana")


@pytest.mark.parametrize("n", [0, 2, 4, 6, 8])
def test_canonical_bases_certify(n):
    for p in range(n + 1):
        basis = build_spinbasis(MetricSignature(p, n - p))
        c = certify_spinbasis(basis).as_dict()
        assert c["a"] + c["b"] == n
        assert c["cs"] + c["ck"] == c["a"]
        assert c["rs"] + c["rk"] == c["b"]
        assert c["ck"] + c["rk"] == c["k"]
        assert c["cs"] + c["rs"] == n - c["k"]
        assert c["sym_pos"] + c["sym_neg"] == n - c["k"]
        assert c["skew_pos"] + c["skew_neg"] == c["k"]
    if n > 0:
        certify_spinbasis(build_spinbasis(MetricSignature(n, 0, COMPLEX)))


def _reference_traits(basis):
    """Reality, symmetry and square of each generator, read off its
    dense rows, independently of the certification scan."""
    eye = GaussMatrix.identity(basis.dim)
    out = []
    for g in basis.gens:
        assert g.transpose() in (g, -g) and g * g in (eye, -eye)
        real = all(e.im == 0 for row in g.rows for e in row)
        out.append((real, g.transpose() == g, 1 if g * g == eye else -1))
    return out


def _reference_census(traits):
    def count(pred):
        return sum(1 for t in traits if pred(*t))

    return {
        "a": count(lambda r, s, q: not r),
        "b": count(lambda r, s, q: r),
        "k": count(lambda r, s, q: not s),
        "cs": count(lambda r, s, q: not r and s),
        "ck": count(lambda r, s, q: not r and not s),
        "rs": count(lambda r, s, q: r and s),
        "rk": count(lambda r, s, q: r and not s),
        "sym_pos": count(lambda r, s, q: s and q > 0),
        "sym_neg": count(lambda r, s, q: s and q < 0),
        "skew_pos": count(lambda r, s, q: not s and q > 0),
        "skew_neg": count(lambda r, s, q: not s and q < 0),
        "aplus": count(lambda r, s, q: not r and q > 0),
        "aminus": count(lambda r, s, q: not r and q < 0),
        "bplus": count(lambda r, s, q: r and q > 0),
        "bminus": count(lambda r, s, q: r and q < 0),
    }


def _conjugated(basis, tmp_path):
    """The basis conjugated by a rational Givens rotation, read back from
    a file: the same traits in every slot, dense generators."""
    from fractions import Fraction

    dim = basis.dim
    rows = [[int(i == j) for j in range(dim)] for i in range(dim)]
    rows[0][0] = rows[dim - 1][dim - 1] = Fraction(3, 5)
    rows[0][dim - 1], rows[dim - 1][0] = Fraction(-4, 5), Fraction(4, 5)
    m = GaussMatrix(rows)
    path = tmp_path / f"conj-{basis.sig.p}-{basis.sig.q}.json"
    gens = tuple(m * g * m.transpose() for g in basis.gens)
    save_spinbasis(SpinBasis(basis.sig, gens, "conjugated"), str(path))
    return load_spinbasis(str(path))


def test_profile_masks_match_per_generator_reference(tmp_path):
    bases = [preset_spinbasis("dirac")]
    for n in range(0, 9, 2):
        bases += [build_spinbasis(MetricSignature(p, n - p)) for p in range(n + 1)]
        bases.append(build_spinbasis(MetricSignature(n, 0, COMPLEX)))
    bases.append(_conjugated(build_spinbasis(MetricSignature(1, 3)), tmp_path))
    assert any(len(row) > 1 for g in bases[-1].gens for row in g.entries)
    for basis in bases:
        traits = _reference_traits(basis)
        prof = certify_spinbasis(basis)
        assert prof.n == len(traits)
        assert prof.as_dict() == _reference_census(traits), basis.sig
        for real in (True, False, None):
            for sym in (True, False, None):
                want = sum(
                    1 << i
                    for i, (r, s, _) in enumerate(traits)
                    if real in (None, r) and sym in (None, s)
                )
                assert prof.mask(real=real, sym=sym) == want, (basis.sig, real, sym)


def test_equal_slot_traits_give_equal_records(tmp_path):
    for sig in (MetricSignature(1, 3), MetricSignature(2, 2), MetricSignature(3, 3)):
        canonical = build_spinbasis(sig)
        conjugated = _conjugated(canonical, tmp_path)
        assert conjugated.gens != canonical.gens
        a, b = certify_spinbasis(canonical), certify_spinbasis(conjugated)
        assert a == b and hash(a) == hash(b)
    assert certify_spinbasis(preset_spinbasis("dirac")) != certify_spinbasis(
        build_spinbasis(MetricSignature(1, 3))
    )


def test_anticommutation_exhaustive_small():
    for p, q in ((1, 3), (2, 2), (0, 4)):
        basis = build_spinbasis(MetricSignature(p, q))
        eye = GaussMatrix.identity(basis.dim)
        for i, gi in enumerate(basis.gens, 1):
            for j, gj in enumerate(basis.gens, 1):
                if i == j:
                    expect = eye if i <= p else -eye
                    assert gi * gj == expect
                else:
                    assert gi * gj == -(gj * gi)


def test_file_roundtrip(tmp_path):
    basis = preset_spinbasis("dirac")
    path = tmp_path / "dirac.json"
    save_spinbasis(basis, str(path))
    loaded = load_spinbasis(str(path))
    assert loaded.gens == basis.gens
    assert loaded.sig == basis.sig
    assert loaded.provenance == f"file:{path}"


def test_file_anticommutation_violation(tmp_path):
    basis = preset_spinbasis("dirac")
    # Sabotage: replace generator 2 with generator 1.
    data = {
        "p": 1,
        "q": 3,
        "generators": [g.to_strings() for g in basis.gens],
    }
    data["generators"][1] = data["generators"][0]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    with pytest.raises(CertificationError) as err:
        load_spinbasis(str(path))
    assert "1 and 2" in str(err.value)


def test_file_mixed_reality_rejected(tmp_path):
    mixed = GaussMatrix(
        [
            [0, 0, 0, GaussRational(1, 1)],
            [0, 0, GaussRational(1, 1), 0],
            [0, GaussRational(-1, -1), 0, 0],
            [GaussRational(-1, -1), 0, 0, 0],
        ]
    )
    basis = preset_spinbasis("dirac")
    data = {
        "p": 1,
        "q": 3,
        "generators": [g.to_strings() for g in basis.gens],
    }
    data["generators"][2] = mixed.to_strings()
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(data))
    with pytest.raises(CertificationError, match="mixed reality"):
        load_spinbasis(str(path))


def test_file_parse_error(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    with pytest.raises(SpinBasisFileError):
        load_spinbasis(str(path))
    path2 = tmp_path / "missing.json"
    path2.write_text(json.dumps({"p": 1}))
    with pytest.raises(SpinBasisFileError):
        load_spinbasis(str(path2))
    path3 = tmp_path / "numbers.json"
    path3.write_text(json.dumps({"p": 2, "q": 0, "generators": [[[0, 1], [1, 0]]] * 2}))
    with pytest.raises(SpinBasisFileError):
        load_spinbasis(str(path3))
    # p and q must be JSON integers: no float, bool or string is coerced.
    gens = [[["0", "1"], ["1", "0"]], [["0", "1"], ["-1", "0"]]]
    for bad_p in (1.9, True, "1"):
        path4 = tmp_path / "coerced.json"
        path4.write_text(json.dumps({"p": bad_p, "q": 1, "generators": gens}))
        with pytest.raises(SpinBasisFileError, match="JSON integers"):
            load_spinbasis(str(path4))


def test_representation_homomorphism_random():
    rng = random.Random(17)
    sig = MetricSignature(1, 3)
    basis = build_spinbasis(sig)
    for _ in range(100):
        a = random_multivector(sig, rng)
        b = random_multivector(sig, rng)
        assert represent(basis, a * b) == represent(basis, a) * represent(basis, b)
    one = Multivector.scalar(sig, 1)
    assert represent(basis, one) == GaussMatrix.identity(basis.dim)


def test_represent_intertwines_the_four_maps():
    # Metamorphic check of the multivector kernel against dense matrices:
    # represent is a homomorphism, and each realization's W, E, C and Pi
    # carry the grade involution, reversion, conjugation and complex
    # conjugation to the matrix side.
    from clifcpt.autmat import enumerate_realizations

    rng = random.Random(23)
    bases = [preset_spinbasis("dirac")]
    for n in range(0, 7, 2):
        bases += [build_spinbasis(MetricSignature(p, n - p)) for p in range(n + 1)]
        bases.append(build_spinbasis(MetricSignature(n, 0, COMPLEX)))
    samples = 0
    for basis in bases:
        for r in enumerate_realizations(basis):
            w, e, c, pi = r.matrices()[1:5]
            for _ in range(4):
                a = random_multivector(basis.sig, rng, allow_complex_coeffs=True)
                b = random_multivector(basis.sig, rng, allow_complex_coeffs=True)
                ra = represent(basis, a)
                rt = ra.transpose()
                assert represent(basis, a * b) == ra * represent(basis, b)
                assert represent(basis, a.grade_involution()) == w * ra * w.inverse()
                assert represent(basis, a.reversion()) == e * rt * e.inverse()
                assert represent(basis, a.conjugation()) == c * rt * c.inverse()
                assert represent(basis, a.complex_conjugation()) == pi * ra.conj() * pi.inverse()
                samples += 1
    assert samples >= 4 * len(bases)


def test_build_spinbasis_is_memoized():
    sig = MetricSignature(2, 2)
    assert build_spinbasis(sig) is build_spinbasis(MetricSignature(2, 2))


def test_certify_reports_wrong_generator_count():
    sig = MetricSignature(1, 1)
    with pytest.raises(CertificationError, match="expected 2 generators"):
        certify_spinbasis(SpinBasis(sig, (GaussMatrix.identity(2),), "test"))


def test_file_wrong_metric_square_rejected(tmp_path):
    basis = preset_spinbasis("dirac")
    data = {"p": 3, "q": 1, "generators": [g.to_strings() for g in basis.gens]}
    path = tmp_path / "wrongsig.json"
    path.write_text(json.dumps(data))
    with pytest.raises(CertificationError, match="squares to"):
        load_spinbasis(str(path))


def test_canonical_bases_roundtrip_through_files(tmp_path):
    for n in (0, 2, 4, 6):
        for p in range(n + 1):
            basis = build_spinbasis(MetricSignature(p, n - p))
            path = tmp_path / f"cl_{p}_{n - p}.json"
            save_spinbasis(basis, str(path))
            assert load_spinbasis(str(path)).gens == basis.gens
