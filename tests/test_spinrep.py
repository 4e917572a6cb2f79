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
    prof = certify_spinbasis(basis)
    assert (prof.a, prof.b, prof.k) == (0, 2, 1)


def test_cl02_canonical():
    basis = build_spinbasis(MetricSignature(0, 2))
    i_s1 = GaussMatrix([[0, GaussRational(0, 1)], [GaussRational(0, 1), 0]])
    i_s3 = GaussMatrix([[GaussRational(0, 1), 0], [0, GaussRational(0, -1)]])
    assert basis.gens == (i_s1, i_s3)
    prof = certify_spinbasis(basis)
    assert (prof.a, prof.b) == (2, 0)
    assert all(t.square == -1 for t in prof.traits)


def test_cl20_tower_real():
    basis = build_spinbasis(MetricSignature(2, 0))
    prof = certify_spinbasis(basis)
    assert prof.a == 0 and prof.k == 0


def test_real_tower_all_real():
    for p, q in ((0, 0), (1, 1), (2, 0), (2, 2), (3, 1), (3, 3), (4, 2), (4, 4)):
        prof = certify_spinbasis(build_spinbasis(MetricSignature(p, q)))
        assert prof.a == 0, f"Cl({p},{q}) tower has imaginary generators"


def test_complex_canonical_profile():
    prof = certify_spinbasis(build_spinbasis(MetricSignature(4, 0, COMPLEX)))
    assert (prof.a, prof.b) == (2, 2)
    assert all(t.square == 1 for t in prof.traits)


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
    assert (prof.a, prof.b, prof.k) == (1, 3, 2)
    assert (prof.cs, prof.ck, prof.rs, prof.rk) == (1, 0, 1, 2)
    assert (prof.aplus, prof.aminus, prof.bplus, prof.bminus) == (0, 1, 1, 2)
    assert (prof.sym_pos, prof.sym_neg, prof.skew_pos, prof.skew_neg) == (1, 1, 0, 2)


def test_unknown_preset():
    with pytest.raises(UnsupportedSignatureError):
        preset_spinbasis("majorana")


@pytest.mark.parametrize("n", [0, 2, 4, 6, 8])
def test_canonical_bases_certify(n):
    for p in range(n + 1):
        basis = build_spinbasis(MetricSignature(p, n - p))
        prof = certify_spinbasis(basis)
        assert prof.a + prof.b == n
        assert prof.cs + prof.ck == prof.a
        assert prof.rs + prof.rk == prof.b
        assert prof.ck + prof.rk == prof.k
        assert prof.cs + prof.rs == n - prof.k
        assert prof.sym_pos + prof.sym_neg == n - prof.k
        assert prof.skew_pos + prof.skew_neg == prof.k
    if n > 0:
        certify_spinbasis(build_spinbasis(MetricSignature(n, 0, COMPLEX)))


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
