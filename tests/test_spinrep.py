import hashlib
import json
import pickle
import random

import pytest

from clifcpt import spinrep
from clifcpt.algebra import COMPLEX, MetricSignature, Multivector, random_multivector
from clifcpt.exact import GaussMatrix, GaussRational
from clifcpt.spinrep import (
    CertificationError,
    SpinBasis,
    SpinBasisFileError,
    UnsupportedSignatureError,
    build_spinbasis,
    load_spinbasis,
    preset_spinbasis,
    represent,
    save_spinbasis,
)
from dense_reference import conjugated_bases, kron
from gammas import gamma_matrices
from pauli_bases import pauli_bases, sample_pauli_bases


def test_cl11_tower():
    basis = build_spinbasis(MetricSignature(1, 1))
    s1 = GaussMatrix([[0, 1], [1, 0]])
    eps = GaussMatrix([[0, 1], [-1, 0]])
    assert basis.gens == (s1, eps)
    census = basis.profile.as_dict()
    assert (census["a"], census["b"], census["k"]) == (0, 2, 1)


def test_cl02_canonical():
    basis = build_spinbasis(MetricSignature(0, 2))
    i_s1 = GaussMatrix([[0, GaussRational(0, 1)], [GaussRational(0, 1), 0]])
    i_s3 = GaussMatrix([[GaussRational(0, 1), 0], [0, GaussRational(0, -1)]])
    assert basis.gens == (i_s1, i_s3)
    prof = basis.profile
    census = prof.as_dict()
    assert (census["a"], census["b"]) == (2, 0)
    assert prof.real_mask ^ prof.sym_mask == prof.mask() == 0b11


def test_cl20_tower_real():
    basis = build_spinbasis(MetricSignature(2, 0))
    census = basis.profile.as_dict()
    assert census["a"] == 0 and census["k"] == 0


def test_real_tower_all_real():
    for p, q in [(q + d, q) for q in range(7) for d in (0, 2) if 2 * q + d <= 12]:
        prof = build_spinbasis(MetricSignature(p, q)).profile
        assert prof.as_dict()["a"] == 0, f"Cl({p},{q}) basis has imaginary generators"


def test_canonical_generators_are_pinned():
    # Every canonical generator with n <= 12, real and complex, as exact
    # entry strings; a change to any matrix changes the digest.
    sigs = [MetricSignature(p, n - p) for n in range(0, 13, 2) for p in range(n, -1, -1)]
    sigs += [MetricSignature(n, 0, COMPLEX) for n in range(0, 13, 2)]
    doc = [[s.p, s.q, s.field, [g.to_strings() for g in build_spinbasis(s).gens]] for s in sigs]
    digest = hashlib.sha256(json.dumps(doc, separators=(",", ":")).encode()).hexdigest()
    assert digest == "a9bf249f3e49fb1f702923360cda2c529348a0ed6f8c22b9487e44c08bf44e1e"


def test_complex_canonical_profile():
    prof = build_spinbasis(MetricSignature(4, 0, COMPLEX)).profile
    census = prof.as_dict()
    assert (census["a"], census["b"]) == (2, 2)
    assert prof.real_mask ^ prof.sym_mask == 0


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

    prof = preset_spinbasis("dirac").profile
    assert tuple(prof) == (4, 0b1011, 0b0101) and prof.real_mask ^ prof.sym_mask == 0b1110
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
        c = basis.profile.as_dict()
        assert c["a"] + c["b"] == n
        assert c["cs"] + c["ck"] == c["a"]
        assert c["rs"] + c["rk"] == c["b"]
        assert c["ck"] + c["rk"] == c["k"]
        assert c["cs"] + c["rs"] == n - c["k"]
        assert c["sym_pos"] + c["sym_neg"] == n - c["k"]
        assert c["skew_pos"] + c["skew_neg"] == c["k"]
    if n > 0:
        assert build_spinbasis(MetricSignature(n, 0, COMPLEX)).profile.n == n


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
    # The reference reads each square off g * g, so the census checks the
    # square rule: -I exactly on the real antisymmetric and the imaginary
    # symmetric generators. The Pauli-word and conjugated bases reach all
    # four (reality, symmetry) classes with dense and monomial generators.
    bases = [preset_spinbasis("dirac")]
    for n in range(0, 9, 2):
        bases += [build_spinbasis(MetricSignature(p, n - p)) for p in range(n + 1)]
        bases.append(build_spinbasis(MetricSignature(n, 0, COMPLEX)))
    bases += pauli_bases(2) + pauli_bases(4) + sample_pauli_bases(6, 48, seed=6)
    bases += [basis for _, _, basis in conjugated_bases()]
    bases.append(_conjugated(build_spinbasis(MetricSignature(1, 3)), tmp_path))
    assert any(len(row) > 1 for g in bases[-1].gens for row in g.entries)
    assert len(bases) == 1 + 25 + 5 + 492 + 48 + 62 + 1
    for basis in bases:
        traits = _reference_traits(basis)
        prof = basis.profile
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


def _kron_word(m, x, z):
    """X^x Z^z as a Kronecker chain of one-qubit factors, bit m-1 first."""
    px, pz, eye = GaussMatrix([[0, 1], [1, 0]]), GaussMatrix([[1, 0], [0, -1]]), GaussMatrix.identity(2)
    out = GaussMatrix.identity(1)
    for j in reversed(range(m)):
        out = kron(out, (px if x >> j & 1 else eye) * (pz if z >> j & 1 else eye))
    return out


def test_pauli_word_matches_a_kron_chain_and_its_rules():
    for m in range(4):
        for x in range(1 << m):
            for z in range(1 << m):
                assert spinrep.pauli_word(m, x, z) == _kron_word(m, x, z), (m, x, z)
    # The three rules of the docstring, on every pair of words with m <= 2.
    for m in range(3):
        eye = GaussMatrix.identity(1 << m)
        words = {(x, z): spinrep.pauli_word(m, x, z) for x in range(1 << m) for z in range(1 << m)}
        for (x, z), w in words.items():
            square = eye if (x & z).bit_count() % 2 == 0 else -eye
            assert w * w == square and (w.transpose() == w) == (square == eye), (m, x, z)
            for (x2, z2), w2 in words.items():
                odd = ((x & z2).bit_count() + (z & x2).bit_count()) % 2
                assert w * w2 == (-(w2 * w) if odd else w2 * w), (m, x, z, x2, z2)


def test_square_rule_on_each_trait_class():
    # One 2x2 generator per (reality, symmetry) class, with the square the
    # rule forces: X (real symmetric, +I), XZ (real antisymmetric, -I), iX
    # (imaginary symmetric, -I) and iXZ (imaginary antisymmetric, +I).
    # Certified pairs give their profiles; on the wrong metric, each
    # generator reports the square its class forces.
    x, z = spinrep.pauli_word(1, 1, 0), spinrep.pauli_word(1, 0, 1)
    i = GaussRational(0, 1)
    xz, ix, iz = x * z, x.scale(i), z.scale(i)
    ixz = xz.scale(i)
    eye = GaussMatrix.identity(2)
    assert [g * g for g in (x, xz, ix, ixz)] == [eye, -eye, -eye, eye]
    certified = [
        ((2, 0), (x, z), (0b11, 0b11)),
        ((1, 1), (x, xz), (0b11, 0b01)),
        ((0, 2), (ix, iz), (0b00, 0b11)),
        ((2, 0), (ixz, x), (0b10, 0b10)),
        ((1, 1), (ixz, ix), (0b00, 0b10)),
        ((1, 1), (z, xz), (0b11, 0b01)),
    ]
    for (p, q), gens, masks in certified:
        prof = SpinBasis(MetricSignature(p, q), gens, "test").profile
        assert prof == (2, *masks), (p, q, masks)
        assert prof.real_mask ^ prof.sym_mask == MetricSignature(p, q).neg_mask
    rejected = [
        ((0, 2), (x, z), ["generator 1 squares to +I, expected -I", "generator 2 squares to +I, expected -I"]),
        ((2, 0), (x, xz), ["generator 2 squares to -I, expected +I"]),
        ((2, 0), (ix, iz), ["generator 1 squares to -I, expected +I", "generator 2 squares to -I, expected +I"]),
        ((0, 2), (ixz, x), ["generator 1 squares to +I, expected -I", "generator 2 squares to +I, expected -I"]),
        ((1, 1), (ix, ixz), ["generator 1 squares to -I, expected +I", "generator 2 squares to +I, expected -I"]),
    ]
    for (p, q), gens, violations in rejected:
        with pytest.raises(CertificationError) as err:
            SpinBasis(MetricSignature(p, q), gens, "test")
        assert err.value.violations == violations, (p, q)


def test_equal_slot_traits_give_equal_records(tmp_path):
    for sig in (MetricSignature(1, 3), MetricSignature(2, 2), MetricSignature(3, 3)):
        canonical = build_spinbasis(sig)
        conjugated = _conjugated(canonical, tmp_path)
        assert conjugated.gens != canonical.gens
        a, b = canonical.profile, conjugated.profile
        assert a == b and hash(a) == hash(b)
    assert preset_spinbasis("dirac").profile != build_spinbasis(MetricSignature(1, 3)).profile


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


def test_certification_messages_and_pair_products(monkeypatch):
    # Each broken basis gets its exact violation list, and certification
    # forms no product: squares and pairs are compared on numerators.
    d = preset_spinbasis("dirac").gens
    one, minus = GaussRational(1, 1), GaussRational(-1, -1)
    mixed = GaussMatrix([[0, 0, 0, one], [0, 0, one, 0], [0, minus, 0, 0], [minus, 0, 0, 0]])
    s1, s3 = GaussMatrix([[0, 1], [1, 0]]), GaussMatrix([[1, 0], [0, -1]])
    lopsided = GaussMatrix([[0, 1], [2, 0]])  # neither symmetric nor antisymmetric
    cases = [
        # The inputs of the broken-file tests above.
        (
            (1, 3),
            (d[0], d[0], d[2], d[3]),
            ["generator 2 squares to +I, expected -I", "generators 1 and 2 do not anticommute"],
            0,
        ),
        (
            (1, 3),
            (d[0], d[1], mixed, d[3]),
            [
                "generator 3 has mixed reality (both real and imaginary entries)",
                "generators 2 and 3 do not anticommute",
            ],
            0,
        ),
        (
            (3, 1),
            d,
            ["generator 2 squares to -I, expected +I", "generator 3 squares to -I, expected +I"],
            0,
        ),
        # Two pure generators that commute.
        ((2, 0), (s1, s1), ["generators 1 and 2 do not anticommute"], 0),
        # The pair test needs no symmetry sign, so a generator that failed
        # its scan is still paired: this one anticommutes with s3.
        ((2, 0), (lopsided, s3), ["generator 1 is neither symmetric nor antisymmetric"], 0),
    ]
    mul = GaussMatrix.__mul__
    for (p, q), gens, violations, products in cases:
        formed = []
        monkeypatch.setattr(GaussMatrix, "__mul__", lambda a, b: formed.append(1) or mul(a, b))
        with pytest.raises(CertificationError) as err:
            SpinBasis(MetricSignature(p, q), gens, "test")
        monkeypatch.undo()
        assert (err.value.violations, len(formed)) == (violations, products), (p, q)


def test_one_product_pair_verdicts_match_two_products():
    # Seeded sign flips, phases i and 1+i (the last fails the scan) and
    # repeated generators on canonical and conjugated bases, dense ones
    # included: the pairs certification reports are exactly those where
    # gi * gj != -(gj * gi).
    rng = random.Random(16)
    bases = [build_spinbasis(MetricSignature(p, n - p)) for n in (2, 4, 6) for p in range(n + 1)]
    bases += [basis for _, _, basis in conjugated_bases()]
    phases = (1, -1, GaussRational(0, 1), GaussRational(1, 1))
    reported = 0
    for basis in bases:
        n = basis.sig.n
        gens = [g.scale(rng.choice(phases)) for g in basis.gens]
        if rng.random() < 0.5:
            i, j = rng.sample(range(n), 2)
            gens[j] = gens[i].scale(rng.choice((1, -1)))
        want = [
            f"generators {i + 1} and {j + 1} do not anticommute"
            for i in range(n)
            for j in range(i + 1, n)
            if gens[i] * gens[j] != -(gens[j] * gens[i])
        ]
        try:
            SpinBasis(basis.sig, tuple(gens), "variant")
            got = []
        except CertificationError as err:
            got = [v for v in err.violations if v.endswith("do not anticommute")]
        assert got == want, (basis.sig, basis.provenance)
        reported += len(got)
    assert reported > 0


def test_certification_forms_no_product(monkeypatch):
    # Squares and pairs are compared on numerators, so every basis below is
    # certified with matrix products refused: each canonical basis with
    # n <= 12, real and complex, the Dirac preset, and the conjugated
    # bases, whose generators are built before the refusal.
    variants = [(basis.sig, basis.gens) for _, _, basis in conjugated_bases()]

    def refuse(self, other):
        raise AssertionError("a matrix product was formed")

    monkeypatch.setattr(GaussMatrix, "__mul__", refuse)
    certified = 0
    for n in range(0, 13, 2):
        sigs = [MetricSignature(p, n - p) for p in range(n + 1)] + [MetricSignature(n, 0, COMPLEX)]
        for sig in sigs:
            assert build_spinbasis(sig).profile.n == n
            certified += 1
    assert preset_spinbasis("dirac").profile.n == 4
    for sig, gens in variants:
        assert SpinBasis(sig, gens, "variant").profile.n == sig.n
    assert certified + 1 + len(variants) == 49 + 7 + 1 + 62


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
    # A zero denominator is a malformed entry, real or imaginary.
    for zero in ("1/0", "1/0*i"):
        path5 = tmp_path / "zero.json"
        bad_gens = [[["0", zero], ["1", "0"]], gens[1]]
        path5.write_text(json.dumps({"p": 1, "q": 1, "generators": bad_gens}))
        with pytest.raises(SpinBasisFileError, match="zero denominator"):
            load_spinbasis(str(path5))


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
    from clifcpt.verify import dense_realization

    rng = random.Random(23)
    bases = [preset_spinbasis("dirac")]
    for n in range(0, 7, 2):
        bases += [build_spinbasis(MetricSignature(p, n - p)) for p in range(n + 1)]
        bases.append(build_spinbasis(MetricSignature(n, 0, COMPLEX)))
    samples = 0
    for basis in bases:
        w, e, c, pi = dense_realization(basis)["matrices"][1:5]
        for _ in range(4):
            a = random_multivector(basis.sig, rng, allow_complex_coeffs=True)
            b = random_multivector(basis.sig, rng, allow_complex_coeffs=True)
            ra = represent(basis, a)
            rt = ra.transpose()
            assert represent(basis, a * b) == ra * represent(basis, b)
            assert represent(basis, a.grade_involution()) * w == w * ra
            assert represent(basis, a.reversion()) * e == e * rt
            assert represent(basis, a.conjugation()) * c == c * rt
            assert represent(basis, a.complex_conjugation()) * pi == pi * ra.conj()
            samples += 1
    assert samples >= 4 * len(bases)


def test_signature_and_basis_are_immutable_values():
    sig = MetricSignature(1, 3)
    assert sig == MetricSignature(1, 3, "real") and hash(sig) == hash(MetricSignature(1, 3))
    assert sig != MetricSignature(3, 1) and sig != MetricSignature(1, 3, COMPLEX)
    assert repr(sig) == "MetricSignature(p=1, q=3, field='real')"
    for args, message in (
        ((-1, 3), "p and q must be nonnegative, got (-1,3)"),
        ((1, -3), "p and q must be nonnegative, got (1,-3)"),
        ((1, 3, "quaternion"), "field must be 'real' or 'complex', got 'quaternion'"),
    ):
        with pytest.raises(ValueError) as err:
            MetricSignature(*args)
        assert str(err.value) == message

    basis = preset_spinbasis("dirac")
    gens = tuple(GaussMatrix.from_strings(g.to_strings()) for g in basis.gens)
    twin = SpinBasis(MetricSignature(1, 3), gens, basis.provenance)
    assert twin == basis and hash(twin) == hash(basis)
    negated = SpinBasis(basis.sig, (-gens[0], *gens[1:]), basis.provenance)
    assert negated != basis
    assert repr(basis).startswith("SpinBasis(sig=MetricSignature(p=1, q=3, field='real'), gens=(")

    fields = ((sig, "p"), (sig, "field"), (basis, "gens"), (basis, "provenance"), (basis, "profile"))
    for record, name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))

    from clifcpt.verify import CheckResult

    # verify's worker returns its CheckResults through pickle.
    for record in (sig, basis, CheckResult("groups", "census", True, "ok", 0.25)):
        assert pickle.loads(pickle.dumps(record)) == record


def test_replace_and_unpickling_go_through_the_constructor(monkeypatch):
    sig = MetricSignature(1, 3)
    for make, message in (
        (lambda: sig._replace(p=-1), "p and q must be nonnegative, got (-1,3)"),
        (lambda: MetricSignature._make((1, -3, "real")), "p and q must be nonnegative, got (1,-3)"),
        (lambda: sig._replace(field="quaternion"), "field must be 'real' or 'complex', got 'quaternion'"),
    ):
        with pytest.raises(ValueError) as err:
            make()
        assert str(err.value) == message
    assert sig._replace(q=1) == MetricSignature(1, 1) and type(sig._replace(q=1)) is MetricSignature

    basis = preset_spinbasis("dirac")
    with pytest.raises(CertificationError, match="generators 1 and 2 do not anticommute"):
        basis._replace(gens=(GaussMatrix.identity(4), *basis.gens[1:]))
    relabeled = basis._replace(provenance="copy")
    assert type(relabeled) is SpinBasis and relabeled.profile == basis.profile

    certified = []
    certify = spinrep.certify_spinbasis

    def counting(sig, gens):
        certified.append(sig)
        return certify(sig, gens)

    monkeypatch.setattr(spinrep, "certify_spinbasis", counting)
    copy = pickle.loads(pickle.dumps(basis))
    assert certified == [basis.sig]
    assert type(copy) is SpinBasis and copy == basis and copy.profile == basis.profile


def test_certify_reports_wrong_generator_count():
    sig = MetricSignature(1, 1)
    with pytest.raises(CertificationError, match="expected 2 generators"):
        SpinBasis(sig, (GaussMatrix.identity(2),), "test")


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
