import random
from fractions import Fraction
from math import gcd

import pytest

from clifcpt.algebra import (
    COMPLEX,
    REAL,
    MetricSignature,
    Multivector,
    OddDimensionError,
    SignatureMismatchError,
    _swap_parity,
    blade_format,
    blade_product,
    blade_square_sign,
    blades_commute,
    grade,
    involution_via_omega_check,
    random_multivector,
    volume_element,
)
from clifcpt.exact import ZERO, GaussMatrix, GaussRational, format_gauss, format_parts
from gammas import gamma_matrices, product

CL13 = MetricSignature(1, 3)
CL20 = MetricSignature(2, 0)


def test_blade_product_examples():
    assert blade_product(0b0001, 0b0001, CL13) == (1, 0)  # e1*e1 = +1
    assert blade_product(0b0010, 0b0001, CL13) == (-1, 0b0011)  # e2*e1 = -e12
    assert blade_product(0b0011, 0b0011, CL20) == (-1, 0)  # e12*e12 = -1
    assert blade_product(0b0010, 0b0010, CL13) == (-1, 0)  # e2^2 = -1


def test_geometric_product_unit_and_bilinearity():
    a = Multivector(CL13, {0b0101: Fraction(3, 2), 0: GaussRational(0, 1)})
    one = Multivector.scalar(CL13, 1)
    assert one * a == a
    assert a * one == a


def test_sum_of_generators_squares_to_metric_trace():
    # (e1 + e2)^2 in Cl(2,0) = e1^2 + e2^2 = 2 (cross terms cancel).
    v = Multivector.generator(CL20, 1) + Multivector.generator(CL20, 2)
    assert v * v == Multivector.scalar(CL20, 2)
    # Matrix route: the same element as sigma1 + sigma3.
    s1 = GaussMatrix([[0, 1], [1, 0]])
    s3 = GaussMatrix([[1, 0], [0, -1]])
    m = s1 + s3
    assert m * m == GaussMatrix.identity(2).scale(2)


def test_volume_element_squares():
    for sig, sign in ((MetricSignature(1, 1), 1), (CL20, -1), (CL13, -1)):
        assert blade_square_sign((1 << sig.n) - 1, sig) == sign
    omega = volume_element(CL13)
    assert omega * omega == Multivector.scalar(CL13, -1)
    # Matrix route: the gamma volume element squares to -I.
    g = gamma_matrices()
    w = product(*g)
    assert w * w == -GaussMatrix.identity(4)


def test_grade_involution_reversion_conjugation_on_blades():
    mv = Multivector.blade(CL13, 0b1011)  # grade 3
    assert mv.grade_involution() == -mv
    b2 = Multivector.blade(CL13, 0b0101)  # grade 2
    assert b2.grade_involution() == b2
    assert Multivector.scalar(CL13, 5).grade_involution() == Multivector.scalar(CL13, 5)

    assert b2.reversion() == -b2  # k=2
    e1 = Multivector.generator(CL13, 1)
    assert e1.reversion() == e1
    top = Multivector.blade(CL13, 0b1111)  # k=4
    assert top.reversion() == top

    assert e1.conjugation() == -e1  # k=1
    assert b2.conjugation() == -b2  # k=2
    assert top.conjugation() == top  # k=4


def test_complex_conjugation_examples():
    c4 = MetricSignature(4, 0, COMPLEX)
    ie1 = Multivector.blade(c4, 1, GaussRational(0, 1))
    assert ie1.complex_conjugation() == -ie1
    e1 = Multivector.generator(c4, 1)
    assert e1.complex_conjugation() == e1
    z = Multivector.scalar(c4, GaussRational(1, 1))
    assert z.complex_conjugation() == Multivector.scalar(c4, GaussRational(1, -1))


def test_involution_laws_random():
    rng = random.Random(5)
    for sig in (CL13, CL20, MetricSignature(0, 3), MetricSignature(3, 3)):
        for _ in range(40):
            a = random_multivector(sig, rng, allow_complex_coeffs=True)
            b = random_multivector(sig, rng, allow_complex_coeffs=True)
            ab = a * b
            assert ab.reversion() == b.reversion() * a.reversion()
            assert ab.grade_involution() == a.grade_involution() * b.grade_involution()
            assert ab.conjugation() == b.conjugation() * a.conjugation()
            assert a.reversion().reversion() == a
            assert a.grade_involution().grade_involution() == a
            assert a.conjugation() == a.grade_involution().reversion()
            assert a.conjugation() == a.reversion().grade_involution()


def test_geometric_product_associativity_random():
    rng = random.Random(6)
    for _ in range(30):
        a = random_multivector(CL13, rng)
        b = random_multivector(CL13, rng)
        c = random_multivector(CL13, rng)
        assert (a * b) * c == a * (b * c)


def test_omega_conjugation_check():
    rng = random.Random(9)
    for _ in range(30):
        assert involution_via_omega_check(random_multivector(CL13, rng))
    # Cl(2,0): omega e1 omega^-1 = -e1.
    e1 = Multivector.generator(CL20, 1)
    assert involution_via_omega_check(e1)
    assert involution_via_omega_check(Multivector.scalar(CL20, 7))
    with pytest.raises(OddDimensionError, match="not applicable"):
        involution_via_omega_check(Multivector.scalar(MetricSignature(3, 0), 1))


def test_signature_mismatch_error():
    with pytest.raises(SignatureMismatchError):
        Multivector.scalar(CL13, 1) * Multivector.scalar(CL20, 1)


def test_canonical_string_form():
    mv = Multivector(CL13, {0b0101: Fraction(3, 2), 0: GaussRational(0, 1)})
    assert str(mv) == "i*e{} + 3/2*e{1,3}"
    assert str(Multivector.zero(CL13)) == "0"
    mixed = Multivector(CL13, {1: GaussRational(Fraction(1, 2), Fraction(1, 2))})
    assert str(mixed) == "(1/2+1/2*i)*e{1}"


def _fraction_text(z: GaussRational) -> str:
    """format_gauss as it was written on the Fraction parts, before the
    integer formatter: the reference for the text of a coefficient."""
    if z.re == 0 and z.im == 0:
        return "0"
    parts = [str(z.re)] if z.re != 0 else []
    if z.im != 0:
        mag = abs(z.im)
        unit = "i" if mag == 1 else f"{mag}*i"
        parts.append(f"-{unit}" if z.im < 0 else f"+{unit}" if parts else unit)
    return "".join(parts)


def test_strings_match_the_fraction_reference():
    # Seeded random multivectors, scaled so that their denominators range
    # over 1..12 times 1..9, against the text formed from each Fraction.
    rng = random.Random(33)
    seen = set()
    for trial in range(600):
        sig = MetricSignature(rng.randint(0, 3), rng.randint(0, 3))
        mv = random_multivector(sig, rng, max_terms=6, allow_complex_coeffs=trial % 3 != 0)
        mv = mv.scale(GaussRational(Fraction(rng.randint(-9, 9), rng.randint(1, 9))))
        parts = []
        for m, c in sorted(mv.terms.items()):
            text = _fraction_text(c)
            parts.append(f"({text})*{blade_format(m)}" if c.re and c.im else f"{text}*{blade_format(m)}")
        assert str(mv) == (" + ".join(parts) or "0")
        for m, (re, im) in mv.num.items():
            text = _fraction_text(mv.coefficient(m))
            assert format_parts(re, im, mv.den) == format_gauss(mv.coefficient(m)) == text
            seen.add("mixed" if re and im else "real" if re else "imaginary")
            seen.update(["negative real"] * (re < 0) + ["negative imaginary"] * (im < 0))
            seen.update(["denominator 1"] * (mv.den == 1) + ["imaginary over d > 1"] * (im % mv.den != 0))
        seen.update(["zero"] * mv.is_zero())
    assert seen == {
        "mixed",
        "real",
        "imaginary",
        "negative real",
        "negative imaginary",
        "denominator 1",
        "imaginary over d > 1",
        "zero",
    }


def test_grade_helper():
    assert grade(0) == 0
    assert grade(0b1011) == 3


def test_representation_matches_blade_arithmetic():
    # gamma(e1 e2) computed two ways: blade product sign times the matrix
    # product, on a sample of blades.
    from clifcpt.spinrep import preset_spinbasis, represent

    basis = preset_spinbasis("dirac")
    rng = random.Random(3)
    for _ in range(25):
        x = rng.randrange(16)
        y = rng.randrange(16)
        bx = Multivector.blade(CL13, x)
        by = Multivector.blade(CL13, y)
        assert represent(basis, bx * by) == represent(basis, bx) * represent(basis, by)


def _blade_product_per_bit(x, y, sig):
    """The reference: reorder swaps, then one metric_sign call per shared generator."""
    a = x >> 1
    swaps = 0
    while a:
        swaps += (a & y).bit_count()
        a >>= 1
    sign = -1 if swaps & 1 else 1
    common = x & y
    i = 1
    while common:
        if common & 1 and sig.metric_sign(i) < 0:
            sign = -sign
        common >>= 1
        i += 1
    return sign, x ^ y


def test_blade_product_matches_per_bit_reference():
    for n in range(6):
        for sig in [MetricSignature(p, n - p, f) for p in range(n + 1) for f in (REAL, COMPLEX)]:
            for x in range(1 << n):
                for y in range(1 << n):
                    assert blade_product(x, y, sig) == _blade_product_per_bit(x, y, sig)


def _inversion_parity(x, y, neg):
    """Brute force: the pairs (i in x, j in y) with i > j, plus the shared
    indices in neg, mod 2."""
    xs = [i for i in range(x.bit_length()) if x >> i & 1]
    ys = [j for j in range(y.bit_length()) if y >> j & 1]
    return (sum(i > j for i in xs for j in ys) + (x & y & neg).bit_count()) % 2


def _mask_pairs():
    """(n, x, y) for every mask pair with n <= 6, then a seeded n = 12 sample."""
    for n in range(7):
        for x in range(1 << n):
            for y in range(1 << n):
                yield n, x, y
    rng = random.Random(12)
    for _ in range(3000):
        yield 12, rng.randrange(1 << 12), rng.randrange(1 << 12)


def test_swap_parity_closed_form_matches_inversion_count():
    for n, x, y in _mask_pairs():
        full = (1 << n) - 1
        for neg in (0, full, 0b101010101010 & full):
            assert _swap_parity(x, y, neg) == _inversion_parity(x, y, neg), (x, y, neg)


def test_square_and_commutation_closed_forms_match_blade_product():
    # neg masks 0, all and the upper half, as in Cl(n,0), Cl(0,n) and a
    # mixed signature.
    for n, x, y in _mask_pairs():
        half = n // 2
        for sig in (MetricSignature(n, 0), MetricSignature(0, n), MetricSignature(half, n - half)):
            assert blade_square_sign(x, sig) == blade_product(x, x, sig)[0], (x, sig)
            xy, yx = blade_product(x, y, sig)[0], blade_product(y, x, sig)[0]
            assert blades_commute(x, y, sig) == (xy == yx), (x, y, sig)


def test_blade_signs_reject_masks_out_of_range():
    for call in (
        lambda: blade_product(16, 1, CL13),
        lambda: blade_product(1, -1, CL13),
        lambda: blade_square_sign(16, CL13),
        lambda: blade_square_sign(-1, CL13),
        lambda: blades_commute(1, 16, CL13),
        lambda: blades_commute(-2, 1, CL13),
    ):
        with pytest.raises(ValueError, match="out of range"):
            call()


# --- reference: sparse blade -> GaussRational dicts ---------------------------


def _ref_nonzero(acc):
    return {m: c for m, c in acc.items() if c}


def _ref_add(x, y, sign=1):
    acc = dict(x)
    for m, c in y.items():
        acc[m] = acc.get(m, ZERO) + (c if sign > 0 else -c)
    return _ref_nonzero(acc)


def _ref_mul(x, y, sig):
    acc = {}
    for mx, cx in x.items():
        for my, cy in y.items():
            sign, m = _blade_product_per_bit(mx, my, sig)
            add = cx * cy
            acc[m] = acc.get(m, ZERO) + (add if sign > 0 else -add)
    return _ref_nonzero(acc)


def _ref_graded(x, flip):
    return {m: (-c if flip(grade(m)) else c) for m, c in x.items()}


def _ref_random_multivector(sig, rng, allow_complex_coeffs, max_terms=5):
    """random_multivector's draws, taken with randint and randrange and
    summed in GaussRational arithmetic."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mask = rng.randrange(0, 1 << sig.n)
        re = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        im = Fraction(rng.randint(-5, 5), rng.randint(1, 4)) if allow_complex_coeffs else 0
        terms[mask] = terms.get(mask, ZERO) + GaussRational(re, im)
    return _ref_nonzero(terms)


def _random_rational_terms(sig, rng):
    """Few blades, so that sums and products cancel; zero coefficients and
    unbounded denominators."""
    masks = [rng.randrange(1 << sig.n) for _ in range(3)]
    terms = {}
    for _ in range(rng.randint(0, 4)):
        re = Fraction(rng.randint(-9, 9), rng.randint(1, 30))
        im = Fraction(rng.randint(-9, 9), rng.randint(1, 30)) if rng.random() < 0.6 else 0
        terms[rng.choice(masks)] = GaussRational(re, im)
    return terms


def _assert_canonical(mv):
    assert mv.den > 0
    assert all(re or im for re, im in mv.num.values())
    assert gcd(mv.den, *(part for c in mv.num.values() for part in c)) == 1
    want = Multivector(mv.sig, dict(mv.terms))
    assert mv == want and hash(mv) == hash(want)
    assert mv.terms == {m: mv.coefficient(m) for m in mv.num}


def test_operation_results_match_public_constructor():
    # Every operation of the integer kernel equals the GaussRational-dict
    # reference term by term and is in canonical form.
    rng = random.Random(31)
    sigs = [MetricSignature(p, n - p) for n in range(7) for p in range(n + 1)]
    sigs += [MetricSignature(n, 0, COMPLEX) for n in range(7)]
    # From n = 9 on, the sign mask's prefix-parity loop runs a 4th round.
    for n in range(7, 13):
        p = rng.randint(0, n)
        sigs += [MetricSignature(p, n - p), MetricSignature(n, 0, COMPLEX)]
    for sig in sigs:
        for _ in range(12):
            ta = _random_rational_terms(sig, rng)
            tb = _random_rational_terms(sig, rng)
            a, b = Multivector(sig, ta), Multivector(sig, tb)
            ta, tb = _ref_nonzero(ta), _ref_nonzero(tb)
            s = GaussRational(Fraction(rng.randint(-3, 3), rng.randint(1, 6)), rng.randint(-1, 1))
            cases = [
                (a, ta),
                (a + b, _ref_add(ta, tb)),
                (a - b, _ref_add(ta, tb, -1)),
                (a - a, {}),
                (a + (-a), {}),
                (a + b - b, ta),
                (a * b, _ref_mul(ta, tb, sig)),
                (a * b - b * a, _ref_add(_ref_mul(ta, tb, sig), _ref_mul(tb, ta, sig), -1)),
                (-a, {m: -c for m, c in ta.items()}),
                (a.scale(s), _ref_nonzero({m: c * s for m, c in ta.items()})),
                (a.scale(0), {}),
                (a.grade_involution(), _ref_graded(ta, lambda k: k % 2)),
                (a.reversion(), _ref_graded(ta, lambda k: (k * (k - 1) // 2) % 2)),
                (a.conjugation(), _ref_graded(ta, lambda k: (k * (k + 1) // 2) % 2)),
                (a.complex_conjugation(), {m: c.conjugate() for m, c in ta.items()}),
            ]
            for got, want in cases:
                _assert_canonical(got)
                assert dict(got.terms) == want
                assert got == Multivector(sig, want)
        # The same draws as randint and randrange, and the generator left
        # in the same state.
        for allow in (False, True):
            for max_terms in (1, 5, 8):
                seed = rng.getrandbits(32)
                gen, ref = random.Random(seed), random.Random(seed)
                got = random_multivector(sig, gen, max_terms, allow)
                _assert_canonical(got)
                assert dict(got.terms) == _ref_random_multivector(sig, ref, allow, max_terms)
                assert gen.getstate() == ref.getstate()


def test_random_multivector_rejects_fewer_than_one_term():
    # As randint(1, max_terms) does, rather than drawing forever.
    for max_terms in (0, -1):
        with pytest.raises(ValueError):
            random_multivector(CL13, random.Random(0), max_terms)


def test_terms_is_a_read_only_view():
    mv = Multivector(CL13, {0b0101: Fraction(3, 2), 0: GaussRational(0, 1), 1: 0})
    assert dict(mv.terms) == {0b0101: GaussRational(Fraction(3, 2)), 0: GaussRational(0, 1)}
    assert mv.coefficient(1) == 0
    with pytest.raises(TypeError):
        mv.terms[1] = GaussRational(1)
    with pytest.raises(ValueError, match="out of range"):
        Multivector(CL13, {16: 1})
