import random
from fractions import Fraction
from math import gcd

import pytest

from clifcpt.exact import (
    DimensionMismatchError,
    GaussMatrix,
    GaussRational,
    format_gauss,
    parse_gauss,
)
from dense_reference import Gauss, add, dense_rows, entries, kron, sub
from gammas import gamma_matrices


def test_scalar_arithmetic_exact():
    # The reference arithmetic the dense references below compute in.
    a = Gauss(Fraction(1, 2), Fraction(1, 3))
    b = Gauss(Fraction(-1, 2), Fraction(2, 3))
    assert a + b == GaussRational(0, 1)
    assert a - a == GaussRational(0)
    assert (a - a).is_zero()
    assert a * GaussRational(0, 1) == GaussRational(Fraction(-1, 3), Fraction(1, 2))
    assert (a / a) == GaussRational(1)
    assert a.conjugate().conjugate() == a
    with pytest.raises(ZeroDivisionError):
        a / GaussRational(0)


@pytest.mark.parametrize(
    "value,text",
    [
        (GaussRational(0), "0"),
        (GaussRational(1), "1"),
        (GaussRational(-1), "-1"),
        (GaussRational(Fraction(1, 2)), "1/2"),
        (GaussRational(0, 1), "i"),
        (GaussRational(0, -1), "-i"),
        (GaussRational(0, 3), "3*i"),
        (GaussRational(0, Fraction(-2, 3)), "-2/3*i"),
        (GaussRational(Fraction(1, 2), Fraction(1, 2)), "1/2+1/2*i"),
        (GaussRational(Fraction(1, 2), Fraction(-1, 2)), "1/2-1/2*i"),
        (GaussRational(2, 1), "2+i"),
        (GaussRational(-1, -1), "-1-i"),
    ],
)
def test_scalar_format_and_parse(value, text):
    assert format_gauss(value) == text
    assert parse_gauss(text) == value


def test_parse_gauss_reads_only_the_written_grammar():
    # Spaces may fall anywhere and "*" may be left out; nothing of
    # Fraction's own grammar (points, exponents, underscores) is read, so
    # a value never has more digits than its literal.
    assert parse_gauss("3i") == GaussRational(0, 3)
    assert parse_gauss(" 1/2 + 1/2 * i ") == GaussRational(Fraction(1, 2), Fraction(1, 2))
    for text in ("1e3000000", "1e0", "1.5", "1_000", "*i", "i/2", "1+", "", "i+1", "1/2/3"):
        with pytest.raises(ValueError, match="malformed GaussRational literal"):
            parse_gauss(text)
    with pytest.raises(ValueError, match="zero denominator"):
        parse_gauss("1/0*i")


def test_scalar_parse_roundtrip_random():
    rng = random.Random(7)
    for _ in range(300):
        z = GaussRational(
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        )
        assert parse_gauss(format_gauss(z)) == z


def test_matrix_identity_and_pauli_involution():
    eye = GaussMatrix.identity(3)
    assert eye * eye == eye
    sigma1 = GaussMatrix([[0, 1], [1, 0]])
    assert sigma1 * sigma1 == GaussMatrix.identity(2)
    assert eye.pm_identity() == 1
    assert (-eye).pm_identity() == -1
    assert eye.scale(GaussRational(0, 1)).pm_identity() is None
    assert sigma1.pm_identity() is None
    assert GaussMatrix([[1, 0], [0, -1]]).pm_identity() is None


def test_gamma_products_anticommute():
    g0, g1, g2, g3 = gamma_matrices()
    assert g0 * g1 == -(g1 * g0)
    for a in (g0, g1, g2, g3):
        for b in (g0, g1, g2, g3):
            if a is not b:
                assert a * b == -(b * a)


def test_transpose_examples():
    g0, g1, g2, g3 = gamma_matrices()
    assert g0.transpose() == g0
    assert g1.transpose() == -g1
    assert g2.transpose() == g2  # purely imaginary but symmetric
    assert g3.transpose() == -g3
    eye = GaussMatrix.identity(4)
    assert eye.transpose() == eye


def test_conj_examples():
    g0, g1, g2, _ = gamma_matrices()
    assert g2.conj() == -g2
    assert g0.conj() == g0
    i_eye = GaussMatrix.identity(2).scale(GaussRational(0, 1))
    assert i_eye.conj() == -i_eye
    assert g1.conj() == g1


def _random_matrix(rng, dim):
    return GaussMatrix(
        [
            [
                Gauss(
                    Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                    Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                )
                for _ in range(dim)
            ]
            for _ in range(dim)
        ]
    )


def _reference_mul(a, b):
    """Plain triple-loop product, independent of the library paths."""
    dim = a.dim
    ra, rb = dense_rows(a), dense_rows(b)
    rows = []
    for i in range(dim):
        row = []
        for j in range(dim):
            acc = Gauss(0)
            for k in range(dim):
                acc = acc + ra[i][k] * rb[k][j]
            row.append(acc)
        rows.append(row)
    return GaussMatrix(rows)


def test_random_matrix_properties():
    rng = random.Random(11)
    for _ in range(25):
        dim = rng.randint(1, 4)
        a = _random_matrix(rng, dim)
        b = _random_matrix(rng, dim)
        ab = a * b
        assert ab == _reference_mul(a, b)
        assert ab.transpose() == b.transpose() * a.transpose()
        assert ab.conj() == a.conj() * b.conj()
        assert a.conj().conj() == a
        assert a.transpose().transpose() == a
        assert add(a, -a) == a.scale(0)


UNITS = (Gauss(1), Gauss(-1), Gauss(0, 1), Gauss(0, -1))
KINDS = ("dense", "sparse", "monomial", "singular")


def _dense_rows(rng, dim, kind):
    """Seeded dense rows: dense, sparse (about 30% nonzero), signed monomial
    with unit phases, or singular (the last row a multiple of the first)."""
    if kind == "monomial":
        perm = list(range(dim))
        rng.shuffle(perm)
        return [
            [rng.choice(UNITS) if j == perm[i] else Gauss(0) for j in range(dim)]
            for i in range(dim)
        ]
    keep = 1.0 if kind == "dense" else 0.3
    rows = [
        [_random_scalar(rng) if rng.random() < keep else Gauss(0) for _ in range(dim)]
        for _ in range(dim)
    ]
    if kind == "singular":
        c = _random_scalar(rng) if dim > 1 else Gauss(0)
        rows[-1] = [e * c for e in rows[0]]
    return rows


def _assert_matches(got, want):
    """got is in canonical form and equals want, which the public
    constructor built from dense rows, in ==, hash and the rows view."""
    for row in entries(got):
        cols = [j for j, _ in row]
        assert cols == sorted(set(cols)) and all(0 <= j < got.dim for j in cols)
        assert all(not v.is_zero() for _, v in row)
        for x in (part for _, v in row for part in (v.re, v.im)):
            assert type(x) is Fraction and x.denominator > 0
            assert gcd(x.numerator, x.denominator) == 1
    assert got == want and hash(got) == hash(want)
    assert got.rows == want.rows
    assert GaussMatrix(got.rows) == got


def _assert_product_signed_eq(a, b, c, d):
    """a.product_signed_eq(b, c, d, s) agrees with the built products."""
    ab, cd = a * b, c * d
    assert a.product_signed_eq(b, c, d, 1) == (ab == cd)
    assert a.product_signed_eq(b, c, d, -1) == (ab == -cd)


def test_one_representation_agrees_with_dense_reference():
    rng = random.Random(13)
    for trial in range(160):
        kind = KINDS[trial % len(KINDS)]
        dim = rng.randint(1, 8)
        ra, rb = _dense_rows(rng, dim, kind), _dense_rows(rng, dim, rng.choice(KINDS))
        a, b = GaussMatrix(ra), GaussMatrix(rb)
        assert a.rows == tuple(map(tuple, ra))
        s = rng.choice(UNITS + (Gauss(0), _random_scalar(rng)))
        _assert_matches(a, GaussMatrix(a.rows))
        _assert_matches(a * b, _reference_mul(a, b))
        # A repeated product equals, and hashes equal to, one of fresh copies.
        again, fresh = a * b, GaussMatrix(ra) * GaussMatrix(rb)
        assert again == fresh and hash(again) == hash(fresh)
        # a * I against y * I, with -a's last row taken from b: a near miss
        # for sign -1.
        eye, half = GaussMatrix.identity(dim), Fraction(1, 2)
        near = GaussMatrix([[-x for x in r] for r in ra[:-1]] + [rb[-1]])
        for y in (a, -a, b, -b, near):
            _assert_product_signed_eq(a, eye, y, eye)
        # a * b against c * d: equal, negated, one entry of d changed, and
        # over other common denominators (a * 2 against (a * 1/2) * 4).
        assert a.product_signed_eq(b, a, b, 1) and a.product_signed_eq(b, -a, b, -1)
        bumped = [list(r) for r in rb]
        bumped[trial % dim][3 * trial % dim] += 1
        others = ((a, b), (-a, b), (a, -b), (a, GaussMatrix(bumped)), (b, a))
        for c, d in others + ((a.scale(half), b.scale(2)),):
            _assert_product_signed_eq(a, b, c, d)
        _assert_product_signed_eq(a, eye.scale(2), a.scale(half), eye.scale(4))
        if dim > 1:
            # Column 1 of c is its column 0 and row 1 of d is minus its row 0,
            # so those terms of c * d cancel to exact zeros (whole rows at
            # dim 2); d0 drops both rows.
            c = GaussMatrix([[r[0], r[0], *r[2:]] for r in ra])
            d = GaussMatrix([rb[0], [-x for x in rb[0]], *rb[2:]])
            d0 = GaussMatrix([[0] * dim, [0] * dim, *rb[2:]])
            assert c.product_signed_eq(d, c, d0, 1)
            _assert_product_signed_eq(c, d, c, d0)
        pairs = [list(zip(r, t)) for r, t in zip(ra, rb)]
        _assert_matches(add(a, b), GaussMatrix([[x + y for x, y in row] for row in pairs]))
        _assert_matches(sub(a, b), GaussMatrix([[x - y for x, y in row] for row in pairs]))
        _assert_matches(-a, GaussMatrix([[-x for x in r] for r in ra]))
        _assert_matches(a.scale(s), GaussMatrix([[x * s for x in r] for r in ra]))
        _assert_matches(a.transpose(), GaussMatrix([list(col) for col in zip(*ra)]))
        _assert_matches(a.conj(), GaussMatrix([[x.conjugate() for x in r] for r in ra]))
    # a times its adjugate is det(a) * I: the off-diagonal entries cancel to
    # exact zeros, and all entries do when a is singular.
    for kind in ("dense", "singular"):
        (x, y), (z, w) = _dense_rows(rng, 2, kind)
        a, adj = GaussMatrix([[x, y], [z, w]]), GaussMatrix([[w, -y], [-z, x]])
        det = x * w - y * z
        assert entries(a * adj) == tuple(((i, det),) if det else () for i in range(2))
        _assert_matches(a * adj, _reference_mul(a, adj))
        eye = GaussMatrix.identity(2)
        for c, d in ((eye.scale(det), eye), (adj, a), (eye, a)):
            _assert_product_signed_eq(a, adj, c, d)


def _assert_lowest_terms(m):
    """m's stored form is canonical: ints only, den > 0, nonzero parts
    only, columns increasing and gcd(den, every part) == 1."""
    assert type(m.den) is int and m.den > 0
    for row in m.num:
        cols = [j for j, _, _ in row]
        assert cols == sorted(set(cols)) and all(0 <= j < m.dim for j in cols)
        assert all(type(re) is int and type(im) is int and (re or im) for _, re, im in row)
    assert gcd(m.den, *(x for row in m.num for _, re, im in row for x in (re, im))) == 1


def test_every_result_is_stored_in_lowest_terms():
    # Seeded dense matrices over non-unit denominators (an entry 1/7 makes
    # sure of one): every result below is in lowest terms, and equal values
    # reached by different routes are == and hash-equal, because equality
    # and hashing read the stored ints alone.
    rng = random.Random(41)
    half = Fraction(1, 2)
    for trial in range(60):
        dim = rng.randint(1, 4)
        ra = _dense_rows(rng, dim, "dense")
        ra[0][0] = Gauss(Fraction(1, 7))
        a, b = GaussMatrix(ra), GaussMatrix(_dense_rows(rng, dim, KINDS[trial % len(KINDS)]))
        s = _random_scalar(rng)
        assert a.den % 7 == 0
        results = [a * b, b * a, add(a, b), sub(a, b), a.scale(s), a.scale(half)]
        results += [a.transpose(), a.conj(), -a, GaussMatrix.from_strings(a.to_strings())]
        for m in results:
            _assert_lowest_terms(m)
        routes = [
            (a.scale(half).scale(2), a),
            (add(a, a).scale(half), a),
            (add(sub(a, b), b), a),
            (sub(a.scale(3), a.scale(2)), a),
            (a.scale(2) * b.scale(half), a * b),
            (GaussMatrix.from_strings(a.to_strings()), a),
            (GaussMatrix.identity(dim).scale(7) * a.scale(Fraction(1, 7)), a),
        ]
        for got, want in routes:
            _assert_lowest_terms(got)
            assert got == want and hash(got) == hash(want)


def test_dimension_mismatch_errors():
    two, three = GaussMatrix.identity(2), GaussMatrix.identity(3)
    with pytest.raises(DimensionMismatchError, match="cannot multiply dims 2 and 3"):
        two * three
    with pytest.raises(DimensionMismatchError):
        GaussMatrix([[1, 2, 3], [4, 5, 6]])
    # A comparison raises when either of its products would, and products
    # of two different dims compare unequal.
    with pytest.raises(DimensionMismatchError):
        two.product_signed_eq(three, two, two, 1)
    with pytest.raises(DimensionMismatchError):
        two.product_signed_eq(two, two, three, -1)
    assert two.product_signed_eq(two, three, three, 1) is False
    assert three.product_signed_eq(three, two, two, -1) is False


def _gm(rows):
    """A matrix from rows of ints, "a/b" strings and (re, im) pairs."""

    def entry(e):
        parts = e if isinstance(e, tuple) else (e,)
        return GaussRational(*map(Fraction, parts))

    return GaussMatrix([[entry(e) for e in row] for row in rows])


# Row 0 has one entry, row 1 three, row 2 none and row 3 one imaginary one.
MIXED = [[0, 0, "2", 0], ["1/2", (0, 1), 0, -3], [0] * 4, [0, 0, 0, (1, -2)]]
DENSE = [[(1, 1), 2, "-1/3", 0], [1, 0, (0, -1), 5], [3, "1/5", 1, 1], [0, (2, 3), 0, 1]]
# Monomial rows whose single entries carry imaginary parts.
MONO = [[0, (0, 2), 0, 0], [(3, -1), 0, 0, 0], [0, 0, 0, (0, "-1/2")], [0, 0, -1, 0]]
# In ONES * CANCEL, row 0 cancels to zero in columns 0 and 1 but not 2,
# and row 1 cancels to zero throughout.
ONES = [[1, 1, 0, 0], [0, 1, 1, 0], [1, 0, 0, 0], [0, 0, 0, 1]]
CANCEL = [[1, 2, 1, 0], [-1, -2, 1, 0], [1, 2, -1, 0], [0, 0, 0, (0, 1)]]


def test_row_kernel_against_literal_products():
    mats = [_gm(rows) for rows in (MIXED, DENSE, MONO, ONES, CANCEL)]
    for a in mats:
        for b in mats:
            _assert_matches(a * b, _reference_mul(a, b))
    row0, row1, _, _ = (_gm(ONES) * _gm(CANCEL)).num
    assert [j for j, _, _ in row0] == [2] and row1 == ()


def _literal_signed_eq(a, b, c, d, sign):
    want = _reference_mul(c, d)
    return _reference_mul(a, b) == (want if sign > 0 else want.scale(-1))


def test_product_signed_eq_against_literal_products():
    mixed, dense, mono = _gm(MIXED), _gm(DENSE), _gm(MONO)
    ones, cancel = _gm(ONES), _gm(CANCEL)
    bumped = dense_rows(dense.scale(-3))
    bumped[1][2] += 1
    quads = [
        (mixed, dense, mixed, dense),
        (mono, dense, mono, dense),
        (ones, cancel, ones, cancel),
        (ones, cancel, ones.scale(-1), cancel),
        # The cancelled entries of ones * cancel against no entries at all.
        (ones, cancel, _reference_mul(ones, cancel), GaussMatrix.identity(4)),
        # Unequal denominators, the right side -1 times the left: the
        # factors 1/3 and -3, and -1/7 and 7, spread over c and d.
        (mixed, dense, mixed.scale(Fraction(1, 3)), dense.scale(-3)),
        (mono.scale(Fraction(-1, 7)), dense, mono.scale(-1), dense.scale(Fraction(-1, 7))),
        (mono, mixed.scale(Fraction(2, 5)), mono.scale(-2), mixed.scale(Fraction(1, 5))),
        # A near miss: one entry of d changed.
        (mixed, dense, mixed.scale(Fraction(1, 3)), GaussMatrix(bumped)),
        (mono, mono, mono, mono.scale(-1)),
    ]
    seen = set()
    for a, b, c, d in quads:
        for sign in (1, -1):
            got = a.product_signed_eq(b, c, d, sign)
            assert got == _literal_signed_eq(a, b, c, d, sign)
            seen.add((got, sign))
    assert seen == {(True, 1), (True, -1), (False, 1), (False, -1)}


# One-entry rows throughout, imaginary parts and a denominator included;
# MONO's row 3 (real) is the one row selecting row 2 of PERM.
PERM = [[0, 0, 1, 0], [-1, 0, 0, 0], [0, 0, 0, (0, 1)], [0, "1/2", 0, 0]]
# One-entry rows and one zero row.
MONO_ZERO = [[0, (0, 2), 0, 0], [0] * 4, [0, 0, 0, (1, -1)], [(0, -1), 0, 0, 0]]


def _with_row(rows, i, row):
    return [row if k == i else r for k, r in enumerate(rows)]


def test_one_entry_rows_against_literal_products():
    mono, perm, zero = _gm(MONO), _gm(PERM), _gm(MONO_ZERO)
    mixed, dense, eye = _gm(MIXED), _gm(DENSE), GaussMatrix.identity(4)
    mats = [mono, perm, zero, mixed, dense]
    for a in mats:
        for b in mats:
            _assert_matches(a * b, _reference_mul(a, b))
    # PERM with row 1 moved to another column, and PERM with row 2 (i at
    # column 3, which MONO's real row 3 selects) changed in its real or its
    # imaginary part: mono * d then differs from mono * perm in one column
    # only, or in one entry's real or imaginary part only.
    column = _gm(_with_row(PERM, 1, [0, 0, 0, -1]))
    real_part = _gm(_with_row(PERM, 2, [0, 0, 0, (1, 1)]))
    imag_part = _gm(_with_row(PERM, 2, [0, 0, 0, (0, 2)]))
    quads = [
        # Every row on all four sides holds one entry.
        (mono, perm, mono, perm),
        (mono, perm, mono * perm, eye),
        (mono, perm, mono, column),
        (mono, perm, mono, real_part),
        (mono, perm, mono, imag_part),
        # Zero rows, selected and selecting.
        (zero, perm, zero, perm),
        (zero, perm, mono, perm),
        (mono, zero, mono, zero),
        (mono, mixed, mono * mixed, eye),
        # One entry on only some sides.
        (mono, dense, mono, dense),
        (mixed, perm, mixed, perm),
        (perm, mixed, perm * mixed, eye),
        (eye, perm * mixed, perm, mixed),
    ]
    seen = set()
    for a, b, c, d in quads:
        # The second form spreads unequal denominators and a sign -1 over
        # c and d: c * d becomes -(c * d).
        for cc, dd, flip in ((c, d, 1), (c.scale(Fraction(1, 3)), d.scale(-3), -1)):
            for sign in (1, -1):
                got = a.product_signed_eq(b, cc, dd, sign)
                assert got == _literal_signed_eq(a, b, c, d, sign * flip), (a, b, c, d, sign, flip)
                seen.add((got, sign))
    assert seen == {(True, 1), (True, -1), (False, 1), (False, -1)}
    for d in (column, real_part, imag_part):
        assert not mono.product_signed_eq(perm, mono, d, 1)
        assert not mono.product_signed_eq(perm, mono, d, -1)


def test_matrix_string_roundtrip():
    g0, g1, g2, g3 = gamma_matrices()
    for g in (g0, g1, g2, g3):
        assert GaussMatrix.from_strings(g.to_strings()) == g


def test_kron_block_structure():
    s1 = GaussMatrix([[0, 1], [1, 0]])
    s3 = GaussMatrix([[1, 0], [0, -1]])
    k = kron(s3, s1)
    assert k.dim == 4
    assert k.rows[0][1] == GaussRational(1)
    assert k.rows[2][3] == GaussRational(-1)
    assert k * k == GaussMatrix.identity(4)


DENOMINATORS = (1, 2, 3, 4, 5, 7, 9, 13, 25, 49)


def _random_scalar(rng):
    """A GaussRational with either part possibly zero; the denominators
    include large and pairwise coprime ones."""
    parts = [Fraction(rng.randint(-6, 6), rng.choice(DENOMINATORS)) for _ in range(2)]
    zeroed = rng.randrange(4)  # 0: real part zero, 1: imaginary part zero, else both kept
    if zeroed < 2:
        parts[zeroed] = Fraction(0)
    return Gauss(*parts)


def test_arithmetic_results_match_public_constructor():
    # The reference arithmetic against the public constructor.
    rng = random.Random(29)
    for _ in range(400):
        a, b = _random_scalar(rng), _random_scalar(rng)
        ar, ai, br, bi = a.re, a.im, b.re, b.im
        cases = [
            (a + b, (ar + br, ai + bi)),
            (a - b, (ar - br, ai - bi)),
            (a * b, (ar * br - ai * bi, ar * bi + ai * br)),
            (-a, (-ar, -ai)),
            (a.conjugate(), (ar, -ai)),
            (a * 3, (ar * 3, ai * 3)),
            (2 - a, (2 - ar, -ai)),
        ]
        if not b.is_zero():
            norm = br * br + bi * bi
            cases.append((a / b, ((ar * br + ai * bi) / norm, (ai * br - ar * bi) / norm)))
        for got, (re, im) in cases:
            want = GaussRational(re, im)
            assert type(got.re) is Fraction and type(got.im) is Fraction
            assert got == want and hash(got) == hash(want)
