import random
from fractions import Fraction

import pytest

from clifcpt.exact import (
    DimensionMismatchError,
    GaussMatrix,
    GaussRational,
    SingularMatrixError,
    format_gauss,
    kron,
    parse_gauss,
)
from gammas import gamma_matrices


def test_scalar_arithmetic_exact():
    a = GaussRational(Fraction(1, 2), Fraction(1, 3))
    b = GaussRational(Fraction(-1, 2), Fraction(2, 3))
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
    assert eye.pm_identity() == 1 and eye.is_identity()
    assert (-eye).pm_identity() == -1 and not (-eye).is_identity()
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


def test_inverse_examples():
    g0, g1, _, _ = gamma_matrices()
    eye = GaussMatrix.identity(4)
    assert eye.inverse() == eye
    assert g0.inverse() == g0  # g0^2 = I
    assert g1.inverse() == -g1  # g1^2 = -I
    assert g0 * g0.inverse() == eye


def _random_matrix(rng, dim):
    return GaussMatrix(
        [
            [
                GaussRational(
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
    rows = []
    for i in range(dim):
        row = []
        for j in range(dim):
            acc = GaussRational(0)
            for k in range(dim):
                acc = acc + a.rows[i][k] * b.rows[k][j]
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
        assert a + (-a) == a.scale(0)
        try:
            ainv, binv = a.inverse(), b.inverse()
        except SingularMatrixError:
            continue
        assert ab.inverse() == binv * ainv
        assert a * ainv == GaussMatrix.identity(dim)


UNITS = (GaussRational(1), GaussRational(-1), GaussRational(0, 1), GaussRational(0, -1))
KINDS = ("dense", "sparse", "monomial", "singular")


def _reference_inverse(a):
    """Dense Gauss-Jordan elimination on the rows view, independent of the
    library's inverse."""
    d = a.dim
    aug = [
        list(row) + [GaussRational(int(i == j)) for j in range(d)] for i, row in enumerate(a.rows)
    ]
    for col in range(d):
        pivot = next((r for r in range(col, d) if not aug[r][col].is_zero()), None)
        if pivot is None:
            raise SingularMatrixError(f"no pivot in column {col}")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [e / pv for e in aug[col]]
        for r in range(d):
            if r != col:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return GaussMatrix([row[d:] for row in aug])


def _reference_kron(a, b):
    db = b.dim
    d = a.dim * db
    return GaussMatrix(
        [[a.rows[i // db][j // db] * b.rows[i % db][j % db] for j in range(d)] for i in range(d)]
    )


def _dense_rows(rng, dim, kind):
    """Seeded dense rows: dense, sparse (about 30% nonzero), signed monomial
    with unit phases, or singular (the last row a multiple of the first)."""
    if kind == "monomial":
        perm = list(range(dim))
        rng.shuffle(perm)
        return [
            [rng.choice(UNITS) if j == perm[i] else GaussRational(0) for j in range(dim)]
            for i in range(dim)
        ]
    keep = 1.0 if kind == "dense" else 0.3
    rows = [
        [_random_scalar(rng) if rng.random() < keep else GaussRational(0) for _ in range(dim)]
        for _ in range(dim)
    ]
    if kind == "singular":
        c = _random_scalar(rng) if dim > 1 else GaussRational(0)
        rows[-1] = [e * c for e in rows[0]]
    return rows


def _assert_matches(got, want):
    """got is in canonical form and equals want, which the public
    constructor built from dense rows, in ==, hash and the rows view."""
    for row in got.entries:
        cols = [j for j, _ in row]
        assert cols == sorted(set(cols)) and all(0 <= j < got.dim for j in cols)
        assert all(not v.is_zero() for _, v in row)
    assert got == want and hash(got) == hash(want)
    assert got.rows == want.rows
    assert GaussMatrix(got.rows) == got


def test_one_representation_agrees_with_dense_reference():
    rng = random.Random(13)
    for trial in range(160):
        kind = KINDS[trial % len(KINDS)]
        dim = rng.randint(1, 8)
        ra, rb = _dense_rows(rng, dim, kind), _dense_rows(rng, dim, rng.choice(KINDS))
        a, b = GaussMatrix(ra), GaussMatrix(rb)
        assert a.rows == tuple(map(tuple, ra))
        s = rng.choice(UNITS + (GaussRational(0), _random_scalar(rng)))
        _assert_matches(a, GaussMatrix(a.rows))
        _assert_matches(a * b, _reference_mul(a, b))
        pairs = [list(zip(r, t)) for r, t in zip(ra, rb)]
        _assert_matches(a + b, GaussMatrix([[x + y for x, y in row] for row in pairs]))
        _assert_matches(a - b, GaussMatrix([[x - y for x, y in row] for row in pairs]))
        _assert_matches(-a, GaussMatrix([[-x for x in r] for r in ra]))
        _assert_matches(a.scale(s), GaussMatrix([[x * s for x in r] for r in ra]))
        _assert_matches(a.transpose(), GaussMatrix([list(col) for col in zip(*ra)]))
        _assert_matches(a.conj(), GaussMatrix([[x.conjugate() for x in r] for r in ra]))
        if dim <= 4:
            _assert_matches(kron(a, b), _reference_kron(a, b))
            _assert_matches(kron(b, a), _reference_kron(b, a))
        try:
            want = _reference_inverse(a)
        except SingularMatrixError:
            assert kind != "monomial"
            with pytest.raises(SingularMatrixError):
                a.inverse()
        else:
            assert kind != "singular"
            _assert_matches(a.inverse(), want)
            _assert_matches(a * a.inverse(), GaussMatrix.identity(dim))


def test_dimension_mismatch_and_singular_errors():
    with pytest.raises(DimensionMismatchError):
        GaussMatrix.identity(2) * GaussMatrix.identity(3)
    with pytest.raises(DimensionMismatchError):
        GaussMatrix([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(SingularMatrixError):
        GaussMatrix([[1, 1], [1, 1]]).inverse()


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


def _random_scalar(rng):
    """A GaussRational with either part possibly zero."""
    parts = [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(2)]
    zeroed = rng.randrange(4)  # 0: real part zero, 1: imaginary part zero, else both kept
    if zeroed < 2:
        parts[zeroed] = Fraction(0)
    return GaussRational(*parts)


def test_arithmetic_results_match_public_constructor():
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
