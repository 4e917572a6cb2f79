"""Seeded bases, dense arithmetic and a matrix closure for the tests.

`conjugated_bases` gives the seeded orthogonal conjugates, transposes and
complex conjugates of canonical bases that the metamorphic tests read back
as basis files and check against `clifcpt.verify.dense_realization`, the
one dense reference of a realization; the Cayley conjugates are the fully
dense ones, every entry over a denominator. `matrix_closure` closes
matrices with the identity of their size, and `kron` is the Kronecker
product, entry by entry.

The library computes on integer numerators and has no scalar arithmetic,
no matrix sums and no representation of a multivector by matrices; the
references here supply them: `Gauss`, a `GaussRational` with exact
arithmetic, `dense_rows` and `entries`, views of a matrix in `Gauss`
values, `add` and `sub`, matrix sums, and `represent`, the linear
extension of generator substitution.
"""

import random
from fractions import Fraction
from math import gcd

from clifcpt.algebra import MetricSignature
from clifcpt.exact import GaussMatrix, GaussRational, _canonical_row
from clifcpt.fingroup import signed_closure
from clifcpt.spinrep import SpinBasis, build_spinbasis, product_over


class Gauss(GaussRational):
    """A GaussRational with exact arithmetic; each result is a Gauss. An
    operand may be a GaussRational, a Fraction or an int."""

    __slots__ = ()

    @classmethod
    def of(cls, value):
        if isinstance(value, cls):
            return value
        if isinstance(value, GaussRational):
            return cls(value.re, value.im)
        return cls(value)

    def __add__(self, other):
        other = Gauss.of(other)
        return Gauss(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        other = Gauss.of(other)
        return Gauss(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        other = Gauss.of(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        return Gauss(a * c - b * d, a * d + b * c)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return Gauss.of(other) - self

    def __truediv__(self, other):
        other = Gauss.of(other)
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("division by zero GaussRational")
        return Gauss(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __neg__(self):
        return Gauss(-self.re, -self.im)

    def conjugate(self):
        return Gauss(self.re, -self.im)

    def is_zero(self):
        return self.re == 0 and self.im == 0

    def __bool__(self):
        return not self.is_zero()


def dense_rows(m):
    """m's rows view, each entry a Gauss."""
    return [[Gauss.of(e) for e in row] for row in m.rows]


def entries(m):
    """m's nonzeros: each row's (column, Gauss value) pairs."""
    return tuple(
        tuple((j, Gauss(Fraction(re, m.den), Fraction(im, m.den))) for j, re, im in row) for row in m.num
    )


def add(a, b):
    """a + b, formed on the integer numerators over the common denominator."""
    g = gcd(a.den, b.den)
    fa, fb = b.den // g, a.den // g
    out = []
    for ra, rb in zip(a.num, b.num):
        acc = {j: (re * fa, im * fa) for j, re, im in ra}
        for j, re, im in rb:
            old = acc.get(j, (0, 0))
            acc[j] = (old[0] + re * fb, old[1] + im * fb)
        out.append(_canonical_row(acc))
    return GaussMatrix._make(a.dim, tuple(out), a.den * fa)


def sub(a, b):
    return add(a, -b)


def represent(basis, mv):
    """Linear extension of generator substitution; an algebra homomorphism."""
    if mv.sig != basis.sig:
        raise ValueError("multivector and basis signatures differ")
    acc = GaussMatrix.identity(basis.dim).scale(0)
    for mask, (re, im) in mv.num.items():
        coeff = GaussRational(Fraction(re, mv.den), Fraction(im, mv.den))
        acc = add(acc, product_over(basis, mask).scale(coeff))
    return acc


def matrix_closure(mats):
    """The signed closure of matrices, with the identity of their size."""
    return signed_closure(mats, GaussMatrix.identity(mats[0].dim))


def kron(a, b):
    """Kronecker product, entry by entry; the left factor varies slowest."""
    db = b.dim
    d = a.dim * db
    ra, rb = dense_rows(a), dense_rows(b)
    return GaussMatrix([[ra[i // db][j // db] * rb[i % db][j % db] for j in range(d)] for i in range(d)])


def signed_permutation(rng, dim):
    perm = list(range(dim))
    rng.shuffle(perm)
    return GaussMatrix(
        [[rng.choice((1, -1)) if j == perm[i] else 0 for j in range(dim)] for i in range(dim)]
    )


def givens(rng, dim):
    """A rational rotation by cos 3/5, sin 4/5 in a seeded coordinate plane."""
    a, b = rng.sample(range(dim), 2)
    rows = [[int(i == j) for j in range(dim)] for i in range(dim)]
    rows[a][a] = rows[b][b] = Fraction(3, 5)
    rows[a][b], rows[b][a] = Fraction(-4, 5), Fraction(4, 5)
    return GaussMatrix(rows)


def _inverse(rows):
    """Gauss-Jordan inverse of a nonsingular square matrix given as rows of
    Fractions, independent of the library."""
    d = len(rows)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(d)] for i, row in enumerate(rows)]
    for col in range(d):
        pivot = next(r for r in range(col, d) if aug[r][col])
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(d):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[d:] for row in aug]


def cayley(rng, dim):
    """The Cayley transform Q = (I - A)(I + A)^-1 of a seeded rational
    skew-symmetric A: exactly orthogonal, and dense. I + A is invertible
    because A's eigenvalues are imaginary."""
    a = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            a[i][j] = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            a[j][i] = -a[i][j]
    minus = [[int(i == j) - a[i][j] for j in range(dim)] for i in range(dim)]
    plus = [[int(i == j) + a[i][j] for j in range(dim)] for i in range(dim)]
    return GaussMatrix(minus) * GaussMatrix(_inverse(plus))


def conjugated_bases():
    """(kind, M, basis) from canonical real bases: with n in (2, 4, 6),
    generators M g M^T under a seeded signed permutation M, which keeps
    them monomial, and every generator transposed or complex-conjugated
    (M is None); with n = 4, M g M^T under a seeded Givens rotation, which
    makes them dense; with n in (4, 6), under a seeded Cayley transform,
    which makes every entry nonzero over a common denominator."""
    rng = random.Random(31)
    cases = [(p, n - p, signed_permutation) for n in (2, 4, 6) for p in range(n + 1)]
    cases += [(p, 4 - p, givens) for p in range(5)]
    cases += [(p, n - p, cayley) for n in (4, 6) for p in range(n + 1)]
    out = []
    for p, q, make in cases:
        canonical = build_spinbasis(MetricSignature(p, q))
        m = make(rng, canonical.dim)
        mt = m.transpose()
        gens = tuple(m * g * mt for g in canonical.gens)
        out.append((make.__name__, m, SpinBasis(canonical.sig, gens, "conjugated")))
    for n in (2, 4, 6):
        for p in range(n + 1):
            canonical = build_spinbasis(MetricSignature(p, n - p))
            for kind in ("transpose", "conj"):
                gens = tuple(getattr(g, kind)() for g in canonical.gens)
                out.append((kind, None, SpinBasis(canonical.sig, gens, "conjugated")))
    return out
