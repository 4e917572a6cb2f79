"""Seeded bases and a matrix closure for the metamorphic tests.

`conjugated_bases` gives the seeded orthogonal conjugates, transposes and
complex conjugates of canonical bases that the metamorphic tests read back
as basis files and check against `clifcpt.verify.dense_realization`, the
one dense reference of a realization; the Cayley conjugates are the fully
dense ones, every entry over a denominator. `matrix_closure` closes
matrices with the identity of their size, and `kron` is the Kronecker
product, entry by entry.
"""

import random
from fractions import Fraction

from clifcpt.algebra import MetricSignature
from clifcpt.exact import GaussMatrix
from clifcpt.fingroup import signed_closure
from clifcpt.spinrep import SpinBasis, build_spinbasis


def matrix_closure(mats):
    """The signed closure of matrices, with the identity of their size."""
    return signed_closure(mats, GaussMatrix.identity(mats[0].dim))


def kron(a, b):
    """Kronecker product, entry by entry; the left factor varies slowest."""
    db = b.dim
    d = a.dim * db
    return GaussMatrix(
        [[a.rows[i // db][j // db] * b.rows[i % db][j % db] for j in range(d)] for i in range(d)]
    )


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
