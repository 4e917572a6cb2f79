"""Test-local dense reference for the realization stage.

`dense_realizations` builds each realization's eight matrices as literal
matrix products, the construction the package used before it moved to
signed blades: W over all generators, both E and both Pi candidates
filtered by the intertwining conditions and deduplicated as matrices, then
C = E * W^T, K = Pi * W, S = Pi * E and F = Pi * C, checked and closed
as matrices. Each condition is tested on literal matrix products compared
with ==, not through `autmat.check`. `conjugated_bases` gives the seeded
orthogonal conjugates, transposes and complex conjugates of canonical
bases that the metamorphic tests read back as basis files; the Cayley
conjugates are the fully dense ones, every entry over a denominator.
"""

import random
from fractions import Fraction

from clifcpt.algebra import MetricSignature
from clifcpt.autmat import CONDITIONS, ELEMENT_NAMES, read_signs
from clifcpt.exact import GaussMatrix
from clifcpt.fingroup import identify_abstract, order_structure, signed_closure
from clifcpt.spinrep import SpinBasis, build_spinbasis, product_over


def matrix_closure(mats):
    """The signed closure of matrices, with the identity of their size."""
    return signed_closure(mats, GaussMatrix.identity(mats[0].dim))


def _sign_against(m, ref):
    """The sign s with m == s * ref."""
    if m == ref:
        return 1
    assert m == -ref, "not a signed increasing-index generator product"
    return -1


def _meets(name, m, basis):
    """Whether m * g' == sign * g * m on every generator g, for the
    (transpose, conjugate, sign) of element `name`."""
    transpose, conjugate, sign = CONDITIONS[name]
    for g in basis.gens:
        primed = g.transpose() if transpose else g
        primed = primed.conj() if conjugate else primed
        if m * primed != (g * m).scale(sign):
            return False
    return True


def _survivors(basis, name, candidates):
    """The (matrix, choice, mask) of each candidate product that meets the
    condition of `name`, deduplicated as matrices."""
    out = []
    for mask, choice in candidates:
        m = product_over(basis, mask)
        if _meets(name, m, basis) and all(m != kept for kept, _, _ in out):
            out.append((m, choice, mask))
    assert out, f"no {name} candidate survives"
    return out


def candidates(prof):
    """Both (mask, choice) candidates of E and of Pi, written out apart
    from the package's choice rule: E from the antisymmetric or the
    symmetric generators, Pi from the imaginary ones (the identity when
    there are none) or the real ones."""
    imag = prof.mask(real=False)
    return {
        "E": [(prof.mask(sym=False), "skew_product"), (prof.sym_mask, "sym_product")],
        "Pi": [(imag, "complex_product" if imag else "identity"), (prof.real_mask, "real_product")],
    }


def dense_realizations(basis):
    """One dict per realization, deduplicated by (signature, commutation)
    in the package's (E, Pi) order."""
    prof = basis.profile
    full = (1 << basis.sig.n) - 1
    eye = GaussMatrix.identity(basis.dim)
    w = product_over(basis, full)
    assert _meets("W", w, basis)
    both = candidates(prof)
    es = _survivors(basis, "E", both["E"])
    pis = _survivors(basis, "Pi", both["Pi"])
    out, seen = [], set()
    for e, e_choice, e_mask in es:
        for pi, pi_choice, pi_mask in pis:
            c = e * w.transpose()
            mats = [eye, w, e, c, pi, pi * w, pi * e, pi * c]
            for name, m in zip(ELEMENT_NAMES[1:], mats[1:]):
                assert _meets(name, m, basis), name
            masks = {
                "W": full,
                "E": e_mask,
                "C": full ^ e_mask,
                "Pi": pi_mask,
                "K": pi_mask ^ full,
                "S": pi_mask ^ e_mask,
                "F": pi_mask ^ full ^ e_mask,
            }
            reps = [eye] + [product_over(basis, masks[name]) for name in ELEMENT_NAMES[1:]]
            group = signed_closure(mats, eye)
            signature, commutation = read_signs(group)
            if (signature, commutation) in seen:
                continue
            seen.add((signature, commutation))
            out.append(
                {
                    "choices": (e_choice, pi_choice),
                    "masks": masks,
                    "rep_signs": {
                        name: _sign_against(m, rep)
                        for name, m, rep in zip(ELEMENT_NAMES[1:], mats[1:], reps[1:])
                    },
                    "matrices": mats,
                    "signature": signature,
                    "commutation": commutation,
                    "order": group.order,
                    "contains_minus_I": group.contains_minus_I,
                    "abstract": identify_abstract(group),
                    "order_counts": order_structure(reps),
                }
            )
    return out


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
