"""Construction and certification of the seven discrete-symmetry elements
W, E, C, Pi, K, S, F for a certified spin basis.

Each element is a signed basis blade +-e_A of Cl(p,q), held as an int
with the mask A in bits 0..n-1 and the sign in bit n, and built and
closed with `algebra.signed_blade_mul`, the geometric product's sign
rule on such ints. Its matrix, the signed increasing-index product of
the generators in A, must satisfy the element's defining intertwining
condition M g' M^-1 = +-g exhaustively over all generators, tested in
the equivalent form M g' = +-g M (as a parity of bits when every
generator is a Pauli word, `word_conditions`):

    W  g         = -g W          (grade involution)
    E  g^T       =  g E          (reversion)
    C  g^T       = -g C          (conjugation, C = E W^T)
    Pi conj(g)   =  g Pi         (pseudo map, K = Pi W etc.)
    K  conj(g)   = -g K
    S  conj(g^T) =  g S
    F  conj(g^T) = -g F

Soundness of computing with blades: certification proves the Clifford
relations, the squares, even n and dimension 2^(n/2), so the generators
represent the central simple algebra Cl(p,q) (tensored with C) on its
irreducible module. The 2^n blade matrices are then linearly independent,
so +-e_A <-> its matrix product_over(A) is a bijection that respects
products: two signed blades are equal exactly when their matrices are,
and the closures of the eight blades and of the eight matrices are
isomorphic, with the same table in the same insertion order (the tests
check this element by element). Each certified generator is also
purely symmetric or antisymmetric, so W^T = g_n^T ... g_1^T is a signed
blade too.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .algebra import blade_indices, grade, signed_blade_mul
from .covering import PredictedRealization, predict_realization
from .exact import GaussMatrix
from .fingroup import SignedGroup, signed_closure
from .spinrep import SpinBasis, as_word, as_words, product_over

ELEMENT_NAMES = ("I", "W", "E", "C", "Pi", "K", "S", "F")

# The intertwining condition of each element as (transpose, conjugate,
# sign): M * g' = sign * g * M on every generator g, where g' is g,
# transposed and/or complex-conjugated as flagged.
CONDITIONS = {
    "W": (False, False, -1),
    "E": (True, False, +1),
    "C": (True, False, -1),
    "Pi": (False, True, +1),
    "K": (False, True, -1),
    "S": (True, True, +1),
    "F": (True, True, -1),
}


class ConditionError(RuntimeError):
    """An automorphism matrix fails its defining intertwining condition."""


SigTuple = tuple[int, int, int, int, int, int, int]


def conditions(basis: SpinBasis) -> Callable[[str, GaussMatrix], list[str]]:
    """The intertwining test of `basis`: (name, m) -> the generators on
    which m fails the condition of element `name`, tested as
    m * g' == sign * g * m, the conjugation form for an invertible m. Every
    m tested is a product of certified generators, each squaring to +-I,
    so it is invertible. The g' are formed once per call, from the
    matrices themselves (not from the certified profile). Neither product
    is built: the comparison runs on their integer numerators."""
    gens = basis.gens
    transposed = tuple(g.transpose() for g in gens)
    primed = {
        (False, False): gens,
        (True, False): transposed,
        (False, True): tuple(g.conj() for g in gens),
        (True, True): tuple(g.conj() for g in transposed),
    }

    def failures(name: str, m: GaussMatrix) -> list[str]:
        transpose, conjugate, sign = CONDITIONS[name]
        return [
            f"{name} condition fails on generator {i}"
            for i, (g, t) in enumerate(zip(gens, primed[transpose, conjugate]), start=1)
            if not m.product_signed_eq(t, g, m, sign)
        ]

    return failures


def word_conditions(basis: SpinBasis) -> Callable[[str, GaussMatrix], list[str]] | None:
    """The test of `conditions` as parities of bits, for a basis whose
    generators `spinrep.as_words` reads as Pauli words; None for any
    other basis.

    A word g = phase X^x Z^z has g^T = (-1)^|x & z| g (`certify_spinbasis`)
    and conj(g) = conj(phase) X^x Z^z, which is -g exactly when the phase
    is imaginary; so g' = kappa_g g, kappa_g the product of the signs that
    the condition's flags select. Words multiply to a word:
    (a X^x Z^z)(b X^u Z^v) = ab (-1)^|z & u| X^(x ^ u) Z^(z ^ v), with ab
    a unit again. So m, a product of generators, is a word, read back off
    its matrix, and m g = (-1)^(|x_m & z_g| + |z_m & x_g|) g m
    (`pauli_word`). As g m is invertible, m g' = sign g m holds exactly
    when (-1)^(|x_m & z_g| + |z_m & x_g|) kappa_g = sign, that is when
    the two overlaps and the sign bits of kappa_g and `sign` add up to
    an even count. An m that is not a word raises ConditionError."""
    words = as_words(basis.gens)
    if words is None:
        return None
    # x, z and the sign bits of kappa_g from a transpose and a conjugation.
    traits = [(x, z, (x & z).bit_count() & 1, 1 if phase.im else 0) for phase, x, z in words]

    def failures(name: str, m: GaussMatrix) -> list[str]:
        transpose, conjugate, sign = CONDITIONS[name]
        word = as_word(m)
        if word is None:
            raise ConditionError(f"{name} matrix is not a Pauli word")
        _, xm, zm = word
        return [
            f"{name} condition fails on generator {i}"
            for i, (x, z, skew, imag) in enumerate(traits, start=1)
            if (
                (xm & z).bit_count() + (zm & x).bit_count()
                + (sign < 0) + transpose * skew + conjugate * imag
            ) & 1
        ]

    return failures


def read_signs(group: SignedGroup) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Square signs of the generators after the first (W, E, C, ... in
    ELEMENT_NAMES order) and the sign eps with X*Y = eps * Y*X for each
    ordered pair of generators, read off the closure's table; every
    square must be +-I and every pair must commute or anticommute."""
    mul, gens, minus = group.mul, group.generators, group.minus_identity

    def sign(k: int, plus: int, failure: str) -> int:
        # +1 when element k is element plus, -1 when it is its negative.
        if k == plus:
            return 1
        if minus is not None and k == mul[minus][plus]:
            return -1
        raise ConditionError(failure)

    squares = tuple(
        sign(mul[i][i], group.identity, f"{name}^2 is not +-I; broken construction")
        for name, i in zip(ELEMENT_NAMES[1:], gens[1:])
    )
    failure = "a pair of automorphism matrices neither commutes nor anticommutes"
    table = tuple(tuple(sign(mul[i][j], mul[j][i], failure) for j in gens) for i in gens)
    return squares, table


def is_abelian(table: tuple[tuple[int, ...], ...]) -> bool:
    return all(s == 1 for row in table for s in row)


class Realization(NamedTuple):
    """One CPT realization: the signed blades I, W, E, C, Pi, K, S, F
    (held by their signed closure), the prediction they were built from
    (which holds their generator masks), their signs against the
    increasing-index products, and the square and commutation signs read
    off the closure's table."""

    basis: SpinBasis
    predicted: PredictedRealization  # the (E, Pi) choices and masks come from here
    rep_signs: dict  # element name -> +-1 vs increasing-index product
    group: SignedGroup  # closure of the eight signed blades, as ints
    signature: SigTuple
    commutation: tuple[tuple[int, ...], ...]

    @property
    def abelian(self) -> bool:
        return is_abelian(self.commutation)

    @property
    def aut_abelian(self) -> bool:
        """Whether W, E and C, elements 1 to 3, commute."""
        return is_abelian(tuple(row[1:4] for row in self.commutation[1:4]))

    @property
    def order_counts(self) -> tuple[int, int]:
        """(count of order-2, count of order-4) among the representatives
        other than I; a representative is I exactly when its element is +-I."""
        g = self.group
        pm_eye = (g.identity, g.minus_identity)
        squares = [s for i, s in zip(g.generators[1:], self.signature) if i not in pm_eye]
        return squares.count(1), squares.count(-1)


def realize(basis: SpinBasis) -> Realization:
    """The one CPT realization of the certified `basis`. W is the product
    of all generators, and E and Pi are the products that the choice rule
    of `predict_realization` names on `basis.profile`; C = E W^T,
    K = Pi W, S = Pi E and F = Pi C are blade products. Each of the seven
    is checked on its generator product, by `word_conditions` on a basis
    of Pauli words and by `conditions` on any other, and the signs are
    read off the closure of all eight blades. For even n the other
    candidate of each pair fails its condition (`verify` checks this), so
    no other realization exists."""
    prof = basis.profile
    pred = predict_realization(prof)
    n = basis.sig.n
    minus = 1 << n  # the sign bit of a signed blade (see `signed_blade_mul`)
    mul = signed_blade_mul(basis.sig)
    w, e, pi = (pred.masks[name] for name in ("W", "E", "Pi"))
    # W^T = g_n^T ... g_1^T: reversing n factors takes n(n-1)/2 swaps, and
    # each antisymmetric generator contributes a sign.
    wt_negated = (n * (n - 1) // 2 + grade(prof.mask(sym=False))) & 1
    c = mul(e, w ^ minus if wt_negated else w)
    built = dict(zip(ELEMENT_NAMES[1:], (w, e, c, pi, mul(pi, w), mul(pi, e), mul(pi, c))))
    test, rep_signs = word_conditions(basis) or conditions(basis), {}
    for name, x in built.items():
        # A signed blade's mask is the XOR of its factors' masks, the
        # predicted mask, and its sign bit is its sign.
        rep_signs[name] = -1 if x & minus else 1
        # M g' = +-g M is linear in M, so the unsigned product stands for +-M.
        bad = test(name, product_over(basis, pred.masks[name]))
        if bad:
            raise ConditionError("; ".join(bad))
    group = signed_closure((0, *built.values()), 0, mul, minus)
    signature, commutation = read_signs(group)
    return Realization(basis, pred, rep_signs, group, signature, commutation)


def mask_label(mask: int, physics_indices: bool = False) -> str:
    """ASCII label for a generator product: e.g. "g13" (slots) or, with
    physics indexing (slot i -> index i-1, the gamma convention), "g02"."""
    idx = blade_indices(mask)
    if physics_indices:
        idx = [i - 1 for i in idx]
    if not idx:
        return "1"
    return "g" + "".join(str(i) for i in idx)
