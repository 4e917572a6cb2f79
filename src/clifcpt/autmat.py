"""Construction and certification of the seven discrete-symmetry matrices
W, E, C, Pi, K, S, F for a certified spin basis.

Each matrix is a signed product of generator matrices and must satisfy
its defining intertwining condition exhaustively over all generators:

    W  g W^-1            = -g          (grade involution)
    E  g^T E^-1          =  g          (reversion)
    C  g^T C^-1          = -g          (conjugation, C = E W^T)
    Pi conj(g) Pi^-1     =  g          (pseudo map, K = Pi W etc.)
    K  conj(g) K^-1      = -g
    S  conj(g^T) S^-1    =  g
    F  conj(g^T) F^-1    = -g
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import blade_indices, grade
from .exact import GaussMatrix
from .fingroup import SignedGroup, signed_closure
from .spinrep import SpinBasis, certify_spinbasis, product_over

ELEMENT_NAMES = ("I", "W", "E", "C", "Pi", "K", "S", "F")

# The intertwining condition of each element as (transpose, conjugate,
# sign): M * g' * M^-1 = sign * g on every generator g, where g' is g,
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

SKEW_PRODUCT = "skew_product"
SYM_PRODUCT = "sym_product"
COMPLEX_PRODUCT = "complex_product"
REAL_PRODUCT = "real_product"
IDENTITY = "identity"


class ConditionError(RuntimeError):
    """An automorphism matrix fails its defining intertwining condition."""


SigTuple = tuple[int, int, int, int, int, int, int]


def check(name: str, m: GaussMatrix, basis: SpinBasis) -> list[str]:
    """The generators on which `m` fails the condition of element `name`."""
    transpose, conjugate, sign = CONDITIONS[name]
    inv = m.inverse()
    bad = []
    for i, g in enumerate(basis.gens, start=1):
        t = g.transpose() if transpose else g
        if conjugate:
            t = t.conj()
        if m * t * inv != (g if sign > 0 else -g):
            bad.append(f"{name} condition fails on generator {i}")
    return bad


def _checked(name: str, m: GaussMatrix, basis: SpinBasis) -> GaussMatrix:
    bad = check(name, m, basis)
    if bad:
        raise ConditionError("; ".join(bad))
    return m


def _sign(m: GaussMatrix, ref: GaussMatrix, failure: str) -> int:
    """The sign s with m == s * ref."""
    if m == ref:
        return 1
    if m == -ref:
        return -1
    raise ConditionError(failure)


def build_W(basis: SpinBasis) -> GaussMatrix:
    """Product of all generators in index order."""
    return _checked("W", product_over(basis, (1 << basis.sig.n) - 1), basis)


def _candidates(basis: SpinBasis, name: str, candidates, failure: str):
    """The (matrix, choice, mask) of each distinct candidate product that
    meets the condition of `name`; ConditionError when none does."""
    out = []
    seen = set()
    failures = []
    for mask, choice in candidates:
        m = product_over(basis, mask)
        bad = check(name, m, basis)
        if bad:
            failures.append(f"{choice}: {'; '.join(bad)}")
        elif m not in seen:
            seen.add(m)
            out.append((m, choice, mask))
    if not out:
        raise ConditionError(failure + " | ".join(failures))
    return out


def find_E(basis: SpinBasis):
    """Both product candidates (all antisymmetric, all symmetric
    generators; empty product = I), filtered by the reversion condition.

    Returns a list of (matrix, choice, mask); for a certified pure basis
    exactly one candidate survives.
    """
    prof = certify_spinbasis(basis)
    candidates = [(prof.mask(sym=False), SKEW_PRODUCT), (prof.sym_mask, SYM_PRODUCT)]
    return _candidates(basis, "E", candidates, "no valid reversion matrix: ")


def build_C(e: GaussMatrix, w: GaussMatrix, basis: SpinBasis) -> GaussMatrix:
    """C = E * W^T; also verified to equal E * W up to sign."""
    c = _checked("C", e * w.transpose(), basis)
    _sign(c, e * w, "E*W^T differs from E*W by more than a sign")
    return c


def find_Pi(basis: SpinBasis):
    """Candidates for the coefficient-conjugation matrix: the identity
    (all-real basis), the product of all imaginary-entry generators
    (kept when their count is even), and the product of all real-entry
    generators (kept when their count is odd); each candidate is
    validated against the defining condition."""
    prof = certify_spinbasis(basis)
    imag = prof.mask(real=False)
    candidates = []
    if imag == 0:
        candidates.append((0, IDENTITY))
    if imag and grade(imag) % 2 == 0:
        candidates.append((imag, COMPLEX_PRODUCT))
    if grade(prof.real_mask) % 2 == 1:
        candidates.append((prof.real_mask, REAL_PRODUCT))
    return _candidates(
        basis, "Pi", candidates, "pseudoautomorphism not representable in this basis: "
    )


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


@dataclass(frozen=True)
class Realization:
    """One CPT realization: the built matrices I, W, E, C, Pi, K, S, F
    (held by its signed closure), their generator masks and choices, and
    the signs read off the closure's table."""

    basis: SpinBasis
    masks: dict  # element name -> generator-slot bitmask
    choice_e: str
    choice_pi: str
    rep_signs: dict  # element name -> +-1 vs increasing-index product
    reps: tuple[GaussMatrix, ...]  # increasing-index products over the masks, I first
    group: SignedGroup  # closure of the eight built matrices
    signature: SigTuple
    commutation: tuple[tuple[int, ...], ...]

    def matrices(self) -> tuple[GaussMatrix, ...]:
        """The built matrices in ELEMENT_NAMES order, I first."""
        return tuple(self.group.elements[k] for k in self.group.generators)

    def matrix(self, name: str) -> GaussMatrix:
        return self.group.elements[self.group.generators[ELEMENT_NAMES.index(name)]]

    @property
    def abelian(self) -> bool:
        return is_abelian(self.commutation)

    @property
    def order_counts(self) -> tuple[int, int]:
        """(count of order-2, count of order-4) among the representatives
        other than I; a representative is I exactly when its matrix is +-I."""
        g = self.group
        pm_eye = (g.identity, g.minus_identity)
        squares = [s for i, s in zip(g.generators[1:], self.signature) if i not in pm_eye]
        return squares.count(1), squares.count(-1)


def complete_set(
    basis: SpinBasis,
    w: GaussMatrix,
    e: GaussMatrix,
    e_choice: str,
    e_mask: int,
    pi: GaussMatrix,
    pi_choice: str,
    pi_mask: int,
) -> Realization:
    """The realization of one (E, Pi) choice: C, K, S and F built and
    checked, and the signs read off the closure of all eight matrices."""
    full = (1 << basis.sig.n) - 1
    c = build_C(e, w, basis)
    k = _checked("K", pi * w, basis)
    s = _checked("S", pi * e, basis)
    f = _checked("F", pi * c, basis)
    _sign(f, s * w, "F = Pi*C differs from S*W by more than a sign")
    masks = {
        "W": full,
        "E": e_mask,
        "C": full ^ e_mask,
        "Pi": pi_mask,
        "K": pi_mask ^ full,
        "S": pi_mask ^ e_mask,
        "F": pi_mask ^ full ^ e_mask,
    }
    built = (w, e, c, pi, k, s, f)
    reps = (GaussMatrix.identity(basis.dim),) + tuple(
        product_over(basis, masks[name]) for name in ELEMENT_NAMES[1:]
    )
    rep_signs = {
        name: _sign(m, rep, "built matrix is not a signed increasing-index generator product")
        for name, m, rep in zip(ELEMENT_NAMES[1:], built, reps[1:])
    }
    group = signed_closure(reps[:1] + built)
    signature, commutation = read_signs(group)
    return Realization(
        basis, masks, e_choice, pi_choice, rep_signs, reps, group, signature, commutation
    )


def enumerate_realizations(basis: SpinBasis) -> list[Realization]:
    """Cartesian product of valid E and Pi choices, each completed to a
    realization, deduplicated by (signature, commutation table)."""
    certify_spinbasis(basis)  # an invalid basis fails here, before any condition check
    w = build_W(basis)
    out = []
    seen = set()
    for e, e_choice, e_mask in find_E(basis):
        for pi, pi_choice, pi_mask in find_Pi(basis):
            r = complete_set(basis, w, e, e_choice, e_mask, pi, pi_choice, pi_mask)
            key = (r.signature, r.commutation)
            if key not in seen:
                seen.add(key)
                out.append(r)
    return out


def mask_label(mask: int, physics_indices: bool = False) -> str:
    """ASCII label for a generator product: e.g. "g13" (slots) or, with
    physics indexing (slot i -> index i-1, the gamma convention), "g02"."""
    idx = blade_indices(mask)
    if physics_indices:
        idx = [i - 1 for i in idx]
    if not idx:
        return "1"
    return "g" + "".join(str(i) for i in idx)
