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
from typing import Sequence

from .algebra import blade_indices
from .exact import GaussMatrix
from .spinrep import BasisProfile, SpinBasis, certify_spinbasis, product_over

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


def sig_str(signs: tuple[int, ...]) -> str:
    return "(" + ",".join("+" if s > 0 else "-" for s in signs) + ")"


def minus_count(signs: tuple[int, ...]) -> int:
    return sum(1 for s in signs if s < 0)


@dataclass(frozen=True)
class AutMatrixSet:
    basis: SpinBasis
    W: GaussMatrix
    E: GaussMatrix
    C: GaussMatrix
    Pi: GaussMatrix
    K: GaussMatrix
    S: GaussMatrix
    F: GaussMatrix
    masks: dict  # element name -> generator-slot bitmask
    choice_e: str
    choice_pi: str
    rep_signs: dict  # element name -> +-1 vs increasing-index product
    reps: tuple[GaussMatrix, ...]  # increasing-index products over the masks, I first

    def matrices(self) -> tuple[GaussMatrix, ...]:
        eye = GaussMatrix.identity(self.basis.dim)
        return (eye, self.W, self.E, self.C, self.Pi, self.K, self.S, self.F)

    def seven(self) -> tuple[GaussMatrix, ...]:
        return (self.W, self.E, self.C, self.Pi, self.K, self.S, self.F)


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


def find_E(basis: SpinBasis, prof: BasisProfile | None = None):
    """Both product candidates (all antisymmetric, all symmetric
    generators; empty product = I), filtered by the reversion condition.

    Returns a list of (matrix, choice, mask); for a certified pure basis
    exactly one candidate survives.
    """
    prof = prof or certify_spinbasis(basis)
    candidates = [(prof.skew_mask, SKEW_PRODUCT), (prof.sym_mask, SYM_PRODUCT)]
    return _candidates(basis, "E", candidates, "no valid reversion matrix: ")


def build_C(e: GaussMatrix, w: GaussMatrix, basis: SpinBasis) -> GaussMatrix:
    """C = E * W^T; also verified to equal E * W up to sign."""
    c = _checked("C", e * w.transpose(), basis)
    _sign(c, e * w, "E*W^T differs from E*W by more than a sign")
    return c


def find_Pi(basis: SpinBasis, prof: BasisProfile | None = None):
    """Candidates for the coefficient-conjugation matrix: the identity
    (all-real basis), the product of all imaginary-entry generators
    (kept when their count is even), and the product of all real-entry
    generators (kept when their count is odd); each candidate is
    validated against the defining condition."""
    prof = prof or certify_spinbasis(basis)
    candidates = []
    if prof.a == 0:
        candidates.append((0, IDENTITY))
    if prof.a % 2 == 0 and prof.a > 0:
        candidates.append((prof.complex_mask, COMPLEX_PRODUCT))
    if prof.b % 2 == 1:
        candidates.append((prof.real_mask, REAL_PRODUCT))
    return _candidates(
        basis, "Pi", candidates, "pseudoautomorphism not representable in this basis: "
    )


def square_signs(mats: Sequence[GaussMatrix]) -> tuple[int, ...]:
    """Signs of the squares of W, E, C, ... (ELEMENT_NAMES order, from W);
    each square must be exactly +I or -I."""
    signs = []
    for name, m in zip(ELEMENT_NAMES[1:], mats):
        s = (m * m).pm_identity()
        if s is None:
            raise ConditionError(f"{name}^2 is not +-I; broken construction")
        signs.append(s)
    return tuple(signs)


def commutation_table(mats: Sequence[GaussMatrix]) -> tuple[tuple[int, ...], ...]:
    """Sign eps with X*Y = eps * Y*X for each ordered pair of the matrices;
    every pair must commute or anticommute."""
    table = []
    for x in mats:
        row = []
        for y in mats:
            xy = x * y
            yx = y * x
            if xy == yx:
                row.append(1)
            elif xy == -yx:
                row.append(-1)
            else:
                raise ConditionError("a pair of automorphism matrices neither commutes nor anticommutes")
        table.append(tuple(row))
    return tuple(table)


def is_abelian(table: tuple[tuple[int, ...], ...]) -> bool:
    return all(s == 1 for row in table for s in row)


@dataclass(frozen=True)
class Realization:
    aut: AutMatrixSet
    signature: SigTuple
    commutation: tuple[tuple[int, ...], ...]

    @property
    def abelian(self) -> bool:
        return is_abelian(self.commutation)

    @property
    def signature_str(self) -> str:
        return sig_str(self.signature)


def complete_set(
    basis: SpinBasis,
    w: GaussMatrix,
    e: GaussMatrix,
    e_choice: str,
    e_mask: int,
    pi: GaussMatrix,
    pi_choice: str,
    pi_mask: int,
) -> AutMatrixSet:
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
    return AutMatrixSet(
        basis=basis,
        W=w,
        E=e,
        C=c,
        Pi=pi,
        K=k,
        S=s,
        F=f,
        masks=masks,
        choice_e=e_choice,
        choice_pi=pi_choice,
        rep_signs=rep_signs,
        reps=reps,
    )


def enumerate_realizations(basis: SpinBasis) -> list[Realization]:
    """Cartesian product of valid E and Pi choices, each completed to a
    full matrix set, deduplicated by (signature, commutation table)."""
    prof = certify_spinbasis(basis)
    w = build_W(basis)
    out = []
    seen = set()
    for e, e_choice, e_mask in find_E(basis, prof):
        for pi, pi_choice, pi_mask in find_Pi(basis, prof):
            aut = complete_set(basis, w, e, e_choice, e_mask, pi, pi_choice, pi_mask)
            sig = square_signs(aut.seven())
            table = commutation_table(aut.matrices())
            key = (sig, table)
            if key in seen:
                continue
            seen.add(key)
            out.append(Realization(aut, sig, table))
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
