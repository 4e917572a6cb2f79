"""Classification-theorem predictors and the odd-dimension reduction.

The predictors compute, from arithmetic data only (the two masks of
the basis profile, or n for the complex field), what the classification
theorems assert about the automorphism matrices: the (E, Pi) choices,
the generator masks, every square sign including Pi*conj(Pi), and every
commutation sign, the polarization of the squares. The group names and
cover fibers follow from the squares through `fingroup.classify_form`.
The matrix pipeline computes the same quantities directly; agreement
between the two routes is the main verification of the artifact.
"""

from __future__ import annotations

from typing import NamedTuple

from .fingroup import classify_form, polarization
from .spinrep import BasisProfile


class TheoremCoverageError(ValueError):
    """No theorem arm covers the supplied data."""


class PredictedAut(NamedTuple):
    triple: tuple[int, int, int]
    group: str
    abelian: bool
    arm: str


class OddReduction(NamedTuple):
    targets: tuple[tuple[int, int], ...]
    omega_sq: int
    complex_target: int | None


_ELEMENTS = ("W", "E", "C", "Pi", "K", "S", "F")


class PredictedRealization(NamedTuple):
    """The realization the classification theorems predict from a basis
    profile alone: the (E, Pi) choices, the generator-slot mask of each
    element W to F, their square signs in that order, and the sign eps
    with X*Y = eps * Y*X for each ordered pair of I, W, ..., F."""

    choice_e: str
    choice_pi: str
    masks: dict  # element name -> generator-slot bitmask
    signature: tuple[int, ...]
    commutation: tuple[tuple[int, ...], ...]


def _square(a: int, neg: int) -> int:
    k = a.bit_count()
    return -1 if (k * (k - 1) // 2 + (a & neg).bit_count()) % 2 else 1


def choice_candidates(prof: BasisProfile) -> dict[str, tuple[tuple[int, str], ...]]:
    """The two candidate (mask, choice) pairs of E and of Pi: E from the
    antisymmetric or the symmetric generators, Pi from the imaginary ones
    (the identity when there are none) or the real ones. Each choice is
    named as `choiceE` and `choicePi` name it in the artifacts."""
    imag = prof.mask(real=False)
    return {
        "E": ((prof.mask(sym=False), "skew"), (prof.sym_mask, "sym")),
        "Pi": ((imag, "complex" if imag else "identity"), (prof.real_mask, "real")),
    }


def predict_realization(prof: BasisProfile) -> PredictedRealization:
    """The one CPT realization of an even-dimensional certified basis,
    read off the popcounts of its profile's two masks.

    Each element is a signed blade +-e_A, A a set of generator slots, and
    each certified generator g is purely real or imaginary, purely
    symmetric or antisymmetric, and squares to +-I.

    Square rule: (+-e_A)^2 = (-1)^(k(k-1)/2 + |A & neg|) with k = |A|.
    Reversing the k factors of the second copy takes k(k-1)/2 swaps of
    anticommuting generators, and each generator of A in neg (the slots
    squaring to -I, real_mask ^ sym_mask) gives one more sign.

    Commutation rule: e_A e_B = (-1)^(|A||B| + |A & B|) e_B e_A. Moving
    each of the |B| generators of e_B past e_A costs |A| swaps, less one
    for the generator it meets in A & B.

    Choice rule: by the commutation rule, e_A g = (-1)^(|A| - [g in A])
    g e_A. E (E g^T = g E) needs that sign to be -1 exactly on the
    antisymmetric generators: A is the skew set when its size is even,
    otherwise the symmetric set. Pi (Pi conj(g) = g Pi) needs it -1
    exactly on the imaginary generators: A is the imaginary set when its
    size is even (empty when no generator is imaginary), otherwise the
    real set. For even n the two sets of each split have the same parity,
    so exactly one E and one Pi qualify. Then W is the full set, and
    C = E W^T, K = Pi W, S = Pi E and F = Pi C are the symmetric
    differences E ^ full, Pi ^ full, Pi ^ E and Pi ^ E ^ full.

    Pi is a product of real generators or of an even number of imaginary
    ones, so it is a real matrix and Pi * conj(Pi) = Pi^2.

    The commutation table is the polarization of the seven squares,
    which the commutation rule gives on any eight such blades (see
    `fingroup.polarization`).
    """
    n = prof.n
    if n % 2 != 0:
        raise TheoremCoverageError("realization prediction applies to even n only")
    full = (1 << n) - 1
    # Of each candidate pair, the first when its size is even, else the second.
    (e, choice_e), (pi, choice_pi) = (
        first if first[0].bit_count() % 2 == 0 else second
        for first, second in choice_candidates(prof).values()
    )
    masks = dict(zip(_ELEMENTS, (full, e, e ^ full, pi, pi ^ full, pi ^ e, pi ^ e ^ full)))
    signature = tuple(_square(a, prof.real_mask ^ prof.sym_mask) for a in masks.values())
    return PredictedRealization(choice_e, choice_pi, masks, signature, polarization(signature))


def predict_aut_complex(n: int) -> PredictedAut:
    """Over the complex field there are only two groups: the commuting one
    with phase-normalized signature (+,+,+) for n = 0,1 mod 4 and the
    anticommuting one with (-,-,-) for n = 2,3 mod 4."""
    triple = (1, 1, 1) if n % 4 in (0, 1) else (-1, -1, -1)
    form = classify_form(triple)
    return PredictedAut(triple, form.label, form.abelian, f"complex, n mod 4 = {n % 4}")


def reduce_odd(p: int, q: int) -> OddReduction:
    """Delegate an odd-dimensional signature to its even targets.

    The group splits as the even part united with the volume element
    times the even part; the descriptor carries both index-shifted even
    targets, the square of the volume element, and (for p-q = 3,7 mod 8)
    the equivalent complex algebra one dimension down.
    """
    n = p + q
    if n % 2 == 0:
        raise ValueError(f"reduce_odd needs odd p+q, got ({p},{q})")
    targets = []
    if q >= 1:
        targets.append((p, q - 1))
    if p >= 1:
        targets.append((q, p - 1))
    omega_sq = -1 if ((n * (n - 1) // 2) + q) % 2 else 1
    complex_target = n - 1 if (p - q) % 8 in (3, 7) else None
    return OddReduction(tuple(targets), omega_sq, complex_target)
