"""Classification-theorem predictors and covering-structure labels.

The predictors compute, from arithmetic data only (signature residues and
the basis census), what the classification theorems assert about the
automorphism matrices: the signs of W^2/E^2/C^2, the sign of Pi*conj(Pi),
the mod-8 square rules for K, S, F, the key commutation signs, and the
discrete fiber groups of the Pin covers. The matrix pipeline computes the
same quantities directly; agreement between the two routes is the main
verification of the artifact.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import grade
from .classify import ring_type
from .fingroup import minus_count
from .spinrep import BasisProfile


class TheoremCoverageError(ValueError):
    """No theorem arm covers the supplied data."""


class TableLookupError(ValueError):
    """A cover-label lookup fell outside the table."""


@dataclass(frozen=True)
class PredictedAut:
    triple: tuple[int, int, int]
    group: str
    abelian: bool
    arm: str


@dataclass(frozen=True)
class CoverLabel:
    kind: str  # "PT" or "CPT"
    fiber: str
    cliffordian: bool


@dataclass(frozen=True)
class OddReduction:
    p: int
    q: int
    targets: tuple[tuple[int, int], ...]
    omega_sq: int
    complex_target: int | None


def _mod8_plus(x: int) -> int:
    return 1 if x % 8 in (0, 1, 4, 5) else -1


def _square_balance(prof: BasisProfile, mask: int) -> int:
    """Generators squaring to +I minus those squaring to -I, within mask."""
    return grade(mask) - 2 * grade(mask & prof.neg_mask)


# Real-ring arms of the automorphism-group theorem, keyed by (p%4, q%4).
_REAL_ARMS = {
    (0, 0): ((1, 1, 1), "Z2xZ2", True),
    (2, 2): ((1, -1, -1), "Z4", True),
    (0, 2): ((-1, -1, 1), "Z4", True),
    (2, 0): ((-1, 1, -1), "Z4", True),
    (3, 3): ((1, -1, 1), "D4/Z2", False),
    (1, 1): ((1, 1, -1), "D4/Z2", False),
    (3, 1): ((-1, -1, -1), "Q4/Z2", False),
    (1, 3): ((-1, 1, 1), "D4/Z2", False),
}


def predict_aut_real(p: int, q: int, prof: BasisProfile) -> PredictedAut:
    """Predicted (W^2, E^2, C^2) signs, group, and abelianness for an
    even-dimensional real signature.

    Ring R (p-q = 0,2 mod 8): the arm depends only on p,q mod 4.
    Ring H (p-q = 4,6 mod 8): the arm consumes the basis census: signs of
    the skew and symmetric product squares via the mod-8 differences of
    plus/minus square counts, with the skew-count parity deciding which
    of E/C is the skew product (and abelianness).
    """
    n = p + q
    if n % 2 != 0:
        raise TheoremCoverageError("automorphism-group prediction applies to even n only")
    tag = ring_type(p, q).tag
    if tag == "R":
        key = (p % 4, q % 4)
        if key not in _REAL_ARMS:
            raise TheoremCoverageError(f"no real-ring arm for p,q mod 4 = {key}")
        triple, group, abelian = _REAL_ARMS[key]
        return PredictedAut(triple, group, abelian, f"ring R, p,q mod 4 = {key}")
    if tag == "H":
        a_sign = 1 if (p - q) % 8 == 4 else -1
        skew = prof.mask(sym=False)
        k = grade(skew)
        lt = _square_balance(prof, skew)
        hg = _square_balance(prof, prof.sym_mask)
        if k % 2 == 0:
            b_sign, c_sign = _mod8_plus(lt), _mod8_plus(hg)
            abelian = True
        else:
            b_sign, c_sign = _mod8_plus(hg), _mod8_plus(lt)
            abelian = False
        triple = (a_sign, b_sign, c_sign)
        group = _aut_group_for(triple, abelian)
        return PredictedAut(triple, group, abelian, f"ring H, k parity {k % 2}")
    raise TheoremCoverageError(f"even n with ring {tag}: outside theorem coverage")


def _aut_group_for(triple: tuple[int, int, int], abelian: bool) -> str:
    mc = minus_count(triple)
    if abelian and mc == 0:
        return "Z2xZ2"
    if abelian and mc == 2:
        return "Z4"
    if not abelian and mc == 3:
        return "Q4/Z2"
    if not abelian and mc == 1:
        return "D4/Z2"
    raise TheoremCoverageError(
        f"triple with {mc} minuses and abelian={abelian} matches no order-4 group"
    )


def predict_aut_complex(n: int) -> PredictedAut:
    """Over the complex field there are only two groups: the commuting one
    with phase-normalized signature (+,+,+) for n = 0,1 mod 4 and the
    anticommuting one with (-,-,-) for n = 2,3 mod 4."""
    if n % 4 in (0, 1):
        return PredictedAut((1, 1, 1), "Z2xZ2", True, f"complex, n mod 4 = {n % 4}")
    return PredictedAut((-1, -1, -1), "Q4/Z2", False, f"complex, n mod 4 = {n % 4}")


def predict_pi_square(prof: BasisProfile, pi_choice: str) -> int:
    """Sign of Pi * conj(Pi): +1 for the identity choice, else the
    triangular-number parity of the factor count (equivalently the mod-4
    rule on the imaginary/real generator counts)."""
    if pi_choice == "identity":
        return 1
    if pi_choice == "complex_product":
        a = grade(prof.mask(real=False))
        if a % 2 != 0:
            raise TheoremCoverageError("complex-product Pi needs an even imaginary count")
        return -1 if (a * (a - 1) // 2) % 2 else 1
    if pi_choice == "real_product":
        b = grade(prof.real_mask)
        if b % 2 != 1:
            raise TheoremCoverageError("real-product Pi needs an odd real count")
        return -1 if (b * (b - 1) // 2) % 2 else 1
    raise TheoremCoverageError(f"unknown Pi choice {pi_choice!r}")


def predict_k_square(prof: BasisProfile, k_mask: int) -> int:
    """Mod-8 rule for K^2 from the census, by which product K is:
    the all-imaginary product (odd count) uses the imaginary plus/minus
    square counts; the all-real product (even count) the real ones."""
    if k_mask == prof.mask(real=False) and grade(k_mask) % 2 == 1:
        d = _square_balance(prof, k_mask) % 8
        if d in (1, 5):
            return 1
        if d in (3, 7):
            return -1
        raise TheoremCoverageError(f"imaginary-product K: a+ - a- = {d} mod 8 is impossible")
    if k_mask == prof.real_mask and grade(k_mask) % 2 == 0:
        d = _square_balance(prof, k_mask) % 8
        if d in (0, 4):
            return 1
        if d in (2, 6):
            return -1
        raise TheoremCoverageError(f"real-product K: b+ - b- = {d} mod 8 is impossible")
    raise TheoremCoverageError("K mask matches neither admissible product form")


def _product_forms(prof: BasisProfile) -> tuple[int, int]:
    """The two S/F product forms: all imaginary-symmetric and
    real-antisymmetric generators (rk + cs factors), and all
    imaginary-antisymmetric and real-symmetric ones (ck + rs factors)."""
    c_form = prof.real_mask ^ prof.sym_mask
    return c_form, prof.mask() ^ c_form


def predict_s_square(prof: BasisProfile, s_mask: int) -> int:
    """Mod-8 rules for S^2: the even product of all imaginary-symmetric
    and real-antisymmetric generators uses rk + cs; the odd product of
    all imaginary-antisymmetric and real-symmetric ones uses ck + rs."""
    c_form, d_form = _product_forms(prof)
    if s_mask == c_form and grade(s_mask) % 2 == 0:
        d = grade(c_form) % 8
        if d in (0, 4):
            return 1
        if d in (2, 6):
            return -1
        raise TheoremCoverageError(f"even-form S: u+l = {d} mod 8 is impossible")
    if s_mask == d_form and grade(s_mask) % 2 == 1:
        d = grade(d_form) % 8
        if d in (1, 5):
            return 1
        if d in (3, 7):
            return -1
        raise TheoremCoverageError(f"odd-form S: m+v = {d} mod 8 is impossible")
    raise TheoremCoverageError("S mask matches neither admissible product form")


def predict_f_square(prof: BasisProfile, f_mask: int) -> int:
    """Mod-8 rules for F^2, dual to the S rules."""
    c_form, d_form = _product_forms(prof)
    if f_mask == d_form and grade(f_mask) % 2 == 0:
        d = grade(d_form) % 8
        if d in (0, 4):
            return 1
        if d in (2, 6):
            return -1
        raise TheoremCoverageError(f"even-form F: m+v = {d} mod 8 is impossible")
    if f_mask == c_form and grade(f_mask) % 2 == 1:
        d = grade(c_form) % 8
        if d in (3, 7):
            return 1
        if d in (1, 5):
            return -1
        raise TheoremCoverageError(f"odd-form F: u+l = {d} mod 8 is impossible")
    raise TheoremCoverageError("F mask matches neither admissible product form")


def predict_pi_k_commutation(prof: BasisProfile) -> int:
    """Pi and K commute or anticommute as (-1)^(a*b)."""
    a = grade(prof.mask(real=False))
    return -1 if (a * (prof.n - a)) % 2 else 1


def predict_s_f_commutation(s_mask: int, f_mask: int) -> int:
    """S and F commute or anticommute as (-1)^(s*g) with s, g the factor
    counts of the two (support-disjoint) products."""
    return -1 if (grade(s_mask) * grade(f_mask)) % 2 else 1


# The eight double covers of the two-reflection group, keyed by
# (a, b, c, commutes). Cliffordian exactly when the reflections anticommute.
_PT_TABLE = {
    (1, 1, 1, True): "Z2xZ2xZ2",
    (1, -1, -1, True): "Z2xZ4",
    (-1, 1, -1, True): "Z2xZ4",
    (-1, -1, 1, True): "Z2xZ4",
    (-1, -1, -1, False): "Q4",
    (-1, 1, 1, False): "D4",
    (1, -1, 1, False): "D4",
    (1, 1, -1, False): "D4",
}


def pt_cover_label(a: int, b: int, c: int, pt_commutes: bool) -> CoverLabel:
    key = (a, b, c, pt_commutes)
    if key not in _PT_TABLE:
        raise TableLookupError(f"no PT cover row for signs {key[:3]} with commutes={pt_commutes}")
    return CoverLabel("PT", _PT_TABLE[key], cliffordian=not pt_commutes)


def cpt_cover_label(signs: tuple[int, ...], abelian: bool) -> CoverLabel:
    """Fiber of the seven-sign cover: determined by the minus count with
    abelianness splitting the four-minus case; Cliffordian exactly when
    the fiber is non-abelian."""
    mc = minus_count(signs)
    if mc == 0:
        if not abelian:
            raise TableLookupError("all-plus signature with a non-abelian system")
        return CoverLabel("CPT", "Z2xZ2xZ2xZ2", cliffordian=False)
    if mc == 2:
        if abelian:
            raise TableLookupError("two-minus signature with an abelian system")
        return CoverLabel("CPT", "D4xZ2", cliffordian=True)
    if mc == 6:
        if abelian:
            raise TableLookupError("six-minus signature with an abelian system")
        return CoverLabel("CPT", "Q4xZ2", cliffordian=True)
    if mc == 4:
        if abelian:
            return CoverLabel("CPT", "Z4xZ2xZ2", cliffordian=False)
        return CoverLabel("CPT", "Z4*xZ2xZ2", cliffordian=True)
    raise TableLookupError(f"minus count {mc} is inadmissible")


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
    return OddReduction(p, q, tuple(targets), omega_sq, complex_target)
