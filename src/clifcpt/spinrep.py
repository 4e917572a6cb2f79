"""Spinor representations: generator matrices realizing the Clifford
relations, their certification, and the reality/symmetry census that
drives the classification theorems."""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

from .algebra import COMPLEX, REAL, MetricSignature, Multivector, blade_indices
from .exact import GaussMatrix, GaussRational, I_UNIT, kron

PAULI_1 = GaussMatrix([[0, 1], [1, 0]])
PAULI_2 = GaussMatrix([[0, GaussRational(0, -1)], [GaussRational(0, 1), 0]])
PAULI_3 = GaussMatrix([[1, 0], [0, -1]])
SKEW_E = GaussMatrix([[0, 1], [-1, 0]])  # real antisymmetric, squares to -I
I2 = GaussMatrix.identity(2)


class UnsupportedSignatureError(ValueError):
    """No built-in matrix construction for this signature."""


class CertificationError(ValueError):
    """A spin basis violates one or more defining properties."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("spin basis certification failed:\n  " + "\n  ".join(violations))


class SpinBasisFileError(ValueError):
    """A spin basis file could not be parsed."""


# The census keys of BasisProfile.as_dict: name -> (reality, symmetry,
# square) of the generators it counts; None leaves that trait free.
_CENSUS = {
    "a": (False, None, None),
    "b": (True, None, None),
    "k": (None, False, None),
    "cs": (False, True, None),
    "ck": (False, False, None),
    "rs": (True, True, None),
    "rk": (True, False, None),
    "sym_pos": (None, True, 1),
    "sym_neg": (None, True, -1),
    "skew_pos": (None, False, 1),
    "skew_neg": (None, False, -1),
    "aplus": (False, None, 1),
    "aminus": (False, None, -1),
    "bplus": (True, None, 1),
    "bminus": (True, None, -1),
}


@dataclass(frozen=True)
class BasisProfile:
    """Census of a certified spin basis as generator-slot masks (bit i-1
    is generator i): the real-entry generators (the rest are imaginary),
    the symmetric ones (the rest are antisymmetric), and those squaring
    to -I (the rest square to +I)."""

    n: int
    real_mask: int
    sym_mask: int
    neg_mask: int

    def mask(
        self, real: bool | None = None, sym: bool | None = None, square: int | None = None
    ) -> int:
        """Slots of the generators with every given trait; the count of a
        class is the popcount of its mask."""
        m = (1 << self.n) - 1
        if real is not None:
            m &= self.real_mask if real else ~self.real_mask
        if sym is not None:
            m &= self.sym_mask if sym else ~self.sym_mask
        if square is not None:
            m &= self.neg_mask if square < 0 else ~self.neg_mask
        return m

    def as_dict(self) -> dict:
        return {name: self.mask(*traits).bit_count() for name, traits in _CENSUS.items()}


@dataclass(frozen=True)
class SpinBasis:
    """Ordered generator matrices for Cl(p,q) or its complexification."""

    sig: MetricSignature
    gens: tuple[GaussMatrix, ...]
    provenance: str

    @property
    def dim(self) -> int:
        return self.gens[0].dim if self.gens else 1


def _bw_pool(m: int) -> tuple[list[GaussMatrix], list[GaussMatrix], GaussMatrix]:
    """The 2m+1 pairwise-anticommuting pool behind the even towers:
    m real symmetric generators (Pauli-1 cores), m imaginary antisymmetric
    ones (Pauli-2 cores), and the all-Pauli-3 tail; every square is +I.

    Generator kk of each list carries its core behind kk-1 Pauli-3 factors
    and is padded with identities; interleaving the two lists gives the
    Brauer-Weyl tower of the complex field."""
    reals, imags = [], []
    for kk in range(1, m + 1):
        for core, bucket in ((PAULI_1, reals), (PAULI_2, imags)):
            g = GaussMatrix.identity(1)
            for _ in range(kk - 1):
                g = kron(g, PAULI_3)
            g = kron(g, core)
            for _ in range(m - kk):
                g = kron(g, I2)
            bucket.append(g)
    tail = GaussMatrix.identity(1)
    for _ in range(m):
        tail = kron(tail, PAULI_3)
    return reals, imags, tail


def _real_mixed_basis(p: int, q: int) -> list[GaussMatrix]:
    """Generators for real (p,q) with p - q outside {0,2}: positives drawn
    as-is from the pool, negatives multiplied by i.

    The split between real and imaginary pool elements is chosen so that
    the factor set of the coefficient-conjugation product always contains
    an even number of minus-square generators; the census square rules
    hold exactly in that regime. Multiplying a real pool element by i
    yields an imaginary minus-square generator and vice versa, so the
    parity of the split is the only degree of freedom that matters.
    """
    n = p + q
    m = n // 2
    reals, imags, tail = _bw_pool(m)
    if p == 0 and m % 2 == 1:
        # All generators are negatives; trading the last imaginary pool
        # element for the tail makes the imaginary subset even-sized.
        chosen = reals + imags[: m - 1] + [tail]
        return [g.scale(I_UNIT) for g in chosen]
    lo, hi = max(0, p - m), min(p, m)
    a_even = (p + m) % 2 == 0
    p1 = None
    for cand in range(hi, lo - 1, -1):
        if a_even and cand % 2 == m % 2:
            p1 = cand
            break
        if not a_even and (p - cand) % 2 == m % 2:
            p1 = cand
            break
    if p1 is None:
        raise UnsupportedSignatureError(f"no square-balanced split for Cl({p},{q})")
    p2 = p - p1
    pos = reals[:p1] + imags[:p2]
    neg = [g.scale(I_UNIT) for g in reals[p1:] + imags[p2:]]
    return pos + neg


def _real_tower(p: int, q: int) -> list[GaussMatrix]:
    """All-real generators for p - q in {0, 2}, positives first.

    Starts from the cores Cl(0,0) = {} and Cl(2,0) = {Pauli-1, Pauli-3}
    and applies q extension steps; each step prepends the new generators
    (Pauli-1 tensor I with square +I, and the real antisymmetric unit
    tensor I with square -I) and promotes old ones behind a Pauli-3.
    """
    if p - q == 0:
        pos: list[GaussMatrix] = []
        neg: list[GaussMatrix] = []
    elif p - q == 2:
        pos = [PAULI_1, PAULI_3]
        neg = []
    else:
        raise UnsupportedSignatureError(f"real tower exists only for p-q in {{0,2}}, got {p - q}")
    for _ in range(q):
        dim = pos[0].dim if pos else (neg[0].dim if neg else 1)
        eye = GaussMatrix.identity(dim)
        pos = [kron(PAULI_1, eye)] + [kron(PAULI_3, g) for g in pos]
        neg = [kron(SKEW_E, eye)] + [kron(PAULI_3, g) for g in neg]
    return pos + neg


@lru_cache(maxsize=128)
def build_spinbasis(sig: MetricSignature) -> SpinBasis:
    """Deterministic canonical basis for an even-dimensional signature,
    built and certified once per signature.

    Complex field: the Brauer-Weyl tower. Real field: the all-real tower
    when p - q is literally 0 or 2, otherwise a square-balanced draw from
    the same pool with the q negatives multiplied by i.
    """
    n = sig.n
    if n % 2 != 0:
        raise UnsupportedSignatureError(
            f"odd n={n} has no canonical matrix basis here; classify it through "
            f"the even reduction targets (covering.reduce_odd)"
        )
    if sig.field == COMPLEX:
        reals, imags, _ = _bw_pool(n // 2)
        gens = [g for pair in zip(reals, imags) for g in pair]
    elif sig.p - sig.q in (0, 2):
        gens = _real_tower(sig.p, sig.q)
    else:
        gens = _real_mixed_basis(sig.p, sig.q)
    basis = SpinBasis(sig, tuple(gens), "canonical")
    certify_spinbasis(basis)
    return basis


_DIRAC_ROWS = {
    1: [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
    2: [[0, 0, 0, 1], [0, 0, 1, 0], [0, -1, 0, 0], [-1, 0, 0, 0]],
    3: [
        [0, 0, 0, GaussRational(0, -1)],
        [0, 0, GaussRational(0, 1), 0],
        [0, GaussRational(0, 1), 0, 0],
        [GaussRational(0, -1), 0, 0, 0],
    ],
    4: [[0, 0, 1, 0], [0, 0, 0, -1], [-1, 0, 0, 0], [0, 1, 0, 0]],
}


def preset_spinbasis(name: str) -> SpinBasis:
    """Built-in bases by name; "dirac" is the standard 4x4 gamma basis
    of Cl(1,3), with the timelike generator in slot 1."""
    if name != "dirac":
        raise UnsupportedSignatureError(f"unknown preset {name!r}; available: dirac")
    sig = MetricSignature(1, 3, REAL)
    gens = tuple(GaussMatrix(_DIRAC_ROWS[i]) for i in (1, 2, 3, 4))
    basis = SpinBasis(sig, gens, "preset:dirac")
    certify_spinbasis(basis)
    return basis


def _scan_traits(g: GaussMatrix, violations: list[str], idx: int) -> tuple[bool, bool, int] | None:
    """Reality, symmetry and square sign of one generator, or None after
    recording why it has none."""
    has_re = any(v.re != 0 for row in g.entries for _, v in row)
    has_im = any(v.im != 0 for row in g.entries for _, v in row)
    if has_re and has_im:
        violations.append(f"generator {idx} has mixed reality (both real and imaginary entries)")
        return None
    gt = g.transpose()
    if gt == g:
        symmetric = True
    elif gt == -g:
        symmetric = False
    else:
        violations.append(f"generator {idx} is neither symmetric nor antisymmetric")
        return None
    sq = (g * g).pm_identity()
    if sq is None:
        violations.append(f"generator {idx} does not square to +I or -I")
        return None
    return not has_im, symmetric, sq


@lru_cache(maxsize=128)
def certify_spinbasis(basis: SpinBasis) -> BasisProfile:
    """Verify the Clifford relations, metric squares, and reality and
    symmetry purity of every generator; return the census on success.

    Results are memoized per basis value (bases are immutable)."""
    sig = basis.sig
    n = sig.n
    violations: list[str] = []
    if len(basis.gens) != n:
        raise CertificationError([f"expected {n} generators, got {len(basis.gens)}"])
    if n == 0:
        return BasisProfile(0, 0, 0, 0)
    dims = {g.dim for g in basis.gens}
    if len(dims) != 1:
        raise CertificationError([f"generator dimensions differ: {sorted(dims)}"])
    dim = basis.gens[0].dim
    if n % 2 != 0 or dim != 1 << (n // 2):
        raise CertificationError(
            [f"dimension {dim} does not equal 2^(n/2) for n={n} generators"]
        )

    real_mask = sym_mask = neg_mask = scanned = 0
    for i, g in enumerate(basis.gens):
        traits = _scan_traits(g, violations, i + 1)
        if traits is None:
            continue
        real, symmetric, square = traits
        bit = 1 << i
        scanned |= bit
        real_mask |= bit if real else 0
        sym_mask |= bit if symmetric else 0
        neg_mask |= bit if square < 0 else 0
    for i in blade_indices((neg_mask ^ sig.neg_mask) & scanned):
        want, got = ("-I", "+I") if sig.metric_sign(i) < 0 else ("+I", "-I")
        violations.append(f"generator {i} squares to {got}, expected {want}")
    for i in range(n):
        for j in range(i + 1, n):
            gi, gj = basis.gens[i], basis.gens[j]
            if gi * gj != -(gj * gi):
                violations.append(f"generators {i + 1} and {j + 1} do not anticommute")
    if violations:
        raise CertificationError(violations)
    return BasisProfile(n, real_mask, sym_mask, neg_mask)


def product_over(basis: SpinBasis, mask: int) -> GaussMatrix:
    """Product of the generators in a blade mask, in increasing index order."""
    out = GaussMatrix.identity(basis.dim)
    for i in blade_indices(mask):
        out = out * basis.gens[i - 1]
    return out


def represent(basis: SpinBasis, mv: Multivector) -> GaussMatrix:
    """Linear extension of generator substitution; an algebra homomorphism."""
    if mv.sig != basis.sig:
        raise ValueError("multivector and basis signatures differ")
    dim = basis.dim
    acc = GaussMatrix.identity(dim).scale(0)
    for mask, coeff in mv.terms.items():
        acc = acc + product_over(basis, mask).scale(coeff)
    return acc


def save_spinbasis(basis: SpinBasis, path: str) -> None:
    data = {
        "p": basis.sig.p,
        "q": basis.sig.q,
        "generators": [g.to_strings() for g in basis.gens],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_spinbasis(path: str) -> SpinBasis:
    """Load and fully certify a user-supplied basis file.

    Format: {"p": int, "q": int, "generators": [[[entry, ...], ...], ...]}
    with entries as exact "a/b+c/d*i" strings.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SpinBasisFileError(f"cannot read spin basis file {path}: {exc}") from exc
    try:
        p, q = data["p"], data["q"]
        if type(p) is not int or type(q) is not int:
            raise TypeError(f"p and q must be JSON integers, got {p!r} and {q!r}")
        raw = data["generators"]
        gens = tuple(GaussMatrix.from_strings(rows) for rows in raw)
        sig = MetricSignature(p, q, REAL)
    except (KeyError, TypeError, ValueError) as exc:
        raise SpinBasisFileError(f"malformed spin basis file {path}: {exc}") from exc
    basis = SpinBasis(sig, gens, f"file:{path}")
    certify_spinbasis(basis)
    return basis
