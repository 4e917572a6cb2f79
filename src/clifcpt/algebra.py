"""The abstract Clifford algebra Cl(p,q) and its complexification.

Blades are bitmasks over generator slots 1..n; the first p generators
square to +1 and the last q to -1 (over the complex field every
generator squares to +1). Multivectors are sparse blade-to-coefficient
maps over the Gaussian rationals.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterator, Mapping

from .exact import GaussRational, ZERO, _coerce, Scalarish

REAL = "real"
COMPLEX = "complex"


class SignatureMismatchError(ValueError):
    """Operands belong to different metric signatures."""


class OddDimensionError(ValueError):
    """The requested identity is not applicable in odd dimension."""


@dataclass(frozen=True)
class MetricSignature:
    """Metric data (p, q) plus the scalar field flag.

    Over the complex field only n = p + q matters: all generator squares
    are normalized to +1.
    """

    p: int
    q: int
    field: str = REAL

    def __post_init__(self):
        if self.p < 0 or self.q < 0:
            raise ValueError(f"p and q must be nonnegative, got ({self.p},{self.q})")
        if self.field not in (REAL, COMPLEX):
            raise ValueError(f"field must be 'real' or 'complex', got {self.field!r}")

    @property
    def n(self) -> int:
        return self.p + self.q

    def metric_sign(self, i: int) -> int:
        """Square of generator i (1-based): +1 or -1."""
        if not 1 <= i <= self.n:
            raise ValueError(f"generator index {i} out of range 1..{self.n}")
        if self.field == COMPLEX:
            return 1
        return 1 if i <= self.p else -1

    @cached_property
    def neg_mask(self) -> int:
        """Blade mask of the generators that square to -1."""
        if self.field == COMPLEX:
            return 0
        return ((1 << self.n) - 1) ^ ((1 << self.p) - 1)


def grade(mask: int) -> int:
    return mask.bit_count()


def blade_indices(mask: int) -> list[int]:
    """1-based generator indices of a blade mask, increasing."""
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def mask_from_indices(indices) -> int:
    m = 0
    for i in indices:
        if i < 1:
            raise ValueError(f"generator indices are 1-based, got {i}")
        bit = 1 << (i - 1)
        if m & bit:
            raise ValueError(f"repeated generator index {i}")
        m |= bit
    return m


def blade_format(mask: int) -> str:
    return "e{" + ",".join(str(i) for i in blade_indices(mask)) + "}"


def blade_product(x: int, y: int, sig: MetricSignature) -> tuple[int, int]:
    """Product of two basis blades: (sign, result mask).

    The sign counts the transpositions needed to sort the concatenated
    index sequence plus the repeated indices that square to -1; the
    result is the symmetric difference of the masks.
    """
    limit = 1 << sig.n
    if x >= limit or y >= limit or x < 0 or y < 0:
        raise ValueError(f"blade mask out of range for n={sig.n}")
    a = x >> 1
    swaps = 0
    while a:
        swaps += (a & y).bit_count()
        a >>= 1
    swaps += (x & y & sig.neg_mask).bit_count()
    return (-1 if swaps & 1 else 1), x ^ y


def blade_square_sign(mask: int, sig: MetricSignature) -> int:
    s, m = blade_product(mask, mask, sig)
    assert m == 0
    return s


def blades_commute(x: int, y: int, sig: MetricSignature) -> bool:
    sx, mx = blade_product(x, y, sig)
    sy, my = blade_product(y, x, sig)
    assert mx == my
    return sx == sy


class Multivector:
    """Sparse blade -> GaussRational map over a fixed MetricSignature.

    Zero coefficients are pruned on construction, so the stored term set
    is canonical and equality is exact.
    """

    __slots__ = ("sig", "terms")

    def __init__(self, sig: MetricSignature, terms: Mapping[int, Scalarish] | None = None):
        self.sig = sig
        clean: dict[int, GaussRational] = {}
        limit = 1 << sig.n
        if terms:
            for mask, coeff in terms.items():
                if not 0 <= mask < limit:
                    raise ValueError(f"blade mask {mask} out of range for n={sig.n}")
                c = _coerce(coeff)
                if not c.is_zero():
                    clean[mask] = c
        self.terms = clean

    # --- constructors -------------------------------------------------
    @classmethod
    def zero(cls, sig: MetricSignature) -> Multivector:
        return cls(sig)

    @classmethod
    def scalar(cls, sig: MetricSignature, value: Scalarish) -> Multivector:
        return cls(sig, {0: value})

    @classmethod
    def blade(cls, sig: MetricSignature, mask: int, coeff: Scalarish = 1) -> Multivector:
        return cls(sig, {mask: coeff})

    @classmethod
    def generator(cls, sig: MetricSignature, i: int) -> Multivector:
        if not 1 <= i <= sig.n:
            raise ValueError(f"generator index {i} out of range 1..{sig.n}")
        return cls(sig, {1 << (i - 1): 1})

    # --- ring operations ----------------------------------------------
    def _check(self, other: Multivector) -> None:
        if self.sig != other.sig:
            raise SignatureMismatchError(f"{self.sig} != {other.sig}")

    def __add__(self, other: Multivector) -> Multivector:
        self._check(other)
        acc = dict(self.terms)
        for m, c in other.terms.items():
            acc[m] = acc.get(m, ZERO) + c
        return _nonzero(self.sig, acc)

    def __sub__(self, other: Multivector) -> Multivector:
        self._check(other)
        acc = dict(self.terms)
        for m, c in other.terms.items():
            acc[m] = acc.get(m, ZERO) - c
        return _nonzero(self.sig, acc)

    def __neg__(self) -> Multivector:
        return _multivector(self.sig, {m: -c for m, c in self.terms.items()})

    def scale(self, s: Scalarish) -> Multivector:
        s = _coerce(s)
        return _nonzero(self.sig, {m: c * s for m, c in self.terms.items()})

    def __mul__(self, other: Multivector) -> Multivector:
        self._check(other)
        acc: dict[int, GaussRational] = {}
        for mx, cx in self.terms.items():
            for my, cy in other.terms.items():
                sign, m = blade_product(mx, my, self.sig)
                add = cx * cy
                if sign < 0:
                    add = -add
                acc[m] = acc.get(m, ZERO) + add
        return _nonzero(self.sig, acc)

    # --- the four fundamental maps + the pseudo map ---------------------
    def grade_involution(self) -> Multivector:
        """Negate odd-grade terms; homomorphism."""
        return _multivector(
            self.sig,
            {m: (-c if grade(m) & 1 else c) for m, c in self.terms.items()},
        )

    def reversion(self) -> Multivector:
        """Reverse each blade's index sequence; anti-homomorphism."""
        out = {}
        for m, c in self.terms.items():
            k = grade(m)
            out[m] = -c if (k * (k - 1) // 2) & 1 else c
        return _multivector(self.sig, out)

    def conjugation(self) -> Multivector:
        """Composition of reversion and grade involution."""
        out = {}
        for m, c in self.terms.items():
            k = grade(m)
            out[m] = -c if (k * (k + 1) // 2) & 1 else c
        return _multivector(self.sig, out)

    def complex_conjugation(self) -> Multivector:
        """Conjugate every coefficient; blades are fixed, product preserved."""
        return _multivector(self.sig, {m: c.conjugate() for m, c in self.terms.items()})

    # --- inspection -----------------------------------------------------
    def coefficient(self, mask: int) -> GaussRational:
        return self.terms.get(mask, ZERO)

    def is_zero(self) -> bool:
        return not self.terms

    def grades(self) -> set[int]:
        return {grade(m) for m in self.terms}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.sig == other.sig and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.sig, tuple(sorted((m, c) for m, c in self.terms.items()))))

    def __iter__(self) -> Iterator[tuple[int, GaussRational]]:
        return iter(sorted(self.terms.items()))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mask, coeff in sorted(self.terms.items()):
            cs = str(coeff)
            if ("+" in cs[1:]) or ("-" in cs[1:]):
                cs = f"({cs})"
            parts.append(f"{cs}*{blade_format(mask)}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Multivector({self.sig}, {str(self)!r})"


def _multivector(sig: MetricSignature, terms: dict[int, GaussRational]) -> Multivector:
    """Internal constructor for in-range masks with nonzero GaussRational
    coefficients, which is what the ring operations and involutions of
    valid multivectors produce; the public constructor re-checks both."""
    mv = object.__new__(Multivector)
    mv.sig = sig
    mv.terms = terms
    return mv


def _nonzero(sig: MetricSignature, terms: dict[int, GaussRational]) -> Multivector:
    """Internal constructor that drops the coefficients that cancelled."""
    return _multivector(sig, {m: c for m, c in terms.items() if c})


def volume_element(sig: MetricSignature) -> Multivector:
    """The top-grade blade e_{12...n} with coefficient 1."""
    return Multivector.blade(sig, (1 << sig.n) - 1)


def volume_square_sign(sig: MetricSignature) -> int:
    return blade_square_sign((1 << sig.n) - 1, sig)


def involution_via_omega_check(a: Multivector) -> bool:
    """Check grade_involution(a) == omega * a * omega^-1 exactly.

    Restricted to even n: in odd dimension the volume element is central
    and the identity cannot hold on odd elements, so the artifact reports
    the identity as not applicable instead of failing silently.
    """
    sig = a.sig
    if sig.n % 2 == 1:
        raise OddDimensionError(
            f"identity not applicable: volume-element conjugation realizes the "
            f"grade involution only for even n (got n={sig.n})"
        )
    omega = volume_element(sig)
    omega_inv = omega.scale(Fraction(blade_square_sign((1 << sig.n) - 1, sig)))
    return a.grade_involution() == omega * a * omega_inv


def random_multivector(
    sig: MetricSignature,
    rng: random.Random,
    max_terms: int = 5,
    allow_complex_coeffs: bool | None = None,
) -> Multivector:
    """A small random multivector; used by verification suites and tests."""
    if allow_complex_coeffs is None:
        allow_complex_coeffs = sig.field == COMPLEX
    nterms = rng.randint(1, max_terms)
    terms: dict[int, GaussRational] = {}
    for _ in range(nterms):
        mask = rng.randrange(0, 1 << sig.n)
        re = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        im = Fraction(rng.randint(-5, 5), rng.randint(1, 4)) if allow_complex_coeffs else 0
        terms[mask] = terms.get(mask, ZERO) + GaussRational(re, im)
    return Multivector(sig, terms)
