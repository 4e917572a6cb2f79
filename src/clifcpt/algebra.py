"""The abstract Clifford algebra Cl(p,q) and its complexification.

Blades are bitmasks over generator slots 1..n; the first p generators
square to +1 and the last q to -1 (over the complex field every
generator squares to +1). Multivectors are sparse blade-to-coefficient
maps over the Gaussian rationals, stored as Gaussian-integer numerators
over one common denominator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType
from typing import Iterator, Mapping

from .exact import GaussRational, ZERO, _coerce, _exact, Scalarish

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


def blade_format(mask: int) -> str:
    return "e{" + ",".join(str(i) for i in blade_indices(mask)) + "}"


def _swap_parity(x: int, y: int, neg_mask: int) -> int:
    """Parity of the sign of the blade product e_x e_y: the transpositions
    needed to sort the concatenated index sequence plus the repeated
    indices that square to -1."""
    a = x >> 1
    swaps = (x & y & neg_mask).bit_count()
    while a:
        swaps += (a & y).bit_count()
        a >>= 1
    return swaps & 1


def blade_product(x: int, y: int, sig: MetricSignature) -> tuple[int, int]:
    """Product of two basis blades: (sign, result mask).

    The result is the symmetric difference of the masks.
    """
    limit = 1 << sig.n
    if x >= limit or y >= limit or x < 0 or y < 0:
        raise ValueError(f"blade mask out of range for n={sig.n}")
    return (-1 if _swap_parity(x, y, sig.neg_mask) else 1), x ^ y


def blade_square_sign(mask: int, sig: MetricSignature) -> int:
    s, m = blade_product(mask, mask, sig)
    assert m == 0
    return s


def blades_commute(x: int, y: int, sig: MetricSignature) -> bool:
    sx, mx = blade_product(x, y, sig)
    sy, my = blade_product(y, x, sig)
    assert mx == my
    return sx == sy


def _gauss_parts(c: GaussRational) -> tuple[int, int, int]:
    """(re, im, den): c as a Gaussian integer over a positive denominator."""
    den = lcm(c.re.denominator, c.im.denominator)
    return (
        c.re.numerator * (den // c.re.denominator),
        c.im.numerator * (den // c.im.denominator),
        den,
    )


class Multivector:
    """Sparse multivector over a fixed MetricSignature with Gaussian
    rational coefficients.

    The coefficients are stored as Gaussian-integer numerators `num`
    (blade mask -> (re, im)) over one common denominator `den`. The form
    is canonical: den > 0, gcd(den, every part) == 1 and no zero terms,
    so equality and hashing compare ints only.
    """

    __slots__ = ("sig", "num", "den")

    def __init__(self, sig: MetricSignature, terms: Mapping[int, Scalarish] | None = None):
        self.sig = sig
        parts = {}
        limit = 1 << sig.n
        if terms:
            for mask, coeff in terms.items():
                if not 0 <= mask < limit:
                    raise ValueError(f"blade mask {mask} out of range for n={sig.n}")
                parts[mask] = _gauss_parts(_coerce(coeff))
        den = lcm(*(d for _, _, d in parts.values()))
        num = {m: (re * (den // d), im * (den // d)) for m, (re, im, d) in parts.items()}
        self.num, self.den = _reduce(num, den)

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

    def _add(self, other: Multivector, sign: int) -> Multivector:
        self._check(other)
        g = gcd(self.den, other.den)
        fa, fb = other.den // g, sign * (self.den // g)
        acc = {m: (re * fa, im * fa) for m, (re, im) in self.num.items()}
        for m, (re, im) in other.num.items():
            old = acc.get(m, (0, 0))
            acc[m] = (old[0] + re * fb, old[1] + im * fb)
        return _make(self.sig, *_reduce(acc, self.den * fa))

    def __add__(self, other: Multivector) -> Multivector:
        return self._add(other, 1)

    def __sub__(self, other: Multivector) -> Multivector:
        return self._add(other, -1)

    def __neg__(self) -> Multivector:
        return _make(self.sig, {m: (-re, -im) for m, (re, im) in self.num.items()}, self.den)

    def scale(self, s: Scalarish) -> Multivector:
        sr, si, d = _gauss_parts(_coerce(s))
        num = {m: (re * sr - im * si, re * si + im * sr) for m, (re, im) in self.num.items()}
        return _make(self.sig, *_reduce(num, self.den * d))

    def __mul__(self, other: Multivector) -> Multivector:
        self._check(other)
        neg_mask = self.sig.neg_mask
        acc: dict[int, tuple[int, int]] = {}
        for mx, (ar, ai) in self.num.items():
            for my, (br, bi) in other.num.items():
                re = ar * br - ai * bi
                im = ar * bi + ai * br
                if _swap_parity(mx, my, neg_mask):
                    re, im = -re, -im
                old = acc.get(mx ^ my, (0, 0))
                acc[mx ^ my] = (old[0] + re, old[1] + im)
        return _make(self.sig, *_reduce(acc, self.den * other.den))

    # --- the four fundamental maps + the pseudo map ---------------------
    def _grade_signed(self, pattern: int) -> Multivector:
        """Negate the terms whose grade mod 4 is a set bit of `pattern`."""
        num = {
            m: (-c[0], -c[1]) if (pattern >> (m.bit_count() & 3)) & 1 else c
            for m, c in self.num.items()
        }
        return _make(self.sig, num, self.den)

    def grade_involution(self) -> Multivector:
        """Negate odd-grade terms; homomorphism."""
        return self._grade_signed(0b1010)  # grades 1, 3 mod 4

    def reversion(self) -> Multivector:
        """Reverse each blade's index sequence; anti-homomorphism."""
        return self._grade_signed(0b1100)  # grades 2, 3 mod 4

    def conjugation(self) -> Multivector:
        """Composition of reversion and grade involution."""
        return self._grade_signed(0b0110)  # grades 1, 2 mod 4

    def complex_conjugation(self) -> Multivector:
        """Conjugate every coefficient; blades are fixed, product preserved."""
        return _make(self.sig, {m: (re, -im) for m, (re, im) in self.num.items()}, self.den)

    # --- inspection -----------------------------------------------------
    @property
    def terms(self) -> Mapping[int, GaussRational]:
        """Read-only blade -> coefficient view, without zero coefficients."""
        return MappingProxyType({m: self.coefficient(m) for m in self.num})

    def coefficient(self, mask: int) -> GaussRational:
        parts = self.num.get(mask)
        if parts is None:
            return ZERO
        return _exact(Fraction(parts[0], self.den), Fraction(parts[1], self.den))

    def is_zero(self) -> bool:
        return not self.num

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.sig == other.sig and self.den == other.den and self.num == other.num

    def __hash__(self) -> int:
        return hash((self.sig, self.den, frozenset(self.num.items())))

    def __iter__(self) -> Iterator[tuple[int, GaussRational]]:
        return iter(sorted(self.terms.items()))

    def __str__(self) -> str:
        if not self.num:
            return "0"
        parts = []
        for mask, coeff in self:
            cs = str(coeff)
            if ("+" in cs[1:]) or ("-" in cs[1:]):
                cs = f"({cs})"
            parts.append(f"{cs}*{blade_format(mask)}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Multivector({self.sig}, {str(self)!r})"


def _make(sig: MetricSignature, num: dict[int, tuple[int, int]], den: int) -> Multivector:
    """Internal constructor for a numerator table already in canonical form
    over `den`, which negating any parts of a canonical one keeps."""
    mv = object.__new__(Multivector)
    mv.sig = sig
    mv.num = num
    mv.den = den
    return mv


def _reduce(num: dict[int, tuple[int, int]], den: int) -> tuple[dict[int, tuple[int, int]], int]:
    """Canonical form of the numerators `num` over a positive `den`: drop
    the terms that cancelled and divide every part and `den` by their gcd."""
    num = {m: c for m, c in num.items() if c[0] or c[1]}
    g = den
    for re, im in num.values():
        g = gcd(g, re, im)
        if g == 1:
            break
    if g != 1:
        den //= g
        num = {m: (re // g, im // g) for m, (re, im) in num.items()}
    return num, den


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
    # Each part is a/b with b in 1..4, so it is a whole multiple of 1/12.
    num: dict[int, tuple[int, int]] = {}
    for _ in range(nterms):
        mask = rng.randrange(0, 1 << sig.n)
        re = rng.randint(-5, 5) * (12 // rng.randint(1, 4))
        im = rng.randint(-5, 5) * (12 // rng.randint(1, 4)) if allow_complex_coeffs else 0
        old = num.get(mask, (0, 0))
        num[mask] = (old[0] + re, old[1] + im)
    return _make(sig, *_reduce(num, 12))
