"""The abstract Clifford algebra Cl(p,q) and its complexification.

Blades are bitmasks over generator slots 1..n; the first p generators
square to +1 and the last q to -1 (over the complex field every
generator squares to +1). Multivectors are sparse blade-to-coefficient
maps over the Gaussian rationals, stored as Gaussian-integer numerators
over one common denominator.
"""

from __future__ import annotations

import random
from math import lcm
from typing import Callable, Mapping, NamedTuple

from .exact import Scalarish, common_divisor, format_parts, gauss_parts

REAL = "real"
COMPLEX = "complex"


class SignatureMismatchError(ValueError):
    """Operands belong to different metric signatures."""


class OddDimensionError(ValueError):
    """The requested identity is not applicable in odd dimension."""


class _SignatureFields(NamedTuple):
    p: int
    q: int
    field: str = REAL


class MetricSignature(_SignatureFields):
    """Metric data (p, q) plus the scalar field flag.

    Over the complex field only n = p + q matters: all generator squares
    are normalized to +1. A signature is the tuple of its fields. The
    constructor validates them, and `_replace` (through `_make`) and
    unpickling call the constructor."""

    __slots__ = ()

    def __new__(cls, p: int, q: int, field: str = REAL):
        if p < 0 or q < 0:
            raise ValueError(f"p and q must be nonnegative, got ({p},{q})")
        if field not in (REAL, COMPLEX):
            raise ValueError(f"field must be 'real' or 'complex', got {field!r}")
        return super().__new__(cls, p, q, field)

    _make = classmethod(lambda cls, fields: cls(*fields))

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

    @property
    def neg_mask(self) -> int:
        """Blade mask of the generators that square to -1.

        Formed on each read, not when the signature is made: a basis file
        may name a (p, q) far too large to build, which certification then
        rejects by its generator count."""
        if self.field == COMPLEX:
            return 0
        return ((1 << self.q) - 1) << self.p


def grade(mask: int) -> int:
    return mask.bit_count()


def blade_indices(mask: int) -> list[int]:
    """1-based generator indices of a blade mask, increasing."""
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


def blade_format(mask: int) -> str:
    return "e{" + ",".join(str(i) for i in blade_indices(mask)) + "}"


def _sign_mask(y: int, neg_mask: int, top: int) -> int:
    """The mask t with popcount(x & t) mod 2 the sign parity of e_x e_y
    for every x < 2**top: t = P ^ (y & neg_mask), P the prefix
    parity of y << 1. Sorting e_x e_y takes one swap per pair (i in x, j
    in y) with i > j, which for each i in x number P's bit i mod 2; a
    repeated index that squares to -1 adds a sign. After p ^= p << s for
    s = 1, 2, 4, ... below `top`, bit i of p is the parity of the s bits
    of y << 1 ending at i, P's bit for each i < s, and s reaches `top`.
    popcount(a ^ b) = popcount(a) + popcount(b) mod 2."""
    p = y << 1
    s = 1
    while s < top:
        p ^= p << s
        s <<= 1
    return p ^ (y & neg_mask)


def signed_blade_mul(sig: MetricSignature) -> Callable[[int, int], int]:
    """The product of signed blades of `sig` held as ints: +-e_A is the
    mask A in bits 0..n-1 with the sign bit n set for -e_A. The product
    XORs both (masks and signs) and flips the sign bit by the parity of
    `_sign_mask`, formed once per right factor and kept by the returned
    function, which lives as long as its caller holds it. No range check."""
    n, neg_mask = sig.n, sig.neg_mask
    low, minus = (1 << n) - 1, 1 << n
    sign_masks: dict[int, int] = {}

    def mul(x: int, y: int) -> int:
        t = sign_masks.get(y)
        if t is None:
            t = sign_masks[y] = _sign_mask(y & low, neg_mask, n) & low
        z = x ^ y
        return z ^ minus if (x & t).bit_count() & 1 else z

    return mul


def _square_parity(mask: int, neg_mask: int) -> int:
    """1 if e_mask squares to -1, else 0: e_A^2 = (-1)^(k(k-1)/2 + |A &
    neg|) with k = |A|, as in e_A e_A each of the k(k-1)/2 pairs of
    distinct indices of A is out of order once, and each index of A that
    squares to -1 repeats. No range check."""
    k = mask.bit_count()
    return (k * (k - 1) // 2 + (mask & neg_mask).bit_count()) & 1


def _commute_parity(x: int, y: int) -> int:
    """0 if e_x e_y == e_y e_x, 1 if they anticommute: the parity of |x|
    |y| + |x & y|, as each pair i in x, j in y with i != j is out of order
    in one of the two products, and the rest of either sign is the same in
    both. No range check."""
    return (x.bit_count() * y.bit_count() + (x & y).bit_count()) & 1


def blade_square_sign(mask: int, sig: MetricSignature) -> int:
    """e_A^2 as +1 or -1 (see `_square_parity`)."""
    if mask >> sig.n:
        raise ValueError(f"blade mask out of range for n={sig.n}")
    return -1 if _square_parity(mask, sig.neg_mask) else 1


class Multivector:
    """Sparse multivector over a fixed MetricSignature with Gaussian
    rational coefficients.

    The coefficients are stored as Gaussian-integer numerators `num`
    (blade mask -> (re, im)) over one common denominator `den`. The form
    is canonical: den > 0, gcd(den, every part) == 1 and no zero terms,
    so equality compares ints only. It is not hashable: no group element
    is a multivector.
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
                parts[mask] = gauss_parts(coeff)
        den = lcm(*(d for _, _, d in parts.values()))
        num = {m: (re * (den // d), im * (den // d)) for m, (re, im, d) in parts.items()}
        self.num, self.den = _reduce(num, den)

    # --- constructors -------------------------------------------------
    @classmethod
    def scalar(cls, sig: MetricSignature, value: Scalarish) -> Multivector:
        return cls(sig, {0: value})

    @classmethod
    def blade(cls, sig: MetricSignature, mask: int, coeff: Scalarish = 1) -> Multivector:
        return cls(sig, {mask: coeff})

    # --- ring operations ----------------------------------------------
    def _check(self, other: Multivector) -> None:
        if self.sig != other.sig:
            raise SignatureMismatchError(f"{self.sig} != {other.sig}")

    def scale(self, s: Scalarish) -> Multivector:
        sr, si, d = gauss_parts(s)
        num = {m: (re * sr - im * si, re * si + im * sr) for m, (re, im) in self.num.items()}
        return _make(self.sig, *_reduce(num, self.den * d))

    def __mul__(self, other: Multivector) -> Multivector:
        self._check(other)
        neg_mask, top = self.sig.neg_mask, self.sig.n
        # Each right blade's sign mask, formed once per product.
        right = []
        for my, (br, bi) in other.num.items():
            right.append((my, br, bi, _sign_mask(my, neg_mask, top)))
        acc: dict[int, tuple[int, int]] = {}
        for mx, (ar, ai) in self.num.items():
            for my, br, bi, t in right:
                re = ar * br - ai * bi
                im = ar * bi + ai * br
                if (mx & t).bit_count() & 1:
                    re, im = -re, -im
                m = mx ^ my
                old = acc.get(m)
                acc[m] = (re, im) if old is None else (old[0] + re, old[1] + im)
        return _make(self.sig, *_reduce(acc, self.den * other.den))

    # --- the four fundamental maps + the pseudo map ---------------------
    def _grade_signed(self, pattern: int) -> Multivector:
        """Negate the terms whose grade mod 4 is a set bit of `pattern`."""
        # A loop, not a comprehension: on Python 3.11 that costs a frame.
        num = {}
        for m, c in self.num.items():
            num[m] = (-c[0], -c[1]) if pattern >> (m.bit_count() & 3) & 1 else c
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
        num = {}
        for m, (re, im) in self.num.items():
            num[m] = (re, -im)
        return _make(self.sig, num, self.den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.sig == other.sig and self.den == other.den and self.num == other.num

    def __str__(self) -> str:
        if not self.num:
            return "0"
        parts = []
        for mask in sorted(self.num):
            re, im = self.num[mask]
            cs = format_parts(re, im, self.den)
            if re and im:
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
    g = common_divisor(den, num.values())
    if g != 1:
        den //= g
        num = {m: (re // g, im // g) for m, (re, im) in num.items()}
    return num, den


def idempotent_product(sig: MetricSignature, masks) -> Multivector:
    """The product (1 + e_m1)/2 (1 + e_m2)/2 ... over `masks`, in order,
    formed by doubling instead of by Multivector products: each factor
    (1 + e_m)/2 keeps every term c e_x and adds c e_x e_m = +-c e_(x^m),
    with the sign of `_sign_mask`. For GF(2)-independent masks no x ^ m
    is already a term, so the product has 2^k terms of numerator +-1 over
    the denominator 2^k, which is canonical; dependent masks overwrite
    terms and leave fewer."""
    neg_mask, top = sig.neg_mask, sig.n
    num = {0: (1, 0)}
    for m in masks:
        t = _sign_mask(m, neg_mask, top)
        for x, (re, _) in list(num.items()):
            num[x ^ m] = (-re, 0) if (x & t).bit_count() & 1 else (re, 0)
    return _make(sig, num, 1 << len(masks))


def volume_element(sig: MetricSignature) -> Multivector:
    """The top-grade blade e_{12...n} with coefficient 1."""
    return Multivector.blade(sig, (1 << sig.n) - 1)


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
    omega_inv = omega.scale(blade_square_sign((1 << sig.n) - 1, sig))
    return a.grade_involution() == omega * a * omega_inv


def _below(bits, n: int) -> int:
    """A draw from range(n), n >= 1, as `random.Random.randrange` takes it:
    getrandbits(n.bit_length()) until the value is below n. So a +
    _below(bits, b - a + 1) draws what randint(a, b) draws, in one frame."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def random_multivector(
    sig: MetricSignature,
    rng: random.Random,
    max_terms: int = 5,
    allow_complex_coeffs: bool | None = None,
) -> Multivector:
    """A small random multivector; used by verification suites and tests.
    Its draws are those of randint and randrange, taken through `_below`."""
    if allow_complex_coeffs is None:
        allow_complex_coeffs = sig.field == COMPLEX
    if max_terms < 1:
        raise ValueError(f"max_terms must be at least 1, got {max_terms}")
    bits = rng.getrandbits
    size = 1 << sig.n
    # Each part is a/b with b in 1..4, so it is a whole multiple of 1/12.
    num: dict[int, tuple[int, int]] = {}
    for _ in range(1 + _below(bits, max_terms)):
        mask = _below(bits, size)
        re = (_below(bits, 11) - 5) * (12 // (1 + _below(bits, 4)))
        im = (_below(bits, 11) - 5) * (12 // (1 + _below(bits, 4))) if allow_complex_coeffs else 0
        old = num.get(mask, (0, 0))
        num[mask] = (old[0] + re, old[1] + im)
    return _make(sig, *_reduce(num, 12))
