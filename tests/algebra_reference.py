"""Blade and multivector helpers that only the tests use.

`blade_product` gives the sign and mask of a product of two basis blades
through the library's one sign rule, `algebra._sign_mask`; `blades_commute`
reads `algebra._commute_parity`. `generator`, `mv_add`, `mv_sub`, `terms`
and `coefficient` build, add and read multivectors; coefficients come
back as `dense_reference.Gauss` values, which have arithmetic.
"""

from fractions import Fraction
from math import gcd
from types import MappingProxyType

from clifcpt import algebra
from clifcpt.algebra import Multivector, SignatureMismatchError, _make, _reduce
from dense_reference import Gauss


def _swap_parity(x, y, neg_mask):
    """Parity of the sign of e_x e_y: popcount(x & P) + popcount(x & y &
    neg_mask) mod 2, P the prefix parity of y << 1 (see `_sign_mask`)."""
    return (x & algebra._sign_mask(y, neg_mask, x.bit_length())).bit_count() & 1


def blade_product(x, y, sig):
    """Product of two basis blades: (sign, result mask).

    The result is the symmetric difference of the masks.
    """
    if (x | y) >> sig.n:  # a negative mask shifts to -1
        raise ValueError(f"blade mask out of range for n={sig.n}")
    return (-1 if _swap_parity(x, y, sig.neg_mask) else 1), x ^ y


def blades_commute(x, y, sig):
    """Whether e_x e_y == e_y e_x (see `_commute_parity`)."""
    if (x | y) >> sig.n:
        raise ValueError(f"blade mask out of range for n={sig.n}")
    return not algebra._commute_parity(x, y)


def generator(sig, i):
    """The generator e_i, 1-based."""
    if not 1 <= i <= sig.n:
        raise ValueError(f"generator index {i} out of range 1..{sig.n}")
    return Multivector.blade(sig, 1 << (i - 1))


def _add(a, b, sign):
    if a.sig != b.sig:
        raise SignatureMismatchError(f"{a.sig} != {b.sig}")
    g = gcd(a.den, b.den)
    fa, fb = b.den // g, sign * (a.den // g)
    acc = {m: (re * fa, im * fa) for m, (re, im) in a.num.items()}
    for m, (re, im) in b.num.items():
        old = acc.get(m, (0, 0))
        acc[m] = (old[0] + re * fb, old[1] + im * fb)
    return _make(a.sig, *_reduce(acc, a.den * fa))


def mv_add(a, b):
    return _add(a, b, 1)


def mv_sub(a, b):
    return _add(a, b, -1)


def coefficient(mv, mask):
    re, im = mv.num.get(mask, (0, 0))
    return Gauss(Fraction(re, mv.den), Fraction(im, mv.den))


def terms(mv):
    """Read-only blade -> coefficient view, without zero coefficients."""
    return MappingProxyType({m: coefficient(mv, m) for m in mv.num})
