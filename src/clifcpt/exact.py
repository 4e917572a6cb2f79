"""Exact scalar and matrix arithmetic over the Gaussian rationals.

Every value is immutable after construction and all operations are pure,
so objects can be shared freely across threads and processes.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence, Union

Scalarish = Union["GaussRational", Fraction, int]


class DimensionMismatchError(ValueError):
    """Matrix operands have incompatible dimensions."""


class GaussRational:
    """A complex number with exact rational real and imaginary parts.

    Denominators are always positive and in lowest terms (guaranteed by
    Fraction), so equality and hashing are exact with a canonical zero.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: Fraction | int = 0, im: Fraction | int = 0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, other: Scalarish) -> GaussRational:
        other = _coerce(other)
        return _exact(self.re + other.re, self.im + other.im)

    def __sub__(self, other: Scalarish) -> GaussRational:
        other = _coerce(other)
        return _exact(self.re - other.re, self.im - other.im)

    def __mul__(self, other: Scalarish) -> GaussRational:
        other = _coerce(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        return _exact(a * c - b * d, a * d + b * c)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other: Scalarish) -> GaussRational:
        return _coerce(other) - self

    def __truediv__(self, other: Scalarish) -> GaussRational:
        other = _coerce(other)
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("division by zero GaussRational")
        return _exact(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __neg__(self) -> GaussRational:
        return _exact(-self.re, -self.im)

    def conjugate(self) -> GaussRational:
        return _exact(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = GaussRational(other)
        if not isinstance(other, GaussRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __repr__(self) -> str:
        return f"GaussRational({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        return format_gauss(self)


def _exact(re: Fraction, im: Fraction) -> GaussRational:
    """Internal constructor for parts that are already Fractions.

    Fraction arithmetic returns values in lowest terms, so results of
    GaussRational arithmetic skip the public constructor's coercion.
    """
    z = object.__new__(GaussRational)
    z.re = re
    z.im = im
    return z


def _coerce(value: Scalarish) -> GaussRational:
    if isinstance(value, GaussRational):
        return value
    return GaussRational(value)


ZERO = GaussRational(0)
I_UNIT = GaussRational(0, 1)


def format_gauss(z: GaussRational) -> str:
    """Canonical text form "a/b+c/d*i" with zero parts omitted.

    Examples of the grammar: "0", "1", "-1/2", "i", "-i", "3*i",
    "1/2+1/2*i", "1/2-1/2*i".
    """
    return format_parts(*gauss_parts(z))


def _ratio(num: int, den: int) -> str:
    """num/den in lowest terms as Fraction prints it: "n" or "n/d"."""
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def format_parts(re: int, im: int, den: int) -> str:
    """The `format_gauss` text of (re + im*i)/den, den > 0, read from the
    integer parts: each part is brought to lowest terms on its own."""
    if not im:
        return _ratio(re, den) if re else "0"
    mag = abs(im)
    unit = "i" if mag == den else f"{_ratio(mag, den)}*i"
    if not re:
        return f"-{unit}" if im < 0 else unit
    return f"{_ratio(re, den)}{'-' if im < 0 else '+'}{unit}"


# format_gauss's grammar: a real part [+-]D, an imaginary part [+-][D[*]]i,
# or both, D digits or digits/digits. A real part ends at the end of the
# text or at the imaginary part's sign.
_D = r"([0-9]+)(?:/([0-9]+))?"
_LITERAL = re.compile(rf"(?:([+-]?){_D}(?=[+-]|$))?(?:([+-]?)(?:{_D}\*?)?(i))?")


def _part(sign: str, num: str | None, den: str | None) -> Fraction:
    value = Fraction(int(num or 1), int(den or 1))
    return -value if sign == "-" else value


def parse_gauss(text: str) -> GaussRational:
    """Parse the canonical text form produced by :func:`format_gauss`, with
    white space allowed anywhere. A value has no more digits than its literal."""
    if not isinstance(text, str):
        raise TypeError(f"GaussRational literal must be a string, not {type(text).__name__}")
    m = _LITERAL.fullmatch("".join(text.split()))
    if m is None or not any(m.groups()):
        raise ValueError(f"malformed GaussRational literal {text!r}")
    re_sign, re_num, re_den, im_sign, im_num, im_den, unit = m.groups()
    try:
        re_part = _part(re_sign, re_num, re_den) if re_num else Fraction(0)
        im_part = _part(im_sign, im_num, im_den) if unit else Fraction(0)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in GaussRational literal {text!r}") from None
    return _exact(re_part, im_part)


def gauss_parts(c: Scalarish) -> tuple[int, int, int]:
    """(re, im, den): c as a Gaussian integer over a positive denominator;
    an int is read as it stands, with no Fraction formed."""
    if isinstance(c, int):
        return c, 0, 1
    c = _coerce(c)
    den = lcm(c.re.denominator, c.im.denominator)
    return (
        c.re.numerator * (den // c.re.denominator),
        c.im.numerator * (den // c.im.denominator),
        den,
    )


def common_divisor(den: int, parts: Iterable[tuple[int, int]]) -> int:
    """The gcd of a positive `den` and every (re, im) numerator pair:
    dividing all of them by it brings the values to lowest terms. Stops
    as soon as it reaches 1, so a denominator of 1 reads no pair."""
    g = den
    for re, im in parts:
        if g == 1:
            break
        g = gcd(g, re, im)
    return g


class GaussMatrix:
    """A square matrix over the Gaussian rationals, stored as
    Gaussian-integer numerators over one common denominator.

    ``num[i]`` holds row i's nonzeros as ``(column, re, im)`` int triples
    in increasing column order, the entry being ``(re + im*i) / den``. The
    form is canonical: den > 0 and gcd(den, every part) == 1, as in
    `Multivector`, so equality and hashing compare ints only. Every
    operation loops over the nonzeros: a signed monomial matrix (one
    nonzero per row), as every generator and automorphism matrix of the
    spinor bases is, costs O(dim) per product, a dense one the usual
    O(dim^3). `GaussRational` values are formed only by the `entries`,
    `rows` and `to_strings` views.
    """

    __slots__ = ("dim", "num", "den", "_hash")

    def __init__(self, rows: Iterable[Iterable[Scalarish]]):
        parts = tuple(tuple(gauss_parts(e) for e in row) for row in rows)
        dim = len(parts)
        if dim < 1:
            raise DimensionMismatchError("matrix must have dim >= 1")
        for row in parts:
            if len(row) != dim:
                raise DimensionMismatchError(
                    f"matrix is not square: {dim} rows, row of length {len(row)}"
                )
        # The lcm of lowest-term denominators leaves the numerators coprime
        # to it, so this form is canonical as it stands.
        den = lcm(*(d for row in parts for _, _, d in row))
        self.dim = dim
        self.den = den
        self.num = tuple(
            tuple((j, x * (den // d), y * (den // d)) for j, (x, y, d) in enumerate(row) if x or y)
            for row in parts
        )
        self._hash: int | None = None

    @classmethod
    def _make(cls, dim: int, num: tuple, den: int) -> GaussMatrix:
        """Internal constructor for nonzero rows in column order over a
        positive `den`; brings them to lowest terms."""
        g = common_divisor(den, (t[1:] for row in num for t in row))
        if g != 1:
            den //= g
            num = tuple(tuple((j, re // g, im // g) for j, re, im in row) for row in num)
        m = object.__new__(cls)
        m.dim = dim
        m.num = num
        m.den = den
        m._hash = None
        return m

    @classmethod
    def identity(cls, dim: int) -> GaussMatrix:
        if dim < 1:
            raise DimensionMismatchError("matrix must have dim >= 1")
        return cls._make(dim, tuple(((i, 1, 0),) for i in range(dim)), 1)

    @property
    def entries(self) -> tuple[tuple[tuple[int, GaussRational], ...], ...]:
        """Read-only view of the nonzeros: each row's (column, value) pairs."""
        den = self.den
        return tuple(
            tuple((j, _exact(Fraction(re, den), Fraction(im, den))) for j, re, im in row)
            for row in self.num
        )

    @property
    def rows(self) -> tuple[tuple[GaussRational, ...], ...]:
        """Read-only dense view: one tuple of dim entries per row."""
        out = []
        for row in self.entries:
            dense = [ZERO] * self.dim
            for j, v in row:
                dense[j] = v
            out.append(tuple(dense))
        return tuple(out)

    def __mul__(self, other: GaussMatrix) -> GaussMatrix:
        if not isinstance(other, GaussMatrix):
            return NotImplemented
        _same_dim(self, other)
        brows = other.num
        num = []
        for row in self.num:
            if len(row) == 1:
                # One entry scales one row of other as it stands: its columns
                # already increase, and nothing cancels, as Gaussian integers
                # have no zero divisors.
                ((k, ar, ai),) = row
                num.append(tuple([(j, ar * br - ai * bi, ar * bi + ai * br) for j, br, bi in brows[k]]))
            else:
                num.append(_canonical_row(_row_times(row, brows, 1)))
        return GaussMatrix._make(self.dim, tuple(num), self.den * other.den)

    def product_signed_eq(self, b: GaussMatrix, c: GaussMatrix, d: GaussMatrix, sign: int) -> bool:
        """Whether self * b == sign * (c * d), for sign +1 or -1, forming
        neither product: with g = gcd(lden, rden), x / lden == sign * y / rden
        exactly when x * (rden / g) == y * (sign * lden / g), so rows of
        numerators formed with those factors are compared until one differs.
        Where a row of self, the row of b it selects, a row of c and the row
        of d it selects each hold one entry, the one column and the two
        scaled parts are compared as they stand."""
        _same_dim(self, b)
        _same_dim(c, d)
        if self.dim != c.dim:
            return False
        lden, rden = self.den * b.den, c.den * d.den
        g = gcd(lden, rden)
        lf, rf = rden // g, sign * (lden // g)
        brows, drows = b.num, d.num
        for arow, crow in zip(self.num, c.num):
            if len(arow) == len(crow) == 1:
                ((ka, ar, ai),) = arow
                ((kc, cr, ci),) = crow
                brow, drow = brows[ka], drows[kc]
                if len(brow) == len(drow) == 1:
                    ((jb, br, bi),) = brow
                    ((jd, dr, di),) = drow
                    if (
                        jb != jd
                        or lf * (ar * br - ai * bi) != rf * (cr * dr - ci * di)
                        or lf * (ar * bi + ai * br) != rf * (cr * di + ci * dr)
                    ):
                        return False
                    continue
            if _row_times(arow, brows, lf) != _row_times(crow, drows, rf):
                return False
        return True

    def __add__(self, other: GaussMatrix) -> GaussMatrix:
        if self.dim != other.dim:
            raise DimensionMismatchError(f"cannot add dims {self.dim} and {other.dim}")
        g = gcd(self.den, other.den)
        fa, fb = other.den // g, self.den // g
        out = []
        for ra, rb in zip(self.num, other.num):
            acc = {j: (re * fa, im * fa) for j, re, im in ra}
            for j, re, im in rb:
                old = acc.get(j, (0, 0))
                acc[j] = (old[0] + re * fb, old[1] + im * fb)
            out.append(_canonical_row(acc))
        return GaussMatrix._make(self.dim, tuple(out), self.den * fa)

    def __sub__(self, other: GaussMatrix) -> GaussMatrix:
        return self + -other

    def __neg__(self) -> GaussMatrix:
        return self.scale(-1)

    def scale(self, s: Scalarish) -> GaussMatrix:
        sr, si, d = gauss_parts(s)
        if (sr, si, d) == (1, 0, 1):
            return self
        # A zero s leaves every row empty, which _make reduces to den 1.
        num = tuple(
            tuple((j, re * sr - im * si, re * si + im * sr) for j, re, im in row if sr or si)
            for row in self.num
        )
        return GaussMatrix._make(self.dim, num, self.den * d)

    def transpose(self) -> GaussMatrix:
        cols: list[list[tuple[int, int, int]]] = [[] for _ in range(self.dim)]
        for i, row in enumerate(self.num):
            for j, re, im in row:
                cols[j].append((i, re, im))
        return GaussMatrix._make(self.dim, tuple(map(tuple, cols)), self.den)

    def conj(self) -> GaussMatrix:
        num = tuple(tuple((j, re, -im) for j, re, im in row) for row in self.num)
        return GaussMatrix._make(self.dim, num, self.den)

    def pm_identity(self) -> int | None:
        """Return +1 for I, -1 for -I, None otherwise."""
        first = self.num[0]
        v = first[0][1] if first else 0
        if self.den != 1 or v not in (1, -1):
            return None
        for i, row in enumerate(self.num):
            if row != ((i, v, 0),):
                return None
        return v

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GaussMatrix):
            return NotImplemented
        return self.dim == other.dim and self.den == other.den and self.num == other.num

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.den, self.num))
        return self._hash

    def __repr__(self) -> str:
        return f"GaussMatrix({[[str(e) for e in row] for row in self.rows]})"

    def to_strings(self) -> list[list[str]]:
        """Serialize as array-of-arrays of canonical entry strings."""
        return [[format_gauss(e) for e in row] for row in self.rows]

    @classmethod
    def from_strings(cls, rows: Sequence[Sequence[str]]) -> GaussMatrix:
        """Parse the array-of-arrays form of :meth:`to_strings`.

        Rows must be lists or tuples, so a string is never read as a row of
        one-character entries; each distinct literal is parsed once."""
        if not all(isinstance(row, (list, tuple)) for row in rows):
            raise TypeError("a matrix must be an array of rows, each an array of entry strings")
        parsed: dict[str, GaussRational] = {}
        for row in rows:
            for e in row:
                # parse_gauss rejects a non-string before it is used as a key:
                # lists and dicts are unhashable.
                if not isinstance(e, str) or e not in parsed:
                    parsed[e] = parse_gauss(e)
        return cls([[parsed[e] for e in row] for row in rows])


def _same_dim(a: GaussMatrix, b: GaussMatrix) -> None:
    if a.dim != b.dim:
        raise DimensionMismatchError(f"cannot multiply dims {a.dim} and {b.dim}")


def _row_times(arow: tuple, brows: tuple, f: int) -> dict:
    """f * arow times the rows `brows` as {column: (re, im)} numerator
    sums, those that cancel dropped. `GaussMatrix.__mul__` and
    `product_signed_eq` take one-entry rows, as in a signed monomial
    matrix, past it where they can."""
    acc: dict[int, tuple[int, int]] = {}
    for k, ar, ai in arow:
        ar, ai = ar * f, ai * f
        for j, br, bi in brows[k]:
            re, im = acc.get(j, (0, 0))
            acc[j] = (re + ar * br - ai * bi, im + ar * bi + ai * br)
    return {j: c for j, c in acc.items() if c[0] or c[1]}


def _canonical_row(acc: dict) -> tuple:
    """A row of numerator sums as (column, re, im) triples, columns
    increasing, cancelled entries dropped."""
    return tuple([(j, re, im) for j, (re, im) in sorted(acc.items()) if re or im])

