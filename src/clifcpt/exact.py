"""Exact scalar and dense-matrix arithmetic over the Gaussian rationals.

Every value is immutable after construction and all operations are pure,
so objects can be shared freely across threads and processes.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Union

Scalarish = Union["GaussRational", Fraction, int]


class DimensionMismatchError(ValueError):
    """Matrix operands have incompatible dimensions."""


class SingularMatrixError(ArithmeticError):
    """Inversion was attempted on a singular matrix."""


class GaussRational:
    """A complex number with exact rational real and imaginary parts.

    Denominators are always positive and in lowest terms (guaranteed by
    Fraction), so equality and hashing are exact with a canonical zero.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: Fraction | int | str = 0, im: Fraction | int | str = 0):
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
        # Fast paths for the values that dominate monomial-matrix work.
        if b == 0 and d == 0:
            return _exact(a * c, b)
        if b == 0:
            return _exact(a * c, a * d)
        if d == 0:
            return _exact(a * c, b * c)
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

    @classmethod
    def parse(cls, text: str) -> GaussRational:
        return parse_gauss(text)


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
ONE = GaussRational(1)
MINUS_ONE = GaussRational(-1)
I_UNIT = GaussRational(0, 1)


def format_gauss(z: GaussRational) -> str:
    """Canonical text form "a/b+c/d*i" with zero parts omitted.

    Examples of the grammar: "0", "1", "-1/2", "i", "-i", "3*i",
    "1/2+1/2*i", "1/2-1/2*i".
    """
    if z.re == 0 and z.im == 0:
        return "0"
    parts = []
    if z.re != 0:
        parts.append(str(z.re))
    if z.im != 0:
        mag = abs(z.im)
        unit = "i" if mag == 1 else f"{mag}*i"
        if z.im < 0:
            parts.append(f"-{unit}")
        elif parts:
            parts.append(f"+{unit}")
        else:
            parts.append(unit)
    return "".join(parts)


def parse_gauss(text: str) -> GaussRational:
    """Parse the canonical text form produced by :func:`format_gauss`."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty GaussRational literal")
    if not s.endswith("i"):
        return GaussRational(Fraction(s))
    body = s[:-1]
    if body.endswith("*"):
        body = body[:-1]
    # Split off a leading real part at the last sign that is not part of
    # a numerator sign or fraction bar.
    re_part, im_part = "", body
    for pos in range(len(body) - 1, 0, -1):
        if body[pos] in "+-" and body[pos - 1] not in "+-*/":
            re_part, im_part = body[:pos], body[pos:]
            break
    if im_part in ("", "+", "-"):
        im = Fraction(im_part + "1")
    else:
        im = Fraction(im_part)
    re = Fraction(re_part) if re_part else Fraction(0)
    return GaussRational(re, im)


class GaussMatrix:
    """A dense square matrix of GaussRational entries.

    The public contract is the dense exact matrix; internally a signed
    monomial representation (exactly one nonzero per row and column) is
    detected on construction and used to shortcut products and inverses,
    because every generator and automorphism matrix in this artifact is
    signed monomial.
    """

    __slots__ = ("dim", "rows", "_monomial", "_hash")

    def __init__(self, rows: Iterable[Iterable[Scalarish]]):
        norm_rows = tuple(tuple(_coerce(e) for e in row) for row in rows)
        dim = len(norm_rows)
        if dim < 1:
            raise DimensionMismatchError("matrix must have dim >= 1")
        for row in norm_rows:
            if len(row) != dim:
                raise DimensionMismatchError(
                    f"matrix is not square: {dim} rows, row of length {len(row)}"
                )
        self.dim = dim
        self.rows = norm_rows
        self._monomial = self._scan_monomial()
        self._hash: int | None = None

    def _scan_monomial(self):
        entries = []
        col_seen = [False] * self.dim
        for row in self.rows:
            hit = None
            for j, e in enumerate(row):
                if not e.is_zero():
                    if hit is not None:
                        return None
                    hit = (j, e)
            if hit is None or col_seen[hit[0]]:
                return None
            col_seen[hit[0]] = True
            entries.append(hit)
        return tuple(entries)

    @classmethod
    def identity(cls, dim: int) -> GaussMatrix:
        return cls([[ONE if i == j else ZERO for j in range(dim)] for i in range(dim)])

    @classmethod
    def _from_monomial(cls, dim: int, entries: Sequence[tuple[int, GaussRational]]) -> GaussMatrix:
        rows = []
        for j, v in entries:
            row = [ZERO] * dim
            row[j] = v
            rows.append(tuple(row))
        m = cls.__new__(cls)
        m.dim = dim
        m.rows = tuple(rows)
        m._monomial = tuple(entries)
        m._hash = None
        return m

    def __mul__(self, other: GaussMatrix) -> GaussMatrix:
        if not isinstance(other, GaussMatrix):
            return NotImplemented
        if self.dim != other.dim:
            raise DimensionMismatchError(f"cannot multiply dims {self.dim} and {other.dim}")
        if self._monomial is not None and other._monomial is not None:
            entries = []
            for j, va in self._monomial:
                k, vb = other._monomial[j]
                entries.append((k, va * vb))
            return GaussMatrix._from_monomial(self.dim, entries)
        dim = self.dim
        out = []
        for i in range(dim):
            arow = self.rows[i]
            orow = []
            for j in range(dim):
                acc = ZERO
                for k in range(dim):
                    a = arow[k]
                    if a.is_zero():
                        continue
                    b = other.rows[k][j]
                    if b.is_zero():
                        continue
                    acc = acc + a * b
                orow.append(acc)
            out.append(orow)
        return GaussMatrix(out)

    def __add__(self, other: GaussMatrix) -> GaussMatrix:
        if self.dim != other.dim:
            raise DimensionMismatchError(f"cannot add dims {self.dim} and {other.dim}")
        return GaussMatrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __sub__(self, other: GaussMatrix) -> GaussMatrix:
        if self.dim != other.dim:
            raise DimensionMismatchError(f"cannot subtract dims {self.dim} and {other.dim}")
        return GaussMatrix(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __neg__(self) -> GaussMatrix:
        return GaussMatrix(
            [[ZERO if e.is_zero() else -e for e in row] for row in self.rows]
        )

    def scale(self, s: Scalarish) -> GaussMatrix:
        s = _coerce(s)
        if s == ONE:
            return self
        if s == MINUS_ONE:
            return -self
        return GaussMatrix([[ZERO if e.is_zero() else e * s for e in row] for row in self.rows])

    def transpose(self) -> GaussMatrix:
        d = self.dim
        return GaussMatrix([[self.rows[j][i] for j in range(d)] for i in range(d)])

    def conj(self) -> GaussMatrix:
        return GaussMatrix(
            [[e if e.im == 0 else e.conjugate() for e in row] for row in self.rows]
        )

    def inverse(self) -> GaussMatrix:
        if self._monomial is not None:
            entries: list[tuple[int, GaussRational] | None] = [None] * self.dim
            for i, (j, v) in enumerate(self._monomial):
                entries[j] = (i, ONE / v)
            return GaussMatrix._from_monomial(self.dim, entries)  # type: ignore[arg-type]
        return self._inverse_gauss()

    def _inverse_gauss(self) -> GaussMatrix:
        d = self.dim
        a = [list(row) for row in self.rows]
        inv = [[ONE if i == j else ZERO for j in range(d)] for i in range(d)]
        for col in range(d):
            pivot = None
            for r in range(col, d):
                if not a[r][col].is_zero():
                    pivot = r
                    break
            if pivot is None:
                raise SingularMatrixError(f"matrix is singular (no pivot in column {col})")
            a[col], a[pivot] = a[pivot], a[col]
            inv[col], inv[pivot] = inv[pivot], inv[col]
            pv = a[col][col]
            for j in range(d):
                a[col][j] = a[col][j] / pv
                inv[col][j] = inv[col][j] / pv
            for r in range(d):
                if r == col or a[r][col].is_zero():
                    continue
                factor = a[r][col]
                for j in range(d):
                    a[r][j] = a[r][j] - factor * a[col][j]
                    inv[r][j] = inv[r][j] - factor * inv[col][j]
        return GaussMatrix(inv)

    def is_identity(self) -> bool:
        return self.pm_identity() == 1

    def pm_identity(self) -> int | None:
        """Return +1 for I, -1 for -I, None otherwise."""
        for i, row in enumerate(self.rows):
            for j, e in enumerate(row):
                if i == j:
                    if e != ONE and e != MINUS_ONE:
                        return None
                elif not e.is_zero():
                    return None
        sign = 1 if self.rows[0][0] == ONE else -1
        for i in range(self.dim):
            if self.rows[i][i] != (ONE if sign == 1 else MINUS_ONE):
                return None
        return sign

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GaussMatrix):
            return NotImplemented
        return self.dim == other.dim and self.rows == other.rows

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.rows)
        return self._hash

    def __repr__(self) -> str:
        return f"GaussMatrix({[[str(e) for e in row] for row in self.rows]})"

    def to_strings(self) -> list[list[str]]:
        """Serialize as array-of-arrays of canonical entry strings."""
        return [[format_gauss(e) for e in row] for row in self.rows]

    @classmethod
    def from_strings(cls, rows: Sequence[Sequence[str]]) -> GaussMatrix:
        return cls([[parse_gauss(e) for e in row] for row in rows])


def kron(a: GaussMatrix, b: GaussMatrix) -> GaussMatrix:
    """Kronecker product; the left factor varies slowest."""
    da, db = a.dim, b.dim
    rows = []
    for i in range(da):
        for r in range(db):
            row = []
            for j in range(da):
                aij = a.rows[i][j]
                if aij.is_zero():
                    row.extend([ZERO] * db)
                else:
                    row.extend([aij * b.rows[r][c] for c in range(db)])
            rows.append(row)
    return GaussMatrix(rows)
