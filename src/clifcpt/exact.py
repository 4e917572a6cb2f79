"""Exact scalar and matrix arithmetic over the Gaussian rationals.

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
    if not isinstance(text, str):
        raise TypeError(f"GaussRational literal must be a string, not {type(text).__name__}")
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
    """A square matrix of GaussRational entries, stored by its nonzeros.

    ``entries[i]`` holds row i's ``(column, value)`` pairs in increasing
    column order, with no zero values. The form is canonical, so equality
    and hashing compare nonzeros only, and every operation loops over the
    nonzeros: a signed monomial matrix (one nonzero per row), as every
    generator and automorphism matrix of the spinor bases is, costs O(dim)
    per product, a dense one the usual O(dim^3).
    """

    __slots__ = ("dim", "entries", "_hash")

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
        self.entries = tuple(
            tuple((j, e) for j, e in enumerate(row) if e.re or e.im) for row in norm_rows
        )
        self._hash: int | None = None

    @classmethod
    def _make(cls, dim: int, entries: tuple) -> GaussMatrix:
        """Internal constructor for entries already in canonical form."""
        m = object.__new__(cls)
        m.dim = dim
        m.entries = entries
        m._hash = None
        return m

    @classmethod
    def identity(cls, dim: int) -> GaussMatrix:
        if dim < 1:
            raise DimensionMismatchError("matrix must have dim >= 1")
        return cls._make(dim, tuple(((i, ONE),) for i in range(dim)))

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

    def _map(self, f) -> GaussMatrix:
        """Apply f to every nonzero; f must map nonzeros to nonzeros."""
        return GaussMatrix._make(
            self.dim, tuple(tuple((j, f(v)) for j, v in row) for row in self.entries)
        )

    def __mul__(self, other: GaussMatrix) -> GaussMatrix:
        if not isinstance(other, GaussMatrix):
            return NotImplemented
        if self.dim != other.dim:
            raise DimensionMismatchError(f"cannot multiply dims {self.dim} and {other.dim}")
        brows = other.entries
        out = []
        for arow in self.entries:
            acc: dict[int, GaussRational] = {}
            for k, a in arow:
                for j, b in brows[k]:
                    acc[j] = acc[j] + a * b if j in acc else a * b
            out.append(_canonical_row(acc))
        return GaussMatrix._make(self.dim, tuple(out))

    def __add__(self, other: GaussMatrix) -> GaussMatrix:
        if self.dim != other.dim:
            raise DimensionMismatchError(f"cannot add dims {self.dim} and {other.dim}")
        out = []
        for ra, rb in zip(self.entries, other.entries):
            acc = dict(ra)
            _add_scaled(acc, ONE, rb)
            out.append(_canonical_row(acc))
        return GaussMatrix._make(self.dim, tuple(out))

    def __sub__(self, other: GaussMatrix) -> GaussMatrix:
        return self + -other

    def __neg__(self) -> GaussMatrix:
        return self._map(GaussRational.__neg__)

    def scale(self, s: Scalarish) -> GaussMatrix:
        s = _coerce(s)
        if s == ONE:
            return self
        if s.is_zero():
            return GaussMatrix._make(self.dim, ((),) * self.dim)
        return self._map(lambda v: v * s)

    def transpose(self) -> GaussMatrix:
        cols: list[list[tuple[int, GaussRational]]] = [[] for _ in range(self.dim)]
        for i, row in enumerate(self.entries):
            for j, v in row:
                cols[j].append((i, v))
        return GaussMatrix._make(self.dim, tuple(map(tuple, cols)))

    def conj(self) -> GaussMatrix:
        return self._map(lambda v: v if v.im == 0 else v.conjugate())

    def inverse(self) -> GaussMatrix:
        """Gauss-Jordan elimination over dict rows that hold nonzeros only."""
        d = self.dim
        a = [dict(row) for row in self.entries]
        inv = [{i: ONE} for i in range(d)]
        for col in range(d):
            pivot = next((r for r in range(col, d) if col in a[r]), None)
            if pivot is None:
                raise SingularMatrixError(f"matrix is singular (no pivot in column {col})")
            a[col], a[pivot] = a[pivot], a[col]
            inv[col], inv[pivot] = inv[pivot], inv[col]
            pv = a[col][col]
            if pv != ONE:
                a[col] = {j: v / pv for j, v in a[col].items()}
                inv[col] = {j: v / pv for j, v in inv[col].items()}
            for r in range(d):
                factor = a[r].get(col) if r != col else None
                if factor is not None:
                    _add_scaled(a[r], -factor, a[col].items())
                    _add_scaled(inv[r], -factor, inv[col].items())
        return GaussMatrix._make(d, tuple(_canonical_row(row) for row in inv))

    def is_identity(self) -> bool:
        return self.pm_identity() == 1

    def pm_identity(self) -> int | None:
        """Return +1 for I, -1 for -I, None otherwise."""
        first = self.entries[0]
        v = first[0][1] if first else ZERO
        if v != ONE and v != MINUS_ONE:
            return None
        for i, row in enumerate(self.entries):
            if row != ((i, v),):
                return None
        return 1 if v == ONE else -1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GaussMatrix):
            return NotImplemented
        return self.dim == other.dim and self.entries == other.entries

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.entries)
        return self._hash

    def __repr__(self) -> str:
        return f"GaussMatrix({[[str(e) for e in row] for row in self.rows]})"

    def to_strings(self) -> list[list[str]]:
        """Serialize as array-of-arrays of canonical entry strings."""
        return [[format_gauss(e) for e in row] for row in self.rows]

    @classmethod
    def from_strings(cls, rows: Sequence[Sequence[str]]) -> GaussMatrix:
        return cls([[parse_gauss(e) for e in row] for row in rows])


def _add_scaled(acc: dict, factor: GaussRational, pairs: Iterable) -> None:
    """acc += factor * pairs over (column, value) pairs; cancelled columns
    are deleted, so acc keeps nonzeros only."""
    for j, v in pairs:
        t = acc[j] + factor * v if j in acc else factor * v
        if t.re or t.im:
            acc[j] = t
        else:
            del acc[j]


def _canonical_row(acc: dict) -> tuple:
    """A row dict as (column, value) pairs, columns increasing, zeros dropped."""
    return tuple((j, v) for j, v in sorted(acc.items()) if v.re or v.im)


def kron(a: GaussMatrix, b: GaussMatrix) -> GaussMatrix:
    """Kronecker product; the left factor varies slowest."""
    db = b.dim
    rows = tuple(
        tuple((j * db + c, x * y) for j, x in ra for c, y in rb)
        for ra in a.entries
        for rb in b.entries
    )
    return GaussMatrix._make(a.dim * db, rows)
