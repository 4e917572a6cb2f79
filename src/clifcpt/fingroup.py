"""Finite groups of matrices or signed blades: signed multiplicative
closures, order structure, the quadratic form behind a signature tuple
with its group names, Cayley tables, and the admissible signature
census."""

from __future__ import annotations

import operator
from collections import Counter
from itertools import product as iterproduct
from math import lcm
from typing import Callable, NamedTuple, Sequence

from .exact import GaussMatrix

# A group element: a matrix, or a signed blade of the Clifford algebra held
# as an int (see `algebra.signed_blade_mul`).
Element = GaussMatrix | int

CLOSURE_LIMIT = 256


def sig_str(signs: tuple[int, ...]) -> str:
    return "(" + ",".join("+" if s > 0 else "-" for s in signs) + ")"


def minus_count(signs: tuple[int, ...]) -> int:
    return sum(1 for s in signs if s < 0)


class ClosureError(RuntimeError):
    """Closure did not terminate within the expected bound."""


class GroupStructureError(ValueError):
    """Elements handed to a group routine break its structural invariant:
    no generators, a closure without the identity, a square other than
    +-I, a product outside the signed representative set, an order too
    large to identify, or signs that are not a quadratic form."""


class SignedGroup(NamedTuple):
    elements: tuple[Element, ...]
    mul: tuple[tuple[int, ...], ...]  # mul[i][j]: index of elements[i] * elements[j]
    identity: int  # index of I
    minus_identity: int | None  # index of -I, if present
    generators: tuple[int, ...]  # index of each element passed in, duplicates included

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def contains_minus_I(self) -> bool:
        return self.minus_identity is not None


def signed_closure(
    gens: Sequence[Element],
    identity: Element,
    mul: Callable[[Element, Element], Element] = operator.mul,
    minus_identity: Element | None = None,
) -> SignedGroup:
    """Fixed-point closure of the given elements under the product `mul`,
    with the index of every product and of every generator. The elements
    are matrices or signed blades; `identity` is the unit of their ring,
    and -I is `minus_identity`, by default -identity. Signed blades held
    as ints pass their product and the int of -I; they hash and compare
    as ints.

    An input outside the closure of the inputs before it becomes a root,
    and every element is right-multiplied by every root exactly once, in
    breadth-first insertion order; an input already in the closure forms
    no product. Each product y = p * r keeps its origin (p, r), so the
    rest of the table follows by associativity, x * y = (x * p) * r, by
    lookups alone. -I appears exactly when some product generates it.
    """
    if not gens:
        raise GroupStructureError("need at least one generator")
    seen: dict[Element, int] = {}
    order: list[Element] = []
    origin: list[tuple[int | None, int]] = []  # (p, k): order[p] * roots[k]; p is None for roots[k]
    right: list[list[int]] = []  # right[i][k]: index of order[i] * roots[k]
    roots: list[Element] = []

    def insert(m: Element, prefix: int | None, k: int) -> int:
        if len(order) >= CLOSURE_LIMIT:
            raise ClosureError(f"closure exceeds {CLOSURE_LIMIT} elements")
        seen[m] = len(order)
        order.append(m)
        origin.append((prefix, k))
        right.append([])
        return seen[m]

    generators = []
    for g in gens:
        idx = seen.get(g)
        if idx is None:
            idx = insert(g, None, len(roots))
            roots.append(g)
            # enumerate also visits the rows appended on the way: old
            # elements lack only the new root, new ones lack every root.
            for head, row in enumerate(right):
                for k in range(len(row), len(roots)):
                    prod = mul(order[head], roots[k])
                    j = seen.get(prod)
                    row.append(insert(prod, head, k) if j is None else j)
        generators.append(idx)
    unit = seen.get(identity)
    if unit is None:
        raise GroupStructureError("the closure has no identity; a generator is singular")
    table = []
    for x in range(len(order)):
        row = []
        for prefix, k in origin:
            row.append(right[x][k] if prefix is None else right[row[prefix]][k])
        table.append(tuple(row))
    minus = seen.get(-identity if minus_identity is None else minus_identity)
    return SignedGroup(tuple(order), tuple(table), unit, minus, tuple(generators))


def order_structure(reps: Sequence[GaussMatrix]) -> tuple[int, int]:
    """(count of order-2, count of order-4) among the representatives,
    excluding the identity; every square must be +-I."""
    eye = GaussMatrix.identity(reps[0].dim)
    n2 = n4 = 0
    for m in reps:
        sq = (m * m).pm_identity()
        if sq is None:
            raise GroupStructureError("representative square is not +-I")
        if m == eye:
            continue
        if sq == 1:
            n2 += 1
        else:
            n4 += 1
    return (n2, n4)


def polarization(signs: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The commutation table of the quadratic form q on Z2^k whose signs
    on the nonzero vectors 1 .. 2^k - 1 are `signs` (W, E, C, Pi, K, S, F
    in ELEMENT_NAMES order for k = 3), with q(0) = +1: entry [v][w] is
    eps(v, w) = q(v) q(w) q(v ^ w).

    In a realization x_v x_w = +-x_(v ^ w) and x_v^2 = q(v) I, so
    (x_v x_w)^2 is both eps q(v) q(w) and q(v ^ w): eps(v, w) is the
    sign with x_v x_w = eps * x_w x_v."""
    q = (1, *signs)
    return tuple(tuple(q[v] * q[w] * q[v ^ w] for w in range(len(q))) for v in range(len(q)))


class FormClass(NamedTuple):
    abelian: bool
    label: str  # the group of the 2^k elements; for k = 2 the {I, W, E, C} label
    fiber: str  # the cover fiber: CPT for k = 3, PT for k = 2


# The paper's names, keyed by (k, abelian, minus count) of a form on Z2^k:
# the CPT group and CPT fiber for k = 3, the {I, W, E, C} group and PT
# fiber for k = 2. Every form on Z2^2 or Z2^3 has one of these keys.
_FORM_NAMES = {
    (2, True, 0): ("Z2xZ2", "Z2xZ2xZ2"),
    (2, True, 2): ("Z4", "Z2xZ4"),
    (2, False, 1): ("D4/Z2", "D4"),
    (2, False, 3): ("Q4/Z2", "Q4"),
    (3, True, 0): ("Z2xZ2xZ2", "Z2xZ2xZ2xZ2"),
    (3, False, 2): ("D4", "D4xZ2"),
    (3, True, 4): ("Z4xZ2", "Z4xZ2xZ2"),
    (3, False, 4): ("Z4*xZ2", "Z4*xZ2xZ2"),
    (3, False, 6): ("Q4", "Q4xZ2"),
}


def is_form(signs: tuple[int, ...]) -> bool:
    """Whether signs on the nonzero vectors of Z2^2 (the W, E, C triple) or
    Z2^3 (the seven signs W to F) are a quadratic form, that is whether
    their polarization is bilinear: every triple is, and a seven-tuple is
    exactly when its minus count is even.

    Write q(v) = (-1)^f(v) with f(0) = 0, and f in algebraic normal form,
    a sum of monomials x_S over sets S of coordinates. eps(u, v ^ w)
    eps(u, v) eps(u, w) is (-1) to the sum of f over the eight sums of
    subsets of {u, v, w}, the third difference of f at 0. A monomial of
    degree at most 2 has third difference 0, and x1 x2 x3 has det(u, v, w),
    trilinear, alternating and 1 on the unit vectors. So the polarization
    is bilinear exactly when f has no monomial of degree 3: always on
    Z2^2, and on Z2^3 when the x1 x2 x3 coefficient is 0. By Moebius
    inversion that coefficient is the sum of f over all of Z2^3, the minus
    count mod 2."""
    return len(signs) == 3 or minus_count(signs) % 2 == 0


def classify_form(signs: tuple[int, ...]) -> FormClass:
    """The class of the quadratic form with these signs on the nonzero
    vectors of Z2^2 (the W, E, C triple) or Z2^3 (the seven signs W to
    F): abelian when its polarization is trivial, and the paper's names.
    A Cliffordian fiber is a non-abelian one. Raises GroupStructureError
    when the signs are not a form (`is_form`)."""
    if not is_form(signs):
        raise GroupStructureError(f"signature {sig_str(signs)} is not a quadratic form")
    abelian = all(s == 1 for row in polarization(signs) for s in row)
    label, fiber = _FORM_NAMES[len(signs).bit_length(), abelian, minus_count(signs)]
    return FormClass(abelian, label, fiber)


def identify_abstract(group: SignedGroup) -> dict:
    """Transparent invariants of any closed group, read off its
    multiplication table: order, abelianness, center size, exponent and
    element-order histogram."""
    n = group.order
    if n > 32:
        raise GroupStructureError("identification supported only up to order 32")
    mul = group.mul
    central = [all(mul[i][j] == mul[j][i] for j in range(n)) for i in range(n)]
    abelian = all(central)
    orders = sorted(_element_order(group, i) for i in range(n))
    hist = dict(sorted(Counter(orders).items()))
    return {
        "order": n,
        "abelian": abelian,
        "center_size": sum(central),
        "exponent": lcm(*orders),
        "order_histogram": hist,
        "contains_minus_I": group.contains_minus_I,
    }


def _element_order(group: SignedGroup, i: int) -> int:
    """Order of elements[i], from the multiplication table."""
    x, k = i, 1
    while x != group.identity:
        if k == group.order:
            raise GroupStructureError("an element has no inverse in the closure")
        x = group.mul[x][i]
        k += 1
    return k


class CayleyTable(NamedTuple):
    labels: tuple[str, ...]
    cells: tuple[tuple[tuple[int, str], ...], ...]  # (sign, label) per cell

    def to_markdown(self, legend: dict[str, str] | None = None) -> str:
        head = "|      | " + " | ".join(self.labels) + " |"
        sep = "|" + "---|" * (len(self.labels) + 1)
        lines = [head, sep]
        for label, row in zip(self.labels, self.cells):
            rendered = [("-" if s < 0 else "") + lab for s, lab in row]
            lines.append(f"| {label} | " + " | ".join(rendered) + " |")
        if legend:
            lines.append("")
            for k, v in legend.items():
                lines.append(f"- {k} = {v}")
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        return {
            "rows": list(self.labels),
            "cells": [[{"sign": s, "label": lab} for s, lab in row] for row in self.cells],
        }


def cayley_table(
    labeled: Sequence[tuple[str, Element]],
    mul: Callable[[Element, Element], Element] = operator.mul,
    minus_identity: Element | None = None,
) -> CayleyTable:
    """Multiplication table of labeled representatives under the product
    `mul`; every product must land in {+-rep}. As in `signed_closure`,
    signed blades held as ints pass their product and the int of -I, and
    -rep is -I * rep; matrices take `*` and -rep. Each cell is one lookup
    in an index of +rep and -rep built in representative order, in which
    the first label wins: the earliest representative, and +rep before
    -rep. That makes degenerate sets (duplicate matrices or blades)
    deterministic."""
    index: dict[Element, tuple[int, str]] = {}
    for lab, rep in labeled:
        index.setdefault(rep, (1, lab))
        index.setdefault(-rep if minus_identity is None else mul(minus_identity, rep), (-1, lab))
    cells = tuple(tuple(index.get(mul(x, y)) for _, y in labeled) for _, x in labeled)
    if any(None in row for row in cells):
        raise GroupStructureError("product falls outside the signed representative set")
    return CayleyTable(tuple(lab for lab, _ in labeled), cells)


def census_64() -> dict:
    """Enumerate all 2^7 sign tuples and keep the quadratic forms, those
    with an even minus count (`is_form`); the admissible total is
    1 + 21 + 35 + 7 = 64."""
    admissible = [signs for signs in iterproduct((1, -1), repeat=7) if is_form(signs)]
    by_minus = Counter(minus_count(signs) for signs in admissible)
    return {
        "total": len(admissible),
        "by_minus_count": dict(sorted(by_minus.items())),
        "tuples": admissible,
    }
