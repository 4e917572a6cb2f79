"""Finite groups of matrices or signed blades: signed multiplicative
closures, order structure, the quadratic form behind a signature tuple
with its group names, Cayley tables, and the admissible signature
census."""

from __future__ import annotations

from collections import Counter
from itertools import product as iterproduct
from math import lcm
from typing import NamedTuple, Sequence

from .algebra import Multivector
from .exact import GaussMatrix

# A group element: a matrix, or a signed blade of the Clifford algebra.
Element = GaussMatrix | Multivector

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
    generators: tuple[int, ...]  # index of each matrix passed in, duplicates included

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def contains_minus_I(self) -> bool:
        return self.minus_identity is not None


def signed_closure(gens: Sequence[Element], identity: Element) -> SignedGroup:
    """Fixed-point closure of the given elements under multiplication,
    with the index of every product and of every generator. The elements
    are matrices or signed blades; `identity` is the unit of their ring,
    and its negative is -I.

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
                    prod = order[head] * roots[k]
                    j = seen.get(prod)
                    row.append(insert(prod, head, k) if j is None else j)
        generators.append(idx)
    unit = seen.get(identity)
    if unit is None:
        raise GroupStructureError("the closure has no identity; a generator is singular")
    mul = []
    for x in range(len(order)):
        row = []
        for prefix, k in origin:
            row.append(right[x][k] if prefix is None else right[row[prefix]][k])
        mul.append(tuple(row))
    return SignedGroup(tuple(order), tuple(mul), unit, seen.get(-identity), tuple(generators))


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


def classify_form(signs: tuple[int, ...]) -> FormClass:
    """The class of the quadratic form with these signs on the nonzero
    vectors of Z2^2 (the W, E, C triple) or Z2^3 (the seven signs W to
    F): abelian when its polarization is trivial, and the paper's names.
    A Cliffordian fiber is a non-abelian one. Raises GroupStructureError
    when the signs are not a form, that is when their polarization is
    not bilinear (on Z2^3: an odd minus count)."""
    eps = polarization(signs)
    size = len(eps)
    # eps(u, v ^ w) eps(u, v) eps(u, w) is the product of q over the seven
    # nonzero sums of u, v and w: symmetric, and 1 when two are equal or
    # one is 0. So distinct u > v > w > 0 cover every case.
    if any(
        eps[u][v ^ w] != eps[u][v] * eps[u][w]
        for u in range(size)
        for v in range(1, u)
        for w in range(1, v)
    ):
        raise GroupStructureError(f"signature {sig_str(signs)} is not a quadratic form")
    abelian = all(s == 1 for row in eps for s in row)
    label, fiber = _FORM_NAMES[size.bit_length() - 1, abelian, minus_count(signs)]
    return FormClass(abelian, label, fiber)


def identify_abstract(group: SignedGroup) -> dict:
    """Transparent invariants of a closed matrix group, read off its
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


def cayley_table(labeled: Sequence[tuple[str, Element]]) -> CayleyTable:
    """Multiplication table of labeled representatives; every product must
    land in {+-rep}. Matching prefers earlier representatives, which
    makes degenerate sets (duplicate matrices) deterministic."""
    labels = tuple(lab for lab, _ in labeled)
    mats = [m for _, m in labeled]
    cells = []
    for _, x in labeled:
        row = []
        for _, y in labeled:
            prod = x * y
            hit = None
            for lab, rep in labeled:
                if prod == rep:
                    hit = (1, lab)
                    break
                if prod == -rep:
                    hit = (-1, lab)
                    break
            if hit is None:
                raise GroupStructureError("product falls outside the signed representative set")
            row.append(hit)
        cells.append(tuple(row))
    return CayleyTable(labels, tuple(cells))


def census_64() -> dict:
    """Enumerate all 2^7 sign tuples and keep those with minus count in
    {0, 2, 4, 6}; the admissible total is 1 + 21 + 35 + 7 = 64."""
    admissible = []
    by_minus: dict[int, int] = {}
    for signs in iterproduct((1, -1), repeat=7):
        mc = minus_count(signs)
        if mc in (0, 2, 4, 6):
            admissible.append(signs)
            by_minus[mc] = by_minus.get(mc, 0) + 1
    return {
        "total": len(admissible),
        "by_minus_count": dict(sorted(by_minus.items())),
        "tuples": admissible,
    }
