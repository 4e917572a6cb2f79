"""Finite matrix groups: signed multiplicative closures, order structure,
group labels for signature tuples, Cayley tables, and the admissible
signature census."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import product as iterproduct
from math import lcm
from typing import Sequence

from .exact import GaussMatrix

CLOSURE_LIMIT = 256


def sig_str(signs: tuple[int, ...]) -> str:
    return "(" + ",".join("+" if s > 0 else "-" for s in signs) + ")"


def minus_count(signs: tuple[int, ...]) -> int:
    return sum(1 for s in signs if s < 0)


class ClosureError(RuntimeError):
    """Closure did not terminate within the expected bound."""


class ClassificationError(ValueError):
    """A signature tuple falls outside the admissible census."""


class GroupStructureError(ValueError):
    """Matrices handed to a group routine break its structural invariant:
    no generators or mixed dimensions, a closure without the identity, a
    square other than +-I, a product outside the signed representative
    set, or an order too large to identify."""


@dataclass(frozen=True)
class SignedGroup:
    elements: tuple[GaussMatrix, ...]
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


@dataclass(frozen=True)
class GroupLabel:
    tag: str
    abelian: bool
    consistent: bool
    note: str = ""


def signed_closure(gens: Sequence[GaussMatrix]) -> SignedGroup:
    """Fixed-point closure of the given matrices under multiplication,
    with the index of every product and of every generator.

    Elements are visited breadth-first in deterministic insertion order;
    -I appears exactly when some product generates it.
    """
    if not gens:
        raise GroupStructureError("need at least one generator")
    dim = gens[0].dim
    eye = GaussMatrix.identity(dim)
    if any(g.dim != dim for g in gens):
        raise GroupStructureError("generators have mixed dimensions")
    seen: dict[GaussMatrix, int] = {}
    generators = tuple(seen.setdefault(g, len(seen)) for g in gens)
    order = list(seen)
    products: dict[tuple[int, int], int] = {}
    head = 0
    while head < len(order):
        for j in range(len(order)):
            for pair in ((head, j), (j, head)):
                # A pair with j < head was formed when row j was visited.
                if pair in products:
                    continue
                prod = order[pair[0]] * order[pair[1]]
                idx = seen.get(prod)
                if idx is None:
                    if len(order) >= CLOSURE_LIMIT:
                        raise ClosureError(f"closure exceeds {CLOSURE_LIMIT} elements")
                    idx = seen[prod] = len(order)
                    order.append(prod)
                products[pair] = idx
        head += 1
    identity = seen.get(eye)
    if identity is None:
        raise GroupStructureError("the closure has no identity; a generator is singular")
    n = len(order)
    mul = tuple(tuple(products[i, j] for j in range(n)) for i in range(n))
    return SignedGroup(tuple(order), mul, identity, seen.get(-eye), generators)


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


def signature_label(signs: tuple[int, ...], abelian: bool) -> GroupLabel:
    """Label of the eight-representative signed system from its seven-sign
    tuple and commutativity; raises when the minus count is inadmissible.

    Must-be-abelian/non-abelian mismatches are reported through the
    `consistent` flag rather than masked.
    """
    mc = minus_count(signs)
    if mc not in (0, 2, 4, 6):
        raise ClassificationError(
            f"signature {sig_str(signs)} has minus count {mc}, not in {{0,2,4,6}}"
        )
    if mc == 0:
        tag, must_abelian = "Z2xZ2xZ2", True
    elif mc == 2:
        tag, must_abelian = "D4", False
    elif mc == 6:
        tag, must_abelian = "Q4", False
    else:
        tag = "Z4xZ2" if abelian else "Z4*xZ2"
        must_abelian = None
    consistent = must_abelian is None or abelian == must_abelian
    note = "" if consistent else f"{tag} requires abelian={must_abelian}, got {abelian}"
    return GroupLabel(tag, abelian, consistent, note)


def aut_label(signs: tuple[int, int, int], abelian: bool) -> GroupLabel:
    """Label of the four-element system {I, W, E, C} from its three-sign
    tuple and commutativity."""
    mc = minus_count(signs)
    if abelian:
        if mc == 0:
            tag = "Z2xZ2"
        elif mc == 2:
            tag = "Z4"
        else:
            raise ClassificationError(f"abelian triple {sig_str(signs)} must have 0 or 2 minuses")
    else:
        if mc == 3:
            tag = "Q4/Z2"
        elif mc == 1:
            tag = "D4/Z2"
        else:
            raise ClassificationError(f"non-abelian triple {sig_str(signs)} must have 1 or 3 minuses")
    return GroupLabel(tag, abelian, True)


def identify_abstract(group: SignedGroup) -> dict:
    """Transparent invariants of a closed matrix group, read off its
    multiplication table: order, abelianness, center size, exponent,
    element-order histogram; order-8 groups are matched against the five
    groups of that order."""
    n = group.order
    if n > 32:
        raise GroupStructureError("identification supported only up to order 32")
    mul = group.mul
    central = [all(mul[i][j] == mul[j][i] for j in range(n)) for i in range(n)]
    abelian = all(central)
    orders = sorted(_element_order(group, i) for i in range(n))
    hist = dict(sorted(Counter(orders).items()))
    name = None
    if n == 8:
        key = (abelian, tuple(sorted(hist.items())))
        table8 = {
            (True, ((1, 1), (2, 7))): "Z2xZ2xZ2",
            (True, ((1, 1), (2, 3), (4, 4))): "Z4xZ2",
            (True, ((1, 1), (2, 1), (4, 2), (8, 4))): "Z8",
            (False, ((1, 1), (2, 5), (4, 2))): "D4",
            (False, ((1, 1), (2, 1), (4, 6))): "Q8",
        }
        name = table8.get(key)
    return {
        "order": n,
        "abelian": abelian,
        "center_size": sum(central),
        "exponent": lcm(*orders),
        "order_histogram": hist,
        "contains_minus_I": group.contains_minus_I,
        "order8_name": name,
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


@dataclass(frozen=True)
class CayleyTable:
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


def cayley_table(labeled: Sequence[tuple[str, GaussMatrix]]) -> CayleyTable:
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
