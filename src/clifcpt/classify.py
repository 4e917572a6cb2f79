"""Arithmetic classification of Cl(p,q): division-ring type, Radon-Hurwitz
numbers, primitive idempotents, and the Wedderburn dimension audit."""

from __future__ import annotations

from typing import NamedTuple

from .algebra import (
    MetricSignature,
    Multivector,
    _commute_parity,
    _square_parity,
    blade_format,
    idempotent_product,
)

_RH_TABLE = (0, 1, 2, 2, 3, 3, 3, 3)

# Division ring per (p - q) mod 8. "+": direct sum of two simple summands.
_RING_BY_MOD8 = {
    0: "R",
    1: "R+R",
    2: "R",
    3: "C",
    4: "H",
    5: "H+H",
    6: "H",
    7: "C",
}

_RING_DIM = {"R": 1, "C": 2, "H": 4, "R+R": 1, "H+H": 4}


class IdempotentSearchError(RuntimeError):
    """No valid commuting generator set was found (should not happen)."""


class RingType(NamedTuple):
    tag: str
    pq_mod8: int

    @property
    def summands(self) -> int:
        return 2 if self.tag in ("R+R", "H+H") else 1

    @property
    def dim_per_summand(self) -> int:
        return _RING_DIM[self.tag]


class IdempotentData(NamedTuple):
    k: int
    generators_used: tuple[int, ...]  # blade masks
    f: Multivector

    def generator_strings(self) -> list[str]:
        return [blade_format(m) for m in self.generators_used]


class DimensionAudit(NamedTuple):
    passed: bool
    total_dim: int
    summands: int
    matrix_size: int
    ring_dim: int


def radon_hurwitz(i: int) -> int:
    """The period-8 sequence 0,1,2,2,3,3,3,3 extended both directions
    by r_{i+8} = r_i + 4."""
    return _RH_TABLE[i % 8] + 4 * (i // 8)


def ring_type(p: int, q: int) -> RingType:
    if p < 0 or q < 0:
        raise ValueError("p and q must be nonnegative")
    mod = (p - q) % 8
    return RingType(_RING_BY_MOD8[mod], mod)


def idempotent_factor_count(p: int, q: int) -> int:
    return q - radon_hurwitz(q - p)


def splitting_blade(sig: MetricSignature, chosen, start: int = 1) -> int | None:
    """The least mask m >= start such that e_m is outside the span of the
    blades `chosen`, squares to +1 and commutes with each of them, so that
    (1 +- e_m)/2 would split their idempotent; None if there is none.
    Each mask is tested for its square, then for the span, then for
    commutation with each chosen blade, up to the first failure."""
    neg_mask = sig.neg_mask
    span = {0}
    for c in chosen:
        span |= {s ^ c for s in span}
    for m in range(start, 1 << sig.n):
        if _square_parity(m, neg_mask) or m in span:
            continue
        for c in chosen:
            if _commute_parity(m, c):
                break
        else:
            return m
    return None


def primitive_idempotent(sig: MetricSignature) -> IdempotentData:
    """f = prod over the chosen blades of (1 + e_a)/2, all '+' signs.

    The generator set is the lexicographically least (by blade mask)
    sequence of k mutually commuting square-(+1) blades whose masks are
    GF(2)-independent; independence guarantees the expansion of f has
    exactly 2^k distinct terms, hence f is a nonzero idempotent.

    One ascending pass over the masks takes each `splitting_blade` until
    it holds k, and cannot get stuck. Q(A) = [e_A^2 = -1] is a quadratic
    form on GF(2)^n with polar form b(A, B) = [e_A, e_B anticommute],
    since (e_A e_B)^2 = +-e_A^2 e_B^2 with their commutation sign. The
    chosen masks span a totally singular W (Q = b = 0 on W), and m is
    taken exactly when W + <m> is one too; a mask that cannot extend W
    cannot extend a larger W, so a pass that ends short of k ends at a
    maximal W. Each maximal W contains the singular radical R = {x :
    Q(x) = 0, b(x, .) = 0} (W + R is totally singular), which for odd n
    may hold the full mask. Q is nonsingular on GF(2)^n / R, so by Witt's
    extension theorem (Elman, Karpenko and Merkurjev, The Algebraic and
    Geometric Theory of Quadratic Forms, AMS 2008, section 8) all maximal
    W have one dimension: the pass reaches k whenever k blades exist, and
    a depth-first search over the masks would choose as it does and never
    backtrack.

    f is formed in closed form by `idempotent_product`, with no
    Multivector product and no test of f * f = f, which follows from the
    above; `verify`'s arithmetic-classification check multiplies it out.
    """
    p, q = sig.p, sig.q
    k = idempotent_factor_count(p, q)
    chosen: list[int] = []
    while len(chosen) < k:
        m = splitting_blade(sig, chosen, chosen[-1] + 1 if chosen else 1)
        if m is None:
            raise IdempotentSearchError(
                f"no commuting +1-square blade set of size {k} found for Cl({p},{q})"
            )
        chosen.append(m)

    f = idempotent_product(sig, chosen)
    if len(f.num) != 1 << k:
        raise IdempotentSearchError(
            f"idempotent expansion for Cl({p},{q}) has {len(f.num)} terms, expected {1 << k}"
        )
    return IdempotentData(k, tuple(chosen), f)


def dimension_audit(p: int, q: int) -> DimensionAudit:
    """Check 2^(p+q) = summands * (matrix size)^2 * dim_R(ring per summand).

    The matrix size is inferred from the idempotent factor count k: the
    minimal left ideal has real dimension 2^(p+q-k) and is a column space
    over the division ring.
    """
    ring = ring_type(p, q)
    k = idempotent_factor_count(p, q)
    n = p + q
    total = 1 << n
    ideal_dim = 1 << (n - k) if n >= k else 0
    ring_dim = ring.dim_per_summand
    if ideal_dim % ring_dim != 0:
        return DimensionAudit(False, total, ring.summands, 0, ring_dim)
    size = ideal_dim // ring_dim
    ok = size > 0 and (size & (size - 1)) == 0
    ok = ok and ring.summands * size * size * ring_dim == total
    return DimensionAudit(ok, total, ring.summands, size, ring_dim)
