import hashlib
import json
from fractions import Fraction

import pytest

from clifcpt import classify
from clifcpt.algebra import MetricSignature, Multivector
from clifcpt.classify import (
    IdempotentSearchError,
    dimension_audit,
    idempotent_factor_count,
    primitive_idempotent,
    radon_hurwitz,
    ring_type,
    splitting_blade,
)


def test_radon_hurwitz_table():
    assert [radon_hurwitz(i) for i in range(8)] == [0, 1, 2, 2, 3, 3, 3, 3]
    assert radon_hurwitz(4) == 3
    assert radon_hurwitz(10) == 6
    assert radon_hurwitz(-2) == -1


def test_radon_hurwitz_recurrence():
    for i in range(-16, 17):
        assert radon_hurwitz(i + 8) == radon_hurwitz(i) + 4


def test_ring_type_examples():
    assert ring_type(1, 3).tag == "H"
    assert ring_type(3, 1).tag == "R"
    assert ring_type(0, 3).tag == "H+H"
    assert ring_type(0, 1).tag == "C"
    assert ring_type(1, 0).tag == "R+R"
    assert ring_type(0, 0).tag == "R"
    assert ring_type(2, 0).tag == "R"
    assert ring_type(0, 2).tag == "H"


def test_ring_type_translation_invariance():
    for p in range(6):
        for q in range(6):
            assert ring_type(p + 4, q + 4).tag == ring_type(p, q).tag


def test_idempotent_factor_count_examples():
    assert idempotent_factor_count(0, 0) == 0
    assert idempotent_factor_count(1, 3) == 1
    assert idempotent_factor_count(2, 0) == 1


def test_primitive_idempotent_small_cases():
    f00 = primitive_idempotent(MetricSignature(0, 0))
    assert f00.k == 0
    assert f00.f == Multivector.scalar(MetricSignature(0, 0), 1)

    f13 = primitive_idempotent(MetricSignature(1, 3))
    assert f13.k == 1
    assert f13.generators_used == (1,)  # e{1}
    assert str(f13.f) == "1/2*e{} + 1/2*e{1}"

    f20 = primitive_idempotent(MetricSignature(2, 0))
    assert f20.generators_used == (1,)
    assert str(f20.f) == "1/2*e{} + 1/2*e{1}"


@pytest.mark.parametrize("n", range(0, 13))
def test_idempotent_property_all_signatures(n):
    for p in range(n + 1):
        q = n - p
        sig = MetricSignature(p, q)
        data = primitive_idempotent(sig)
        assert data.k == idempotent_factor_count(p, q)
        assert data.f * data.f == data.f
        assert len(data.generators_used) == data.k
        assert len(data.f.terms) == 1 << data.k


def test_closed_form_idempotent_is_the_literal_product():
    # f built by doubling against prod (1 + e_m)/2 multiplied out with
    # Multivector products, on every real cell with n <= 12.
    half = Fraction(1, 2)
    for n in range(0, 13):
        for p in range(n + 1):
            sig = MetricSignature(p, n - p)
            data = primitive_idempotent(sig)
            want = Multivector.scalar(sig, 1)
            for m in data.generators_used:
                want = want * Multivector(sig, {0: half, m: half})
            got = data.f
            assert (got.num, got.den) == (want.num, want.den), (p, n - p)
            assert hash(got) == hash(want) and str(got) == str(want), (p, n - p)


def test_primitive_idempotent_forms_no_multivector_product(monkeypatch):
    calls = [0]
    raw = Multivector.__mul__

    def counted(a, b):
        calls[0] += 1
        return raw(a, b)

    monkeypatch.setattr(Multivector, "__mul__", counted)
    one = Multivector.scalar(MetricSignature(1, 1), 1)
    assert one * one == one and calls == [1]
    for n in range(0, 13):
        for p in range(n + 1):
            primitive_idempotent(MetricSignature(p, n - p))
    assert calls == [1]


def test_dependent_blades_are_refused(monkeypatch):
    # A search that takes every next mask chooses e1, e2 and e{1,2} on
    # Cl(3,3), where k = 3; their product has 4 terms, not 8.
    monkeypatch.setattr(classify, "splitting_blade", lambda sig, chosen, start=1: start)
    with pytest.raises(IdempotentSearchError, match=r"Cl\(3,3\) has 4 terms, expected 8"):
        primitive_idempotent(MetricSignature(3, 3))


def test_dimension_audit_examples():
    a13 = dimension_audit(1, 3)
    assert (a13.passed, a13.summands, a13.matrix_size, a13.ring_dim) == (True, 1, 2, 4)
    a20 = dimension_audit(2, 0)
    assert (a20.passed, a20.summands, a20.matrix_size, a20.ring_dim) == (True, 1, 2, 1)
    a03 = dimension_audit(0, 3)
    assert (a03.passed, a03.summands, a03.matrix_size, a03.ring_dim) == (True, 2, 1, 4)


def test_dimension_audit_all_signatures():
    for n in range(0, 11):
        for p in range(n + 1):
            assert dimension_audit(p, n - p).passed


def _gf2_rank(masks) -> int:
    rank, rows = 0, list(masks)
    for bit in reversed(range(max(rows, default=0).bit_length())):
        pivot = next((r for r in rows if r >> bit & 1), None)
        if pivot is None:
            continue
        rows = [r ^ pivot if r >> bit & 1 else r for r in rows if r != pivot]
        rank += 1
    return rank


def test_idempotent_generator_set_is_lexicographically_least():
    # Brute force over all k-subsets of the +1-square blades, in
    # lexicographic order, against the greedy pass.
    from itertools import combinations

    from clifcpt.algebra import blade_square_sign, blades_commute

    for n in range(0, 7):
        for p in range(n + 1):
            sig = MetricSignature(p, n - p)
            data = primitive_idempotent(sig)
            candidates = [m for m in range(1, 1 << n) if blade_square_sign(m, sig) == 1]
            best = next(
                combo
                for combo in combinations(candidates, data.k)
                if _gf2_rank(combo) == data.k
                and all(blades_commute(x, y, sig) for x, y in combinations(combo, 2))
            )
            assert best == data.generators_used, (p, n - p)


def test_chosen_blades_are_maximal_and_the_last_one_is_needed():
    # No blade outside the span of the chosen ones squares to +1 and
    # commutes with all of them; dropping the last chosen blade leaves one.
    for n in range(0, 13):
        for p in range(n + 1):
            sig = MetricSignature(p, n - p)
            chosen = primitive_idempotent(sig).generators_used
            assert splitting_blade(sig, chosen) is None, (p, n - p)
            if chosen:
                assert splitting_blade(sig, chosen[:-1]) is not None, (p, n - p)


def test_idempotent_factors_are_pinned():
    # The chosen blades of every cell with n <= 12; a change to the
    # search changes the digest.
    doc = [
        [p, n - p, primitive_idempotent(MetricSignature(p, n - p)).generator_strings()]
        for n in range(0, 13)
        for p in range(n, -1, -1)
    ]
    digest = hashlib.sha256(json.dumps(doc, separators=(",", ":")).encode()).hexdigest()
    assert digest == "06b1ea5bd6263ee9fcc04ff27a43cdd18c20e337cebb681d5c46193b6996f7e4"


def _rank(m):
    """The rank of a GaussMatrix, by Gauss-Jordan elimination over
    GaussRational."""
    rows = [list(row) for row in m.rows]
    rank = 0
    for col in range(m.dim):
        pivot = next((r for r in range(rank, m.dim) if not rows[r][col].is_zero()), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        rows[rank] = [x / lead for x in rows[rank]]
        for r in range(m.dim):
            if r != rank and not rows[r][col].is_zero():
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def test_idempotent_represents_as_a_rank_one_or_two_projector():
    # On the spin basis of every even real cell with n <= 8, the primitive
    # idempotent is an idempotent matrix of rank 1 over R and 2 over H: a
    # minimal left ideal is one spinor column, or two for H. An f one blade
    # short doubles the rank.
    from clifcpt.spinrep import build_spinbasis, represent

    for n in range(0, 9, 2):
        for p in range(n + 1):
            sig = MetricSignature(p, n - p)
            f = represent(build_spinbasis(sig), primitive_idempotent(sig).f)
            assert f * f == f, (p, n - p)
            assert _rank(f) == {"R": 1, "H": 2}[ring_type(p, n - p).tag], (p, n - p)
