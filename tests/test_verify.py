from itertools import product as iterproduct

import pytest

from clifcpt import verify as vf
from clifcpt.algebra import Multivector
from clifcpt.fingroup import census_64, is_form, polarization


def _reference_extension(signs):
    """The (mul, identity, minus_identity) of `_extension(signs)` with
    beta(v, w) evaluated by the sums of its docstring: element s * 2^k + v
    is (s, v), and (s, v)(t, w) = (s + t + beta(v, w), v ^ w)."""
    q = (0, *(int(s < 0) for s in signs))
    size = len(q)
    k = size.bit_length() - 1
    a = [q[1 << i] for i in range(k)]

    def bit(x, i):
        return (x >> i) & 1

    def beta(v, w):
        diagonal = sum(a[i] * bit(v, i) * bit(w, i) for i in range(k))
        upper = sum(
            (q[(1 << i) | (1 << j)] + a[i] + a[j]) * bit(v, i) * bit(w, j)
            for i in range(k)
            for j in range(i + 1, k)
        )
        return (diagonal + upper) % 2

    mul = tuple(
        tuple((s + t + beta(v, w)) % 2 * size + (v ^ w) for t in (0, 1) for w in range(size))
        for s in (0, 1)
        for v in range(size)
    )
    return mul, 0, size


@pytest.mark.parametrize("k", [2, 3])
def test_extension_is_the_cocycle_of_its_docstring(k):
    # Every sign tuple on the nonzero vectors of Z2^k, forms or not: 8 on
    # Z2^2 and 128 on Z2^3.
    tuples = list(iterproduct((1, -1), repeat=2**k - 1))
    assert len(tuples) == {2: 8, 3: 128}[k]
    for signs in tuples:
        ext = vf._extension(signs)
        assert ext.elements == tuple(range(2 ** (k + 1)))
        assert (ext.mul, ext.identity, ext.minus_identity) == _reference_extension(signs), signs


@pytest.mark.parametrize("k, pairs", [(2, 16), (3, 64)])
def test_tableau_compares_every_pair_on_every_sample(k, pairs, monkeypatch):
    # 100 samples, each with every ordered pair of the 2^k maps: a hoisted
    # pair list that dropped a pair would compare fewer.
    calls = []
    eq = Multivector.__eq__

    def counting(self, other):
        calls.append(None)
        return eq(self, other)

    monkeypatch.setattr(Multivector, "__eq__", counting)
    vf._tableau(k)
    assert len(calls) == 100 * pairs


def _triples(eps):
    """Whether eps(u, v ^ w) = eps(u, v) eps(u, w) on every triple."""
    size = range(len(eps))
    return all(eps[u][v ^ w] == eps[u][v] * eps[u][w] for u, v, w in iterproduct(size, repeat=3))


def test_bilinear_is_the_triple_test():
    # The row-by-row test of `_bilinear` keeps exactly the sign tables that
    # pass the triple test: the polarizations of all 8 + 128 sign tuples
    # over Z2^2 and Z2^3, and seeded tables of signs, most of them not
    # bilinear.
    import random

    tables = [polarization(s) for k in (2, 3) for s in iterproduct((1, -1), repeat=2**k - 1)]
    rng = random.Random(3)
    tables += [tuple(tuple(rng.choice((1, -1)) for _ in range(4)) for _ in range(4)) for _ in range(2000)]
    kept = [eps for eps in tables if vf._bilinear(eps)]
    assert kept == [eps for eps in tables if _triples(eps)]
    assert len(kept) > 8 + 64


@pytest.mark.parametrize("k, count", [(2, 8), (3, 64)])
def test_is_form_is_the_triple_test(k, count):
    # The weight-parity rule of `is_form` keeps exactly the sign tuples
    # whose polarization passes the triple test: all 8 triples on Z2^2,
    # and the 64 of the 128 seven-tuples on Z2^3 that the census lists.
    tuples = list(iterproduct((1, -1), repeat=2**k - 1))
    kept = [signs for signs in tuples if is_form(signs)]
    assert kept == [signs for signs in tuples if _triples(polarization(signs))]
    assert len(kept) == count
    if k == 3:
        assert census_64()["tuples"] == kept
