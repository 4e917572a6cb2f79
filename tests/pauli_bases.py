"""Test-local builder of Pauli-word spin bases.

A Pauli word on m qubits is X^x Z^z, the Kronecker product over qubits
j = 0..m-1 of X^(bit j of x) Z^(bit j of z), for bit masks x, z not
both zero. Each word is real, squares to (-1)^|x & z| and is symmetric
exactly when it squares to +I (XZ is the one antisymmetric factor); two
words anticommute exactly when |x & z'| + |z & x'| is odd.

A Pauli-word basis of n = 2m generators takes n pairwise anticommuting
words, each taken real or times i (which flips its square and makes it
imaginary), and lists the generators squaring to +I first, so that it is
a certified basis of Cl(p, q) with p the count of those generators.
"""

import random

from clifcpt.algebra import MetricSignature
from clifcpt.exact import I_UNIT
from clifcpt.spinrep import SpinBasis, pauli_word


def _reversed_bits(m, v):
    return int(format(v, f"0{m}b")[::-1], 2)


def word(m, x, z):
    """The real matrix X^x Z^z on m qubits. Qubit j is bit j here and
    bit m-1-j in `pauli_word`, so both masks are read backwards."""
    return pauli_word(m, _reversed_bits(m, x), _reversed_bits(m, z))


def _anticommute(a, b):
    return ((a[0] & b[1]).bit_count() + (a[1] & b[0]).bit_count()) % 2 == 1


def anticommuting_sets(n):
    """Every set of n pairwise anticommuting words on n/2 qubits, as an
    increasing tuple of (x, z) pairs, in lexicographic order."""
    m = n // 2
    words = [(x, z) for x in range(1 << m) for z in range(1 << m) if x or z]
    out = []

    def extend(chosen, start):
        if len(chosen) == n:
            out.append(tuple(chosen))
            return
        for k in range(start, len(words)):
            if all(_anticommute(words[k], c) for c in chosen):
                extend(chosen + [words[k]], k + 1)

    extend([], 0)
    return out


def pauli_basis(words, imag_mask):
    """The basis of the given words, word k times i when bit k of
    imag_mask is set, with the +I-squaring generators first."""
    m = len(words) // 2
    gens = []
    for k, (x, z) in enumerate(words):
        g = word(m, x, z)
        imaginary = (imag_mask >> k) & 1
        square = (-1) ** ((x & z).bit_count() + imaginary)
        label = f"{'i' if imaginary else ''}{x}.{z}"
        gens.append((square < 0, g.scale(I_UNIT) if imaginary else g, label))
    gens.sort(key=lambda t: t[0])  # stable: word order within each sign
    q = sum(neg for neg, _, _ in gens)
    return SpinBasis(
        MetricSignature(len(words) - q, q),
        tuple(g for _, g, _ in gens),
        "pauli:" + ",".join(label for _, _, label in gens),
    )


def pauli_bases(n):
    """Every Pauli-word basis with n generators."""
    return [
        pauli_basis(words, imag)
        for words in anticommuting_sets(n)
        for imag in range(1 << n)
    ]


def sample_pauli_bases(n, count, seed):
    """`count` distinct Pauli-word bases with n generators, drawn with a
    seeded generator."""
    rng = random.Random(seed)
    sets = anticommuting_sets(n)
    picks = rng.sample(range(len(sets) << n), count)
    return [pauli_basis(sets[k >> n], k & ((1 << n) - 1)) for k in picks]
