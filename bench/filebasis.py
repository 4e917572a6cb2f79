"""Seeded generator of user spin-basis files for the `filebasis` workload.

Each file holds a canonical basis of Cl(p,q) conjugated by a seeded real
orthogonal matrix M, g -> M g M^T. Conjugation by a real orthogonal
matrix keeps every generator's reality, symmetry and square, and it is a
similarity, so the classification of a file must equal that of the
canonical cell of the same (p, q). Two kinds of M are drawn:

- "perm": a signed permutation. The generators stay monomial, but the
  draw is repeated until at least one of them is not a Pauli word
  i^k X^x Z^z, so a Pauli-word kernel cannot take the file. Dimension 4
  (n = 4) is left out: every signed 4x4 permutation is a two-qubit
  Clifford element, so it maps Pauli words to Pauli words.
- "givens": a layer of rational Givens rotations with cosine 3/5 and
  sine 4/5, then a signed permutation. The generators become dense, with
  denominators up to 25.

The program sees only the written files.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

PERM_DIMS = (6, 8)
MAX_DRAWS = 100
GIVENS_DIMS = (4, 6)


def even_signatures(dims):
    return [(p, n - p) for n in dims for p in range(n, -1, -1)]


def job_specs() -> list[tuple[int, int, str]]:
    """The (p, q, kind) of every file, in job order."""
    return [(p, q, "perm") for p, q in even_signatures(PERM_DIMS)] + [
        (p, q, "givens") for p, q in even_signatures(GIVENS_DIMS)
    ]


def _signed_permutation(dim: int, rng: random.Random):
    from clifcpt.exact import GaussMatrix

    perm = list(range(dim))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(dim)]
    return GaussMatrix([[signs[i] if j == perm[i] else 0 for j in range(dim)] for i in range(dim)])


def _givens_product(dim: int, rng: random.Random):
    """A fixed layer of Givens rotations on the coordinate pairs
    (1,2), (3,4), ..., (dim-1,0), followed by a seeded signed permutation.

    The seed only permutes and negates rows and columns of the same dense
    matrices, so every seed costs the program the same arithmetic."""
    from clifcpt.exact import GaussMatrix

    c, s = Fraction(3, 5), Fraction(4, 5)
    rows = [[0] * dim for _ in range(dim)]
    for k in range(1, dim, 2):
        i, j = k, (k + 1) % dim
        rows[i][i] = rows[j][j] = c
        rows[i][j], rows[j][i] = -s, s
    return _signed_permutation(dim, rng) * GaussMatrix(rows)


def is_pauli_word(rows: list[list[str]]) -> bool:
    """True when the string matrix is i^k X^x Z^z for some bit masks x, z."""
    dim = len(rows)
    nonzero = [[j for j, e in enumerate(row) if e != "0"] for row in rows]
    if any(len(cols) != 1 for cols in nonzero):
        return False
    x = nonzero[0][0]
    if any(cols[0] != r ^ x for r, cols in enumerate(nonzero)):
        return False
    phase = [rows[r][r ^ x] for r in range(dim)]
    units = ("1", "-1", "i", "-i")
    if any(v not in units for v in phase):
        return False
    # The phase must be a constant times a linear character (-1)^(z.r).
    flip = {"1": "-1", "-1": "1", "i": "-i", "-i": "i"}
    z = 0
    bit = 1
    while bit < dim:
        if phase[bit] != phase[0]:
            z |= bit
        bit <<= 1
    return all(
        phase[r] == (flip[phase[0]] if (z & r).bit_count() & 1 else phase[0]) for r in range(dim)
    )


def write_inputs(seed: int, directory: str) -> list[dict]:
    """Write one basis file per job spec; return the manifest entries.

    Every file is certified with `load_spinbasis`, so a broken generator
    fails here, before any timing starts.
    """
    from clifcpt.algebra import REAL, MetricSignature
    from clifcpt.spinrep import build_spinbasis, load_spinbasis

    rng = random.Random(seed)
    os.makedirs(directory, exist_ok=True)
    manifest = []
    for p, q, kind in job_specs():
        gens = build_spinbasis(MetricSignature(p, q, REAL)).gens
        dim = gens[0].dim
        for _ in range(MAX_DRAWS):
            m = _signed_permutation(dim, rng) if kind == "perm" else _givens_product(dim, rng)
            mt = m.transpose()
            rows = [(m * g * mt).to_strings() for g in gens]
            if not all(is_pauli_word(r) for r in rows):
                break
        else:
            raise RuntimeError(f"no non-Pauli {kind} conjugate of Cl({p},{q}) in {MAX_DRAWS} draws")
        path = os.path.join(directory, f"{kind}-{p}-{q}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"p": p, "q": q, "generators": rows}, fh, indent=1, sort_keys=True)
            fh.write("\n")
        basis = load_spinbasis(path)
        if (basis.sig.p, basis.sig.q) != (p, q):
            raise RuntimeError(f"{path}: loaded as Cl({basis.sig.p},{basis.sig.q})")
        manifest.append({"p": p, "q": q, "kind": kind, "path": path})
    return manifest
