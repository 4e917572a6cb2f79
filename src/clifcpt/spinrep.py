"""Spinor representations: generator matrices realizing the Clifford
relations, their certification, and the reality/symmetry census that
drives the classification theorems."""

from __future__ import annotations

from typing import NamedTuple

from .algebra import COMPLEX, REAL, MetricSignature, blade_indices
from .exact import GaussMatrix, GaussRational, I_UNIT


class UnsupportedSignatureError(ValueError):
    """No built-in matrix construction for this signature."""


class CertificationError(ValueError):
    """A spin basis violates one or more defining properties."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("spin basis certification failed:\n  " + "\n  ".join(violations))

    def __reduce__(self):
        # A forked worker pickles it: rebuild it from the violations, not
        # from the message.
        return CertificationError, (self.violations,)


class SpinBasisFileError(ValueError):
    """A spin basis file could not be parsed or is for another signature."""


# The census keys of BasisProfile.as_dict: name -> (reality, symmetry) of
# the generators it counts; None leaves that trait free. Each square key
# names the class its sign forces: +I iff real == symmetric (certify_spinbasis).
_CENSUS = {
    "a": (False, None),
    "b": (True, None),
    "k": (None, False),
    "cs": (False, True),
    "ck": (False, False),
    "rs": (True, True),
    "rk": (True, False),
    "sym_pos": (True, True),
    "sym_neg": (False, True),
    "skew_pos": (False, False),
    "skew_neg": (True, False),
    "aplus": (False, False),
    "aminus": (False, True),
    "bplus": (True, True),
    "bminus": (True, False),
}


class BasisProfile(NamedTuple):
    """Census of a certified spin basis as generator-slot masks (bit i-1
    is generator i): the real-entry generators (the rest are imaginary)
    and the symmetric ones (the rest are antisymmetric). The generators
    squaring to -I are real_mask ^ sym_mask."""

    n: int
    real_mask: int
    sym_mask: int

    def mask(self, real: bool | None = None, sym: bool | None = None) -> int:
        """Slots of the generators with every given trait; the count of a
        class is the popcount of its mask."""
        m = (1 << self.n) - 1
        if real is not None:
            m &= self.real_mask if real else ~self.real_mask
        if sym is not None:
            m &= self.sym_mask if sym else ~self.sym_mask
        return m

    def as_dict(self) -> dict:
        return {name: self.mask(*traits).bit_count() for name, traits in _CENSUS.items()}


class _BasisFields(NamedTuple):
    sig: MetricSignature
    gens: tuple[GaussMatrix, ...]
    provenance: str
    profile: BasisProfile


class SpinBasis(_BasisFields):
    """Ordered generator matrices for Cl(p,q) or its complexification,
    certified when made: `profile` is the census of `certify_spinbasis`,
    and a broken basis raises CertificationError instead of existing.
    `_replace` (through `_make`) and unpickling call the constructor, so
    a copy is certified again and its profile formed anew."""

    __slots__ = ()

    def __new__(cls, sig: MetricSignature, gens: tuple[GaussMatrix, ...], provenance: str):
        return super().__new__(cls, sig, gens, provenance, certify_spinbasis(sig, gens))

    _make = classmethod(lambda cls, fields: cls(*tuple(fields)[:3]))

    def __getnewargs__(self):
        return self[:3]

    @property
    def dim(self) -> int:
        return self.gens[0].dim if self.gens else 1


def pauli_word(m: int, x: int, z: int) -> GaussMatrix:
    """The real word X^x Z^z on m qubits, bit m-1 of x and z the first
    Kronecker factor, as bit m-1 of a row index is: row r holds one
    entry, at column r ^ x, with sign (-1)^|(r ^ x) & z|. Phases go
    through `GaussMatrix.scale`.

    Per qubit ZX = -XZ, so Z^z X^x = (-1)^|x & z| X^x Z^z. Hence W^2 =
    (-1)^|x & z| I; as a real signed permutation, W^T = W^-1 = W^2 W,
    so W is symmetric exactly when W^2 = +I; and W W' = (-1)^|z & x'|
    X^(x^x') Z^(z^z') = (-1)^(|z & x'| + |x & z'|) W' W, so two words
    anticommute exactly when |x & z'| + |z & x'| is odd."""
    cols = (r ^ x for r in range(1 << m))
    num = tuple(((c, -1 if (c & z).bit_count() & 1 else 1, 0),) for c in cols)
    return GaussMatrix._make(1 << m, num, 1)


def _bw_pool(m: int) -> tuple[list[GaussMatrix], list[GaussMatrix], GaussMatrix]:
    """The 2m+1 pairwise-anticommuting pool behind every canonical basis:
    m real symmetric words Z...Z X I...I, m imaginary antisymmetric ones
    i(Z...Z XZ I...I) (sigma_2 = i XZ) and the tail Z...Z; every square
    is +I. The j-th word of each list has its core on qubit j; interleaving
    the two lists gives the Brauer-Weyl tower of the complex field."""
    reals, imags = [], []
    for k in reversed(range(m)):
        x, z = 1 << k, (1 << m) - (2 << k)  # the core's qubit, the qubits before it
        reals.append(pauli_word(m, x, z))
        imags.append(pauli_word(m, x, z | x).scale(I_UNIT))
    return reals, imags, pauli_word(m, 0, (1 << m) - 1)


def _real_basis(p: int, q: int) -> list[GaussMatrix]:
    """Generators for real (p,q): positives drawn as-is from the pool,
    negatives multiplied by i.

    The split between real and imaginary pool elements is chosen so that
    the factor set of the coefficient-conjugation product always contains
    an even number of minus-square generators; the census square rules
    hold exactly in that regime. Multiplying a real pool element by i
    yields an imaginary minus-square generator and vice versa, so the
    parity of the split is the only degree of freedom that matters. For
    p - q in {0, 2} the draw is all real.

    p1 ranges over [lo, hi]. When lo < hi both parities occur, and lo = hi
    only at p = 0 or p = n, where the wanted parity holds (p = 0 with m
    odd has its own branch), so a split always exists.
    """
    n = p + q
    m = n // 2
    reals, imags, tail = _bw_pool(m)
    if p == 0 and m % 2 == 1:
        # All generators are negatives; trading the last imaginary pool
        # element for the tail makes the imaginary subset even-sized.
        chosen = reals + imags[: m - 1] + [tail]
        return [g.scale(I_UNIT) for g in chosen]
    if p - q == 2:
        return reals + [tail] + [g.scale(I_UNIT) for g in imags[: m - 1]]
    lo, hi = max(0, p - m), min(p, m)
    a_even = (p + m) % 2 == 0
    for p1 in range(hi, lo - 1, -1):
        if (p1 if a_even else p - p1) % 2 == m % 2:
            break
    p2 = p - p1
    pos = reals[:p1] + imags[:p2]
    neg = [g.scale(I_UNIT) for g in reals[p1:] + imags[p2:]]
    return pos + neg


def build_spinbasis(sig: MetricSignature) -> SpinBasis:
    """Deterministic canonical basis for an even-dimensional signature,
    drawn from the one Brauer-Weyl pool.

    Complex field: the Brauer-Weyl tower. Real field: a square-balanced
    draw with the q negatives multiplied by i, all real when p - q is
    0 or 2.
    """
    n = sig.n
    if n % 2 != 0:
        raise UnsupportedSignatureError(
            f"odd n={n} has no canonical matrix basis here; classify it through "
            f"the even reduction targets (covering.reduce_odd)"
        )
    if sig.field == COMPLEX:
        reals, imags, _ = _bw_pool(n // 2)
        gens = [g for pair in zip(reals, imags) for g in pair]
    else:
        gens = _real_basis(sig.p, sig.q)
    return SpinBasis(sig, tuple(gens), "canonical")


# The dirac preset as (phase, x, z) words on two qubits: gamma^0 = Z (x) I
# and gamma^k = ZX (x) sigma_k, with ZX = -XZ and sigma_2 = i XZ.
_DIRAC_WORDS = ((1, 0b00, 0b10), (-1, 0b11, 0b10), (GaussRational(0, -1), 0b11, 0b11), (-1, 0b10, 0b11))


def preset_spinbasis(name: str) -> SpinBasis:
    """Built-in bases by name; "dirac" is the standard 4x4 gamma basis
    of Cl(1,3), with the timelike generator in slot 1."""
    if name != "dirac":
        raise UnsupportedSignatureError(f"unknown preset {name!r}; available: dirac")
    sig = MetricSignature(1, 3, REAL)
    gens = tuple(pauli_word(2, x, z).scale(phase) for phase, x, z in _DIRAC_WORDS)
    return SpinBasis(sig, gens, "preset:dirac")


# The unit phases of a Pauli word, keyed by their (re, im) numerators.
_PHASES = {(1, 0): GaussRational(1), (-1, 0): GaussRational(-1), (0, 1): I_UNIT, (0, -1): GaussRational(0, -1)}


def as_word(g: GaussMatrix) -> tuple[GaussRational, int, int] | None:
    """(phase, x, z) with g == pauli_word(m, x, z).scale(phase) and the
    phase in {+-1, +-i}, read off the matrix itself; None when g is no
    such word. The only candidates are x, the column of row 0; the
    phase, the entry of row x, at column 0; and z, whose bit k is set
    when the entry at column 2^k is not the phase. g is that word exactly
    when its denominator is 1, its dim a power of two and every row r
    holds one entry, phase * (-1)^|c & z| at column c = r ^ x. O(dim); it
    stops at the first row that fails."""
    num, dim = g.num, g.dim
    if g.den != 1 or dim & (dim - 1) or len(num[0]) != 1:
        return None
    x = num[0][0][0]
    head = num[x]
    phase = _PHASES.get(head[0][1:]) if len(head) == 1 else None
    if phase is None:
        return None
    _, pr, pi = head[0]
    z = 0
    for k in (1 << j for j in range(dim.bit_length() - 1)):
        if num[k ^ x] != ((k, pr, pi),):
            z |= k
    for r, row in enumerate(num):
        c = r ^ x
        if row != (((c, -pr, -pi) if (c & z).bit_count() & 1 else (c, pr, pi)),):
            return None
    return phase, x, z


def as_words(gens: tuple[GaussMatrix, ...]) -> list[tuple[GaussRational, int, int]] | None:
    """`as_word` of every generator, or None from the first that is not
    a word."""
    words = []
    for g in gens:
        word = as_word(g)
        if word is None:
            return None
        words.append(word)
    return words


def _scan_traits(
    g: GaussMatrix, eye: GaussMatrix, violations: list[str], idx: int
) -> tuple[bool, bool] | None:
    """Reality and symmetry of one generator, or None after recording why
    it has none. g * g is compared once, with eye * eye times the sign its
    traits force by the square rule of `certify_spinbasis`; antisymmetry
    is tested as g * eye == -(g^T * eye), so no negated matrix is formed."""
    has_re = any(re for row in g.num for _, re, _ in row)
    has_im = any(im for row in g.num for _, _, im in row)
    if has_re and has_im:
        violations.append(f"generator {idx} has mixed reality (both real and imaginary entries)")
        return None
    gt = g.transpose()
    if gt == g:
        symmetric = True
    elif g.product_signed_eq(eye, gt, eye, -1):
        symmetric = False
    else:
        violations.append(f"generator {idx} is neither symmetric nor antisymmetric")
        return None
    if g.product_signed_eq(g, eye, eye, -1 if has_im == symmetric else 1):
        return not has_im, symmetric
    violations.append(f"generator {idx} does not square to +I or -I")
    return None


def certify_spinbasis(sig: MetricSignature, gens: tuple[GaussMatrix, ...]) -> BasisProfile:
    """Verify the Clifford relations, metric squares, and reality and
    symmetry purity of every generator; return the census on success.

    Square rule: a pure generator g with g^2 = +-I squares to -I exactly
    when it is real antisymmetric or imaginary symmetric. For real h, h h^T
    is positive semidefinite, so not -I; g^2 is +g g^T or -g g^T for real
    symmetric or antisymmetric g, and -h h^T or +h h^T for g = i h with h
    real symmetric or antisymmetric. So the -I slots are real_mask ^ sym_mask.

    Word route, taken when `as_words` reads every generator as a word
    g = phase * W, W = X^x Z^z: W is a real signed permutation, so
    W^T = W^-1, and W^2 = (-1)^|x & z| I (`pauli_word`), so
    g^T = (-1)^|x & z| g. Every entry is the phase times +-1. So g is
    pure, real exactly when its phase is, symmetric exactly when |x & z|
    is even and antisymmetric otherwise, and g^2 = phase^2 (-1)^|x & z| I
    is -I exactly when one of phase^2 = -1 (imaginary) and |x & z| odd
    (antisymmetric) holds: when real != symmetric, the square rule. So
    the scan passes every word with no comparison, and a pair
    anticommutes exactly when |x_i & z_j| + |z_i & x_j| is odd.

    Dense route, every other basis: squares and pairs (gi gj = -gj gi)
    are compared on integer numerators by `GaussMatrix.product_signed_eq`,
    so no product is formed. Both routes report the metric squares and
    then the pairs, in the same order and words. The `SpinBasis`
    constructor runs it once per basis, before the basis exists, and
    keeps the result as `basis.profile`."""
    n = sig.n
    violations: list[str] = []
    if len(gens) != n:
        raise CertificationError([f"expected {n} generators, got {len(gens)}"])
    if n == 0:
        return BasisProfile(0, 0, 0)
    dims = {g.dim for g in gens}
    if len(dims) != 1:
        raise CertificationError([f"generator dimensions differ: {sorted(dims)}"])
    dim = gens[0].dim
    if n % 2 != 0 or dim != 1 << (n // 2):
        raise CertificationError(
            [f"dimension {dim} does not equal 2^(n/2) for n={n} generators"]
        )

    words = as_words(gens)
    real_mask = sym_mask = scanned = 0
    if words is not None:
        scanned = (1 << n) - 1
        for i, (phase, x, z) in enumerate(words):
            real_mask |= (not phase.im) << i
            sym_mask |= (not (x & z).bit_count() & 1) << i

        def anticommute(i: int, j: int) -> bool:
            (_, xi, zi), (_, xj, zj) = words[i], words[j]
            return bool(((xi & zj).bit_count() + (zi & xj).bit_count()) & 1)

    else:
        eye = GaussMatrix.identity(dim)
        for i, g in enumerate(gens):
            traits = _scan_traits(g, eye, violations, i + 1)
            if traits is None:
                continue
            real, symmetric = traits
            scanned |= 1 << i
            real_mask |= real << i
            sym_mask |= symmetric << i

        def anticommute(i: int, j: int) -> bool:
            gi, gj = gens[i], gens[j]
            return gi.product_signed_eq(gj, gj, gi, -1)

    for i in blade_indices((real_mask ^ sym_mask ^ sig.neg_mask) & scanned):
        want, got = ("-I", "+I") if sig.metric_sign(i) < 0 else ("+I", "-I")
        violations.append(f"generator {i} squares to {got}, expected {want}")
    for i in range(n):
        for j in range(i + 1, n):
            if not anticommute(i, j):
                violations.append(f"generators {i + 1} and {j + 1} do not anticommute")
    if violations:
        raise CertificationError(violations)
    return BasisProfile(n, real_mask, sym_mask)


def product_over(basis: SpinBasis, mask: int) -> GaussMatrix:
    """Product of the generators in a blade mask, in increasing index
    order; the identity for the empty mask."""
    if not mask:
        return GaussMatrix.identity(basis.dim)
    first, *rest = blade_indices(mask)
    out = basis.gens[first - 1]
    for i in rest:
        out = out * basis.gens[i - 1]
    return out


def save_spinbasis(basis: SpinBasis, path: str) -> None:
    # Imported here: only basis files use it.
    import json

    data = {
        "p": basis.sig.p,
        "q": basis.sig.q,
        "generators": [g.to_strings() for g in basis.gens],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_spinbasis(path: str, expect: MetricSignature | None = None) -> SpinBasis:
    """Load and fully certify a user-supplied basis file.

    Format: {"p": int, "q": int, "generators": [[[entry, ...], ...], ...]}
    with entries as exact "a/b+c/d*i" strings. A file for another (p, q)
    than `expect` is rejected before certification.
    """
    # Imported here: only basis files use it.
    import json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError: not UTF-8, not JSON, or an integer past the int-digit
        # limit. RecursionError: nested deeper than the decoder can follow.
        raise SpinBasisFileError(f"cannot read spin basis file {path}: {exc}") from exc
    try:
        p, q = data["p"], data["q"]
        if type(p) is not int or type(q) is not int:
            raise TypeError(f"p and q must be JSON integers, got {p!r} and {q!r}")
        raw = data["generators"]
        gens = tuple(GaussMatrix.from_strings(rows) for rows in raw)
        sig = MetricSignature(p, q, REAL)
    except (KeyError, TypeError, ValueError) as exc:
        raise SpinBasisFileError(f"malformed spin basis file {path}: {exc}") from exc
    if expect is not None and (p, q) != (expect.p, expect.q):
        raise SpinBasisFileError(f"basis file is for Cl({p},{q}), requested Cl({expect.p},{expect.q})")
    return SpinBasis(sig, gens, f"file:{path}")
