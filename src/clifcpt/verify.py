"""Runtime verification suites behind the `verify` CLI command.

Each suite returns a list of CheckResult records; the acceptance tests
reuse the same functions, so the CLI and the test suite agree on what is
being verified.
"""

from __future__ import annotations

import os
import random
import time
from itertools import product as iterproduct
from typing import NamedTuple

from . import algebra, covering
from .algebra import (
    COMPLEX,
    REAL,
    MetricSignature,
    Multivector,
    OddDimensionError,
    blade_format,
    involution_via_omega_check,
    random_multivector,
)
from .autmat import ELEMENT_NAMES, Realization, conditions, read_signs, realize
from .classify import dimension_audit, primitive_idempotent, radon_hurwitz, ring_type
from .exact import GaussMatrix
from .fingroup import (
    GroupStructureError,
    SignedGroup,
    cayley_table,
    census_64,
    classify_form,
    identify_abstract,
    minus_count,
    order_structure,
    polarization,
    sig_str,
    signed_closure,
)
from .goldens import (
    DIRAC_EXT_SIGNATURE,
    DIRAC_EXT_TABLE,
    WIGNER_CPT_SIGNATURE,
    WIGNER_CPT_TABLE,
    signed_cells,
)
from .pipeline import ext_reps, fan_out, predictor_analysis, wigner_reps
from .spinrep import SpinBasis, build_spinbasis, preset_spinbasis, product_over

_SEED = 20260810


class CheckResult(NamedTuple):
    suite: str
    name: str
    passed: bool
    detail: str
    seconds: float


def _run(suite: str, name: str, fn) -> CheckResult:
    """Run one check; a check that raises fails, and the run goes on."""
    t0 = time.monotonic()
    try:
        detail = fn() or ""
        passed = True
    except AssertionError as exc:
        detail = str(exc)
        passed = False
    except Exception as exc:
        # A check that crashes must not lose the results of the others.
        # The innermost frame is where it raised, as traceback.extract_tb
        # gives it, without loading traceback and linecache.
        tb = exc.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        at = f"{os.path.basename(tb.tb_frame.f_code.co_filename)}:{tb.tb_lineno}"
        detail = f"{type(exc).__name__}: {exc} (at {at})"
        passed = False
    return CheckResult(suite, name, passed, detail, time.monotonic() - t0)


def _realization(table: dict, key: MetricSignature | str) -> Realization:
    """The realization of the canonical basis of signature `key`, or of
    the dirac preset for "dirac"; each basis is built and realized once
    per verify run."""
    if key not in table:
        basis = preset_spinbasis("dirac") if key == "dirac" else build_spinbasis(key)
        table[key] = realize(basis)
    return table[key]


def _real_sigs(max_dim: int):
    for n in range(0, max_dim + 1):
        for p in range(n, -1, -1):
            yield MetricSignature(p, n - p, REAL)


def _even_real_sigs(max_dim: int):
    for sig in _real_sigs(max_dim):
        if sig.n % 2 == 0:
            yield sig


# --- automorphism-law suite -------------------------------------------------


def _apply(bits, a: Multivector) -> Multivector:
    """One of the eight coefficient/blade maps, named by its (star, rev,
    bar) bit triple."""
    s, r, b = bits
    if s:
        a = a.grade_involution()
    if r:
        a = a.reversion()
    if b:
        a = a.complex_conjugation()
    return a


def _map_name(bits) -> str:
    """The name of the map with these (star, rev, bar) bits."""
    names = ("grade involution", "reversion", "complex conjugation")
    return " and ".join(name for bit, name in zip(bits, names) if bit) or "identity"


def _tableau(k: int) -> str:
    """On 100 random Cl(1,3) samples, composing two of the maps whose
    first k bits are free is the map of their XORed bits."""
    rng = random.Random(f"{_SEED} tableau {k}")
    sig = MetricSignature(1, 3, REAL)
    maps = [bits + (0,) * (3 - k) for bits in iterproduct((0, 1), repeat=k)]
    # Each pair of maps with the map of their XORed bits.
    pairs = [(b1, b2, tuple(x ^ y for x, y in zip(b1, b2))) for b1 in maps for b2 in maps]
    for _ in range(100):
        a = random_multivector(sig, rng, allow_complex_coeffs=True)
        images = {bits: _apply(bits, a) for bits in maps}
        for b1, b2, composed in pairs:
            assert _apply(b1, images[b2]) == images[composed], (
                f"Cl(1,3): the {_map_name(b1)} after the {_map_name(b2)} "
                f"is not the {_map_name(composed)}"
            )
    if k == 2:
        return "4x4 composition tableau == Klein four-group on 100 samples"
    return "8x8 composition tableau == Z2 x Z2 x Z2 on 100 samples"


def _involution_laws(sig: MetricSignature) -> str:
    """The involution laws on 100 random samples of `sig` and on 50
    products of two of them; returns the number of products."""
    rng = random.Random(f"{_SEED} involution-laws {sig.p} {sig.q}")
    where = f"Cl({sig.p},{sig.q})"
    samples = [random_multivector(sig, rng, allow_complex_coeffs=True) for _ in range(100)]
    # Each sample with its grade involution, reversion, conjugation and
    # complex conjugation.
    images = []
    for a in samples:
        g, r, c, k = a.grade_involution(), a.reversion(), a.conjugation(), a.complex_conjugation()
        assert g.grade_involution() == a, f"{where}: the grade involution is not an involution"
        assert r.reversion() == a, f"{where}: reversion is not an involution"
        assert c.conjugation() == a, f"{where}: conjugation is not an involution"
        assert k.complex_conjugation() == a, f"{where}: complex conjugation is not an involution"
        rg = r.grade_involution()
        assert rg == g.reversion(), f"{where}: the grade involution and reversion do not commute"
        assert c == rg, f"{where}: conjugation is not the grade involution of the reversion"
        images.append((a, g, r, c, k))
    count = 0
    for i in range(0, len(images) - 1, 2):
        (a, ga, ra, ca, ka), (b, gb, rb, cb, kb) = images[i], images[i + 1]
        ab = a * b
        assert ab.grade_involution() == ga * gb, f"{where}: the grade involution is not multiplicative"
        assert ab.reversion() == rb * ra, f"{where}: reversion does not reverse products"
        assert ab.conjugation() == cb * ca, f"{where}: conjugation does not reverse products"
        assert ab.complex_conjugation() == ka * kb, f"{where}: complex conjugation is not multiplicative"
        count += 1
    return str(count)


def _omega_identity(max_dim: int) -> str:
    """omega a omega^-1 is the grade involution of a on 20 random samples
    of each even signature, and odd signatures report inapplicability."""
    rng = random.Random(f"{_SEED} volume-element-conjugation")
    hits = 0
    for sig in _real_sigs(max_dim):
        where = f"Cl({sig.p},{sig.q})"
        if sig.n % 2 == 0:
            for _ in range(20):
                assert involution_via_omega_check(random_multivector(sig, rng)), (
                    f"{where}: omega a omega^-1 is not the grade involution of a"
                )
                hits += 1
        else:
            try:
                involution_via_omega_check(Multivector.scalar(sig, 1))
                raise AssertionError(f"{where}: odd n={sig.n} did not report inapplicability")
            except OddDimensionError:
                pass
    return f"{hits} even-dimension checks, odd dimensions report inapplicability"


# Each automorphism check by name, with what it takes as its argument.
_AUTOMORPHISM_CHECKS = {
    "involution-laws": _involution_laws,
    "volume-element-conjugation": _omega_identity,
    "four-map-tableau": _tableau,
    "eight-map-tableau": _tableau,
}


def _automorphism_tasks(max_dim: int) -> list[tuple]:
    """The automorphism checks as (name, argument) tasks, each of which
    draws from a seeded stream of its own: three whole checks, then
    involution-laws one signature at a time."""
    return [
        ("volume-element-conjugation", max_dim),
        ("four-map-tableau", 2),
        ("eight-map-tableau", 3),
        *(("involution-laws", sig) for sig in _real_sigs(max_dim)),
    ]


def _run_automorphism_task(task) -> CheckResult:
    name, arg = task
    return _run("automorphisms", name, lambda: _AUTOMORPHISM_CHECKS[name](arg))


def _fold_automorphisms(results: list[CheckResult], max_dim: int) -> list[CheckResult]:
    """The four automorphism checks from the results of their tasks.
    involution-laws passes iff every signature's part passes; its detail
    is the summed pair count, or else the first failing part's detail,
    and its seconds are the sum of the parts'."""
    laws = [r for r in results if r.name == "involution-laws"]
    failed = [r for r in laws if not r.passed]
    if failed:
        detail = failed[0].detail
    else:
        detail = f"{sum(int(r.detail) for r in laws)} random product pairs across p+q <= {max_dim}"
    seconds = sum(r.seconds for r in laws)
    law = CheckResult("automorphisms", "involution-laws", not failed, detail, seconds)
    return [law, *(r for r in results if r.name != "involution-laws")]


# --- dense reference -----------------------------------------------------------


def _where(basis: SpinBasis) -> str:
    return f"{basis.provenance} Cl({basis.sig.p},{basis.sig.q})"


def dense_realization(basis: SpinBasis) -> dict:
    """The realization of `basis` built from literal matrix products,
    apart from `realize`'s blade arithmetic and choice rule.

    W is the product of all generators. E and Pi are the one candidate of
    each `covering.choice_candidates` pair whose product meets its
    condition; a second one that meets it fails the check. C = E W^T with
    a real transpose, K = Pi W, S = Pi E and F = Pi C. All seven
    conditions are tested on every generator, each matrix's sign is read
    against the increasing-index product of its mask, and the signs,
    group and order counts come from the signed closure of the eight
    matrices. `realization_facts` reads the same keys off a `Realization`."""
    where = _where(basis)
    full = (1 << basis.sig.n) - 1
    eye = GaussMatrix.identity(basis.dim)
    test, chosen = conditions(basis), {}
    for name, pair in covering.choice_candidates(basis.profile).items():
        for mask, choice in pair:
            if name in chosen and mask == chosen[name][0]:
                continue  # the same product (n = 0)
            if not test(name, product_over(basis, mask)):
                assert name not in chosen, f"{where}: {choice} also meets {name}"
                chosen[name] = mask, choice
        assert name in chosen, f"{where}: no {name} candidate meets its condition"
    (e, e_choice), (pi, pi_choice) = chosen["E"], chosen["Pi"]
    masks = dict(zip(ELEMENT_NAMES[1:], (full, e, e ^ full, pi, pi ^ full, pi ^ e, pi ^ e ^ full)))
    reps = [eye] + [product_over(basis, mask) for mask in masks.values()]
    _, w, e, _, pi = reps[:5]
    c = e * w.transpose()
    mats = [eye, w, e, c, pi, pi * w, pi * e, pi * c]
    rep_signs = {}
    for name, m, rep in zip(ELEMENT_NAMES[1:], mats[1:], reps[1:]):
        bad = test(name, m)
        assert not bad, f"{where}: {bad}"
        assert m in (rep, -rep), f"{where}: {name} is not a signed generator product"
        rep_signs[name] = 1 if m == rep else -1
    group = signed_closure(mats, eye)
    signature, commutation = read_signs(group)
    return {
        "choices": (e_choice, pi_choice),
        "masks": masks,
        "rep_signs": rep_signs,
        "signature": signature,
        "commutation": commutation,
        "order": group.order,
        "contains_minus_I": group.contains_minus_I,
        "abstract": identify_abstract(group),
        "order_counts": order_structure(reps),
        "matrices": mats,
    }


def realization_matrices(r: Realization) -> list[GaussMatrix]:
    """The matrices of the eight elements of `r` in ELEMENT_NAMES order, I
    first: each element's signed generator product."""
    masks, signs = r.predicted.masks, r.rep_signs
    return [product_over(r.basis, masks.get(name, 0)).scale(signs.get(name, 1)) for name in ELEMENT_NAMES]


def realization_facts(r: Realization) -> dict:
    """The facts of the blade realization `r`, under the keys of
    `dense_realization`."""
    return {
        "choices": (r.predicted.choice_e, r.predicted.choice_pi),
        "masks": r.predicted.masks,
        "rep_signs": r.rep_signs,
        "signature": r.signature,
        "commutation": r.commutation,
        "order": r.group.order,
        "contains_minus_I": r.group.contains_minus_I,
        "abstract": identify_abstract(r.group),
        "order_counts": r.order_counts,
        "matrices": realization_matrices(r),
    }


# --- theorem suite -----------------------------------------------------------


def suite_theorems(max_dim: int, realizations: dict | None = None) -> list[CheckResult]:
    realizations = {} if realizations is None else realizations
    out = []

    def predictor_agreement():
        total = full = 0
        for sig in _even_real_sigs(max_dim):
            rep = predictor_analysis(_realization(realizations, sig))
            assert rep["verdict"] == "agree", f"Cl({sig.p},{sig.q}): {rep['verdict']}"
            total += 1
            if rep["scope"] == "full":
                full += 1
        return f"{total} realizations agree ({full} with ring-level arms)"

    out.append(_run("theorems", "predictor-vs-computation", predictor_agreement))

    def complex_commutativity():
        for n in range(0, max_dim + 1, 2):
            r = _realization(realizations, MetricSignature(n, 0, COMPLEX))
            abelian = classify_form(covering.predict_aut_complex(n)).abelian
            assert r.aut_abelian == abelian, f"n={n}: commutativity vs prediction"
        return f"complex automorphism commutativity matches n mod 4 through n={max_dim}"

    out.append(_run("theorems", "complex-automorphism-groups", complex_commutativity))

    def intertwining():
        keys = ["dirac", *_even_real_sigs(max_dim)]
        keys += [MetricSignature(n, 0, COMPLEX) for n in range(0, max_dim + 1, 2)]
        for key in keys:
            r = _realization(realizations, key)
            got, want = realization_facts(r), dense_realization(r.basis)
            for field in want:
                assert got[field] == want[field], f"{_where(r.basis)}: {field} differ"
        return f"{len(keys)} bases, all seven conditions exhaustive"

    out.append(_run("theorems", "intertwining-conditions", intertwining))
    return out


# --- group suite --------------------------------------------------------------


def _bilinear(eps: tuple[tuple[int, ...], ...]) -> bool:
    """Whether the table eps(v, w) of signs is bilinear: eps(u, v ^ w) =
    eps(u, v) eps(u, w) for all u, v, w. Tested row by row: eps(u, 0) = 1,
    every value +-1, and eps(u, v) the product of eps(u, e_i) over the
    bits e_i of v, read as eps(u, v) = eps(u, v - b) eps(u, b) with b the
    lowest bit of v: one test per entry, not one per triple. A row so made
    is bilinear: the bits of v ^ w are those of v and of w but the shared
    ones, whose two factors square to 1. A bilinear row of signs has
    eps(u, 0) = eps(u, 0)^2 = 1 and, by induction over the bits of v, the
    product form."""
    return all(
        row[0] == 1
        and all(s in (1, -1) and s == row[v & (v - 1)] * row[v & -v] for v, s in enumerate(row))
        for row in eps
    )


def suite_groups(max_dim: int, realizations: dict | None = None) -> list[CheckResult]:
    realizations = {} if realizations is None else realizations
    out = []

    def dirac_goldens():
        r = _realization(realizations, "dirac")
        assert r.signature == DIRAC_EXT_SIGNATURE, sig_str(r.signature)
        sig = r.basis.sig
        table = cayley_table(ext_reps(r), algebra.signed_blade_mul(sig), 1 << sig.n)
        assert table.cells == signed_cells(DIRAC_EXT_TABLE), "extended-set table mismatch"
        where = _where(r.basis)
        assert r.group.order == 16, f"{where}: closure of order {r.group.order}, want 16"
        assert r.group.contains_minus_I, f"{where}: the closure does not contain -I"
        label = classify_form(r.signature).label
        assert label == "Z4*xZ2", f"{where}: label {label}, want Z4*xZ2"
        assert r.commutation == polarization(r.signature), (
            f"{where}: commutation is not the polarization of {sig_str(r.signature)}"
        )
        return "signature, 64-cell table, order-16 closure, label"

    out.append(_run("groups", "dirac-extended-set", dirac_goldens))

    def wigner_goldens():
        basis = _realization(realizations, "dirac").basis
        reps = wigner_reps(basis)
        table = cayley_table(reps)
        assert table.cells == signed_cells(WIGNER_CPT_TABLE), "reflection-set table mismatch"
        signs = tuple((m * m).pm_identity() for _, m in reps[1:])
        assert signs == WIGNER_CPT_SIGNATURE, sig_str(signs)  # type: ignore[arg-type]
        assert order_structure([m for _, m in reps]) == (3, 4)
        closure = signed_closure([m for _, m in reps], GaussMatrix.identity(basis.dim))
        info = identify_abstract(closure)
        assert not info["abelian"] and closure.order == 16
        assert classify_form(signs).label == "Z4*xZ2"
        return "64-cell table, signature, order structure (3,4), label"

    out.append(_run("groups", "wigner-reflection-set", wigner_goldens))

    def closure_closedness():
        r = _realization(realizations, "dirac")
        closure = signed_closure(realization_matrices(r), GaussMatrix.identity(r.basis.dim))
        elems = set(closure.elements)
        for i, x in enumerate(closure.elements):
            for j, y in enumerate(closure.elements):
                assert (x * y) in elems, (
                    f"{_where(r.basis)}: the product of elements {i} and {j} "
                    f"is not in the order-{closure.order} closure"
                )
        return f"order-{closure.order} closure closed under all {closure.order ** 2} products"

    out.append(_run("groups", "closure-closedness", closure_closedness))

    def census():
        c = census_64()
        assert c["total"] == 64, c["total"]
        assert c["by_minus_count"] == {0: 1, 2: 21, 4: 35, 6: 7}
        # The oracle: the signatures are the sign tuples that are quadratic
        # forms, those whose polarization is bilinear.
        forms = [s for s in iterproduct((1, -1), repeat=7) if _bilinear(polarization(s))]
        stray = [s for s in c["tuples"] if s not in forms]
        assert not stray, f"the census admits {len(stray)} non-forms, such as {sig_str(stray[0])}"
        assert c["tuples"] == forms, "the census lists the forms out of order"
        return "1 + 21 + 35 + 7 = 64"

    out.append(_run("groups", "signature-census", census))

    def sweep_labels():
        for sig in _even_real_sigs(max_dim):
            r = _realization(realizations, sig)
            classify_form(r.signature)  # GroupStructureError unless a form
            assert r.commutation == polarization(r.signature), (
                f"Cl({sig.p},{sig.q}): commutation is not the polarization "
                f"of {sig_str(r.signature)}"
            )
        return f"all realized signatures admissible and label-consistent to p+q={max_dim}"

    out.append(_run("groups", "sweep-label-consistency", sweep_labels))
    return out


# --- covering suite -----------------------------------------------------------

# The paper's cover tables, the one reference copy: each fiber with the
# label of its form class and the (abelian, center size, element-order
# histogram) of the central extension of Z2^k by Z2 that the form defines.
_PT_FIBERS = {
    "Z2xZ2xZ2": ("Z2xZ2", (True, 8, {1: 1, 2: 7})),
    "Z2xZ4": ("Z4", (True, 8, {1: 1, 2: 3, 4: 4})),
    "D4": ("D4/Z2", (False, 2, {1: 1, 2: 5, 4: 2})),
    "Q4": ("Q4/Z2", (False, 2, {1: 1, 2: 1, 4: 6})),
}
_CPT_FIBERS = {
    "Z2xZ2xZ2xZ2": ("Z2xZ2xZ2", (True, 16, {1: 1, 2: 15})),
    "Z4xZ2xZ2": ("Z4xZ2", (True, 16, {1: 1, 2: 7, 4: 8})),
    "D4xZ2": ("D4", (False, 4, {1: 1, 2: 11, 4: 4})),
    "Q4xZ2": ("Q4", (False, 4, {1: 1, 2: 3, 4: 12})),
    "Z4*xZ2xZ2": ("Z4*xZ2", (False, 4, {1: 1, 2: 7, 4: 8})),  # Z4 o D4, the Pauli group
}


def _invariants(group: SignedGroup) -> tuple:
    info = identify_abstract(group)
    return info["abelian"], info["center_size"], info["order_histogram"]


def _extension(signs: tuple[int, ...]) -> SignedGroup:
    """The central extension of Z2^k by Z2 that the form q with these
    signs defines (a minus sign is q = 1), as an integer table: element
    s * 2^k + v is (s, v), and (s, v)(t, w) = (s + t + beta(v, w), v ^ w)
    for the upper-triangular cocycle
    beta(v, w) = sum a_i v_i w_i + sum_{i<j} b_ij v_i w_j,
    with a_i = q(e_i) and b_ij = q(e_i + e_j) + q(e_i) + q(e_j)."""
    q = (0, *(int(s < 0) for s in signs))
    size = len(q)
    k = size.bit_length() - 1
    a = [q[1 << i] for i in range(k)]
    b = {(i, j): q[(1 << i) | (1 << j)] ^ a[i] ^ a[j] for i in range(k) for j in range(i + 1, k)}

    def linear(v: int) -> int:
        """L(v), with beta(v, w) = parity(w & L(v)) since beta is bilinear:
        bit j of L(v) is a_j v_j + sum_{i<j} b_ij v_i."""
        out = 0
        for j in range(k):
            bit = a[j] & (v >> j)
            for i in range(j):
                bit ^= b[i, j] & (v >> i)
            out |= bit << j
        return out

    # The products (0, v)(0, w) form row v; a sign s + t = 1 flips the
    # top bit, so (s, v) times (t, w) reads the row or its flip.
    plus, minus = [], []
    for v in range(size):
        lv = linear(v)
        row = tuple(((w & lv).bit_count() & 1) * size + (v ^ w) for w in range(size))
        flipped = tuple(x ^ size for x in row)
        plus.append(row + flipped)
        minus.append(flipped + row)
    return SignedGroup(tuple(range(2 * size)), (*plus, *minus), 0, size, ())


def _check_forms(k: int) -> dict:
    """Every sign tuple on the nonzero vectors of Z2^k: `classify_form`
    rejects exactly the odd-weight ones on Z2^3, and each form's central
    extension squares to its signs and has the invariants of its fiber,
    whose label the form carries. Returns the forms with their classes."""
    reference = _CPT_FIBERS if k == 3 else _PT_FIBERS
    forms = {}
    for signs in iterproduct((1, -1), repeat=2**k - 1):
        odd = k == 3 and minus_count(signs) % 2 == 1
        try:
            form = classify_form(signs)
        except GroupStructureError:
            assert odd, f"form {sig_str(signs)} rejected"
            continue
        assert not odd, f"odd-weight {sig_str(signs)} accepted"
        ext = _extension(signs)
        squares = tuple(-1 if ext.mul[v][v] == ext.minus_identity else 1 for v in range(1, 2**k))
        assert squares == signs, f"{sig_str(signs)}: the extension squares to {sig_str(squares)}"
        label, invariants = reference[form.fiber]
        assert (form.label, form.abelian) == (label, invariants[0]), f"{sig_str(signs)}: {form}"
        assert _invariants(ext) == invariants, f"{sig_str(signs)}: not {form.fiber}"
        forms[signs] = form
    return forms


def suite_coverings(max_dim: int, realizations: dict | None = None) -> list[CheckResult]:
    realizations = {} if realizations is None else realizations
    out = []

    def pt_rows():
        forms = _check_forms(2)
        for signs, form in forms.items():
            # The other (triple, commutes) key contradicts the polarization.
            assert form.abelian == (polarization(signs)[1][2] == 1), sig_str(signs)
        assert len(forms) == 8 and {f.fiber for f in forms.values()} == set(_PT_FIBERS)
        return "8 rows plus off-table rejection"

    out.append(_run("coverings", "pt-cover-table", pt_rows))

    def cpt_rows():
        forms = _check_forms(3)
        assert len(forms) == 64 and {f.fiber for f in forms.values()} == set(_CPT_FIBERS)
        return "5 fiber families, Cliffordian flag = non-abelian fiber"

    out.append(_run("coverings", "cpt-cover-table", cpt_rows))

    def odd_reduction():
        # (p, q) -> the volume element's square and the even targets.
        expected = {
            (3, 0): (-1, ((0, 2),)),
            (0, 3): (1, ((0, 2),)),
            (2, 1): (1, ((2, 0), (1, 1))),
            (1, 0): (1, ((0, 0),)),
        }
        for (p, q), (omega_sq, targets) in expected.items():
            red = covering.reduce_odd(p, q)
            assert red.omega_sq == omega_sq, f"Cl({p},{q}): omega_sq {red.omega_sq:+d}, want {omega_sq:+d}"
            assert red.targets == targets, f"Cl({p},{q}): targets {red.targets}, want {targets}"
        try:
            covering.reduce_odd(2, 2)
            raise AssertionError("Cl(2,2): even input accepted")
        except ValueError:
            pass
        return "volume-element squares and reduction targets"

    out.append(_run("coverings", "odd-dimension-reduction", odd_reduction))

    def label_fiber_families():
        count = 0
        for sig in _even_real_sigs(max_dim):
            r = _realization(realizations, sig)
            fiber = classify_form(r.signature).fiber
            # A closure with -I is the central extension: the fiber itself.
            if r.group.order == 16:
                got = _invariants(r.group)
                assert got == _CPT_FIBERS[fiber][1], f"Cl({sig.p},{sig.q}): {fiber} vs {got}"
            count += 1
        return f"label and cover fiber agree on {count} realizations"

    out.append(_run("coverings", "label-fiber-families", label_fiber_families))

    def arithmetic_pack():
        for i in range(-16, 17):
            assert radon_hurwitz(i + 8) == radon_hurwitz(i) + 4
        assert [radon_hurwitz(i) for i in range(8)] == [0, 1, 2, 2, 3, 3, 3, 3]
        for n in range(0, max_dim + 1):
            for p in range(n + 1):
                q = n - p
                assert dimension_audit(p, q).passed, f"audit failed for ({p},{q})"
                sig = MetricSignature(p, q, REAL)
                idem = primitive_idempotent(sig)
                assert idem.f * idem.f == idem.f, f"Cl({p},{q}): f = {idem.f} is not idempotent"
                # No blade splits f: checks k and the audit against the
                # algebra. Signs come from algebra._sign_mask, which this
                # oracle and every product call: e_x e_y has sign parity
                # |x & t_y|. The search's rules are not read.
                neg = sig.neg_mask
                chosen = [(c, algebra._sign_mask(c, neg, n)) for c in idem.generators_used]
                span = {0}
                for c, _ in chosen:
                    span |= {s ^ c for s in span}
                for m in range(1, 1 << n):
                    tm = algebra._sign_mask(m, neg, n)
                    if m in span or (m & tm).bit_count() & 1:
                        continue
                    splits = all(not ((m & tc) ^ (c & tm)).bit_count() & 1 for c, tc in chosen)
                    assert not splits, f"Cl({p},{q}): {blade_format(m)} splits f"
                assert ring_type(p + 4, q + 4).tag == ring_type(p, q).tag
        return f"ring/idempotent/audit arithmetic through p+q={max_dim}"

    out.append(_run("coverings", "arithmetic-classification", arithmetic_pack))
    return out


_SUITES = {
    "theorems": suite_theorems,
    "groups": suite_groups,
    "coverings": suite_coverings,
}


def _run_group(names, max_dim: int) -> dict[str, list[CheckResult]]:
    """Run `names` in order, sharing one realization table."""
    realizations: dict[MetricSignature | str, Realization] = {}
    return {name: _SUITES[name](max_dim, realizations) for name in names}


def run_suites(names, max_dim: int = 8, jobs: int = 1) -> list[CheckResult]:
    """Run the suites `names`; the checks come back in the order of `names`.

    `fan_out` takes the tasks in this order: the requested suites that
    read realizations, as one task so that they share one table; then the
    automorphism checks of `_automorphism_tasks`, whose involution-laws
    parts, all about the same size, come last and let the workers finish
    together. With jobs = 1 the same tasks run in order in this process,
    so the report does not depend on the core count.
    """
    shared = [n for n in names if n != "automorphisms"]
    tasks = [("suites", shared)] if shared else []
    if "automorphisms" in names:
        tasks += _automorphism_tasks(max_dim)

    def run(task):
        if task[0] == "suites":
            return _run_group(task[1], max_dim)
        return _run_automorphism_task(task)

    done = fan_out(run, tasks, jobs)
    by_suite = done.pop(0) if shared else {}
    if "automorphisms" in names:
        by_suite["automorphisms"] = _fold_automorphisms(done, max_dim)
    return [r for name in names for r in by_suite[name]]
