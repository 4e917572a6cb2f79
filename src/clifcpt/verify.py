"""Runtime verification suites behind the `verify` CLI command.

Each suite returns a list of CheckResult records; the acceptance tests
reuse the same functions, so the CLI and the test suite agree on what is
being verified.
"""

from __future__ import annotations

import os
import random
import time
import traceback
from itertools import product as iterproduct
from typing import NamedTuple

from . import SUITE_NAMES, covering
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
from .autmat import ELEMENT_NAMES, Realization, check, read_signs, realize
from .classify import dimension_audit, primitive_idempotent, radon_hurwitz, ring_type, splitting_blade
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
        where = traceback.extract_tb(exc.__traceback__)[-1]
        at = f"{os.path.basename(where.filename)}:{where.lineno}"
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


def _tableau(rng: random.Random, k: int) -> None:
    """On 100 random Cl(1,3) samples, composing two of the maps whose
    first k bits are free is the map of their XORed bits."""
    sig = MetricSignature(1, 3, REAL)
    maps = [bits + (0,) * (3 - k) for bits in iterproduct((0, 1), repeat=k)]
    for _ in range(100):
        a = random_multivector(sig, rng, allow_complex_coeffs=True)
        images = {bits: _apply(bits, a) for bits in maps}
        for b1 in maps:
            for b2 in maps:
                composed = tuple(x ^ y for x, y in zip(b1, b2))
                assert _apply(b1, images[b2]) == images[composed]


def suite_automorphisms(max_dim: int, realizations: dict | None = None) -> list[CheckResult]:
    """Laws of the four involutions; `realizations` is unused here and is
    accepted so that every suite takes the run's realization table."""
    rng = random.Random(_SEED)
    out = []

    def law_pack():
        count = 0
        for sig in _real_sigs(max_dim):
            samples = [random_multivector(sig, rng, allow_complex_coeffs=True) for _ in range(100)]
            # Each sample with its grade involution, reversion, conjugation
            # and complex conjugation.
            images = []
            for a in samples:
                g, r, c, k = a.grade_involution(), a.reversion(), a.conjugation(), a.complex_conjugation()
                assert g.grade_involution() == a
                assert r.reversion() == a
                assert c.conjugation() == a
                assert k.complex_conjugation() == a
                rg = r.grade_involution()
                assert rg == g.reversion()
                assert c == rg
                images.append((a, g, r, c, k))
            for i in range(0, len(images) - 1, 2):
                (a, ga, ra, ca, ka), (b, gb, rb, cb, kb) = images[i], images[i + 1]
                ab = a * b
                assert ab.grade_involution() == ga * gb
                assert ab.reversion() == rb * ra
                assert ab.conjugation() == cb * ca
                assert ab.complex_conjugation() == ka * kb
                count += 1
        return f"{count} random product pairs across p+q <= {max_dim}"

    out.append(_run("automorphisms", "involution-laws", law_pack))

    def omega_identity():
        hits = 0
        for sig in _real_sigs(max_dim):
            if sig.n % 2 == 0:
                for _ in range(20):
                    assert involution_via_omega_check(random_multivector(sig, rng))
                    hits += 1
            else:
                try:
                    involution_via_omega_check(Multivector.scalar(sig, 1))
                    raise AssertionError(f"odd n={sig.n} did not report inapplicability")
                except OddDimensionError:
                    pass
        return f"{hits} even-dimension checks, odd dimensions report inapplicability"

    out.append(_run("automorphisms", "volume-element-conjugation", omega_identity))

    def table4():
        _tableau(rng, 2)
        return "4x4 composition tableau == Klein four-group on 100 samples"

    out.append(_run("automorphisms", "four-map-tableau", table4))

    def table8():
        _tableau(rng, 3)
        return "8x8 composition tableau == Z2 x Z2 x Z2 on 100 samples"

    out.append(_run("automorphisms", "eight-map-tableau", table8))
    return out


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
    chosen = {}
    for name, pair in covering.choice_candidates(basis.profile).items():
        for mask, choice in pair:
            if name in chosen and mask == chosen[name][0]:
                continue  # the same product (n = 0)
            if not check(name, product_over(basis, mask), basis):
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
        bad = check(name, m, basis)
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


def realization_facts(r: Realization) -> dict:
    """The facts of the blade realization `r`, under the keys of
    `dense_realization`."""
    return {
        "choices": (r.predicted.choice_e, r.predicted.choice_pi),
        "masks": r.masks,
        "rep_signs": r.rep_signs,
        "signature": r.signature,
        "commutation": r.commutation,
        "order": r.group.order,
        "contains_minus_I": r.group.contains_minus_I,
        "abstract": identify_abstract(r.group),
        "order_counts": r.order_counts,
        "matrices": list(r.matrices()),
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
            pred = covering.predict_aut_complex(n)
            assert r.aut_abelian == pred.abelian, f"n={n}: commutativity vs prediction"
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
    """Whether the table eps(v, w) is bilinear: eps(u, v ^ w) = eps(u, v) eps(u, w)."""
    size = range(len(eps))
    return all(eps[u][v ^ w] == eps[u][v] * eps[u][w] for u, v, w in iterproduct(size, repeat=3))


def suite_groups(max_dim: int, realizations: dict | None = None) -> list[CheckResult]:
    realizations = {} if realizations is None else realizations
    out = []

    def dirac_goldens():
        r = _realization(realizations, "dirac")
        assert r.signature == DIRAC_EXT_SIGNATURE, sig_str(r.signature)
        table = cayley_table(ext_reps(r))
        assert table.cells == signed_cells(DIRAC_EXT_TABLE), "extended-set table mismatch"
        assert r.group.order == 16 and r.group.contains_minus_I
        assert classify_form(r.signature).label == "Z4*xZ2"
        assert r.commutation == polarization(r.signature)
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
        closure = signed_closure(r.matrices(), GaussMatrix.identity(r.basis.dim))
        elems = set(closure.elements)
        for x in closure.elements:
            for y in closure.elements:
                assert (x * y) in elems
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

    def beta(v: int, w: int) -> int:
        diagonal = sum(a[i] & (v >> i) & (w >> i) for i in range(k))
        return (diagonal + sum(c & (v >> i) & (w >> j) for (i, j), c in b.items())) % 2

    cocycle = [[beta(v, w) for w in range(size)] for v in range(size)]
    mul = tuple(
        tuple(
            (((x ^ y) >> k) ^ cocycle[x % size][y % size]) * size + (x ^ y) % size
            for y in range(2 * size)
        )
        for x in range(2 * size)
    )
    return SignedGroup(tuple(range(2 * size)), mul, 0, size, ())


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
        r30 = covering.reduce_odd(3, 0)
        assert r30.omega_sq == -1 and r30.targets == ((0, 2),)
        r03 = covering.reduce_odd(0, 3)
        assert r03.omega_sq == 1 and r03.targets == ((0, 2),)
        r21 = covering.reduce_odd(2, 1)
        assert set(r21.targets) == {(2, 0), (1, 1)}
        assert covering.reduce_odd(1, 0).targets == ((0, 0),)
        try:
            covering.reduce_odd(2, 2)
            raise AssertionError("even input accepted")
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
                assert idem.f * idem.f == idem.f
                # No blade splits f: checks k and the audit against the algebra.
                extra = splitting_blade(sig, idem.generators_used)
                assert extra is None, f"Cl({p},{q}): {blade_format(extra)} splits f"
                assert ring_type(p + 4, q + 4).tag == ring_type(p, q).tag
        return f"ring/idempotent/audit arithmetic through p+q={max_dim}"

    out.append(_run("coverings", "arithmetic-classification", arithmetic_pack))
    return out


_SUITES = {
    "automorphisms": suite_automorphisms,
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

    The suites that read realizations share one table; `automorphisms`
    reads none. With jobs > 1 and both kinds present, `automorphisms` runs
    in one forked child while this process runs the others.
    """
    shared = [n for n in names if n != "automorphisms"]
    auto = [n for n in names if n == "automorphisms"]
    if jobs > 1 and shared and auto:
        groups = fan_out(lambda group: _run_group(group, max_dim), [shared, auto])
        by_suite = {**groups[0], **groups[1]}
    else:
        by_suite = _run_group(names, max_dim)
    return [r for name in names for r in by_suite[name]]


def report_dict(results: list[CheckResult]) -> dict:
    return {
        "checks": [
            {
                "suite": r.suite,
                "name": r.name,
                "passed": r.passed,
                "detail": r.detail,
                "seconds": round(r.seconds, 4),
            }
            for r in results
        ],
        "passed": all(r.passed for r in results),
        "total": len(results),
        "failures": sum(1 for r in results if not r.passed),
    }
