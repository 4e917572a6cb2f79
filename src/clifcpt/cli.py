"""Command-line front end: classify, sweep, cayley, verify."""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

from . import pipeline, verify
from .algebra import COMPLEX, REAL
from .autmat import ConditionError
from .classify import IdempotentSearchError
from .covering import TableLookupError, TheoremCoverageError
from .fingroup import ClassificationError, ClosureError, GroupStructureError
from .pipeline import MAX_DIM, BasisSpecError
from .spinrep import CertificationError, SpinBasisFileError, UnsupportedSignatureError

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2


class UsageError(ValueError):
    """A command-line value lies outside its documented range."""


_USAGE_ERRORS = (UsageError, BasisSpecError, UnsupportedSignatureError, SpinBasisFileError)
_VERIFY_ERRORS = (
    ConditionError,
    CertificationError,
    ClassificationError,
    ClosureError,
    GroupStructureError,
    IdempotentSearchError,
    TheoremCoverageError,
    TableLookupError,
)


def _color_enabled() -> bool:
    flag = os.environ.get("CLIFCPT_COLOR")
    if flag == "1":
        return True
    if flag == "0":
        return False
    return sys.stdout.isatty()


def _paint(text: str, ok: bool) -> str:
    if not _color_enabled():
        return text
    code = "32" if ok else "31"
    return f"\x1b[{code}m{text}\x1b[0m"


def _atomic_write(path: str, content: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".clifcpt-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(content)
        # mkstemp creates the file 0600; give it the mode open() would.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clifcpt",
        description="Exact classification of Clifford-algebra discrete-symmetry groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cls = sub.add_parser("classify", help="classify a single signature")
    cls.add_argument("--p", type=int, required=True)
    cls.add_argument("--q", type=int, required=True)
    cls.add_argument("--field", choices=(REAL, COMPLEX), default=REAL)
    cls.add_argument("--basis", default="canonical", help="canonical|dirac|file:<path>")
    cls.add_argument("--format", choices=("json", "md"), default="json")

    swp = sub.add_parser("sweep", help="classify every signature up to a dimension bound")
    swp.add_argument("--max-dim", type=int, required=True)
    swp.add_argument("--field", choices=(REAL, COMPLEX), default=REAL)
    swp.add_argument("--out", required=True)
    swp.add_argument("--format", choices=("json", "csv", "md"), default="json")
    swp.add_argument("--jobs", type=int, default=os.cpu_count() or 1)

    cay = sub.add_parser("cayley", help="render a Cayley table")
    cay.add_argument("--p", type=int, required=True)
    cay.add_argument("--q", type=int, required=True)
    cay.add_argument("--set", dest="table_set", choices=("ext", "aut", "cpt-wigner"), required=True)
    cay.add_argument("--basis", default="canonical")
    cay.add_argument("--format", choices=("md", "json"), default="md")

    ver = sub.add_parser("verify", help="run the verification suites")
    ver.add_argument(
        "--suite",
        choices=("all",) + verify.SUITE_NAMES,
        default="all",
    )
    ver.add_argument("--max-dim", type=int, default=8)
    return parser


def _classify_markdown(result: dict) -> str:
    lines = [f"# Cl({result['p']},{result['q']}) over {result['field']}", ""]
    for key in ("ring", "k", "idempotent", "status"):
        if key in result:
            lines.append(f"- {key}: {result[key]}")
    if "dimension_audit" in result:
        lines.append(f"- dimension audit: {result['dimension_audit']}")
    for r in result.get("realizations", []):
        lines.append("")
        lines.append(
            f"## realization choiceE={r['choiceE']} choicePi={r['choicePi']}"
        )
        lines.append(f"- signature: {r['signature']}")
        lines.append(f"- label: {r['label']} (abelian={r['abelian']})")
        lines.append(f"- order structure: {tuple(r['order_structure'])}")
        lines.append(f"- covers: PT {r['pt_cover']}, CPT {r['cpt_cover']}")
        lines.append(f"- predictor: {r['predicted_vs_computed']}")
    if "reduction" in result:
        lines.append("")
        lines.append(f"- reduction: {result['reduction']}")
    if "aut" in result and result["field"] == COMPLEX:
        lines.append("")
        lines.append(f"- aut: {result['aut']}")
        lines.append(f"- pin cover: {result.get('pin_cover')}")
    return "\n".join(lines) + "\n"


def _check_signature(args) -> None:
    if args.p < 0 or args.q < 0 or args.p + args.q > MAX_DIM:
        raise UsageError(f"--p and --q must be nonnegative with p + q <= {MAX_DIM}")


def cmd_classify(args) -> int:
    _check_signature(args)
    result = pipeline.classify_cell(args.p, args.q, args.field, args.basis)
    if args.format == "json":
        sys.stdout.write(pipeline.to_json(result))
    else:
        sys.stdout.write(_classify_markdown(result))
    return EXIT_OK


def cmd_sweep(args) -> int:
    if not 0 <= args.max_dim <= MAX_DIM:
        raise UsageError(f"--max-dim must be between 0 and {MAX_DIM}")
    if args.jobs < 1:
        raise UsageError("--jobs must be positive")
    result = pipeline.sweep(args.max_dim, args.field, args.jobs)
    if args.format == "json":
        content = pipeline.to_json(result)
    elif args.format == "csv":
        content = pipeline.sweep_to_csv(result)
    else:
        content = pipeline.sweep_to_markdown(result)
    _atomic_write(args.out, content)
    sys.stdout.write(f"wrote {args.out} ({result['summary']['cells']} cells)\n")
    return EXIT_OK


def cmd_cayley(args) -> int:
    _check_signature(args)
    table, legend = pipeline.cayley_for(args.p, args.q, args.table_set, args.basis)
    if args.format == "md":
        sys.stdout.write(table.to_markdown(legend))
    else:
        obj = table.to_json_obj()
        obj["legend"] = legend
        sys.stdout.write(pipeline.to_json(obj))
    return EXIT_OK


def cmd_verify(args) -> int:
    if not 0 <= args.max_dim <= MAX_DIM:
        raise UsageError(f"--max-dim must be between 0 and {MAX_DIM}")
    names = verify.SUITE_NAMES if args.suite == "all" else (args.suite,)
    results = verify.run_suites(names, args.max_dim)
    failures = 0
    for r in results:
        status = _paint("PASS", True) if r.passed else _paint("FAIL", False)
        sys.stdout.write(
            f"{status} [{r.suite}] {r.name} ({r.seconds:.2f}s) {r.detail}\n"
        )
        if not r.passed:
            failures += 1
    sys.stdout.write(
        f"{len(results) - failures}/{len(results)} checks passed\n"
    )
    return EXIT_OK if failures == 0 else EXIT_VERIFY


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "classify": cmd_classify,
        "sweep": cmd_sweep,
        "cayley": cmd_cayley,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except _VERIFY_ERRORS as exc:
        sys.stderr.write(f"verification failure: {exc}\n")
        return EXIT_VERIFY
    except _USAGE_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
