import hashlib
import json
import os
import pickle
import re
import subprocess
import sys
from fractions import Fraction

import jsonschema
import pytest

from clifcpt import cli
from clifcpt.cli import main
from clifcpt.pipeline import classify_cell, to_json
from dense_reference import conjugated_bases

try:
    from importlib.resources import files as _files
except ImportError:  # pragma: no cover
    _files = None


def _schema(name):
    return json.loads(_files("clifcpt.schemas").joinpath(name).read_text())


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _record_fan_out(monkeypatch):
    """Record the shares that verify's fan_out sends to forked children;
    the shares still run, in real children. Returns the list of them."""
    from clifcpt import pipeline
    from clifcpt import verify as vf

    sent = []

    def recording(fn, shares):
        sent.extend(shares[1:])
        return pipeline.fan_out(fn, shares)

    monkeypatch.setattr(vf, "fan_out", recording)
    return sent


def test_classify_dirac_json(capsys):
    code, out, _ = run_cli(["classify", "--p", "1", "--q", "3", "--basis", "dirac"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["ring"] == "H"
    assert doc["k"] == 1
    r = doc["realizations"][0]
    assert r["signature"] == "(-,-,+,-,-,+,+)"
    assert r["label"] == "Z4*xZ2"
    assert r["predicted_vs_computed"] == "agree"
    schema = _schema("classify.schema.json")
    jsonschema.validate(doc, schema)
    # The schema pins the 15 census counts of the basis profile.
    profile = doc["basis"]["profile"]
    for bad in ({**profile, "extra": 0}, {**profile, "a": -1}, {**profile, "a": "1"}):
        doc["basis"]["profile"] = bad
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, schema)
    del profile["bminus"]
    doc["basis"]["profile"] = profile
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, schema)


def test_classify_trivial_signature(capsys):
    code, out, _ = run_cli(["classify", "--p", "0", "--q", "0"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["ring"] == "R" and doc["k"] == 0
    assert len(doc["realizations"]) == 1
    assert doc["realizations"][0]["signature"] == "(+,+,+,+,+,+,+)"
    jsonschema.validate(doc, _schema("classify.schema.json"))


def test_classify_31_predicts_quaternion_cover(capsys):
    code, out, _ = run_cli(["classify", "--p", "3", "--q", "1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["ring"] == "R"
    r = doc["realizations"][0]
    assert r["aut"]["signature"] == "(-,-,-)"
    assert r["aut"]["label"] == "Q4/Z2"
    assert r["pt_cover"]["fiber"] == "Q4"


def test_classify_complex_field(capsys):
    code, out, _ = run_cli(["classify", "--p", "4", "--q", "0", "--field", "complex"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["field"] == "complex"
    assert doc["predicted"]["signature"] == "(+,+,+)"
    assert doc["aut"]["agree"] is True
    jsonschema.validate(doc, _schema("classify.schema.json"))


def test_classify_odd_reduction(capsys):
    code, out, _ = run_cli(["classify", "--p", "3", "--q", "0"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "reduced"
    assert doc["reduction"]["omega_sq"] == -1
    assert doc["reduction"]["targets"] == [[0, 2]]


def test_usage_errors_exit_2(capsys):
    assert run_cli(["classify", "--p", "2", "--q", "0", "--basis", "dirac"], capsys)[0] == 2
    assert run_cli(["classify", "--p", "1", "--q", "3", "--basis", "nope"], capsys)[0] == 2
    assert run_cli(["cayley", "--p", "2", "--q", "0", "--set", "cpt-wigner"], capsys)[0] == 2
    assert run_cli(["sweep", "--max-dim", "40", "--out", "/tmp/x.json"], capsys)[0] == 2
    with pytest.raises(SystemExit) as err:
        main(["classify", "--p", "1"])  # missing --q
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["classify", "--p", "1", "--q", "3", "--format", "yaml"])
    assert err.value.code == 2


def test_certification_failure_exit_1(tmp_path, capsys):
    from clifcpt.spinrep import preset_spinbasis

    basis = preset_spinbasis("dirac")
    data = {"p": 1, "q": 3, "generators": [g.to_strings() for g in basis.gens]}
    data["generators"][1] = data["generators"][0]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    code, _, err = run_cli(
        ["classify", "--p", "1", "--q", "3", "--basis", f"file:{path}"], capsys
    )
    assert code == 1
    assert "anticommute" in err


def test_basis_file_roundtrip_via_cli(tmp_path, capsys):
    from clifcpt.spinrep import preset_spinbasis, save_spinbasis

    path = tmp_path / "dirac.json"
    save_spinbasis(preset_spinbasis("dirac"), str(path))
    code, out, _ = run_cli(
        ["classify", "--p", "1", "--q", "3", "--basis", f"file:{path}"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["realizations"][0]["signature"] == "(-,-,+,-,-,+,+)"


def test_user_basis_with_two_imaginary_generators_agrees(tmp_path, capsys):
    # g1 = sigma2 squares to +I and g2 = i sigma1 to -I, so
    # Pi = g1 g2 squares to -g1^2 g2^2 = +I; a sign read off the
    # imaginary count alone, (-1)^(a(a-1)/2) with a = 2, would be -1.
    path = tmp_path / "cl11.json"
    gens = [[["0", "-i"], ["i", "0"]], [["0", "i"], ["i", "0"]]]
    path.write_text(json.dumps({"p": 1, "q": 1, "generators": gens}))
    code, out, _ = run_cli(["classify", "--p", "1", "--q", "1", "--basis", f"file:{path}"], capsys)
    assert code == 0
    doc = json.loads(out)
    (r,) = doc["realizations"]
    assert r["predicted_vs_computed"] == "agree"
    assert r["choicePi"] == "complex"
    check = r["predictor"]["checks"]["pi_times_conj_pi"]
    assert check == {"predicted": 1, "computed": 1, "agree": True}
    schema = _schema("classify.schema.json")
    jsonschema.validate(doc, schema)
    # The schema pins the predictor's scope, its nine check keys and its verdict.
    pred = r["predictor"]
    for bad in (
        {**pred, "scope": "partial"},
        {**pred, "reason": None},
        {**pred, "checks": {**pred["checks"], "w_square": check}},
        {**pred, "checks": {**pred["checks"], "k_square": {"predicted": 1, "computed": 1}}},
        {**pred, "verdict": "maybe"},
    ):
        r["predictor"] = bad
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, schema)


def test_classification_invariant_under_orthogonal_similarity(tmp_path, capsys):
    # Metamorphic check: g -> M g M^T with M orthogonal, g -> g^T and
    # g -> conj(g) each keep every Clifford relation, the reality and the
    # symmetry of each generator, so a conjugated canonical basis, read
    # back through --basis file:, must classify exactly as the canonical
    # cell; only provenance differs. Signed permutations keep the
    # generators monomial; the Givens rotation makes them dense; the Cayley
    # transform makes every entry nonzero over a denominator, apart from
    # the zero diagonal of an antisymmetric generator.
    from clifcpt.spinrep import save_spinbasis

    for kind, m, conjugated in conjugated_bases():
        p, q = conjugated.sig.p, conjugated.sig.q
        assert m is None or m * m.transpose() == m.identity(m.dim)
        if kind == "givens":
            assert any(len(row) > 1 for g in conjugated.gens for row in g.entries)
        if kind == "cayley":
            for g in conjugated.gens:
                assert g.den > 1 and all(len(row) >= g.dim - 1 for row in g.num)
        path = tmp_path / f"cl{p}{q}-{kind}.json"
        save_spinbasis(conjugated, str(path))
        docs = []
        for basis in ("canonical", f"file:{path}"):
            argv = ["classify", "--p", str(p), "--q", str(q), "--basis", basis]
            code, out, _ = run_cli(argv, capsys)
            assert code == 0
            doc = json.loads(out)
            assert doc["basis"].pop("provenance") == basis
            docs.append(doc)
        assert docs[0] == docs[1], (p, q, kind)


def test_unitary_conjugation_that_mixes_reality_fails_certification(tmp_path, capsys):
    # Negative metamorphic check: g -> U g U^H with the rational unitary
    # U = diag(1, (3+4i)/5, 1, ...) keeps every Clifford relation but
    # gives generators entries with both real and imaginary parts, so the
    # basis file must fail certification.
    from clifcpt.algebra import MetricSignature
    from clifcpt.exact import GaussMatrix, GaussRational
    from clifcpt.spinrep import build_spinbasis

    canonical = build_spinbasis(MetricSignature(1, 3))
    dim = canonical.dim
    rows = [[int(i == j) for j in range(dim)] for i in range(dim)]
    rows[1][1] = GaussRational(Fraction(3, 5), Fraction(4, 5))
    u = GaussMatrix(rows)
    uh = u.conj().transpose()
    assert u * uh == GaussMatrix.identity(dim)
    gens = [(u * g * uh).to_strings() for g in canonical.gens]
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps({"p": 1, "q": 3, "generators": gens}))
    code, _, err = run_cli(["classify", "--p", "1", "--q", "3", "--basis", f"file:{path}"], capsys)
    assert code == 1
    assert "mixed reality" in err


def test_cayley_ext_markdown_golden(capsys):
    code, out, _ = run_cli(
        ["cayley", "--p", "1", "--q", "3", "--basis", "dirac", "--set", "ext"], capsys
    )
    assert code == 0
    assert "| W | W | -I | C | -E | -K | Pi | -F | S |" in out
    assert "- K = g2" in out


def test_cayley_wigner_json(capsys):
    code, out, _ = run_cli(
        [
            "cayley",
            "--p",
            "1",
            "--q",
            "3",
            "--basis",
            "dirac",
            "--set",
            "cpt-wigner",
            "--format",
            "json",
        ],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, _schema("cayley.schema.json"))
    # Row P, column C -> -CP.
    assert doc["cells"][1][4] == {"sign": -1, "label": "CP"}
    assert doc["legend"]["CT"] == "g2013"


def test_cayley_aut_table(capsys):
    code, out, _ = run_cli(
        ["cayley", "--p", "1", "--q", "3", "--set", "aut", "--format", "json"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"] == ["I", "W", "E", "C"]
    jsonschema.validate(doc, _schema("cayley.schema.json"))
    # Four-element cyclic structure: W^2 = -I and the row of W is a signed
    # permutation of the representatives.
    assert doc["cells"][1][1] == {"sign": -1, "label": "I"}
    row_w = [c["label"] for c in doc["cells"][1]]
    assert sorted(row_w) == sorted(doc["rows"])


def test_sweep_outputs_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert run_cli(["sweep", "--max-dim", "4", "--out", str(out1), "--jobs", "1"], capsys)[0] == 0
    assert run_cli(["sweep", "--max-dim", "4", "--out", str(out2), "--jobs", "2"], capsys)[0] == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    jsonschema.validate(doc, _schema("sweep.schema.json"))
    assert doc["summary"]["admissible_signatures"] == 64


def test_sweep_out_file_mode_follows_umask(tmp_path, capsys):
    out = tmp_path / "atlas.json"
    old = os.umask(0o022)
    try:
        assert run_cli(["sweep", "--max-dim", "0", "--out", str(out), "--jobs", "1"], capsys)[0] == 0
    finally:
        os.umask(old)
    assert out.stat().st_mode & 0o777 == 0o644


def test_sweep_unwritable_out_exits_2_before_any_work(tmp_path, capsys, monkeypatch):
    from clifcpt import cli, pipeline

    def no_sweep(*args):
        raise AssertionError("sweep ran before --out was checked")

    (tmp_path / "dir").mkdir()
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.setattr(pipeline, "sweep", no_sweep)
    for out in (work / "missing" / "atlas.json", tmp_path / "dir"):
        code, _, err = run_cli(["sweep", "--max-dim", "8", "--out", str(out)], capsys)
        assert code == 2 and err.startswith("error:") and "Traceback" not in err
    monkeypatch.undo()

    # An OSError while writing is a usage error as well, and leaves no temp file.
    def failing_replace(src, dst):
        raise PermissionError(13, "Permission denied", dst)

    monkeypatch.setattr(cli.os, "replace", failing_replace)
    out = work / "atlas.json"
    code, _, err = run_cli(["sweep", "--max-dim", "0", "--out", str(out), "--jobs", "1"], capsys)
    assert code == 2 and err.startswith("error:") and "Permission denied" in err
    assert list(tmp_path.rglob(".clifcpt-*.tmp")) == [] and not out.exists()


def test_sweep_csv_columns(tmp_path, capsys):
    out = tmp_path / "atlas.csv"
    assert run_cli(
        ["sweep", "--max-dim", "4", "--out", str(out), "--format", "csv"], capsys
    )[0] == 0
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    assert header[:6] == ["p", "q", "field", "ring", "k", "status"]
    assert "signature" in header and "label" in header and "cpt_fiber" in header
    assert len(lines) > 10


def test_sweep_markdown(tmp_path, capsys):
    out = tmp_path / "atlas.md"
    assert run_cli(
        ["sweep", "--max-dim", "3", "--out", str(out), "--format", "md"], capsys
    )[0] == 0
    text = out.read_text()
    assert text.startswith("# Classification atlas")
    assert "| p | q | ring |" in text


def test_verify_subcommand_passes(capsys):
    code, out, _ = run_cli(["verify", "--suite", "coverings", "--max-dim", "4"], capsys)
    assert code == 0
    assert "PASS" in out and "FAIL" not in out
    assert out.strip().endswith("checks passed")


def test_outputs_match_the_benchmark_golden_record(tmp_path, capsys, monkeypatch):
    """The `atlas` sweep and the `verify` report the benchmark checks
    against, produced in-process, so a changed output byte fails here."""
    golden_path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "golden.json")
    with open(golden_path, encoding="utf-8") as fh:
        golden = json.load(fh)
    out = tmp_path / "atlas.json"
    argv = ["sweep", "--max-dim", "8", "--field", "real", "--jobs", "1", "--format", "json"]
    assert run_cli(argv + ["--out", str(out)], capsys)[0] == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == golden["atlas_sha256"]
    # On two usable cores, automorphisms runs in a worker process.
    for cores in (1, 2):
        monkeypatch.setattr(cli, "_usable_cores", lambda: cores)
        code, report, _ = run_cli(["verify", "--suite", "all", "--max-dim", "6"], capsys)
        assert code == 0
        assert [re.sub(r" \(\d+\.\d+s\)", "", line) for line in report.splitlines()] == golden["verify_lines"]


_PINNED_SHA256 = {
    ("sweep", "--max-dim", "8", "--format", "csv"): "38b729dba29b37a906e9548a5fa94178976c99a2919d23ed5a3cd6d76fa27255",
    ("sweep", "--max-dim", "8", "--format", "md"): "bd49e48ac703f8f83ed581321c0daeee0fb332b7276eda8da48c3ac216d0df68",
    ("sweep", "--field", "complex", "--max-dim", "8", "--format", "json"): "f04edd5f2f86bcd2c1793cfe8063916027d3b637361bdf0103a6325c7a4089f2",
    # d = 12 runs the matrix kernel at dimension 64.
    ("sweep", "--max-dim", "12", "--format", "json"): "884b61dca6380af5b063710655443c3aa324640500826f0e3b6c60b2654f4afb",
    ("sweep", "--field", "complex", "--max-dim", "12", "--format", "json"): "c40b365b233a2489c0d00a5823ff8219a02edeb2d9172dabe612225eb01fb813",
    ("classify", "--format", "json"): "d692d9f8c4cb914d529320958c9a6912465657164dc0839435db80f8406e435b",
    ("classify", "--format", "md"): "8689cfa44ad4970572083907513dfb4726f29e89165256de2dc0260ac84b43b8",
    ("cayley", "--set", "ext", "--format", "md"): "6cfe1b07f5ef0841b4128f5080a42b4cb6774460b9b503daae77abf2ef001e1d",
    ("cayley", "--set", "ext", "--format", "json"): "e271f490a0608e9753c123ab94ae8afdb11f20b58ea784f85ac81c622741d72d",
    ("cayley", "--set", "aut", "--format", "md"): "f9ad499b5ebecf542438cfcdcba4fa872aae236db8371173e6da8884e6583460",
    ("cayley", "--set", "aut", "--format", "json"): "a8fa6251c4c092aba168dc5976d095f212f53337c24c649bf5472d47f130a7de",
    ("cayley", "--set", "cpt-wigner", "--format", "md"): "212d194ed4eb281657680f1fd63300f4314b48e5a102967c0dc576b1e2e867eb",
    ("cayley", "--set", "cpt-wigner", "--format", "json"): "9991da7bf5eca3f707edd89a096ce7a8725951d6f4621d92915b1028e582380d",
}


def test_outputs_match_their_pinned_digests(tmp_path, capsys):
    """The sweep files and the `dirac` classify and cayley outputs that
    `bench/golden.json` does not cover, pinned by sha256: a changed output
    byte fails here."""
    for argv, digest in _PINNED_SHA256.items():
        argv = list(argv)
        if argv[0] == "sweep":
            out = tmp_path / "atlas"
            assert run_cli(argv + ["--jobs", "1", "--out", str(out)], capsys)[0] == 0
            got = out.read_bytes()
        else:
            code, text, _ = run_cli(argv + ["--p", "1", "--q", "3", "--basis", "dirac"], capsys)
            assert code == 0
            got = text.encode()
        assert hashlib.sha256(got).hexdigest() == digest, argv


def test_file_bases_classify_as_the_benchmark_golden_cells(tmp_path, capsys):
    """Every `filebasis` input of one seed, read through `--basis file:`,
    classifies as the canonical cell of its (p, q) in the golden record,
    on the seven fields of `bench/run.py`'s `realization_fields`."""
    import importlib.util

    bench = os.path.join(os.path.dirname(__file__), os.pardir, "bench")
    with open(os.path.join(bench, "golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    spec = importlib.util.spec_from_file_location("filebasis", os.path.join(bench, "filebasis.py"))
    filebasis = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(filebasis)
    manifest = filebasis.write_inputs(501, str(tmp_path))
    assert len(manifest) == 28
    for m in manifest:
        argv = ["classify", "--p", str(m["p"]), "--q", str(m["q"]), "--basis", "file:" + m["path"]]
        code, out, _ = run_cli(argv, capsys)
        cell = json.loads(out)
        assert (code, cell["status"]) == (0, "matrix"), m["path"]
        got = [
            {
                "signature": r["signature"],
                "label": r["label"],
                "cpt_fiber": r["cpt_cover"]["fiber"],
                "pt_fiber": r["pt_cover"]["fiber"],
                "order_structure": r["order_structure"],
                "closure_order": r["closure"]["order"],
                "verdict": r["predicted_vs_computed"],
            }
            for r in cell["realizations"]
        ]
        assert got == golden["cells"][f"{m['p']},{m['q']}"], m["path"]


def test_verify_colors_its_markers_exactly_on_a_tty(capsys, monkeypatch):
    argv = ["verify", "--suite", "coverings", "--max-dim", "2"]
    for tty in (True, False):
        monkeypatch.setattr(sys.stdout, "isatty", lambda: tty)
        _, out, _ = run_cli(argv, capsys)
        assert ("\x1b[32mPASS\x1b[0m [coverings]" in out) is tty
        assert ("\x1b[" in out) is tty


def test_every_reported_error_keeps_its_message_through_pickle():
    # A forked worker hands its exception to this process through pickle.
    from clifcpt.spinrep import CertificationError

    for cls in cli._VERIFY_ERRORS + cli._USAGE_ERRORS:
        if cls is CertificationError:
            exc = cls(["generator 1 is broken", "generator 2 is broken"])
        else:
            exc = cls("Cl(1,3): broken")
        again = pickle.loads(pickle.dumps(exc))
        assert type(again) is cls and str(again) == str(exc), cls.__name__


def _fresh_python(*args):
    """Run a fresh interpreter with this checkout's package on its path."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_console_entry_point():
    proc = _fresh_python("-m", "clifcpt.cli", "classify", "--p", "0", "--q", "2")
    doc = json.loads(proc.stdout)
    assert doc["ring"] == "H"


def test_import_leaves_the_process_pool_unloaded(tmp_path):
    report = (
        "sys.stderr.write(repr(sorted(m for m in sys.modules "
        "if m.startswith(('concurrent', 'multiprocessing')))) + '\\n')"
    )
    # A sweep and a verify that both fork workers load no pool either.
    out = tmp_path / "atlas.json"
    work = (
        "clifcpt.cli._usable_cores = lambda: 2; "
        f"clifcpt.cli.main(['sweep', '--max-dim', '4', '--jobs', '2', '--out', {str(out)!r}]); "
        "clifcpt.cli.main(['verify', '--max-dim', '2'])"
    )
    for code in ("import sys, clifcpt.cli", f"import sys, clifcpt.cli; {work}"):
        assert _fresh_python("-c", f"{code}; {report}").stderr == "[]\n"
    assert json.loads(out.read_text())["summary"]["cells"] == 15


def test_classify_leaves_verify_and_dataclasses_unloaded():
    # Every process pays for what it imports; only verify needs verify and
    # goldens, and no module needs dataclasses or the inspect it loads.
    guarded = ("clifcpt.verify", "clifcpt.goldens", "dataclasses", "inspect")
    report = f"import sys; sys.stderr.write(' '.join(set({guarded!r}) & set(sys.modules)))"
    # A name that the interpreter's site hooks already load is not ours.
    bare = set(_fresh_python("-c", report).stderr.split())
    classify = "from clifcpt.cli import main; main(['classify', '--p', '1', '--q', '3', '--basis', 'dirac'])"
    for code in ("import clifcpt.cli", classify):
        loaded = set(_fresh_python("-c", f"{code}; {report}").stderr.split())
        assert loaded <= bare, (code, sorted(loaded - bare))


_FREEZE_PROBE = """
import atexit, contextlib, gc, io, sys
atexit.register(lambda: print("frozen", gc.get_freeze_count()))
import clifcpt.cli
if sys.argv[1:] == ["main"]:
    before = atexit._ncallbacks()
    with contextlib.redirect_stdout(io.StringIO()):
        for _ in range(2):
            clifcpt.cli.main(["classify", "--p", "1", "--q", "3", "--basis", "dirac"])
    print("registered", atexit._ncallbacks() - before)
"""


def test_main_freezes_the_heap_at_exit_unless_warnings_can_show():
    # The probe's handler, registered first, runs after main's gc.freeze.
    def probe(*args):
        words = _fresh_python(*args).stdout.split()
        return dict(zip(words[::2], map(int, words[1::2])))

    frozen = probe("-c", _FREEZE_PROBE, "main")
    assert frozen["registered"] == 1 and frozen["frozen"] > 0
    # A frozen file still open at exit would emit no ResourceWarning.
    for flag in (("-X", "dev"), ("-W", "default")):
        assert probe(*flag, "-c", _FREEZE_PROBE, "main") == {"registered": 0, "frozen": 0}
    # Importing the CLI alone, as the benchmark's set-up sample does.
    assert probe("-c", _FREEZE_PROBE) == {"frozen": 0}


def test_fingroup_import_leaves_autmat_unloaded():
    # fingroup is the lower layer: autmat builds on it, never the reverse.
    code = "import sys, clifcpt.fingroup; print('clifcpt.autmat' in sys.modules)"
    assert _fresh_python("-c", code).stdout.strip() == "False"


def test_json_serialization_deterministic():
    a = to_json(classify_cell(1, 3, "real", "dirac"))
    b = to_json(classify_cell(1, 3, "real", "dirac"))
    assert a == b


def test_sweep_complex_field(tmp_path, capsys):
    out = tmp_path / "complex.json"
    assert run_cli(
        ["sweep", "--max-dim", "5", "--field", "complex", "--out", str(out)], capsys
    )[0] == 0
    doc = json.loads(out.read_text())
    assert doc["summary"]["field"] == "complex"
    evens = [c for c in doc["cells"] if c["status"] == "matrix"]
    assert all(c["aut"]["agree"] for c in evens)


def test_verify_reads_complex_realizations_from_the_run_table(monkeypatch):
    from clifcpt.algebra import COMPLEX, REAL, MetricSignature
    from clifcpt.autmat import realize
    from clifcpt.exact import GaussMatrix
    from clifcpt.spinrep import build_spinbasis, preset_spinbasis
    from clifcpt.verify import suite_theorems

    # The run table maps each signature, or "dirac", to its realization.
    table = {"dirac": realize(preset_spinbasis("dirac"))}
    for n in range(0, 7, 2):
        sigs = [MetricSignature(p, n - p, REAL) for p in range(n, -1, -1)]
        for sig in sigs + [MetricSignature(n, 0, COMPLEX)]:
            table[sig] = realize(build_spinbasis(sig))

    def refuse(self, other):
        raise AssertionError("a matrix product was formed")

    monkeypatch.setattr(GaussMatrix, "__mul__", refuse)
    results = {r.name: r for r in suite_theorems(6, table)}
    check = results["complex-automorphism-groups"]
    assert check.passed, check.detail


def test_verify_exit_1_on_failing_check(capsys, monkeypatch):
    from clifcpt import verify as vf
    from clifcpt.verify import CheckResult

    def fake_suite(max_dim, realizations):
        return [CheckResult("coverings", "stub", False, "forced failure", 0.0)]

    monkeypatch.setitem(vf._SUITES, "coverings", fake_suite)
    code, out, _ = run_cli(["verify", "--suite", "coverings"], capsys)
    assert code == 1
    assert "FAIL" in out and "forced failure" in out
    monkeypatch.undo()
    # On two cores automorphisms runs in a forked child, coverings in this
    # process; the patched suite reaches the child through the fork.
    for suite in ("automorphisms", "coverings"):
        for cores in (1, 2):
            with monkeypatch.context() as m:
                submitted = _record_fan_out(m)
                m.setattr(cli, "_usable_cores", lambda: cores)
                m.setitem(vf._SUITES, suite, lambda max_dim, table: [
                    CheckResult(suite, "stub", False, "forced failure", 0.0)
                ])
                code, out, _ = run_cli(["verify", "--suite", "all", "--max-dim", "2"], capsys)
            assert submitted == ([] if cores == 1 else [["automorphisms"]])
            assert code == 1
            failed = [line for line in out.splitlines() if line.startswith("FAIL")]
            assert failed == [f"FAIL [{suite}] stub (0.00s) forced failure"]


def test_verify_fails_intertwining_when_the_comparison_accepts_sign_plus(capsys, monkeypatch):
    from clifcpt.exact import GaussMatrix

    # A comparison that accepts every sign +1 condition lets the E and Pi
    # candidates the choice rule does not name pass: only the intertwining
    # check may see it.
    raw = GaussMatrix.product_signed_eq

    def lax(self, b, c, d, sign):
        return sign > 0 or raw(self, b, c, d, sign)

    monkeypatch.setattr(GaussMatrix, "product_signed_eq", lax)
    code, out, _ = run_cli(["verify", "--suite", "theorems", "--max-dim", "4"], capsys)
    assert code == 1
    failed = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert len(failed) == 1, failed
    assert failed[0].startswith("FAIL [theorems] intertwining-conditions (")
    assert failed[0].endswith("preset:dirac Cl(1,3): sym also meets E")


def test_verify_fails_intertwining_when_the_sign_of_w_transpose_flips(capsys, monkeypatch):
    from clifcpt import autmat

    # `realize` takes the sign of W^T from the grade of the antisymmetric
    # generators; one more flips C and F, which only the dense reference's
    # rep_signs see.
    monkeypatch.setattr(autmat, "grade", lambda mask: mask.bit_count() + 1)
    code, out, _ = run_cli(["verify", "--suite", "theorems", "--max-dim", "4"], capsys)
    assert code == 1
    failed = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert len(failed) == 1, failed
    assert failed[0].startswith("FAIL [theorems] intertwining-conditions (")
    assert failed[0].endswith("preset:dirac Cl(1,3): rep_signs differ")


def test_verify_census_fails_when_minus_count_counts_plus_signs(capsys, monkeypatch):
    from clifcpt import fingroup

    # The census then keeps the 64 odd-weight tuples, with the same counts
    # by weight; every form label is looked up by a wrong minus count too.
    monkeypatch.setattr(fingroup, "minus_count", lambda signs: sum(1 for s in signs if s > 0))
    monkeypatch.setattr(cli, "_usable_cores", lambda: 1)
    code, out, _ = run_cli(["verify", "--suite", "all", "--max-dim", "4"], capsys)
    assert code == 1
    failed = {line.split(" (")[0] for line in out.splitlines() if line.startswith("FAIL")}
    assert failed == {
        "FAIL [theorems] predictor-vs-computation",
        "FAIL [theorems] complex-automorphism-groups",
        "FAIL [groups] dirac-extended-set",
        "FAIL [groups] wigner-reflection-set",
        "FAIL [groups] signature-census",
        "FAIL [groups] sweep-label-consistency",
        "FAIL [coverings] pt-cover-table",
        "FAIL [coverings] cpt-cover-table",
        "FAIL [coverings] label-fiber-families",
    }
    assert "signature-census (" in out and "admits 64 non-forms, such as (+,+,+,+,+,+,-)" in out


def test_verify_fails_when_blade_commutation_is_off_by_one(capsys, monkeypatch):
    from clifcpt import classify

    # An exponent of |x| |y| + |x & y| + 1 swaps commuting and
    # anticommuting blades in the idempotent search. Only
    # arithmetic-classification fails: Cl(2,1), the first cell with k = 2,
    # takes the anticommuting e1 and e2, so f * f != f.
    raw = classify._commute_parity
    monkeypatch.setattr(classify, "_commute_parity", lambda x, y: 1 - raw(x, y))
    monkeypatch.setattr(cli, "_usable_cores", lambda: 1)
    code, out, _ = run_cli(["verify", "--suite", "all", "--max-dim", "4"], capsys)
    failed = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert code == 1
    assert len(failed) == 1
    assert failed[0].startswith("FAIL [coverings] arithmetic-classification (")
    assert failed[0].endswith("Cl(2,1): f = 1/4*e{} + 1/4*e{1} + 1/4*e{2} + 1/4*e{1,2} is not idempotent")


@pytest.mark.parametrize(
    "kept, detail",
    [
        # Every generator read as squaring to +1: Cl(0,3), the first cell
        # with a negative generator and k > 0, chooses e1, which squares
        # to -1, and f * f != f.
        (0, "Cl(0,3): f = 1/2*e{} + 1/2*e{1} is not idempotent"),
        # Only e1 and e2 keep their metric, so no cell with n <= 2 changes;
        # Cl(0,3) chooses e3, which squares to -1, and f * f != f.
        (0b11, "Cl(0,3): f = 1/2*e{} + 1/2*e{3} is not idempotent"),
    ],
)
def test_verify_fails_when_the_search_misreads_blade_squares(kept, detail, capsys, monkeypatch):
    from clifcpt import classify

    # `primitive_idempotent` no longer tests f * f = f, so a wrong square
    # rule in the search writes a wrong f; only arithmetic-classification
    # may see it.
    raw = classify._square_parity
    monkeypatch.setattr(classify, "_square_parity", lambda mask, neg_mask: raw(mask, neg_mask & kept))
    monkeypatch.setattr(cli, "_usable_cores", lambda: 1)
    code, out, _ = run_cli(["verify", "--suite", "all", "--max-dim", "4"], capsys)
    failed = [re.sub(r" \(\d+\.\d+s\)", "", line) for line in out.splitlines() if line.startswith("FAIL")]
    assert code == 1
    assert failed == [f"FAIL [coverings] arithmetic-classification {detail}"]


def test_verify_maximality_oracle_finds_a_blade_the_search_left_out(capsys, monkeypatch):
    from clifcpt import verify
    from clifcpt.algebra import idempotent_product
    from clifcpt.classify import IdempotentData

    # Dropping the last chosen blade leaves an idempotent that is not
    # primitive, so f * f = f still holds; only the maximality oracle,
    # which reads blade_product, sees it, first on Cl(1,0), where k = 1.
    raw = verify.primitive_idempotent

    def short(sig):
        idem = raw(sig)
        kept = idem.generators_used[:-1]
        return IdempotentData(len(kept), kept, idempotent_product(sig, kept))

    monkeypatch.setattr(verify, "primitive_idempotent", short)
    monkeypatch.setattr(cli, "_usable_cores", lambda: 1)
    code, out, _ = run_cli(["verify", "--suite", "all", "--max-dim", "4"], capsys)
    failed = [re.sub(r" \(\d+\.\d+s\)", "", line) for line in out.splitlines() if line.startswith("FAIL")]
    assert code == 1
    assert failed == ["FAIL [coverings] arithmetic-classification Cl(1,0): e{1} splits f"]


def test_verify_fails_when_blade_signs_drop_the_metric(capsys, monkeypatch):
    from clifcpt import algebra

    # Multivector products and `blade_product` read their signs from the
    # one sign-mask helper, and then read every generator as squaring to
    # +1, while the closed-form square and commutation signs keep the
    # metric.
    raw = algebra._sign_mask
    monkeypatch.setattr(algebra, "_sign_mask", lambda y, neg_mask, top: raw(y, 0, top))
    monkeypatch.setattr(cli, "_usable_cores", lambda: 1)
    code, out, _ = run_cli(["verify", "--suite", "all", "--max-dim", "4"], capsys)
    failed = {line.split(" (")[0] for line in out.splitlines() if line.startswith("FAIL")}
    assert code == 1
    assert failed == {
        "FAIL [automorphisms] volume-element-conjugation",
        "FAIL [theorems] predictor-vs-computation",
        "FAIL [theorems] intertwining-conditions",
        "FAIL [groups] dirac-extended-set",
        "FAIL [coverings] arithmetic-classification",
    }


def _i_times(a):
    from clifcpt.exact import GaussRational

    return a.scale(GaussRational(0, 1))


@pytest.mark.parametrize(
    "method, fault, failed",
    [
        # Reversion that negates grade 3 only, not grades 2 and 3.
        ("reversion", lambda a: a._grade_signed(0b1000), {"involution-laws"}),
        # A grade involution that negates grade 1 only; omega a omega^-1
        # still negates grade 3 too.
        (
            "grade_involution",
            lambda a: a._grade_signed(0b0010),
            {"involution-laws", "volume-element-conjugation"},
        ),
        # (re, im) -> (-im, re), multiplication by i: neither an involution
        # nor multiplicative. Of the tableaux only the eight-map one
        # applies the bar bit.
        ("complex_conjugation", _i_times, {"involution-laws", "eight-map-tableau"}),
        # Reversion times i, which both tableaux apply.
        (
            "reversion",
            lambda a: _i_times(a._grade_signed(0b1100)),
            {"involution-laws", "four-map-tableau", "eight-map-tableau"},
        ),
    ],
)
def test_verify_fails_the_automorphism_checks_a_broken_map_breaks(method, fault, failed, capsys, monkeypatch):
    from clifcpt.algebra import Multivector

    # On two cores the automorphisms suite runs in a forked child, which
    # the patched map reaches through the fork; the report is the same.
    for cores in (1, 2):
        with monkeypatch.context() as m:
            submitted = _record_fan_out(m)
            m.setattr(Multivector, method, fault)
            m.setattr(cli, "_usable_cores", lambda: cores)
            code, out, _ = run_cli(["verify", "--suite", "all", "--max-dim", "4"], capsys)
        assert submitted == ([] if cores == 1 else [["automorphisms"]])
        assert code == 1
        got = {line.split(" (")[0] for line in out.splitlines() if line.startswith("FAIL")}
        assert got == {f"FAIL [automorphisms] {name}" for name in failed}, cores


def _negated_volume_square(monkeypatch):
    from clifcpt import covering

    raw = covering.reduce_odd

    def fault(p, q):
        red = raw(p, q)
        return red._replace(omega_sq=-red.omega_sq)

    monkeypatch.setattr(covering, "reduce_odd", fault)


def _complex_prediction_two_dimensions_up(monkeypatch):
    from clifcpt import covering

    raw = covering.predict_aut_complex
    monkeypatch.setattr(covering, "predict_aut_complex", lambda n: raw(n + 2))


def _time_reversal_in_the_wrong_order(monkeypatch):
    from clifcpt import pipeline

    monkeypatch.setitem(pipeline._WIGNER_SLOT_SEQUENCES, "T", (4, 2))


def _closure_listing_its_last_element_negated(monkeypatch):
    from clifcpt import verify as vf

    # verify's own closures list their last element with the wrong sign.
    # The table stays right, so order, identification and signs read off
    # it do not change; only multiplying the listed elements shows it.
    raw = vf.signed_closure

    def fault(gens, identity):
        group = raw(gens, identity)
        return group._replace(elements=group.elements[:-1] + (-group.elements[-1],))

    monkeypatch.setattr(vf, "signed_closure", fault)


def _w_and_pi_read_as_anticommuting(monkeypatch):
    from clifcpt import autmat
    from clifcpt import verify as vf

    # In the realizations and the dense reference alike, so that the two
    # still agree.
    raw = autmat.read_signs

    def fault(group):
        squares, table = raw(group)
        rows = [list(row) for row in table]
        rows[1][4] = -rows[1][4]
        return squares, tuple(tuple(row) for row in rows)

    monkeypatch.setattr(autmat, "read_signs", fault)
    monkeypatch.setattr(vf, "read_signs", fault)


def _predicted_s_square_flipped(monkeypatch):
    from clifcpt import autmat, covering

    # `realize` builds from the predicted masks and reads its signs off
    # the closure, so only the predictor comparison reads the predicted
    # signature.
    raw = covering.predict_realization

    def fault(prof):
        pred = raw(prof)
        s = pred.signature
        return pred._replace(signature=(*s[:5], -s[5], s[6]))

    monkeypatch.setattr(covering, "predict_realization", fault)
    monkeypatch.setattr(autmat, "predict_realization", fault)


def _extended_set_with_s_negated(monkeypatch):
    from clifcpt import pipeline
    from clifcpt import verify as vf

    raw = pipeline.ext_reps

    def fault(r):
        return [(name, -x if name == "S" else x) for name, x in raw(r)]

    monkeypatch.setattr(pipeline, "ext_reps", fault)
    monkeypatch.setattr(vf, "ext_reps", fault)


def _closure_squares_off_the_generators_read_as_plus(monkeypatch):
    from clifcpt import autmat
    from clifcpt import verify as vf

    # In the blade closures and the dense ones alike, so that the two
    # still agree. The table keeps every generator's square and every
    # product of two generators, all that `read_signs` reads, and stays
    # commutative where it was; only the element orders change.
    raw = vf.signed_closure

    def fault(gens, identity):
        group = raw(gens, identity)
        mul = [list(row) for row in group.mul]
        for x in set(range(group.order)) - set(group.generators):
            if mul[x][x] == group.minus_identity:
                mul[x][x] = group.identity
        return group._replace(mul=tuple(map(tuple, mul)))

    monkeypatch.setattr(autmat, "signed_closure", fault)
    monkeypatch.setattr(vf, "signed_closure", fault)


def _pt_fibers_d4_and_q4_swapped(monkeypatch):
    from clifcpt import fingroup

    # The pipeline names a predicted and a computed PT fiber through the
    # same table, so the two still agree; only the cover table, which
    # pairs each fiber with its label, sees the swap.
    monkeypatch.setitem(fingroup._FORM_NAMES, (2, False, 1), ("D4/Z2", "Q4"))
    monkeypatch.setitem(fingroup._FORM_NAMES, (2, False, 3), ("Q4/Z2", "D4"))


def _cpt_labels_d4_and_q4_swapped(monkeypatch):
    from clifcpt import fingroup

    # The fibers stay, so label-fiber-families, which reads only fibers,
    # still passes.
    monkeypatch.setitem(fingroup._FORM_NAMES, (3, False, 2), ("Q4", "D4xZ2"))
    monkeypatch.setitem(fingroup._FORM_NAMES, (3, False, 6), ("D4", "Q4xZ2"))


@pytest.mark.parametrize(
    "fault, failed",
    [
        (_negated_volume_square, "FAIL [coverings] odd-dimension-reduction Cl(3,0): omega_sq +1, want -1"),
        (
            _complex_prediction_two_dimensions_up,
            "FAIL [theorems] complex-automorphism-groups n=0: commutativity vs prediction",
        ),
        (_time_reversal_in_the_wrong_order, "FAIL [groups] wigner-reflection-set reflection-set table mismatch"),
        (
            _pt_fibers_d4_and_q4_swapped,
            "FAIL [coverings] pt-cover-table (+,+,-): FormClass(abelian=False, label='D4/Z2', fiber='Q4')",
        ),
        (
            _cpt_labels_d4_and_q4_swapped,
            "FAIL [coverings] cpt-cover-table (+,+,+,+,+,-,-): FormClass(abelian=False, label='Q4', fiber='D4xZ2')",
        ),
        (
            _predicted_s_square_flipped,
            "FAIL [theorems] predictor-vs-computation Cl(0,0): disagree:s_square",
        ),
        (_extended_set_with_s_negated, "FAIL [groups] dirac-extended-set extended-set table mismatch"),
        (
            _closure_squares_off_the_generators_read_as_plus,
            "FAIL [coverings] label-fiber-families Cl(1,3): Z4*xZ2xZ2 vs (False, 4, {1: 1, 2: 11, 4: 4})",
        ),
        (
            _closure_listing_its_last_element_negated,
            "FAIL [groups] closure-closedness preset:dirac Cl(1,3): "
            "the product of elements 1 and 14 is not in the order-16 closure",
        ),
        # dirac-extended-set tests the same law, commutation equal to the
        # polarization of the squares, on the dirac basis, so it fails too.
        (
            _w_and_pi_read_as_anticommuting,
            (
                "FAIL [groups] dirac-extended-set preset:dirac Cl(1,3): "
                "commutation is not the polarization of (-,-,+,-,-,+,+)",
                "FAIL [groups] sweep-label-consistency Cl(0,0): commutation is not the polarization of (+,+,+,+,+,+,+)",
            ),
        ),
    ],
)
def test_verify_fails_exactly_the_check_a_fault_targets(fault, failed, capsys, monkeypatch):
    # Most faults reach the pipeline too (odd cells, complex cells, the
    # cpt-wigner Cayley table), yet only its own check may see it.
    fault(monkeypatch)
    monkeypatch.setattr(cli, "_usable_cores", lambda: 1)
    code, out, _ = run_cli(["verify", "--suite", "all", "--max-dim", "4"], capsys)
    assert code == 1
    lines = [re.sub(r" \(\d+\.\d+s\)", "", line).rstrip() for line in out.splitlines()]
    want = [failed] if isinstance(failed, str) else list(failed)
    assert [line for line in lines if line.startswith("FAIL")] == want


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    # Sets and dicts of masks and matrices must never order an output:
    # the sweep JSON and the verify report, seconds removed, are the same
    # bytes under three hash seeds.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

    def run(seed, *argv):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-m", "clifcpt.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        return re.sub(r" \(\d+\.\d+s\)", "", proc.stdout)

    seen = set()
    for seed in ("0", "1", "12345"):
        out = tmp_path / f"sweep-{seed}.json"
        run(seed, "sweep", "--max-dim", "6", "--jobs", "1", "--out", str(out))
        report = run(seed, "verify", "--suite", "all", "--max-dim", "4")
        seen.add((out.read_bytes(), report))
    assert len(seen) == 1


def test_out_of_range_inputs_exit_2(capsys):
    for argv in (
        ["classify", "--p", "20", "--q", "20"],
        ["classify", "--p", "-1", "--q", "3"],
        ["cayley", "--p", "7", "--q", "6", "--set", "ext"],
        ["verify", "--max-dim", "13"],
        ["verify", "--max-dim", "-1"],
    ):
        code, _, err = run_cli(argv, capsys)
        assert code == 2 and "12" in err


def test_verify_reports_every_check_when_one_raises(capsys, monkeypatch):
    from clifcpt import verify as vf
    from clifcpt.autmat import ConditionError

    # (verify attribute to break, the check that then raises); on two
    # cores the automorphisms check raises in the forked child.
    cases = (
        ("census_64", "[groups] signature-census"),
        ("involution_via_omega_check", "[automorphisms] volume-element-conjugation"),
        ("radon_hurwitz", "[coverings] arithmetic-classification"),
    )
    for attr, check in cases:
        for cores in (1, 2):

            def broken(*args):
                raise ConditionError(f"{attr} unavailable")

            with monkeypatch.context() as m:
                submitted = _record_fan_out(m)
                m.setattr(cli, "_usable_cores", lambda: cores)
                m.setattr(vf, attr, broken)
                code, out, _ = run_cli(["verify", "--suite", "all", "--max-dim", "2"], capsys)
            assert len(submitted) == cores - 1
            assert code == 1
            lines = out.splitlines()
            assert lines[-1] == "16/17 checks passed"
            failed = [line for line in lines if line.startswith("FAIL")]
            assert len(failed) == 1
            assert check in failed[0]
            assert f"ConditionError: {attr} unavailable" in failed[0]


def test_run_suites_keeps_the_order_of_names_in_a_pool():
    from clifcpt.verify import run_suites

    names = ["coverings", "automorphisms", "theorems"]
    suites = [r.suite for r in run_suites(names, 4, jobs=2)]
    assert suites == ["coverings"] * 5 + ["automorphisms"] * 4 + ["theorems"] * 3


def test_jobs_default_to_the_usable_cores(capsys, monkeypatch):
    from clifcpt import verify as vf

    asked = []
    monkeypatch.setattr(vf, "run_suites", lambda names, max_dim, jobs: asked.append(jobs) or [])
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    sweep_argv = ["sweep", "--max-dim", "2", "--out", "x.json"]
    assert cli._build_parser().parse_args(sweep_argv).jobs == 3
    run_cli(["verify"], capsys)
    monkeypatch.delattr(os, "sched_getaffinity")
    assert cli._build_parser().parse_args(sweep_argv).jobs == 64
    run_cli(["verify"], capsys)
    assert asked == [3, 64]


def test_sweep_jobs_below_one_exit_2_before_any_work(tmp_path, capsys, monkeypatch):
    from clifcpt import pipeline

    def no_work(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(pipeline, "sweep", no_work)
    out = str(tmp_path / "atlas.json")
    for jobs in ("0", "-2"):
        code, _, err = run_cli(["sweep", "--max-dim", "2", "--out", out, "--jobs", jobs], capsys)
        assert code == 2 and "--jobs must be positive" in err


def test_group_invariant_failure_exits_1(capsys, monkeypatch):
    from clifcpt import pipeline
    from gammas import gamma_matrices

    g0, g1, _, _ = gamma_matrices()
    monkeypatch.setattr(pipeline, "wigner_reps", lambda basis: [("A", g0), ("B", g1)])
    code, _, err = run_cli(
        ["cayley", "--p", "1", "--q", "3", "--basis", "dirac", "--set", "cpt-wigner"], capsys
    )
    assert code == 1
    assert "outside the signed representative set" in err


def test_basis_rejected_where_cells_use_canonical_bases(tmp_path, capsys, monkeypatch):
    from clifcpt import pipeline

    def no_work(*args):
        raise AssertionError("work started before the basis was checked")

    monkeypatch.setattr(pipeline, "_reduced_cell", no_work)
    monkeypatch.setattr(pipeline, "_classify_complex", no_work)
    for argv in (
        ["classify", "--p", "3", "--q", "0", "--basis", "nonsense"],
        ["classify", "--p", "2", "--q", "0", "--field", "complex",
         "--basis", f"file:{tmp_path / 'nonexistent'}"],
        ["classify", "--p", "1", "--q", "3", "--field", "complex", "--basis", "dirac"],
    ):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, ""), argv
        assert "canonical" in err


def test_internal_value_error_is_not_a_usage_error(capsys, monkeypatch):
    from clifcpt import pipeline
    from clifcpt.exact import DimensionMismatchError

    def broken(*args):
        raise DimensionMismatchError("cannot multiply dims 2 and 4")

    monkeypatch.setattr(pipeline, "classify_cell", broken)
    # Uncaught, it ends the process with a traceback and exit status 1.
    with pytest.raises(DimensionMismatchError):
        main(["classify", "--p", "2", "--q", "0"])


def test_basis_file_with_negative_p_exits_2(tmp_path, capsys):
    path = tmp_path / "negative.json"
    path.write_text(json.dumps({"p": -1, "q": 3, "generators": []}))
    code, _, err = run_cli(["classify", "--p", "1", "--q", "3", "--basis", f"file:{path}"], capsys)
    assert code == 2
    assert "malformed spin basis file" in err and "nonnegative" in err


def test_basis_file_with_string_rows_or_generators_exits_2(tmp_path, capsys):
    # A string is a sequence too, but it is neither a row nor a generator:
    # read character by character, ["01", "10"] would be sigma1.
    sigma3 = [["1", "0"], ["0", "-1"]]
    for name, first in (("rows", ["01", "10"]), ("generator", "1")):
        path = tmp_path / f"string-{name}.json"
        path.write_text(json.dumps({"p": 2, "q": 0, "generators": [first, sigma3]}))
        code, out, err = run_cli(["classify", "--p", "2", "--q", "0", "--basis", f"file:{path}"], capsys)
        assert (code, out) == (2, ""), name
        assert err.startswith(f"error: malformed spin basis file {path}: "), name


def test_basis_file_with_non_string_entries_exits_2(tmp_path, capsys):
    for entry, kind in ((1, "int"), (None, "NoneType"), (["1"], "list"), ({"re": "1"}, "dict")):
        path = tmp_path / f"{kind}.json"
        gens = [[["0", entry], ["1", "0"]], [["1", "0"], ["0", "-1"]]]
        path.write_text(json.dumps({"p": 2, "q": 0, "generators": gens}))
        code, out, err = run_cli(["classify", "--p", "2", "--q", "0", "--basis", f"file:{path}"], capsys)
        assert (code, out) == (2, ""), kind
        assert err.startswith(f"error: malformed spin basis file {path}: "), kind
        assert f"GaussRational literal must be a string, not {kind}" in err


def test_undecodable_basis_files_exit_2(tmp_path, capsys):
    not_utf8 = tmp_path / "utf16.json"
    not_utf8.write_bytes(b"\xff\xfe{\x00}\x00")
    too_deep = tmp_path / "deep.json"
    too_deep.write_text("[" * 100000)
    for path, reason in ((not_utf8, "codec can't decode"), (too_deep, "recursion")):
        code, out, err = run_cli(["classify", "--p", "1", "--q", "3", "--basis", f"file:{path}"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read spin basis file {path}: ")
        assert reason in err


def test_basis_file_entries_outside_the_written_grammar_exit_2(tmp_path, capsys):
    sigma3 = [["1", "0"], ["0", "-1"]]
    path = tmp_path / "exponent.json"
    path.write_text(json.dumps({"p": 2, "q": 0, "generators": [[["0", "1e300000"], ["1", "0"]], sigma3]}))
    code, out, err = run_cli(["classify", "--p", "2", "--q", "0", "--basis", f"file:{path}"], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: malformed spin basis file {path}: malformed GaussRational literal '1e300000'\n"


def test_basis_file_with_an_over_long_integer_exits_2(tmp_path, capsys):
    # The JSON decoder raises a plain ValueError past the int-digit limit.
    path = tmp_path / "long-p.json"
    path.write_text('{"p": ' + "1" * 5000 + ', "q": 0, "generators": []}')
    code, out, err = run_cli(["classify", "--p", "1", "--q", "1", "--basis", f"file:{path}"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read spin basis file {path}: ")


def test_basis_file_with_huge_n_fails_certification(tmp_path):
    # The signature is built before the generator count is checked, so it
    # must not form anything of size 2^n. (`classify` rejects the file
    # earlier, as a basis for another signature than the request.)
    from clifcpt.spinrep import CertificationError, load_spinbasis

    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"p": 10**12, "q": 3, "generators": []}))
    with pytest.raises(CertificationError, match="expected 1000000000003 generators, got 0"):
        load_spinbasis(str(path))


def test_verify_fails_an_idempotent_that_is_not_primitive(capsys, monkeypatch):
    # Fault: the k formula is one short on the cells (p, p) with p = 1
    # mod 4, and the ring table tags them H to match. Then Cl(1,1) gets
    # f = 1, which is idempotent and passes the dimension audit (one
    # 1x1 block over H), and the tags still repeat under (p, q) ->
    # (p + 4, q + 4); only the maximality oracle sees that e{1} splits f.
    from clifcpt import classify, verify
    from clifcpt.classify import RingType

    def faulty(p, q):
        return p == q and p % 4 == 1

    k_count, ring = classify.idempotent_factor_count, classify.ring_type
    faults = {
        "idempotent_factor_count": lambda p, q: k_count(p, q) - faulty(p, q),
        "ring_type": lambda p, q: RingType("H", 0) if faulty(p, q) else ring(p, q),
    }
    # Every module that binds the two functions sees the fault, as it
    # would see an edit of their source.
    for module in (classify, verify):
        for name, fault in faults.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, fault)
    assert classify.dimension_audit(1, 1).passed
    code, out, _ = run_cli(["verify", "--suite", "coverings", "--max-dim", "6"], capsys)
    failed = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert code == 1
    assert len(failed) == 1
    assert "[coverings] arithmetic-classification" in failed[0]
    assert "Cl(1,1): e{1} splits f" in failed[0]


def test_basis_file_for_another_signature_exits_2_before_certification(tmp_path, capsys):
    # As a basis of Cl(13,1) or Cl(10^12,3), two generators would fail
    # certification (exit 1); the declared signature is compared with the
    # request first, so every mismatch is a usage error, as it is for a
    # valid Cl(2,0) basis.
    sigma1, sigma3 = [["0", "1"], ["1", "0"]], [["1", "0"], ["0", "-1"]]
    for p, q in ((13, 1), (10**12, 3), (2, 0)):
        path = tmp_path / f"cl-{p}-{q}.json"
        path.write_text(json.dumps({"p": p, "q": q, "generators": [sigma1, sigma3]}))
        code, out, err = run_cli(["classify", "--p", "1", "--q", "1", "--basis", f"file:{path}"], capsys)
        assert (code, out) == (2, ""), (p, q)
        assert err == f"error: basis file is for Cl({p},{q}), requested Cl(1,1)\n"
