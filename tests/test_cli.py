import json
import os
import subprocess
import sys

import jsonschema
import pytest

from clifcpt.cli import main
from clifcpt.pipeline import classify_cell, to_json

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
    jsonschema.validate(doc, _schema("classify.schema.json"))


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


def test_color_env_flag(capsys, monkeypatch):
    monkeypatch.setenv("CLIFCPT_COLOR", "1")
    _, out, _ = run_cli(["verify", "--suite", "coverings", "--max-dim", "2"], capsys)
    assert "\x1b[32m" in out
    monkeypatch.setenv("CLIFCPT_COLOR", "0")
    _, out, _ = run_cli(["verify", "--suite", "coverings", "--max-dim", "2"], capsys)
    assert "\x1b[" not in out


def test_console_entry_point():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-m", "clifcpt.cli", "classify", "--p", "0", "--q", "2"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["ring"] == "H"


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


def test_verify_report_schema():
    from clifcpt.verify import report_dict, run_suites

    report = report_dict(run_suites(["coverings"], max_dim=4))
    jsonschema.validate(report, _schema("verify.schema.json"))
    assert report["passed"] and report["failures"] == 0


def test_verify_exit_1_on_failing_check(capsys, monkeypatch):
    from clifcpt import verify as vf
    from clifcpt.verify import CheckResult

    def fake_suite(max_dim, realizations):
        return [CheckResult("coverings", "stub", False, "forced failure", 0.0)]

    monkeypatch.setitem(vf._SUITES, "coverings", fake_suite)
    code, out, _ = run_cli(["verify", "--suite", "coverings"], capsys)
    assert code == 1
    assert "FAIL" in out and "forced failure" in out


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

    def broken_census():
        raise ConditionError("census table unavailable")

    monkeypatch.setattr(vf, "census_64", broken_census)
    code, out, _ = run_cli(["verify", "--suite", "all", "--max-dim", "2"], capsys)
    assert code == 1
    lines = out.splitlines()
    assert lines[-1] == "16/17 checks passed"
    failed = [line for line in lines if line.startswith("FAIL")]
    assert len(failed) == 1
    assert "signature-census" in failed[0]
    assert "ConditionError: census table unavailable" in failed[0]


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
