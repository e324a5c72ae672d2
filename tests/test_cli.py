"""Command line interface: exit codes, flags and report output."""

import json
import os
import subprocess
import sys

import pytest

import metallic_tm
from metallic_tm.cli import EXIT_FAIL, EXIT_OK, EXIT_USAGE, main


def test_validate_ok(manifest_path, capsys):
    assert main(["validate", manifest_path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "valid" in out


def test_validate_missing_file():
    assert main(["validate", "/nonexistent/nothing.json"]) == EXIT_USAGE


def test_validate_bad_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["validate", str(p)]) == EXIT_USAGE


def test_validate_bad_content(tmp_path, manifest_path):
    doc = json.load(open(manifest_path))
    doc["eta"][0] = "x1 +"
    p = tmp_path / "broken.json"
    p.write_text(json.dumps(doc))
    assert main(["validate", str(p)]) == EXIT_FAIL


def test_verify_single_suite(manifest_path, capsys):
    code = main(["verify", manifest_path, "--suites", "axioms", "--points", "2"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "axioms" in out and "pass" in out


def test_verify_writes_report(manifest_path, tmp_path, capsys):
    report = tmp_path / "report.json"
    code = main([
        "verify", manifest_path,
        "--suites", "axioms,J-metallic",
        "--points", "2",
        "--report", str(report),
    ])
    assert code == EXIT_OK
    doc = json.loads(report.read_text())
    assert doc["tool"]["name"] == "metallic-tm"
    assert [s["id"] for s in doc["suites"]] == ["axioms", "J-metallic"]
    assert doc["conventions"]["xc_sign"] == "+"


def test_verify_detects_failures(tmp_path, manifest_path):
    doc = json.load(open(manifest_path))
    doc["phi"][2][2] = "1"
    p = tmp_path / "mutated.json"
    p.write_text(json.dumps(doc))
    assert main(["verify", str(p), "--suites", "axioms"]) == EXIT_FAIL


def test_verify_evaluation_error_exit_code(tmp_path, manifest_path):
    """A domain that exact mode cannot evaluate is an error message and exit
    code 2, not a traceback."""
    doc = json.load(open(manifest_path))
    doc["domain"] = ["exp(x3)"]
    p = tmp_path / "exp-domain.json"
    p.write_text(json.dumps(doc))
    src = os.path.dirname(os.path.dirname(metallic_tm.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "metallic_tm.cli", "verify", str(p)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == EXIT_USAGE
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")


def test_verify_residual_beyond_float_range(tmp_path, manifest_path):
    """An exact residual too large for a float fails its suite with exit
    code 1, not a traceback, and the report still holds a number."""
    doc = json.load(open(manifest_path))
    doc["phi"][0][0] = "x1^700"
    p = tmp_path / "huge-phi.json"
    p.write_text(json.dumps(doc))
    report = tmp_path / "r.json"
    src = os.path.dirname(os.path.dirname(metallic_tm.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "metallic_tm.cli", "verify", str(p),
         "--suites", "axioms", "--report", str(report)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == EXIT_FAIL
    assert "Traceback" not in proc.stderr
    (axioms,) = json.loads(report.read_text())["suites"]
    assert axioms["status"] == "fail"
    assert axioms["max_residual"]["float"] == sys.float_info.max


def test_verify_rejects_pq_option(manifest_path, capsys):
    """Parameters come only from the manifest, whose hash the report
    carries: there is no option that overrides them."""
    assert main(["verify", manifest_path, "--pq", "1,1"]) == EXIT_USAGE
    assert "--pq" in capsys.readouterr().err


def test_verify_float_mode(manifest_path):
    code = main([
        "verify", manifest_path,
        "--suites", "axioms,J-metallic",
        "--points", "2",
        "--mode", "float",
    ])
    assert code == EXIT_OK


def test_verify_seed_changes_report_points(manifest_path, tmp_path):
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for seed, path in ((1, r1), (2, r2)):
        main(["verify", manifest_path, "--suites", "axioms",
              "--points", "2", "--seed", str(seed), "--report", str(path)])
    d1, d2 = json.loads(r1.read_text()), json.loads(r2.read_text())
    assert d1["plan"]["seed"] != d2["plan"]["seed"]


def test_usage_error_exit_code():
    assert main(["verify"]) == EXIT_USAGE
    assert main(["frobnicate"]) == EXIT_USAGE


def _set(path, value):
    def mutate(doc):
        *keys, last = path
        for k in keys:
            doc = doc[k]
        doc[last] = value
    return mutate


@pytest.mark.parametrize("mutate", [
    _set(("sample_plan", "tolerance"), "abc"),
    _set(("sample_plan", "tolerance"), -1),
    _set(("sample_plan",), [1]),
    _set(("sample_plan", "count"), True),
    _set(("coordinates",), 3),
    _set(("metallic", 0, "p"), 1.5),
    _set(("metallic", 0, "p"), True),
    _set(("metallic", 0, "eps1"), True),
    _set(("sample_plan", "tolerence"), 1e-6),
], ids=["tolerance-str", "tolerance-negative", "plan-list", "count-bool", "coordinates-int",
        "p-float", "p-bool", "eps1-bool", "unknown-key"])
def test_malformed_manifest_without_jsonschema(mutate, manifest_path, tmp_path, monkeypatch,
                                               capsys):
    """Without jsonschema, parse_manifest itself rejects what the schema
    would: exit code 1 and an error line, never a traceback or a run."""
    monkeypatch.setitem(sys.modules, "jsonschema", None)
    doc = json.load(open(manifest_path))
    mutate(doc)
    p = tmp_path / "malformed.json"
    p.write_text(json.dumps(doc))
    assert main(["verify", str(p)]) == EXIT_FAIL
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
