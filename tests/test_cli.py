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


def test_verify_pq_override(manifest_path, tmp_path):
    report = tmp_path / "r.json"
    code = main([
        "verify", manifest_path,
        "--suites", "axioms,J-metallic,F-metallic",
        "--points", "2",
        "--pq", "1,1;2,1",
        "--report", str(report),
    ])
    assert code == EXIT_OK


def test_verify_bad_pq(manifest_path):
    assert main(["verify", manifest_path, "--pq", "1"]) == EXIT_USAGE


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
