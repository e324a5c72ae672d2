"""Command line interface: exit codes, flags and report output."""

import gc
import json
import math
import os
import pathlib
import subprocess
import sys

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metallic_tm
from metallic_tm import harness
from metallic_tm.cli import EXIT_FAIL, EXIT_OK, EXIT_USAGE, USAGE, bundled_manifest_path, main

from conftest import dense, family, first_primes

PACKAGE = pathlib.Path(metallic_tm.__file__).parent
MANIFEST_SCHEMA = json.loads((PACKAGE / "schemas" / "manifest.schema.json").read_text())


def test_validate_ok(manifest_path, capsys):
    assert main(["validate", manifest_path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "valid" in out


def test_validate_missing_file():
    assert main(["validate", "/nonexistent/nothing.json"]) == EXIT_USAGE


def test_validate_bad_json(tmp_path, capsys):
    """Text that is not JSON, arrays nested too deeply for the JSON decoder,
    and an integer too long for it to convert give exit code 2 and one error
    line, never a traceback."""
    p = tmp_path / "bad.json"
    for text in ("{not json", "[" * 100_000 + "]" * 100_000,
                 '{"sample_plan": {"seed": ' + "1" * 5000 + "}}"):
        p.write_text(text)
        assert main(["validate", str(p)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {p} is not valid JSON: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["validate", "verify"])
def test_non_utf8_manifest_is_a_usage_error(command, tmp_path, capsys):
    p = tmp_path / "latin1.json"
    p.write_bytes(b'{"name": "\xff"}')
    assert main([command, str(p)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {p} is not valid JSON: ") and "0xff" in err
    assert err.count("\n") == 1


def test_validate_bad_content(tmp_path, manifest_path):
    doc = json.loads(pathlib.Path(manifest_path).read_text())
    doc["eta"][0] = "x1 +"
    p = tmp_path / "broken.json"
    p.write_text(json.dumps(doc))
    assert main(["validate", str(p)]) == EXIT_FAIL


def test_verify_single_suite(manifest_path, capsys):
    code = main(["verify", manifest_path, "--suites", "axioms", "--points", "2"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "axioms" in out and "pass" in out


@pytest.mark.parametrize("suites", ["", " , "])
def test_verify_rejects_an_empty_suite_list(manifest_path, suites, capsys):
    """A --suites list that names no suite is a usage error, not a run of
    all twelve."""
    assert main(["verify", manifest_path, "--suites", suites]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: no suite requested") and err.count("\n") == 1


def test_verify_redraws_where_a_domain_constraint_is_undefined(manifest_path, tmp_path, capsys):
    """Seed 2 draws x1 = x2 on h3 with the constraint 1/(x1 - x2): the draw
    is rejected and redrawn, and the run passes."""
    doc = json.loads(pathlib.Path(manifest_path).read_text())
    doc["domain"] = ["x3", "1/(x1-x2)"]
    p = tmp_path / "undefined-constraint.json"
    p.write_text(json.dumps(doc))
    assert main(["verify", str(p), "--suites", "axioms", "--seed", "2"]) == EXIT_OK
    assert capsys.readouterr().err == ""


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


def test_verify_runs_without_numpy(tmp_path, manifest_path):
    """verify needs nothing beyond the standard library: with numpy's import
    blocked it still writes the golden report of the bundled manifest.
    After a verify and a validate no numpy module is loaded, nor
    ``dataclasses``, ``inspect``, ``argparse``, ``gettext`` or ``locale``,
    which would add their import time to every run."""
    report = tmp_path / "report.json"
    script = "\n".join([
        "import sys",
        "sys.modules['numpy'] = None  # any import of numpy now fails",
        "from metallic_tm import cli",
        f"code = cli.main(['verify', {manifest_path!r}, '--report', {str(report)!r}])",
        f"code |= cli.main(['validate', {manifest_path!r}])",
        "loaded = [m for m, mod in sys.modules.items()",
        "          if m.split('.')[0] in ('numpy', 'dataclasses', 'inspect',",
        "                                 'argparse', 'gettext', 'locale')",
        "          and mod is not None]",
        "print(loaded)",
        "sys.exit(code)",
    ])
    src = os.path.dirname(os.path.dirname(metallic_tm.__file__))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    golden = pathlib.Path(__file__).parent / "data" / "hyperbolic-h3.report.json"
    assert report.read_bytes() == golden.read_bytes()


@pytest.mark.parametrize("path, nodes", [
    pytest.param(PACKAGE / "manifests" / "hyperbolic-h3.json", 1291, id="hyperbolic-h3"),
    pytest.param(PACKAGE / "manifests" / "warped-h5-dense.json", 23929, id="warped-h5-dense"),
    pytest.param(pathlib.Path(__file__).parent / "data" / "hyperbolic-h3-twin.json", 16950,
                 id="hyperbolic-h3-twin"),
])
def test_verify_builds_the_pinned_trees(path, nodes):
    """verify on a chart, in a fresh interpreter, interns a pinned number of
    distinct nodes: a change to folding or interning that builds other
    trees fails here even where no report byte moves."""
    manifest_path = str(path)
    script = "\n".join([
        "from metallic_tm import cli, exprs",
        f"code = cli.main(['verify', {manifest_path!r}])",
        "print(len(exprs._NODES))",
        "raise SystemExit(code)",
    ])
    src = os.path.dirname(os.path.dirname(metallic_tm.__file__))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout.splitlines()[-1] == str(nodes)

@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is enforced on Linux")
def test_verify_out_of_memory_is_one_error_line(tmp_path):
    """A run that exhausts memory prints one error line and exits 2, with no
    traceback and no report.  The child sets its own address-space limit
    before it starts: room for the interpreter and the package (15-19 MB on
    x86_64 Linux, Python 3.10-3.13), a third of what dense warped n=9 needs."""
    import resource

    manifest, report, limit = tmp_path / "dense9.json", tmp_path / "report.json", 64 << 20
    manifest.write_text(json.dumps(family(dense(8), [])), encoding="utf-8")
    src = os.path.dirname(os.path.dirname(metallic_tm.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "metallic_tm.cli", "verify", str(manifest), "--report", str(report)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert (proc.returncode, proc.stderr, proc.stdout) == (EXIT_USAGE, "error: out of memory\n", "")
    assert not report.exists()


def test_verify_and_validate_load_no_openssl(tmp_path, manifest_path):
    """The manifest hash comes from CPython's own SHA-256, so neither command
    loads hashlib, whose ``_hashlib`` and ``_blake2`` bring OpenSSL's
    libcrypto for one digest, nor ``_ssl``."""
    report = tmp_path / "report.json"
    script = "\n".join([
        "import sys",
        "from metallic_tm import cli",
        f"code = cli.main(['verify', {manifest_path!r}, '--points', '3',",
        f"                 '--report', {str(report)!r}])",
        f"code |= cli.main(['validate', {manifest_path!r}])",
        "print(sorted(set(sys.modules) & {'hashlib', '_hashlib', '_blake2', '_ssl'}))",
        "sys.exit(code)",
    ])
    src = os.path.dirname(os.path.dirname(metallic_tm.__file__))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_verify_detects_failures(tmp_path, manifest_path):
    doc = json.loads(pathlib.Path(manifest_path).read_text())
    doc["phi"][2][2] = "1"
    p = tmp_path / "mutated.json"
    p.write_text(json.dumps(doc))
    assert main(["verify", str(p), "--suites", "axioms"]) == EXIT_FAIL


def test_verify_evaluation_error_exit_code(tmp_path, manifest_path):
    """A rational entry that does not fold when parsed but divides by zero
    at every point is an error message and exit code 2 in either mode, not
    a traceback.  The message names the negative power whose base is 0."""
    doc = json.loads(pathlib.Path(manifest_path).read_text())
    doc["eta"][0] = "1/(x1*x2 - x2*x1)"
    p = tmp_path / "zero-denominator.json"
    p.write_text(json.dumps(doc))
    src = os.path.dirname(os.path.dirname(metallic_tm.__file__))
    for mode in ("exact", "float"):
        proc = subprocess.run(
            [sys.executable, "-m", "metallic_tm.cli", "verify", str(p), "--mode", mode],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == EXIT_USAGE
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")
        assert "division by zero at point in (x1*x2 - x2*x1)^(-1)" in proc.stderr


def test_verify_residual_beyond_float_range(tmp_path, manifest_path):
    """An exact residual too large for a float fails its suite with exit
    code 1, not a traceback, and the report still holds a number."""
    doc = json.loads(pathlib.Path(manifest_path).read_text())
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


def test_verify_value_beyond_the_digit_limit(tmp_path, manifest_path, capsys):
    """An exact value with more digits than the interpreter converts to a
    string is one error line naming the limit and exit code 2, not a
    traceback."""
    doc = json.loads(pathlib.Path(manifest_path).read_text())
    doc["phi"][0][0] = "(x1*x2*x3)^900*(x1*x2*x3)^900"
    p = tmp_path / "huge-value.json"
    p.write_text(json.dumps(doc))
    assert main(["verify", str(p), "--suites", "axioms"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == (f"error: an exact value has more than {sys.get_int_max_str_digits()} "
                   "digits, the limit for integer string conversion\n")


def test_verify_float_value_past_the_float_range(tmp_path, manifest_path, capsys):
    """xi^1 = x1^50*x2^50*x3^50*(x3 - 1), written so that floats take
    inf - inf at every point of [120, 200]^3, fails the axioms exactly.  In
    float mode its nan is one error line and exit code 2, not an axioms
    suite that passes because no tolerance ranks the nan."""
    doc = json.loads(pathlib.Path(manifest_path).read_text())
    doc["xi"][0] = "x1^50*x2^50*x3^51 - x1^50*x2^50*x3^50*(x3+1)/(x3+1)"
    doc["sample_plan"]["base_ranges"] = [["120", "200"]] * 3
    p = tmp_path / "nan-xi.json"
    p.write_text(json.dumps(doc))
    assert main(["verify", str(p), "--suites", "axioms"]) == EXIT_FAIL
    capsys.readouterr()
    assert main(["verify", str(p), "--suites", "axioms", "--mode", "float"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: float evaluation failed: the value is nan\n"


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_main_gives_back_the_collector_state(enabled, manifest_path, tmp_path, monkeypatch):
    """The command runs with the cyclic collector paused, and main gives the
    caller back the collector state it had and the frozen objects it had,
    whether the command passes, exits 1 or 2, or raises."""
    doc = json.loads(pathlib.Path(manifest_path).read_text())
    doc["eta"][0] = "x1 +"
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    doc["eta"][0] = "1/(x1*x2 - x2*x1)"
    zero_denominator = tmp_path / "zero-denominator.json"
    zero_denominator.write_text(json.dumps(doc))
    seen, run_suites = [], harness.run_suites

    def spy(*args, **kwargs):
        seen.append(gc.isenabled())
        if kwargs.get("suites") == ["raise"]:
            raise RuntimeError("raised inside the command")
        return run_suites(*args, **kwargs)

    monkeypatch.setattr(harness, "run_suites", spy)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for argv, code in [(["verify", manifest_path, "--suites", "axioms"], EXIT_OK),
                           (["verify", str(broken)], EXIT_FAIL),
                           (["verify", str(zero_denominator)], EXIT_USAGE),
                           (["verify", manifest_path, "--suites", "raise"], None)]:
            before = gc.isenabled(), gc.get_freeze_count()
            if code is None:
                with pytest.raises(RuntimeError, match="raised inside the command"):
                    main(argv)
            else:
                assert main(argv) == code
            assert (gc.isenabled(), gc.get_freeze_count()) == before == (enabled, before[1])
    finally:
        (gc.enable if was else gc.disable)()
    # the manifest error exits before run_suites
    assert seen == [False, False, False]


def test_main_freezes_the_survivors_at_exit(manifest_path):
    """main registers gc.freeze with atexit once per process, however often
    it is called, so the exit's final collection skips what is still alive;
    an exit handler registered before main runs after it and sees the
    frozen objects."""
    script = "\n".join([
        "import atexit, gc",
        "from metallic_tm import cli",
        "frozen, handlers = gc.get_freeze_count(), atexit._ncallbacks()",
        "atexit.register(lambda: print('frozen at exit:', gc.get_freeze_count() > frozen))",
        f"code = cli.main(['validate', {manifest_path!r}])",
        f"code |= cli.main(['verify', {manifest_path!r}, '--suites', 'axioms'])",
        "print('registered:', atexit._ncallbacks() - handlers - 1,",
        "      'frozen now:', gc.get_freeze_count() - frozen)",
        "raise SystemExit(code)",
    ])
    src = os.path.dirname(os.path.dirname(metallic_tm.__file__))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["registered: 1 frozen now: 0", "frozen at exit: True"]


def test_verify_leaves_garbage_that_does_not_grow_with_the_chart():
    """With the collector paused, a verify run leaves no unreachable object,
    on h3 as on warped-h5-dense, although the second builds many more nodes
    and contractions: the node graph holds no reference cycle, so pausing
    the collector for the command keeps nothing alive that a collection
    would have freed.  The first run is a warm-up."""
    paths = {name: bundled_manifest_path(name) for name in ("hyperbolic-h3", "warped-h5-dense")}
    garbage = {}
    was = gc.isenabled()
    gc.disable()
    try:
        for name in ("hyperbolic-h3", "warped-h5-dense", "hyperbolic-h3"):
            gc.collect()
            assert main(["verify", paths[name]]) == EXIT_OK
            garbage[name] = gc.collect()
    finally:
        if was:
            gc.enable()
    assert garbage == {"hyperbolic-h3": 0, "warped-h5-dense": 0}


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


# command lines that are usage errors ("@" is the manifest), each with the
# argument its error line names
MALFORMED_LINES = {
    "no-command": ([], "command"),
    "unknown-command": (["frobnicate"], "'frobnicate'"),
    "no-manifest": (["verify"], "MANIFEST"),
    "extra-positional": (["verify", "@", "extra"], "'extra'"),
    "no-value": (["verify", "@", "--points"], "--points"),
    "points-not-int": (["verify", "@", "--points", "x"], "--points"),
    "seed-not-int": (["verify", "@", "--seed=1.5"], "--seed"),
    "mode-unknown": (["verify", "@", "--mode", "fast"], "--mode"),
    "option-after-validate": (["validate", "@", "--points", "3"], "--points"),
    # parameters come only from the manifest, whose hash the report carries
    "pq": (["verify", "@", "--pq", "1,1"], "--pq"),
    # options are not abbreviated, and there is no -- separator
    "abbreviated": (["verify", "@", "--poi", "3"], "--poi"),
    "separator": (["verify", "--", "@"], "'--'"),
}


@pytest.mark.parametrize("argv, named", MALFORMED_LINES.values(), ids=MALFORMED_LINES)
def test_a_malformed_command_line_is_a_usage_error(argv, named, manifest_path, capsys):
    """A malformed command line prints the usage and one error line naming
    the argument to stderr, and main returns 2 without running anything."""
    assert main([manifest_path if a == "@" else a for a in argv]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(USAGE)
    assert err[len(USAGE):].startswith("error: ") and err.count("\n") == USAGE.count("\n") + 1
    assert named in err[len(USAGE):]


def test_options_are_read_in_every_form(manifest_path, tmp_path):
    """--opt=V, options before the manifest and a repeated option, of which
    the last one wins, give the report of the plain form ("@" is the
    manifest, "#" the report)."""
    forms = {
        "plain": ["verify", "@", "--suites", "axioms,J-metallic", "--points", "3",
                  "--seed", "5", "--mode", "float", "--report", "#"],
        "equals": ["verify", "@", "--suites=axioms,J-metallic", "--points=3", "--seed=5",
                   "--mode=float", "--report=#"],
        "before": ["verify", "--suites", "axioms,J-metallic", "--points", "3", "--seed", "5",
                   "--mode", "float", "--report", "#", "@"],
        "repeated": ["verify", "@", "--seed", "1", "--suites", "axioms,J-metallic",
                     "--points", "3", "--mode", "exact", "--seed", "5", "--mode", "float",
                     "--report", "#"],
    }
    reports = {}
    for form, argv in forms.items():
        report = tmp_path / f"{form}.json"
        fill = {"@": manifest_path, "#": str(report), "--report=#": f"--report={report}"}
        assert main([fill.get(a, a) for a in argv]) == EXIT_OK
        reports[form] = report.read_bytes()
    plan = json.loads(reports["plain"])["plan"]
    assert (plan["seed"], plan["count"], plan["mode"]) == (5, 3, "float")
    assert set(reports.values()) == {reports["plain"]}


@pytest.mark.parametrize("argv", [["-h"], ["verify", "--help"]], ids=["-h", "verify--help"])
def test_help_prints_the_usage(argv, capsys):
    """-h or --help anywhere prints the usage to stdout, and main returns 0."""
    assert main(argv) == EXIT_OK
    out, err = capsys.readouterr()
    assert out == USAGE and out.startswith("usage: metallic-tm validate MANIFEST\n")
    assert err == ""


def _set(path, value):
    def mutate(doc):
        *keys, last = path
        for k in keys:
            doc = doc[k]
        doc[last] = value
    return mutate


# Manifests that manifest.schema.json rejects.
SCHEMA_MALFORMED = {
    "tolerance-str": _set(("sample_plan", "tolerance"), "abc"),
    "tolerance-negative": _set(("sample_plan", "tolerance"), -1),
    "tolerance-infinite": _set(("sample_plan", "tolerance"), math.inf),
    "tolerance-beyond-float": _set(("sample_plan", "tolerance"), 10 ** 400),
    "tolerance-set": _set(("sample_plan", "tolerance"), 1e-6),  # the tolerance is fixed
    "plan-list": _set(("sample_plan",), [1]),
    "count-bool": _set(("sample_plan", "count"), True),
    "coordinates-int": _set(("coordinates",), 3),
    "p-float": _set(("metallic", 0, "p"), 1.5),
    "p-bool": _set(("metallic", 0, "p"), True),
    "eps1-bool": _set(("metallic", 0, "eps1"), True),
    "unknown-key": _set(("sample_plan", "tolerence"), 1e-6),
    "plan-null": _set(("sample_plan",), None),
    "base-ranges-null": _set(("sample_plan", "base_ranges"), None),
    "fiber-ranges-null": _set(("sample_plan", "fiber_ranges"), None),
    "range-decimal": _set(("sample_plan", "base_ranges", 0, 0), "0.5"),
    "range-exponent": _set(("sample_plan", "base_ranges", 0, 1), "1e3"),
    "range-plus-sign": _set(("sample_plan", "fiber_ranges", 0, 1), "+3"),
    "expr-empty": _set(("eta", 0), ""),
    "name-null": _set(("name",), None),
    "domain-null": _set(("domain",), None),
    "eps2-null": _set(("metallic", 0, "eps2"), None),
}

# Strings the schema admits that are no rational function of x1..xn.
EXPRESSION_MALFORMED = {
    "exp": _set(("eta", 2), "exp(x1)"),
    "zero-denominator-folds": _set(("eta", 2), "1/(x1-x1)"),
    "zero-to-negative-power": _set(("domain", 0), "0^-1"),
    "superscript-digit": _set(("eta", 2), "1/x3\u00b2"),
    "arabic-indic-index": _set(("xi", 2), "x\u0663"),
    "arabic-indic-digit": _set(("metric", 0, 0), "\u0663"),
    "nested-too-deep": _set(("domain", 0), "(" * 170 + "x3" + ")" * 170),
    # integers of more digits than the interpreter converts, and powers
    # past exprs.MAX_EXPONENT, which would hang the sampler or exhaust memory
    "literal-too-long": _set(("eta", 2), "x3 + " + "1" * 5000),
    "index-too-long": _set(("xi", 2), "x" + "1" * 5000),
    "exponent-too-long": _set(("metric", 0, 0), "x1^" + "1" * 5000),
    "paren-exponent-too-long": _set(("metric", 1, 1), "x1^(" + "1" * 5000 + ")"),
    "exponent-too-large": _set(("domain", 0), "x1^99999999999"),
    "constant-power-too-large": _set(("phi", 0, 0), "0*2^99999999999"),
    "power-of-power-too-large": _set(("phi", 1, 1), "(x1^100)^100"),
    "range-end-too-long": _set(("sample_plan", "fiber_ranges", 0, 1), "1" + "0" * 5000),
    # a constant sum past the digit limit, which the division-by-zero
    # message of verify could not print
    "constant-sum-too-long": _set(("eta", 0), "(x1 + " + " + ".join(
        f"1/{p}" for p in first_primes(1500)) + ")/(x1*x2 - x2*x1)"),
}


@pytest.mark.parametrize("mutate", [
    pytest.param(m, id=i) for i, m in {**SCHEMA_MALFORMED, **EXPRESSION_MALFORMED}.items()])
def test_malformed_manifest_without_jsonschema(mutate, manifest_path, tmp_path, capsys):
    """parse_manifest is the only validator: a malformed manifest gives exit
    code 1 and one error line from validate and verify, never a traceback
    or a run, whether or not jsonschema is installed."""
    doc = json.loads(pathlib.Path(manifest_path).read_text())
    mutate(doc)
    p = tmp_path / "malformed.json"
    p.write_text(json.dumps(doc))
    for command in ("validate", "verify"):
        assert main([command, str(p)]) == EXIT_FAIL
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("path, value, entry", [
    (("sample_plan", "tolerance"), 1e-6, "sample_plan: unknown key(s) 'tolerance'"),
    (("domain", 0), "y1", "domain[0]: unknown identifier 'y1'"),
    (("metric", 1, 1), "x3^-2*(1+y1)/(1+y1)", "metric[1][1]: unknown identifier 'y1'"),
    (("phi", 0, 0), "y1 - 1", "phi[0][0]: unknown identifier 'y1'"),
    (("eta", 2), "1/x3 + y1", "eta[2]: unknown identifier 'y1'"),
    (("xi", 2), "x3*y1", "xi[2]: unknown identifier 'y1'"),
], ids=["tolerance", "domain", "metric", "phi", "eta", "xi"])
def test_a_tolerance_or_a_fiber_coordinate_is_refused(path, value, entry, manifest_path,
                                                      tmp_path, capsys):
    """The float tolerance is fixed, and expressions name only the base
    coordinates x1..xn: a manifest that sets ``sample_plan.tolerance`` or
    names y1 exits 1 from validate and verify, with one error line that
    names the entry."""
    doc = json.loads(pathlib.Path(manifest_path).read_text())
    _set(path, value)(doc)
    p = tmp_path / "refused.json"
    p.write_text(json.dumps(doc))
    for command in ("validate", "verify"):
        assert main([command, str(p)]) == EXIT_FAIL
        err = capsys.readouterr().err
        assert err.startswith(f"error: {p}: {entry}") and err.count("\n") == 1


# -- the schema as an oracle for parse_manifest ----------------------------

@pytest.mark.parametrize("path", sorted((PACKAGE / "manifests").glob("*.json")),
                         ids=lambda p: p.stem)
def test_bundled_manifests_match_the_schema(path):
    jsonschema.Draft7Validator.check_schema(MANIFEST_SCHEMA)
    jsonschema.validate(json.loads(path.read_text()), MANIFEST_SCHEMA)


@pytest.mark.parametrize("mutate", [pytest.param(m, id=i) for i, m in SCHEMA_MALFORMED.items()])
def test_parse_manifest_rejects_what_the_schema_rejects(mutate, manifest_path):
    """The schema is the oracle: each mutation fails it and parse_manifest."""
    doc = json.loads(pathlib.Path(manifest_path).read_text())
    mutate(doc)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, MANIFEST_SCHEMA)
    with pytest.raises(harness.ManifestError):
        harness.parse_manifest(doc)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.text(alphabet="0123456789-+/._e \n", max_size=6),
                 st.integers(), st.floats(allow_nan=False), st.booleans(), st.none()))
def test_range_ends_the_schema_rejects_are_rejected(end):
    """A range end outside the schema's rational literal is a ManifestError."""
    try:
        jsonschema.validate(end, MANIFEST_SCHEMA["definitions"]["rational"])
    except jsonschema.ValidationError:
        with pytest.raises(harness.ManifestError):
            harness._frac(end, "range")
