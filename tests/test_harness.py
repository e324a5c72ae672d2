"""Manifest ingestion, sampling, suite orchestration and reports."""

import json
import pathlib

import pytest

from metallic_tm import harness
from metallic_tm.harness import Manifest, ManifestError, SamplePlan


@pytest.fixture(scope="module")
def doc(manifest_path):
    with open(manifest_path) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def manifest(manifest_path):
    return harness.load_manifest(manifest_path)


# -- parsing and validation ----------------------------------------------

def test_load_bundled_manifest(manifest):
    assert manifest.name == "hyperbolic-h3"
    assert manifest.n == 3
    assert len(manifest.params) == 3
    assert manifest.plan.mode == "exact"
    assert len(manifest.sha256()) == 64


def test_missing_field_rejected(doc):
    bad = dict(doc)
    del bad["phi"]
    with pytest.raises(ManifestError, match="phi"):
        harness.parse_manifest(bad)


def test_bad_dimension_rejected(doc):
    bad = dict(doc)
    bad["dimension"] = 1
    with pytest.raises(ManifestError, match="dimension"):
        harness.parse_manifest(bad)


def test_wrong_matrix_shape_rejected(doc):
    bad = json.loads(json.dumps(doc))
    bad["metric"][0] = ["1", "0"]
    with pytest.raises(ManifestError, match="metric"):
        harness.parse_manifest(bad)


def test_expression_parse_error_is_located(doc):
    bad = json.loads(json.dumps(doc))
    bad["eta"][2] = "1/(x3"
    with pytest.raises(ManifestError, match=r"eta\[2\]"):
        harness.parse_manifest(bad)


def test_out_of_range_coordinate_rejected(doc):
    bad = json.loads(json.dumps(doc))
    bad["xi"][0] = "x7"
    with pytest.raises(ManifestError):
        harness.parse_manifest(bad)


def test_empty_metallic_list_rejected(doc):
    bad = dict(doc)
    bad["metallic"] = []
    with pytest.raises(ManifestError, match="metallic"):
        harness.parse_manifest(bad)


def test_bad_sample_plan_rejected(doc):
    bad = json.loads(json.dumps(doc))
    bad["sample_plan"]["mode"] = "symbolic"
    with pytest.raises(ManifestError, match="mode"):
        harness.parse_manifest(bad)


# -- sampling ---------------------------------------------------------------

def test_sampler_is_deterministic(manifest):
    a = harness.sample_points(manifest)
    b = harness.sample_points(manifest)
    assert a == b


def test_sampler_seed_changes_points(manifest):
    plan = SamplePlan(count=4, seed=1,
                      base_ranges=manifest.plan.base_ranges,
                      fiber_ranges=manifest.plan.fiber_ranges)
    plan2 = SamplePlan(count=4, seed=2,
                       base_ranges=manifest.plan.base_ranges,
                       fiber_ranges=manifest.plan.fiber_ranges)
    assert harness.sample_points(manifest, plan) != harness.sample_points(manifest, plan2)


def test_sampler_respects_domain(manifest):
    plan = SamplePlan(count=20, seed=5,
                      base_ranges=manifest.plan.base_ranges,
                      fiber_ranges=manifest.plan.fiber_ranges)
    x3 = manifest.manifold.variables[2]
    for pt in harness.sample_points(manifest, plan):
        assert pt[x3] > 0


def test_sampler_rejects_impossible_domain(doc):
    bad = json.loads(json.dumps(doc))
    bad["domain"] = ["0 - 1"]  # never positive
    m = harness.parse_manifest(bad)
    with pytest.raises(harness.SamplingError):
        harness.sample_points(m)


def test_float_mode_points_are_floats(manifest):
    plan = SamplePlan(count=2, seed=3, mode="float",
                      base_ranges=manifest.plan.base_ranges,
                      fiber_ranges=manifest.plan.fiber_ranges)
    for pt in harness.sample_points(manifest, plan):
        assert all(isinstance(v, float) for v in pt.values())


# -- suites and reports -------------------------------------------------------

def test_unknown_suite_rejected(manifest):
    with pytest.raises(ManifestError, match="unknown suite"):
        harness.run_suites(manifest, suites=["no-such-suite"])


def test_full_run_all_suites_pass(manifest):
    report = harness.run_suites(manifest)
    assert [s["id"] for s in report["suites"]] == list(harness.SUITE_IDS)
    assert all(s["status"] == "pass" for s in report["suites"])
    assert harness.report_all_pass(report)
    conv = report["conventions"]
    assert conv["xc_sign"] == "+"
    assert conv["d1form"] == "1/2"
    assert conv["dphi_prime_sign"] == "-"


def test_report_is_deterministic(manifest):
    r1 = harness.render_report(harness.run_suites(manifest))
    r2 = harness.render_report(harness.run_suites(manifest))
    assert r1 == r2


def test_report_matches_golden(manifest):
    """The bundled exact report, byte for byte as committed: unlike the
    determinism test, this catches a report change from one version of the
    code to the next."""
    golden = pathlib.Path(__file__).parent / "data" / "hyperbolic-h3.report.json"
    report = harness.render_report(harness.run_suites(manifest))
    assert report == golden.read_text(encoding="utf-8")


def test_suite_filtering(manifest):
    report = harness.run_suites(manifest, suites=["axioms", "J-metallic"])
    assert [s["id"] for s in report["suites"]] == ["axioms", "J-metallic"]


def test_axiom_gating_skips_downstream(doc):
    bad = json.loads(json.dumps(doc))
    bad["phi"][2][2] = "1"
    m = harness.parse_manifest(bad)
    report = harness.run_suites(m, suites=["axioms", "lifts", "J-metallic"])
    by_id = {s["id"]: s for s in report["suites"]}
    assert by_id["axioms"]["status"] == "fail"
    assert by_id["lifts"]["status"] == "skipped"
    assert by_id["J-metallic"]["status"] == "skipped"
    assert not harness.report_all_pass(report)


def test_exact_float_parity(manifest):
    plan_e = SamplePlan(count=3, seed=11, mode="exact",
                        base_ranges=manifest.plan.base_ranges,
                        fiber_ranges=manifest.plan.fiber_ranges)
    plan_f = SamplePlan(count=3, seed=11, mode="float",
                        base_ranges=manifest.plan.base_ranges,
                        fiber_ranges=manifest.plan.fiber_ranges)
    re = harness.run_suites(manifest, plan=plan_e)
    rf = harness.run_suites(manifest, plan=plan_f)
    assert [s["status"] for s in re["suites"]] == [s["status"] for s in rf["suites"]]


# -- targeted mutations -------------------------------------------------------

MUTATIONS = [
    ("phi", 0, 0, "1"),        # breaks Eq. (6)
    ("phi", 2, 2, "1"),        # breaks phi(xi) = 0
    ("phi", 0, 1, "x1"),       # breaks phi^2 = I - eta (x) xi
    ("phi", 1, 1, "1"),        # breaks Eq. (6)
    ("eta", 2, None, "1"),     # breaks eta(xi) = 1
    ("eta", 2, None, "2/x3"),  # breaks eta(xi) = 1
    ("eta", 0, None, "1/x3"),  # breaks eta o phi = 0
    ("xi", 2, None, "1"),      # breaks eta(xi) = 1
    ("xi", 0, None, "x3"),     # breaks phi(xi) = 0
    ("metric", 0, 0, "1"),     # breaks Eq. (6)/(7)
    ("metric", 2, 2, "1"),     # breaks g(X, xi) = eta(X)
    ("metric", 1, 1, "x3^-4"),  # breaks Eq. (7)
]


@pytest.mark.parametrize("field,i,j,value", MUTATIONS)
def test_mutation_is_caught(doc, field, i, j, value):
    bad = json.loads(json.dumps(doc))
    if j is None:
        bad[field][i] = value
    else:
        bad[field][i][j] = value
    m = harness.parse_manifest(bad)
    report = harness.run_suites(m, suites=["axioms"])
    assert report["suites"][0]["status"] == "fail", (field, i, j, value)
    assert report["suites"][0]["witnesses"], "a failing suite must carry a witness"
