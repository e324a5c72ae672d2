"""Manifest ingestion, sampling, suite orchestration and reports."""

import functools
import hashlib
import importlib.util
import json
import pathlib
import random
import sys
from fractions import Fraction

import pytest

from metallic_tm import bundle as bd
from metallic_tm import exprs as E
from metallic_tm import harness
from metallic_tm import manifold as mf
from metallic_tm import metallic as ml
from metallic_tm import paracontact as pc
from metallic_tm.cli import bundled_manifest_path
from metallic_tm.harness import Manifest, ManifestError, SamplePlan

import pinned_reports
from conftest import dense, evaluate_array, family

DATA = pathlib.Path(__file__).parent / "data"


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


MANIFEST_FILES = sorted(pathlib.Path(bundled_manifest_path()).parent.glob("*.json")) + sorted(
    p for p in DATA.glob("*.json") if not p.name.endswith((".report.json", ".suites.json")))


def _blob(raw: bytes) -> Manifest:
    return Manifest("blob", 0, None, None, [], None, raw)


@pytest.mark.parametrize("path", MANIFEST_FILES, ids=lambda p: p.name)
def test_manifest_hash_is_the_sha256_of_the_file(path):
    raw = path.read_bytes()
    assert harness.load_manifest(str(path)).sha256() == hashlib.sha256(raw).hexdigest()


@pytest.mark.parametrize("raw", [b"", random.Random(24).randbytes(1 << 20)],
                         ids=["empty", "1MB"])
def test_manifest_hash_of_bytes_is_their_sha256(raw):
    assert _blob(raw).sha256() == hashlib.sha256(raw).hexdigest()


def test_manifest_hash_falls_back_to_hashlib(monkeypatch, manifest_path):
    """On an interpreter built without CPython's own SHA-256 modules the
    harness hashes through hashlib, to the same digest."""
    monkeypatch.setitem(sys.modules, "_sha2", None)  # their imports now fail
    monkeypatch.setitem(sys.modules, "_sha256", None)
    spec = importlib.util.spec_from_file_location("metallic_tm._harness_fallback",
                                                  harness.__file__)
    fallback = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fallback)
    assert fallback.sha256 is hashlib.sha256
    blob = _blob(pathlib.Path(manifest_path).read_bytes())
    digest = fallback.Manifest.sha256(blob)  # looks sha256 up in the fallback's globals
    assert digest == blob.sha256() == hashlib.sha256(blob.raw_bytes).hexdigest()


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
    assert all(type(pt) is dict for pt in a)


def test_sampler_seed_changes_points(manifest):
    one, two = (manifest._replace(plan=manifest.plan._replace(count=4, seed=s)) for s in (1, 2))
    assert harness.sample_points(one) != harness.sample_points(two)


def test_sampler_respects_domain(manifest):
    x3 = manifest.manifold.variables[2]
    plan = manifest.plan._replace(count=20, seed=5)
    for pt in harness.sample_points(manifest._replace(plan=plan)):
        assert pt[x3] > 0


def test_sampler_rejects_impossible_domain(doc):
    bad = json.loads(json.dumps(doc))
    bad["domain"] = ["0 - 1"]  # never positive
    m = harness.parse_manifest(bad)
    with pytest.raises(harness.SamplingError):
        harness.sample_points(m)


def test_sampler_redraws_where_a_constraint_is_undefined(doc, monkeypatch):
    """A domain constraint that cannot be evaluated at a draw, such as
    1/(x1 - x2) at a draw with x1 = x2, rejects that draw as a constraint
    that is not positive does; seed 2 draws x1 = x2 before its third point."""
    d = json.loads(json.dumps(doc))
    d["domain"] = ["x3", "1/(x1-x2)"]
    m = harness.parse_manifest(d)
    m = m._replace(plan=m.plan._replace(seed=2))
    x1, x2, _ = m.manifold.variables
    undefined, evaluate = [], E.evaluate

    def spy(e, pt):
        try:
            return evaluate(e, pt)
        except E.EvalError:
            undefined.append(pt[x1] - pt[x2])
            raise

    monkeypatch.setattr(harness.E, "evaluate", spy)
    points = harness.sample_points(m)
    assert undefined and set(undefined) == {0}
    assert len(points) == m.plan.count
    assert all(pt[x1] > pt[x2] for pt in points)
    monkeypatch.undo()
    assert harness.run_suites(m, ["axioms"])["suites"][0]["status"] == "pass"


def test_sampler_counts_only_rejected_draws(manifest):
    """Every draw on h3 is admissible, so the budget of 2,000 rejected
    draws in a row does not cap the number of points; the draws are those
    of a smaller count, continued."""
    points = harness.sample_points(manifest._replace(plan=manifest.plan._replace(count=2500)))
    assert len(points) == 2500
    assert points[:3] == harness.sample_points(manifest)


@pytest.mark.parametrize("key, axis, lo, hi", [
    ("fiber_ranges", 0, "1/10", "1/9"),  # every y1 was 0
    ("base_ranges", 2, "1/10", "1/9"),  # no admissible point found
    ("fiber_ranges", 1, "-1/7", "-1/8"),
    ("base_ranges", 0, "1", "6/5"),
])
def test_sampler_draws_inside_narrow_ranges(doc, key, axis, lo, hi):
    """A range with no multiple of 1/den inside, for the drawn den, is
    drawn from on a finer grid, strictly inside it."""
    narrow = json.loads(json.dumps(doc))
    narrow["sample_plan"][key][axis] = [lo, hi]
    m = harness.parse_manifest(narrow)
    var = E.Var("base" if key == "base_ranges" else "fiber", axis + 1)
    for pt in harness.sample_points(m._replace(plan=m.plan._replace(count=20, seed=3))):
        assert Fraction(lo) < pt[var] < Fraction(hi)


def test_sampler_reaches_the_grid_ends_next_to_fractional_range_ends(doc):
    """Next to a range end that is no multiple of 1/den, the grid's last
    point inside is drawn too: on (-7/2, 7/2) the fiber coordinate reaches
    -24/7 and 24/7 (and -10/3 and 10/3), at both ends alike."""
    wide = json.loads(json.dumps(doc))
    wide["sample_plan"]["fiber_ranges"][0] = ["-7/2", "7/2"]
    m = harness.parse_manifest(wide)
    y1 = E.Var("fiber", 1)
    drawn = {pt[y1] for seed in range(1, 4)
             for pt in harness.sample_points(m._replace(plan=m.plan._replace(count=400, seed=seed)))}
    assert all(Fraction(-7, 2) < y < Fraction(7, 2) for y in drawn)
    for end in (Fraction(24, 7), Fraction(10, 3)):
        assert {end, -end} <= drawn


def test_float_mode_points_are_floats(manifest):
    plan = manifest.plan._replace(count=2, seed=3, mode="float")
    for pt in harness.sample_points(manifest._replace(plan=plan)):
        assert all(isinstance(v, float) for v in pt.values())


# -- suites and reports -------------------------------------------------------

def test_unknown_suite_rejected(manifest):
    with pytest.raises(ManifestError, match="unknown suite"):
        harness.run_suites(manifest, suites=["no-such-suite"])


@pytest.mark.parametrize("suites", [[], ()])
def test_empty_suite_list_rejected(manifest, suites):
    """Only ``None`` requests every suite; an empty list requests none,
    which is an error, not a full run."""
    with pytest.raises(ManifestError, match="no suite requested"):
        harness.run_suites(manifest, suites=suites)


def test_axioms_alone_build_nothing_on_TM(manifest, monkeypatch):
    """The axioms suite reads the base chart alone: a run of it builds no
    curvature, no bundle chart, no lift, no Sasaki metric and no lifted
    connection."""
    def refuse(name):
        def built(*args, **kwargs):
            raise AssertionError(f"{name} was built")
        return built

    monkeypatch.setattr(harness.mf, "curvature", refuse("curvature"))
    for name in ("TangentBundleChart", "lift", "sasaki_metric", "clift_connection",
                 "hlift_connection"):
        monkeypatch.setattr(bd, name, refuse(name))
    report = harness.run_suites(manifest, ["axioms"])
    assert [(s["id"], s["status"]) for s in report["suites"]] == [("axioms", "pass")]


def test_full_run_all_suites_pass(manifest):
    report = harness.run_suites(manifest)
    assert [s["id"] for s in report["suites"]] == list(harness.SUITE_IDS)
    assert all(s["status"] == "pass" for s in report["suites"])
    assert harness.report_all_pass(report)
    conv = report["conventions"]
    assert conv["xc_sign"] == "+"
    assert conv["d1form"] == "1/2"
    assert conv["dphi_prime_sign"] == "-"


def test_dphi_prime_sign_is_phi_primes_measured_sign(manifest):
    """conventions.dphi_prime_sign is copied from Phi-prime's notes, and is
    null when Phi-prime does not run."""
    report = harness.run_suites(manifest, suites=["Phi-prime", "J-parallel"])
    phi_prime = report["suites"][-1]
    assert phi_prime["id"] == "Phi-prime"
    assert report["conventions"]["dphi_prime_sign"] == phi_prime["notes"]["measured_sign"] == "-"
    report = harness.run_suites(manifest, suites=["lifts"])
    assert report["conventions"]["dphi_prime_sign"] is None


def test_report_is_deterministic(manifest):
    r1 = harness.render_report(harness.run_suites(manifest))
    r2 = harness.render_report(harness.run_suites(manifest))
    assert r1 == r2


@pytest.mark.parametrize("row", pinned_reports.ROWS, ids=lambda row: row.id)
def test_pinned_report_matches_golden(row, tmp_path):
    """Every row of ``tests/pinned_reports.py`` through ``verify``, byte for
    byte as its committed golden, with the exit code the golden's statuses
    give: unlike the determinism test, this catches a report change from
    one version of the code to the next."""
    code, report = pinned_reports.verify(row, tmp_path)
    want_code, want = pinned_reports.golden(row)
    assert report.decode("utf-8") == want.decode("utf-8")
    assert code == want_code


def _one(m):
    return [["1" if i == j else "0" for j in range(m)] for i in range(m)]


# each bundled chart as a member of the warped two-block family: (h_minus, h_plus)
FAMILY = {
    "hyperbolic-h3": (_one(2), []),
    "hyperbolic-h5": (_one(4), []),
    "hyperbolic-h7": (_one(6), []),
    "split-h3": (_one(1), _one(1)),
    "warped-h3": ([["(1 + x1^2 + x2^2)^-2", "0"], ["0", "(1 + x1^2 + x2^2)^-2"]], []),
    "warped-h5-dense": (dense(4), []),
}


@pytest.mark.parametrize("name", FAMILY)
def test_the_family_generator_writes_the_bundled_charts(name, tmp_path):
    """``conftest.family`` gives each bundled chart: with the bundled file's
    name, metallic sets and sample plan it is the bundled document, and its
    report is the golden byte for byte but for the manifest hash, which
    hashes the file's bytes."""
    bundled = json.loads(pathlib.Path(bundled_manifest_path(name)).read_text())
    doc = {**family(*FAMILY[name]), **{k: bundled[k] for k in ("name", "metallic", "sample_plan")}}
    assert doc == bundled
    path = tmp_path / "family.json"
    path.write_text(json.dumps(doc))
    row = pinned_reports.Row(str(path), (), f"{name}.report.json")
    (code, got), (want_code, want) = pinned_reports.verify(row, tmp_path), pinned_reports.golden(row)
    got_hash, want_hash = (json.loads(r)["manifest_hash"] for r in (got, want))
    assert got_hash != want_hash
    assert got.replace(got_hash.encode(), want_hash.encode()) == want and code == want_code


def test_the_dense_n7_manifest_is_a_family_member():
    """The pinned dense warped chart of dimension 7 is the family's document."""
    doc = json.loads((DATA / "warped-h7-dense.json").read_text(encoding="utf-8"))
    assert doc == family(dense(6), [])


@functools.lru_cache(maxsize=None)
def _statuses(path: str) -> tuple:
    return tuple((s["id"], s["status"])
                 for s in harness.run_suites(harness.load_manifest(path))["suites"])


@pytest.mark.parametrize("bundled,pulled", [("hyperbolic-h3", "hyperbolic-h3-twin"),
                                            ("hyperbolic-h3", "hyperbolic-h3-shear"),
                                            ("hyperbolic-h5", "hyperbolic-h5-twin"),
                                            ("hyperbolic-h7", "hyperbolic-h7-twin")])
def test_pulled_back_chart_gets_the_bundled_statuses(bundled, pulled):
    """A bundled structure pulled back along a triangular polynomial map,
    whose inverse is polynomial too, is the same P-Sasakian manifold in
    other coordinates (the data were written once as J^T g J, J^-1 phi J,
    eta J and J^-1 xi): every suite gets the status it gets on the bundled
    chart, and all of them pass."""
    want = _statuses(bundled_manifest_path(bundled))
    assert want == tuple((sid, "pass") for sid in harness.SUITE_IDS)
    assert _statuses(str(DATA / f"{pulled}.json")) == want


FLAT = {"name": "flat-r3", "dimension": 3,
        "metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        "phi": [["-1", "0", "0"], ["0", "-1", "0"], ["0", "0", "0"]],
        "eta": ["0", "0", "1"], "xi": ["0", "0", "1"],
        "metallic": [{"p": 1, "q": 1}], "sample_plan": {"count": 3, "seed": 7}}


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_flat_chart_reaches_the_fail_branches(mode):
    """R^3 with g = delta, phi = diag(-1, -1, 0), eta = dx3 and xi = d3 is
    almost paracontact but not P-Sasakian: nabla phi = 0 and nabla xi = 0.
    Each suite is called on the SuiteContext directly, so failed axioms
    gate nothing.  The axioms fail at eqs. 6 and 7, J-parallel and
    F-parallel fail (the probes vanish, their closed forms do not),
    Phi-prime fails (dPhi' vanishes), and the other eight suites pass.
    Every entry is pinned as committed (``flat-r3.suites.json``)."""
    m = harness.parse_manifest(FLAT)
    ctx = harness.SuiteContext(m._replace(plan=m.plan._replace(mode=mode)))
    got = json.loads(json.dumps([fn(ctx).to_json(sid) for sid, fn in harness._SUITES.items()]))
    assert got == json.loads((DATA / "flat-r3.suites.json").read_text(encoding="utf-8"))[mode]
    by_id = {s["id"]: s for s in got}
    assert [sid for sid, s in by_id.items() if s["status"] == "fail"] == [
        "axioms", "J-parallel", "F-parallel", "Phi-prime"]
    assert [(w["axiom"], w["frame"]) for w in by_id["axioms"]["witnesses"]] == [
        ("p-sasakian-eq6", [0, 0, 2]), ("p-sasakian-eq7", [0, 0])]
    assert by_id["axioms"]["max_residual"]["float"] == 1.0
    for sid in ("J-parallel", "F-parallel"):
        assert [w["frame"] for w in by_id[sid]["witnesses"]] == [[0, 0]]
    if mode == "exact":
        assert by_id["J-parallel"]["max_residual"]["exact"] == "1/2-sigma"
        assert by_id["F-parallel"]["max_residual"]["exact"] == "1/2-sigma"
        assert by_id["Phi-prime"]["max_residual"]["exact"] == "-1/6+1/3*sigma"


def test_reports_match_the_report_schema(doc):
    """Every golden report of ``tests/pinned_reports.py``, and a report
    whose axioms fail (downstream suites skipped, no measured dPhi' sign),
    validate against the shipped schema; a report with an unknown status
    does not.  No golden in ``tests/data`` is left out of the table."""
    import jsonschema
    from importlib import resources

    schema = json.loads(resources.files("metallic_tm").joinpath(
        "schemas/report.schema.json").read_text(encoding="utf-8"))
    jsonschema.Draft7Validator.check_schema(schema)
    goldens = {DATA / row.golden for row in pinned_reports.ROWS}
    assert goldens == set(DATA.glob("*.report.json"))
    for path in goldens:
        jsonschema.validate(json.loads(path.read_text(encoding="utf-8")), schema)
    bad = json.loads(json.dumps(doc))
    bad["phi"][2][2] = "1"
    bad["sample_plan"]["count"] = 1
    report = json.loads(harness.render_report(harness.run_suites(harness.parse_manifest(bad))))
    assert report["conventions"]["dphi_prime_sign"] is None
    assert {s["status"] for s in report["suites"]} == {"fail", "skipped"}
    jsonschema.validate(report, schema)
    report["suites"][0]["status"] = "ok"
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(report, schema)


def test_one_value_cache_serves_the_whole_run(manifest, monkeypatch):
    """The value cache lives for one run: the suite context makes one
    ``Values`` at the run's sample points (sampling makes others of its own
    to test the domain), the axioms, the D-frame and every suite read it,
    and the next run makes a new one."""
    made, reads = [], []

    class Values(E.Values):
        __slots__ = ()

        def __init__(self, points):
            super().__init__(points)
            made.append(self)

    def spy(sid, suite):
        def run(ctx):
            reads.append((sid, ctx.values, ctx.points))
            return suite(ctx)
        return run

    def frame(S, values):
        reads.append(("frame", values, values.points))
        return distribution_frame(S, values)

    distribution_frame = pc.distribution_frame
    monkeypatch.setattr(E, "Values", Values)
    monkeypatch.setattr(pc, "distribution_frame", frame)
    monkeypatch.setattr(harness, "suite_axioms", spy("axioms", harness.suite_axioms))
    for sid, suite in list(harness._SUITES.items()):
        monkeypatch.setitem(harness._SUITES, sid, spy(sid, suite))
    small = manifest._replace(plan=manifest.plan._replace(count=1, seed=3))
    runs = []
    for _ in range(2):
        harness.run_suites(small)
        runs.append((made[:], reads[:]))
        del made[:], reads[:]
    shared = []
    for made_in_run, read_in_run in runs:
        (_, values, points), *_ = read_in_run
        assert [sid for sid, _, _ in read_in_run if sid != "frame"] == list(harness.SUITE_IDS)
        assert "frame" in [sid for sid, _, _ in read_in_run]
        assert all(v is values and p == points for _, v, p in read_in_run)
        assert values.points == points and any(v is values for v in made_in_run)
        shared.append(values)
    assert shared[0] is not shared[1]


def test_run_builds_psi_and_the_distribution_frame_once(manifest, monkeypatch):
    """A full run builds the D-frame and the base curvature once, and Psi
    once per lift and sign pair: the three bundled parameter sets have two
    sign pairs."""
    calls = {"frame": 0, "curvature": 0, "psi": []}
    frame, curvature, psi = pc.distribution_frame, harness.mf.curvature, harness.ml.build_psi

    def count_frame(*args, **kwargs):
        calls["frame"] += 1
        return frame(*args, **kwargs)

    def count_curvature(*args, **kwargs):
        calls["curvature"] += 1
        return curvature(*args, **kwargs)

    def count_psi(S, tb, *key):
        calls["psi"].append(key)
        return psi(S, tb, *key)

    monkeypatch.setattr(pc, "distribution_frame", count_frame)
    monkeypatch.setattr(harness.ml, "build_psi", count_psi)
    monkeypatch.setattr(harness.mf, "curvature", count_curvature)
    harness.run_suites(manifest._replace(plan=manifest.plan._replace(count=1, seed=3)))
    assert calls["frame"] == 1
    assert calls["curvature"] == 1
    assert sorted(calls["psi"]) == [("c", -1, -1), ("c", 1, 1), ("h", -1, -1), ("h", 1, 1)]


def _with_sets(doc, sets, count=2):
    """The bundled chart with the given (p, q, eps1, eps2) sets."""
    d = json.loads(json.dumps(doc))
    d["metallic"] = [dict(p=p, q=q, eps1=e1, eps2=e2) for p, q, e1, e2 in sets]
    d["sample_plan"]["count"] = count
    return harness.parse_manifest(d)


def test_work_does_not_grow_with_the_listed_sets(doc, monkeypatch):
    """Every claim is decided once per sign pair: four listed (p, q) sets
    with one sign pair read as many values (a component at a point, each
    decision reading its own) and compute as many nodes at the exact sample
    points as one set, and give the same statuses; the set (1, 2), where
    sigma = 2 is rational, gets the same verdicts as the others."""
    calls = [0, 0]  # values read, nodes computed
    each, kernel = E.Values.each, E._exact

    def reading(self, exprs):
        for v in each(self, exprs):
            calls[0] += 1
            yield v

    def computing(*args, **kwargs):
        calls[1] += 1
        return kernel(*args, **kwargs)

    monkeypatch.setattr(E.Values, "each", reading)
    monkeypatch.setattr(E, "_exact", computing)
    runs = {}
    for sets in ([(1, 1)], [(1, 1), (2, 1), (1, 2), (3, 5)], [(1, 2)]):
        calls[:] = [0, 0]
        report = harness.run_suites(_with_sets(doc, [(p, q, 1, 1) for p, q in sets]))
        runs[tuple(sets)] = tuple(calls), [(s["id"], s["status"]) for s in report["suites"]]
    (one, one_status), (four, four_status), (rational, rational_status) = runs.values()
    assert min(one) > 0 and four == one and rational == one
    assert four_status == one_status == rational_status
    assert {status for _, status in one_status} == {"pass"}


def test_a_tie_between_two_sets_goes_to_the_first_listed(doc):
    """(3, 1) and (1, 3) share p^2 + 4q = 13, so the T-level values of one
    Psi-level value are one number y*sqrt(13) for both sets, though their
    sigma forms round to different floats.  The largest is chosen exactly,
    and F-compat reports the value of the set listed first."""
    for sets, want in (([(3, 1, -1, 1), (1, 3, -1, 1)], "-750/343+500/343*sigma"),
                       ([(1, 3, -1, 1), (3, 1, -1, 1)], "-250/343+500/343*sigma")):
        (suite,) = harness.run_suites(_with_sets(doc, sets), suites=["F-compat"])["suites"]
        assert suite["status"] == "fail"
        assert suite["max_residual"]["exact"] == want, sets


def test_mixed_signs_are_not_metallic_for_any_pq(doc):
    """With (eps1, eps2) = (1, -1) J-metallic and F-metallic fail, and their
    notes say that T is metallic for no (p, q).  At every sample point the
    Psi-level residual is (eps1 eps2 - 1)(eta^k (x) xi^v + eta^v (x) xi^k),
    k = c for J and h for F, exactly, and the reported witness is that
    value times a^2/4."""
    manifest = _with_sets(doc, [(2, 1, 1, -1)])
    report = harness.run_suites(manifest, suites=["J-metallic", "F-metallic"])
    ctx = harness.SuiteContext(manifest)
    S, tb = ctx.S, ctx.tb
    ev, xv = bd.lift(tb, "v", S.eta), bd.lift(tb, "v", S.xi)
    for suite, kind in zip(report["suites"], "ch"):
        label = ml.structure_label(kind, 1, -1)
        assert suite["status"] == "fail"
        assert suite["notes"][label].startswith("not metallic for any (p, q)")
        psi = ctx.psi(kind, (1, -1)).components
        square = mf.contract("am,mb->ab", psi, psi)
        cross = mf.add(mf.outer(xv.components, bd.lift(tb, kind, S.eta).components),
                       mf.outer(bd.lift(tb, kind, S.xi).components, ev.components))
        for pt in ctx.points:
            got, want = evaluate_array(square, pt), evaluate_array(cross, pt)
            for idx in mf.ndindex(got.shape):
                assert got[idx] - (1 if idx[0] == idx[1] else 0) == -2 * want[idx]
        (w,) = suite["witnesses"]
        assert w["axiom"] == f"metallic[{label}]"
        pt = next(pt for pt in ctx.points
                  if [str(c) for c in tb.chart.coords(pt)] == w["point"])
        at = evaluate_array(cross, pt)[tuple(w["frame"])]
        assert w["value"] == str(ml.MetallicParams(2, 1).amp_squared * -2 * at) != "0"


# phi_11 = -1 - 10^-8: the bundled chart off by an exact rational amount
PERTURBED_SUITES = ["axioms", "J-metallic", "J-compat", "J-parallel", "F-metallic", "F-compat",
                    "F-parallel", "Phi-prime"]


def test_every_suite_uses_the_fixed_tolerance(doc):
    """With phi_11 = -1 - 10^-8, the exact residuals of eight suites lie
    between 1e-9 and 1e-6 (axioms: 2*10^-8 + 10^-16).  In float mode each
    of them fails at the absolute 1e-9, and the other four pass.  The suites
    are called on the SuiteContext directly, so failed axioms gate nothing."""
    off = json.loads(json.dumps(doc))
    off["phi"][0][0] = "-1 - 1/10^8"
    m = harness.parse_manifest(off)
    ctx = harness.SuiteContext(m)
    exact = {sid: fn(ctx).to_json(sid) for sid, fn in harness._SUITES.items()}
    assert [sid for sid, s in exact.items() if s["status"] == "fail"] == PERTURBED_SUITES
    assert exact["axioms"]["max_residual"]["exact"] == str(2 * Fraction(1, 10**8) + Fraction(1, 10**16))
    for sid in PERTURBED_SUITES:
        assert 1e-9 < abs(exact[sid]["max_residual"]["float"]) < 1e-6, sid
    ctx = harness.SuiteContext(m._replace(plan=m.plan._replace(mode="float")))
    got = {sid: fn(ctx).to_json(sid)["status"] for sid, fn in harness._SUITES.items()}
    assert got == {sid: "fail" if sid in PERTURBED_SUITES else "pass" for sid in got}


# three bundled charts and the float chart, whose suites all run
FILTER_CHARTS = [bundled_manifest_path(name) for name in ("hyperbolic-h3", "warped-h3", "split-h3")
                 ] + [str(DATA / "hyperbolic-h3-wide.json")]


def test_suite_filtering():
    """``suites`` keeps the report order, and a suite run alone gives the
    report entry it has in the full run: sharing the caches of a run across
    its suites changes no entry."""
    for path in FILTER_CHARTS:
        m = harness.load_manifest(path)
        full = {s["id"]: s for s in harness.run_suites(m)["suites"]}
        assert harness.run_suites(m, suites=["J-metallic", "axioms"])["suites"] == [
            full["axioms"], full["J-metallic"]], path
        for sid in harness.SUITE_IDS:
            assert harness.run_suites(m, suites=[sid])["suites"] == [full[sid]], (path, sid)


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


@pytest.mark.parametrize("path", [bundled_manifest_path("hyperbolic-h3"),
                                  DATA / "hyperbolic-h3-twin.json",
                                  bundled_manifest_path("warped-h5-dense")],
                         ids=lambda p: pathlib.Path(p).stem)
def test_exact_float_parity(path):
    """Exact and float mode give every suite the same status, on h3 and on
    two charts whose Christoffel symbols divide by a determinant that is
    not a monomial, so that the float kernel divides by sums."""
    manifest = harness.load_manifest(str(path))
    plan_e = SamplePlan(count=3, seed=11, mode="exact",
                        base_ranges=manifest.plan.base_ranges,
                        fiber_ranges=manifest.plan.fiber_ranges)
    plan_f = SamplePlan(count=3, seed=11, mode="float",
                        base_ranges=manifest.plan.base_ranges,
                        fiber_ranges=manifest.plan.fiber_ranges)
    re = harness.run_suites(manifest._replace(plan=plan_e))
    rf = harness.run_suites(manifest._replace(plan=plan_f))
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
