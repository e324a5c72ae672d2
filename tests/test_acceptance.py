"""Acceptance gate: one test per criterion, exact arithmetic on the
bundled hyperbolic half-space manifest, under 60 seconds total."""

import itertools
import json
from fractions import Fraction

import numpy as np
import pytest

from metallic_tm import bundle as bd
from metallic_tm import exprs as E
from metallic_tm import harness
from metallic_tm import manifold as mf
from metallic_tm import metallic as ml
from metallic_tm import paracontact as pc
from metallic_tm.harness import SamplePlan

from conftest import (decide, eval_zero, metallic_verdict, nijenhuis_rows, nijenhuis_values,
                      t_values, values)
from test_harness import MUTATIONS


@pytest.fixture(scope="module")
def manifest(manifest_path):
    return harness.load_manifest(manifest_path)


@pytest.fixture(scope="module")
def plan10(manifest):
    return SamplePlan(count=10, seed=manifest.plan.seed,
                      base_ranges=manifest.plan.base_ranges,
                      fiber_ranges=manifest.plan.fiber_ranges)


@pytest.fixture(scope="module")
def pts10(manifest, plan10):
    return harness.sample_points(manifest._replace(plan=plan10))


@pytest.fixture(scope="module")
def report(manifest, plan10):
    return harness.run_suites(manifest._replace(plan=plan10))


def suite(report, sid):
    return next(s for s in report["suites"] if s["id"] == sid)


def test_criterion_1_axioms_and_mutations(manifest, pts10, report):
    """Structure equations hold exactly at >= 10 points; each of the 12
    targeted manifest mutations is caught by the axioms suite."""
    assert len(pts10) >= 10
    assert suite(report, "axioms")["status"] == "pass"

    doc = json.loads(manifest.raw_bytes)
    assert len(MUTATIONS) == 12
    for field, i, j, value in MUTATIONS:
        bad = json.loads(json.dumps(doc))
        if j is None:
            bad[field][i] = value
        else:
            bad[field][i][j] = value
        m = harness.parse_manifest(bad)
        r = harness.run_suites(m, suites=["axioms"])
        assert r["suites"][0]["status"] == "fail", (field, i, j, value)


def test_criterion_2_lift_laws(report):
    """Function/vector/form/tensor lift identities, the bracket table and
    the lifted-connection frame displays, all with zero residual."""
    s = suite(report, "lifts")
    assert s["status"] == "pass"
    assert s["max_residual"]["exact"] == "0"


def test_criterion_3_metallic_identity_all_variants(manifest, pts10):
    """T^2 - pT - qI for J and F, the four (p, q) pairs and all four sign
    variants (eps1, eps2).

    With eta^v(xi^v) = eta^c(xi^c) = eta^h(xi^h) = 0 and
    eta^v(xi^c) = eta^c(xi^v) = eta^v(xi^h) = eta^h(xi^v) = 1 (Yano & Ishihara,
    Tangent and Cotangent Bundles, 1973) the residual is exactly

        J:  ((p^2 + 4q)/4) (eps1 eps2 - 1) (eta^c (x) xi^v + eta^v (x) xi^c)
        F:  ((p^2 + 4q)/4) (eps1 eps2 - 1) (eta^h (x) xi^v + eta^v (x) xi^h)

    so the matched-sign variants are metallic (exact zero) and the mixed-sign
    variants eps1 eps2 = -1 are not: their residual equals the closed form,
    built here from the lift primitives alone, component by component and is
    nonzero.  T's values are built from those of Psi (``conftest.t_values``);
    the verdict of the program is the one on Psi, for every (p, q).
    """
    S, tb = manifest.structure, _tb(manifest)
    pts = pts10[:3]
    ev = bd.lift(tb, "v", S.eta)
    xv = bd.lift(tb, "v", S.xi)
    cross = {}
    for kind in "ch":
        ek = bd.lift(tb, kind, S.eta)
        xk = bd.lift(tb, kind, S.xi)
        cross[kind] = [values(mf.add(mf.outer(xv.components, ek.components),
                                     mf.outer(xk.components, ev.components)), pt) for pt in pts]
    psis = {(kind, e1, e2): ml.build_psi(S, tb, kind, e1, e2)
            for kind in "ch" for e1, e2 in itertools.product((1, -1), repeat=2)}
    eye = np.identity(2 * tb.n, dtype=object)

    for (p, q), (kind, e1, e2) in itertools.product([(1, 1), (1, 2), (2, 1), (3, 5)], psis):
        prm = ml.MetallicParams(p, q, e1, e2)
        coef = Fraction(p * p + 4 * q, 4) * (e1 * e2 - 1)
        psi = psis[kind, e1, e2]
        where = (p, q, ml.structure_label(kind, e1, e2))
        assert metallic_verdict(psi, where[2], pts).holds == (e1 * e2 == 1), where
        for pt, xs in zip(pts, cross[kind]):
            t, _ = t_values(psi, prm, pt)
            assert ((t @ t - p * t - q * eye) == coef * xs).all(), where
        assert e1 * e2 == 1 or any(xs.any() for xs in cross[kind]), where


def _tb(manifest):
    conn = mf.christoffel(manifest.manifold)
    return bd.TangentBundleChart(manifest.manifold, conn)


def test_criterion_4_compatibility(report):
    assert suite(report, "J-compat")["status"] == "pass"
    assert suite(report, "F-compat")["status"] == "pass"


def test_criterion_5_J_integrability_and_proof_rows(manifest, pts10, report):
    """N_J = 0 exactly over all lifted-frame pairs; with a mutated
    (non-P-Sasakian) phi the frame values of N_Psi match the closed forms.
    N_J = A N_Psi with A = ((2 sigma - p)/2)^2 is checked in test_metallic."""
    assert suite(report, "J-integrable")["status"] == "pass"

    M = manifest.manifold
    x1, _, x3 = M.variables
    t = E.add(x1, x3)
    den = E.add(E.ONE, E.mul(t, t))
    a = E.div(E.add(E.ONE, E.mul(E.const(-1), t, t)), den)
    b = E.div(E.mul(E.const(2), t), den)
    phi = mf.TensorField(M, (1, 1), [
        [a, b, E.ZERO],
        [b, E.mul(E.const(-1), a), E.ZERO],
        [E.ZERO, E.ZERO, E.ZERO],
    ])
    S = pc.ParacontactStructure(M, phi, manifest.structure.eta, manifest.structure.xi)
    tb = _tb(manifest)
    psi = ml.build_psi(S, tb, "c", 1, 1)
    pts = pts10[:2]
    assert any(nijenhuis_values(*t_values(psi, ml.MetallicParams(1, 1), pt)).any()
               for pt in pts)
    X = mf.TensorField(M, (1, 0), [E.ONE, x1, E.ZERO])
    Y = mf.TensorField(M, (1, 0), [x3, E.ONE, E.ZERO])
    rows = nijenhuis_rows(S, tb, mf.nijenhuis(psi), X, Y)
    for rid, resid in rows.items():
        for pt in pts:
            assert eval_zero(resid, pt), rid


def test_criterion_6_never_parallel_closed_forms(manifest, pts10, report):
    """(nabla^c J) xi^c and (nabla^h F) xi^h equal the closed forms exactly
    and are nonzero for every distribution frame direction."""
    assert suite(report, "J-parallel")["status"] == "pass"
    assert suite(report, "F-parallel")["status"] == "pass"
    assert float(suite(report, "J-parallel")["max_residual"]["float"]) != 0.0
    assert float(suite(report, "F-parallel")["max_residual"]["float"]) != 0.0


def test_criterion_7_F_integrability_conditions(manifest, pts10, report):
    """e4 holds; D-flatness and e5 fail with witness (d1, d1) carrying the
    residual 1/x3^2; N_F != 0, consistent with the equivalence."""
    s = suite(report, "F-integrability-conditions")
    assert s["status"] == "pass"
    assert s["notes"]["e4"] == "holds"
    assert s["notes"]["D_flat"] == "fails"
    assert s["notes"]["e5"] == "fails"
    assert s["notes"]["N_F_vanishes"] is False

    conn, S = mf.christoffel(manifest.manifold), manifest.structure
    res = ml.F_integrability_residuals(S, conn, mf.curvature(conn),
                                       pc.distribution_frame(S, E.Values(pts10[:3])))
    d_flat = decide(manifest.manifold, pts10[:3], res)["D-flat"]
    w = d_flat.witness
    assert w.frame == (0, 0)
    x3 = Fraction(w.point[2])
    assert d_flat.max_residual == Fraction(1, x3 ** 2)


def test_criterion_8_phi_prime_nonclosed(manifest, pts10, report):
    """|dPhi'(X^h, X^v, xi^v)| = (2 sigma - p)/6 for the unit field
    X = x3 d1; the measured sign lands in the report conventions."""
    assert suite(report, "Phi-prime")["status"] == "pass"
    assert report["conventions"]["dphi_prime_sign"] in ("+", "-")

    S = manifest.structure
    tb = _tb(manifest)
    prm = manifest.params[0]
    psi = ml.build_psi(S, tb, "h", prm.eps1, prm.eps2)
    G = bd.sasaki_metric(tb)
    x3 = manifest.manifold.variables[2]
    X = mf.TensorField(manifest.manifold, (1, 0), [x3, E.ZERO, E.ZERO])
    val = mf.coboundary(tb.chart, mf.contract("ak,kb->ab", G, psi),
                        bd.lifted_rows(tb, "h", [X]), bd.lifted_rows(tb, "v", [X]),
                        bd.lifted_rows(tb, "v", [S.xi]))[0, 0, 0]
    want = prm.amp * Fraction(1, 3)  # (2 sigma - p)/6
    for pt in pts10[:3]:
        got = -prm.amp * E.evaluate(val, pt)  # dPhi' = -(a/2) d(G(., Psi .))
        assert abs(float(got)) == pytest.approx(float(want))
        assert got + want == 0  # measured sign is negative
    assert report["conventions"]["dphi_prime_sign"] == "-"


def test_criterion_9_exact_float_parity(manifest, plan10, report):
    plan_f = SamplePlan(count=plan10.count, seed=plan10.seed, mode="float",
                        base_ranges=plan10.base_ranges,
                        fiber_ranges=plan10.fiber_ranges)
    rf = harness.run_suites(manifest._replace(plan=plan_f))
    exact = [(s["id"], s["status"]) for s in report["suites"]]
    approx = [(s["id"], s["status"]) for s in rf["suites"]]
    assert exact == approx


def test_criterion_10_determinism(manifest, plan10, report):
    again = harness.run_suites(manifest._replace(plan=plan10))
    assert harness.render_report(report) == harness.render_report(again)
    assert report["manifest_hash"] == manifest.sha256()
