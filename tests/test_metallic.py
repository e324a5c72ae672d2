"""Metallic structures J and F on TM: identities, compatibility,
integrability, parallelity and the fundamental forms."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from metallic_tm import bundle as bd
from metallic_tm import exprs as E
from metallic_tm import manifold as mf
from metallic_tm import metallic as ml
from metallic_tm import paracontact as pc
from metallic_tm.exprs import Var
from metallic_tm.scalars import sigma
from metallic_tm.verdicts import ResidualTracker

from conftest import eval_zero

PQ_SET = [(1, 1), (1, 2), (2, 1), (3, 5)]


@pytest.fixture(scope="module")
def J11(structure, tb):
    return ml.build_J(structure, tb, ml.MetallicParams(1, 1))


@pytest.fixture(scope="module")
def F11(structure, tb):
    return ml.build_F(structure, tb, ml.MetallicParams(1, 1))


def test_params_amp_and_sigma():
    prm = ml.MetallicParams(2, 1)
    assert prm.sigma == sigma(2, 1)
    assert prm.amp * prm.amp == prm.amp_squared
    assert prm.amp_squared == Fraction(2)
    assert ml.MetallicParams(1, 1).label() == "p=1,q=1,eps=(+,+)"


def test_params_validation():
    with pytest.raises(ValueError):
        ml.MetallicParams(0, 1)
    with pytest.raises(ValueError):
        ml.MetallicParams(1, 1, eps1=2)


# -- the almost product structure Psi --------------------------------------

# the three parameter sets of the bundled manifest and one mixed-sign set
PQ_EPS = [(1, 1, 1, 1), (2, 1, 1, 1), (3, 5, -1, -1), (2, 1, 1, -1)]
BUILDERS = {"c": ml.build_J, "h": ml.build_F}


def _values(arr, pt):
    """The values of an Expr array at ``pt`` as a numpy array."""
    return np.array(mf.evaluate_array(arr, pt).flat, dtype=object).reshape(mf.asarray(arr).shape)


@pytest.mark.parametrize("lift", ["c", "h"])
def test_psi_squared(structure, tb, points, lift):
    """Psi^2 = I for matched signs; for mixed signs Psi^2 - I is
    (eps1 eps2 - 1)(eta^k (x) xi^v + eta^v (x) xi^k), with k = c or h."""
    lift_vector = bd.clift_vector if lift == "c" else bd.hlift_vector
    ev = bd.lift_oneform(tb, structure.eta, "v")
    ek = bd.lift_oneform(tb, structure.eta, lift)
    xv, xk = bd.vlift_vector(tb, structure.xi), lift_vector(tb, structure.xi)
    for e1, e2 in itertools.product((1, -1), repeat=2):
        psi = ml.build_psi(structure, tb, lift, e1, e2).components
        square = mf.contract("am,mb->ab", psi, psi)
        for pt in points:
            got = _values(square, pt) - np.identity(6, dtype=object)
            cross = _values(ml._outer(ek, xv), pt) + _values(ml._outer(ev, xk), pt)
            assert (got == (e1 * e2 - 1) * cross).all(), (lift, e1, e2)
            assert (got != 0).any() == (e1 * e2 == -1)


def _same_verdict(verdict, reference, chart, points):
    """The verdict ranks exactly the values of the reference residual array,
    in the same order, so its worst value and witness are the same."""
    tracker = ResidualTracker()
    for pt in points:
        for idx in np.ndindex(reference.shape):
            tracker.update(E.evaluate(reference[idx], pt), chart.coords(pt), idx)
    assert verdict.max_residual == tracker.max_value, verdict.axiom_id
    assert verdict.witness == tracker.witness, verdict.axiom_id
    return tracker.max_value


@pytest.mark.parametrize("p,q,e1,e2", PQ_EPS)
def test_psi_combinations_equal_the_residuals_of_T(structure, tb, points, p, q, e1, e2):
    """Each residual of T = build_J / build_F equals its Psi-level residual
    scaled by (a^2/4, -pa/4, -a/2), exactly: the metallic identity, both
    compatibility forms (with g^c and with the Sasaki metric, so that the
    -pa/4 term is nonzero somewhere), N_T, nabla~ T and the fundamental form."""
    prm = ml.MetallicParams(p, q, e1, e2)
    A, B, C = prm.coefficients()
    conns = {"c": bd.clift_connection(tb), "h": bd.hlift_connection(tb)}
    nonzero_sym = False
    for lift, build in BUILDERS.items():
        T = build(structure, tb, prm)
        t, s = T.tensor.components, T.psi.components
        _same_verdict(ml.check_metallic(T, points), ml.pq_residual(t, p, q), tb.chart, points)
        scaled = [
            (mf.nijenhuis(T.tensor), A, mf.nijenhuis(T.psi)),
            (mf.covariant_derivative(conns[lift], T.tensor), C,
             mf.covariant_derivative(conns[lift], T.psi)),
        ]
        for metric in (bd.clift_metric(tb), bd.sasaki_metric(tb)):
            m = metric.components
            mt = mf.contract("ak,kb->ab", m, t)
            r_pq = mf.contract("ka,kb->ab", t, mt) - p * mt - q * m
            r_sym = mt.T - mt
            v_pq, v_sym = ml.check_compat(metric, T, points)
            _same_verdict(v_pq, r_pq, tb.chart, points)
            nonzero_sym |= _same_verdict(v_sym, r_sym, tb.chart, points) != 0
            phi_form = mt - Fraction(p, 2) * m
            scaled.append((phi_form, C, ml.fundamental_form(T, metric)))
        for whole, coef, part in scaled:
            whole = getattr(whole, "components", whole)
            for pt in points:
                assert (_values(whole, pt) == coef * _values(part.components, pt)).all()
    assert nonzero_sym


@pytest.mark.parametrize("p,q", PQ_SET)
def test_J_and_F_metallic_matched_signs(structure, tb, points, p, q):
    for e1, e2 in [(1, 1), (-1, -1)]:
        prm = ml.MetallicParams(p, q, e1, e2)
        assert ml.check_metallic(ml.build_J(structure, tb, prm), points).holds
        assert ml.check_metallic(ml.build_F(structure, tb, prm), points).holds


@pytest.mark.parametrize("p,q", [(1, 1), (2, 1)])
def test_mixed_signs_are_not_metallic(structure, tb, points, p, q):
    """eps1*eps2 = -1 breaks T^2 = pT + qI: the eta (x) xi cross terms of the
    two sign choices no longer cancel."""
    for e1, e2 in [(1, -1), (-1, 1)]:
        prm = ml.MetallicParams(p, q, e1, e2)
        vJ = ml.check_metallic(ml.build_J(structure, tb, prm), points)
        vF = ml.check_metallic(ml.build_F(structure, tb, prm), points)
        assert not vJ.holds
        assert not vF.holds
        assert vJ.witness is not None


def test_J_compatible_with_complete_lift_metric(tb, points, J11):
    gc = bd.clift_metric(tb)
    for v in ml.check_compat(gc, J11, points):
        assert v.holds, v.axiom_id


def test_F_compatible_with_sasaki_metric(tb, points, F11):
    G = bd.sasaki_metric(tb)
    for v in ml.check_compat(G, F11, points):
        assert v.holds, v.axiom_id


def test_cross_compat_fails(tb, points, J11):
    """J is not compatible with the Sasaki metric: a designed counterexample
    that guards against a checker which trivially passes."""
    G = bd.sasaki_metric(tb)
    verdicts = ml.check_compat(G, J11, points)
    assert not all(v.holds for v in verdicts)


def test_NJ_vanishes_on_p_sasakian(points, J11):
    NJ = mf.nijenhuis(J11.tensor)
    for pt in points:
        assert eval_zero(NJ.components, pt)


def test_NF_does_not_vanish(points, F11):
    NF = mf.nijenhuis(F11.tensor)
    assert not all(eval_zero(NF.components, pt) for pt in points)


def test_proof_rows_vanish_on_p_sasakian(structure, tb, points, J11):
    X = mf.TensorField(structure.base, (1, 0), [E.ONE, E.ZERO, E.ZERO])
    Y = mf.TensorField(structure.base, (1, 0), [E.ZERO, E.ONE, E.ZERO])
    rows = ml.nijenhuis_rows(structure, tb, mf.nijenhuis(J11.psi), X, Y)
    assert set(rows) == {
        "vv", "vc", "cc", "v-xiv", "v-xic", "c-xiv",
        "xiv-xiv", "xic-xic", "xiv-xic",
    }
    for rid, resid in rows.items():
        for pt in points:
            assert eval_zero(resid, pt), rid


def rotated_block_structure(h3):
    """Almost paracontact but not P-Sasakian: the phi block on span(d1,d2)
    rotated by a point-dependent hyperbolic reflection."""
    t = E.add(Var("base", 1), Var("base", 3))
    den = E.add(E.ONE, E.mul(t, t))
    a = E.div(E.add(E.ONE, E.mul(E.const(-1), t, t)), den)
    b = E.div(E.mul(E.const(2), t), den)
    x3 = h3.variables[2]
    phi = mf.TensorField(h3, (1, 1), [
        [a, b, E.ZERO],
        [b, E.mul(E.const(-1), a), E.ZERO],
        [E.ZERO, E.ZERO, E.ZERO],
    ])
    eta = mf.TensorField(h3, (0, 1), [E.ZERO, E.ZERO, E.div(E.ONE, x3)])
    xi = mf.TensorField(h3, (1, 0), [E.ZERO, E.ZERO, x3])
    return pc.ParacontactStructure(h3, phi, eta, xi)


def test_proof_rows_match_closed_forms_under_phi_mutation(h3, conn, points):
    """With a non-P-Sasakian phi the N tensors are nonzero, and the lifted
    frame values of N_Psi still match the closed forms, for X, Y sections
    of the distribution D."""
    S = rotated_block_structure(h3)
    nt = pc.n_tensors(S)
    assert not eval_zero(nt["N1"].components, points[0])
    assert not eval_zero(nt["N3"].components, points[0])

    tb2 = bd.TangentBundleChart(h3, conn)
    prm = ml.MetallicParams(1, 1)
    J = ml.build_J(S, tb2, prm)
    NJ = mf.nijenhuis(J.tensor)
    assert not all(eval_zero(NJ.components, pt) for pt in points)

    x1, _, x3 = h3.variables
    X = mf.TensorField(h3, (1, 0), [E.ONE, x1, E.ZERO])
    Y = mf.TensorField(h3, (1, 0), [x3, E.ONE, E.ZERO])
    rows = ml.nijenhuis_rows(S, tb2, mf.nijenhuis(J.psi), X, Y)
    for rid, resid in rows.items():
        for pt in points:
            assert eval_zero(resid, pt), rid


def contact_3d():
    """The contact structure eta = dx3 - x2 dx1 with a scaled para-complex
    rotation on ker(eta); almost paracontact, not P-Sasakian, d(eta) != 0."""
    xs = [Var("base", i) for i in range(1, 4)]
    x2, x3 = xs[1], xs[2]
    M = mf.ChartedManifold(xs, None)
    f = E.add(E.ONE, E.mul(x3, x3))
    finv = E.div(E.ONE, f)
    # e1 = d1 + x2 d3 and e2 = d2 span ker(eta); phi e1 = f e2, phi e2 = e1/f
    phi = mf.TensorField(M, (1, 1), [
        [E.ZERO, finv, E.ZERO],
        [f, E.ZERO, E.ZERO],
        [E.ZERO, E.mul(x2, finv), E.ZERO],
    ])
    eta = mf.TensorField(M, (0, 1), [E.mul(E.const(-1), x2), E.ZERO, E.ONE])
    xi = mf.TensorField(M, (1, 0), [E.ZERO, E.ZERO, E.ONE])
    return M, pc.ParacontactStructure(M, phi, eta, xi)


def test_proof_rows_on_contact_example():
    """Nonzero d(eta) feeds the N1 correction term -2 d(eta) (x) xi; the
    closed forms still match on distribution sections."""
    M, S = contact_3d()
    F = Fraction
    bvars = list(M.variables)
    fvars = [Var("fiber", i) for i in range(1, 4)]
    pts = [
        dict(zip(bvars + fvars, [F(1), F(2), F(1), F(1), F(-1), F(2)])),
        dict(zip(bvars + fvars, [F(-1), F(1, 2), F(2), F(3), F(1), F(-2)])),
    ]
    for v in pc.check_almost_paracontact(S, pts):
        assert v.holds, v.axiom_id
    deta = mf.exterior_derivative(S.eta)
    assert not eval_zero(deta.components, pts[0])

    # flat connection on this chart
    C = mf.Connection(M, mf.zeros((3, 3, 3)))
    tb2 = bd.TangentBundleChart(M, C)
    prm = ml.MetallicParams(2, 1)
    J = ml.build_J(S, tb2, prm)
    assert ml.check_metallic(J, pts).holds

    x2 = M.variables[1]
    # sections of ker(eta)
    X = mf.TensorField(M, (1, 0), [E.ONE, E.ZERO, x2])
    Y = mf.TensorField(M, (1, 0), [E.ZERO, E.ONE, E.ZERO])
    rows = ml.nijenhuis_rows(S, tb2, mf.nijenhuis(J.psi), X, Y)
    for rid, resid in rows.items():
        for pt in pts:
            assert eval_zero(resid, pt), rid


def test_J_never_parallel(structure, tb, conn, points, J11):
    cc = bd.clift_connection(tb)
    v = ml.parallelity_probe(J11, cc, structure, tb, pc.distribution_frame(structure, points),
                             points)
    assert v.holds
    # probe residual is nonzero: -1/2 + sigma is the leading magnitude
    assert v.max_residual == -Fraction(1, 2) + sigma(1, 1)


def test_F_never_parallel(structure, tb, points, F11):
    hc = bd.hlift_connection(tb)
    v = ml.parallelity_probe(F11, hc, structure, tb, pc.distribution_frame(structure, points),
                             points)
    assert v.holds
    assert v.witness is not None
    assert float(v.max_residual) != 0.0


def test_F_integrability_conditions(structure, conn, points):
    res = ml.check_F_integrability_conditions(structure, conn, mf.curvature(conn),
                                              pc.distribution_frame(structure, points), points)
    assert res["e4"].holds
    assert not res["D_flat"].holds
    assert not res["e5"].holds
    assert res["e5_equivalence"].holds
    w = res["D_flat"].witness
    assert w.frame == (0, 0)


def test_fundamental_form_is_symmetric(tb, points, J11):
    gc = bd.clift_metric(tb)
    Phi = ml.fundamental_form(J11, gc)
    resid = mf.zeros((6, 6))
    for a, b in itertools.product(range(6), repeat=2):
        resid[a, b] = E.add(
            Phi.components[a, b], E.mul(E.const(-1), Phi.components[b, a])
        )
    for pt in points:
        assert eval_zero(resid, pt)


def test_dphi_prime_value_on_unit_field(structure, tb, points, F11):
    """dPhi'(X^h, X^v, xi^v) = -(2 sigma - p)/6 for the unit field X = x3 d1."""
    G = bd.sasaki_metric(tb)
    Phip = ml.fundamental_form(F11, G)
    dPhip = mf.coboundary_2form(Phip)
    x3 = structure.base.variables[2]
    X = mf.TensorField(structure.base, (1, 0), [x3, E.ZERO, E.ZERO])
    val = mf.contract(
        "ijk,i,j,k->",
        dPhip,
        bd.hlift_vector(tb, X),
        bd.vlift_vector(tb, X),
        bd.vlift_vector(tb, structure.xi),
    )
    expected = -(2 * sigma(1, 1) - 1) / 6
    for pt in points:  # dPhi' = -(a/2) d(G(., Psi .))
        assert -F11.params.amp * E.evaluate(val, pt) == expected


def test_dphi_vanishes_on_distribution_c_c_v_triples(structure, tb, points, J11):
    gc = bd.clift_metric(tb)
    dPhi = mf.coboundary_2form(ml.fundamental_form(J11, gc))
    frame = pc.distribution_frame(structure, points)
    for X, Y, Z in itertools.product(frame, repeat=3):
        val = mf.contract(
            "ijk,i,j,k->",
            dPhi,
            bd.clift_vector(tb, X),
            bd.clift_vector(tb, Y),
            bd.vlift_vector(tb, Z),
        )
        for pt in points:
            assert E.evaluate(val, pt) == 0
