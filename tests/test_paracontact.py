"""P-Sasakian axioms, obstruction tensors and the distribution D."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from metallic_tm import exprs as E
from metallic_tm import manifold as mf
from metallic_tm import paracontact as pc
from metallic_tm.exprs import Var

from conftest import decide, eval_zero, loop_covariant_derivative, values


def test_axioms_hold_on_h3(h3, structure, base_points):
    residuals = {**pc.almost_paracontact(structure), **pc.metric_compat(structure)}
    assert list(residuals) == ["phi-squared", "eta-of-xi", "phi-xi", "eta-circ-phi",
                               "compat-eq4", "compat-phi-symmetry", "compat-g-xi"]
    for v in decide(h3, base_points, residuals).values():
        assert v.holds, v.axiom_id


def test_p_sasakian_equations_hold(h3, structure, conn, base_points):
    residuals = pc.p_sasakian(structure, conn)
    assert {aid: r.shape for aid, r in residuals.items()} == {
        "p-sasakian-eq6": (3, 3, 3), "p-sasakian-eq7": (3, 3)}
    for v in decide(h3, base_points, residuals).values():
        assert v.holds, v.axiom_id


def test_p_sasakian_rows_equal_the_loop_derivatives(charts):
    """eq6, taken on the coordinate fields as nabla_i(phi d_j) - phi nabla_i d_j,
    and eq7, taken as nabla_i xi, equal the general-valence loop's
    nabla phi - rhs and nabla xi - phi exactly at the points: on each
    chart's structure, where both vanish, and on one with phi and xi moved
    off it, where neither does."""
    for c in charts.values():
        S, C = c.structure, c.tb.connection
        M, n = S.base, S.base.n
        x1, x2, _ = M.variables
        moved = pc.ParacontactStructure(
            M, mf.TensorField(M, (1, 1), mf.add(S.phi.components, mf.expr_array(
                [[0, x1, 0], [0, 0, 0], [0, 0, 0]]))),
            S.eta, mf.TensorField(M, (1, 0), mf.add(S.xi.components, mf.expr_array([x2, 0, 0]))))
        for T in (S, moved):
            got = pc.p_sasakian(T, C)
            dphi, dxi = loop_covariant_derivative(C, T.phi), loop_covariant_derivative(C, T.xi)
            for pt in c.points:
                g, eta, xi = (values(a, pt) for a in (M.metric, T.eta.components, T.xi.components))
                rhs = np.zeros((n, n, n), dtype=object)
                for a, i, j in itertools.product(range(n), repeat=3):
                    rhs[a, i, j] = -g[i, j] * xi[a] - eta[j] * (a == i) + 2 * eta[i] * eta[j] * xi[a]
                eq6 = values(dphi, pt) - rhs
                eq7 = values(dxi, pt) - values(T.phi.components, pt)
                assert (values(got["p-sasakian-eq6"], pt) == eq6).all(), c.name
                assert (values(got["p-sasakian-eq7"], pt) == eq7).all(), c.name
                assert (eq6.any() and eq7.any()) == (T is moved), c.name


def test_n3_and_n4_are_the_lie_derivatives_along_xi(h3, base_points):
    """N3 = L_xi phi and N4 = L_xi eta, taken through brackets on the
    coordinate fields, equal the coordinate formulas
    xi^m d_m phi^a_j - phi^m_j d_m xi^a + phi^a_m d_j xi^m and
    xi^m d_m eta_j + eta_m d_j xi^m exactly at the points."""
    S = _polynomial_structure(h3)
    phi, eta, xi = S.phi.components, S.eta.components, S.xi.components
    dphi, deta, dxi = (h3.partials(a) for a in (phi, eta, xi))  # the derivative index first
    want3 = mf.contract("m,maj+mj,ma+am,jm->aj", xi, dphi, -phi, dxi, phi, dxi)
    want4 = mf.contract("m,mj+m,jm->j", xi, deta, eta, dxi)
    nt = pc.n_tensors(S)
    for got, want in ((nt["N3"].components, want3), (nt["N4"].components, want4)):
        for pt in base_points:
            assert (values(got, pt) == values(want, pt)).all()
            assert values(want, pt).any()


def test_n_tensors_vanish_on_h3(structure, base_points):
    for name, T in pc.n_tensors(structure).items():
        for pt in base_points:
            assert eval_zero(T.components, pt), name


def test_d_flat_fails_with_witness(h3, structure, conn, base_points):
    resid = pc.D_flat(structure, conn, pc.distribution_frame(structure, E.Values(base_points)))
    assert resid.shape == (2, 2)
    v = decide(h3, base_points, {"D-flat": resid})["D-flat"]
    assert not v.holds
    assert v.witness is not None
    assert v.witness.frame == (0, 0)  # (d1, d1)
    # residual eta(nabla_{d1} d1) = 1/x3^2 at the witness point
    x3 = v.witness.point[2]
    assert E.evaluate(E.parse("x3^-2", 3), {Var("base", 3): x3}) == Fraction(1, x3 ** 2)


def test_distribution_frame_drops_xi_direction(structure, base_points):
    frame = pc.distribution_frame(structure, E.Values(base_points))
    assert len(frame) == 2
    eta = structure.eta.components
    for X in frame:
        s = E.ZERO
        for m in range(3):
            s = E.add(s, E.mul(eta[m], X.components[m]))
        for pt in base_points:
            assert E.evaluate(s, pt) == 0


def test_distribution_frame_drops_members_within_the_tolerance(h3, base_points):
    """With xi = d1 + (x1/10^c) d2 and eta = dx1, the first member is
    -(x1/10^c) d2: not zero, but within the tolerance of 1e-9 at float
    points with x1 in [1, 2] when c = 12, and past it when c = 8.  Float
    points drop it at c = 12 alone, exact points keep it."""
    x1 = h3.variables[0]
    float_pts = [{v: float(c) for v, c in pt.items()} for pt in base_points]
    for c, float_members in ((12, 2), (8, 3)):
        xi = [E.ONE, E.mul(E.const(Fraction(1, 10 ** c)), x1), E.ZERO]
        S = pc.ParacontactStructure(h3, mf.TensorField(h3, (1, 1), mf.zeros((3, 3))),
                                    mf.TensorField(h3, (0, 1), [E.ONE, E.ZERO, E.ZERO]),
                                    mf.TensorField(h3, (1, 0), xi))
        assert len(pc.distribution_frame(S, E.Values(float_pts))) == float_members
        assert len(pc.distribution_frame(S, E.Values(base_points))) == 3


def _mutated(h3, structure, **kw):
    phi = kw.get("phi", structure.phi)
    eta = kw.get("eta", structure.eta)
    xi = kw.get("xi", structure.xi)
    return pc.ParacontactStructure(h3, phi, eta, xi)


def test_mutated_phi_breaks_phi_squared(h3, structure, base_points):
    phi = mf.TensorField(h3, (1, 1), [[-1, 0, 0], [0, -1, 0], [0, 0, 1]])
    S = _mutated(h3, structure, phi=phi)
    verdicts = decide(h3, base_points, pc.almost_paracontact(S))
    assert not verdicts["phi-squared"].holds
    assert not verdicts["phi-xi"].holds


def test_mutated_eta_breaks_eta_of_xi(h3, structure, base_points):
    eta = mf.TensorField(h3, (0, 1), [E.ZERO, E.ZERO, E.ONE])
    S = _mutated(h3, structure, eta=eta)
    verdicts = decide(h3, base_points, pc.almost_paracontact(S))
    assert not verdicts["eta-of-xi"].holds


def test_mutated_xi_breaks_phi_xi(h3, structure, base_points):
    x3 = Var("base", 3)
    xi = mf.TensorField(h3, (1, 0), [x3, E.ZERO, x3])
    S = _mutated(h3, structure, xi=xi)
    verdicts = decide(h3, base_points, pc.almost_paracontact(S))
    assert not verdicts["phi-xi"].holds


def test_non_p_sasakian_phi_rotation_block(h3, structure, base_points, conn):
    """A rotated phi block keeps the paracontact axioms but breaks Eq. (6)."""
    t = E.add(Var("base", 1), Var("base", 3))
    den = E.add(E.ONE, E.mul(t, t))
    a = E.div(E.add(E.ONE, E.mul(E.const(-1), t, t)), den)
    b = E.div(E.mul(E.const(2), t), den)
    phi = mf.TensorField(h3, (1, 1), [
        [a, b, E.ZERO],
        [b, E.mul(E.const(-1), a), E.ZERO],
        [E.ZERO, E.ZERO, E.ZERO],
    ])
    S = _mutated(h3, structure, phi=phi)
    for v in decide(h3, base_points, pc.almost_paracontact(S)).values():
        assert v.holds, v.axiom_id
    sas = decide(h3, base_points, pc.p_sasakian(S, conn))
    assert not all(v.holds for v in sas.values())
    nt = pc.n_tensors(S)
    assert not eval_zero(nt["N1"].components, base_points[0])
    assert not eval_zero(nt["N3"].components, base_points[0])


def test_float_mode_parity(h3, structure, conn, base_points):
    float_pts = [{k: float(v) for k, v in pt.items()} for pt in base_points]
    residuals = pc.almost_paracontact(structure)
    exact = [v.holds for v in decide(h3, base_points, residuals).values()]
    approx = [v.holds for v in decide(h3, float_pts, residuals).values()]
    assert exact == approx
    frame_e = pc.distribution_frame(structure, E.Values(base_points))
    frame_f = pc.distribution_frame(structure, E.Values(float_pts))
    dflat_e = decide(h3, base_points, {"D-flat": pc.D_flat(structure, conn, frame_e)})
    dflat_f = decide(h3, float_pts, {"D-flat": pc.D_flat(structure, conn, frame_f)})
    assert dflat_e["D-flat"].holds == dflat_f["D-flat"].holds


def _polynomial_structure(h3):
    """A (phi, eta, xi) with dense polynomial components and some zeros:
    no axiom holds, but every obstruction tensor is built in full."""
    xs = x1, x2, x3 = h3.variables
    phi = [[E.ZERO if (i + j) % 4 == 3 else E.add(E.mul(E.const(i - j + 2), E.pow_(xs[j], i + 1)),
                                                      xs[(i + j) % 3])
            for j in range(3)] for i in range(3)]
    eta = [E.mul(x2, x3), E.ZERO, E.div(E.ONE, x3)]
    xi = [x1, E.pow_(x2, 2), x3]
    return pc.ParacontactStructure(h3, mf.TensorField(h3, (1, 1), phi),
                                   mf.TensorField(h3, (0, 1), eta),
                                   mf.TensorField(h3, (1, 0), xi))


def test_n2_is_the_per_column_lie_derivative(h3):
    """N2(d_i, d_j) = (L_{phi d_i} eta)_j - (L_{phi d_j} eta)_i as it was
    built, one Lie derivative of eta per column of phi: the same trees."""
    S = _polynomial_structure(h3)
    eta = S.eta.components
    forms = []
    for i in range(3):
        X = [S.phi.components[a, i] for a in range(3)]
        forms.append(mf.contract("m,mj+m,jm->j", X, h3.partials(eta), eta, h3.partials(X)))
    want = mf.asarray(forms)
    want = want - want.T
    got = pc.n_tensors(S)["N2"].components
    assert any(e is not E.ZERO for e in want.flat)
    for i, j in itertools.product(range(3), repeat=2):
        assert got[i, j] == want[i, j]
        assert E.to_str(got[i, j]) == E.to_str(want[i, j])


def test_distribution_frame_builds_the_loop_trees(h3, structure, base_points):
    """The frame as one componentwise sum gives the trees of the component loop
    d_i - (eta(d_i)/eta(xi)) xi, less the members that are structurally
    zero.  On the half-space, eta(xi) = x3^(-1)*x3 folds to 1, so the
    xi-direction member d_3 - x3^(-1)*x3 d_3 cancels without points."""
    for S, dropped in ((structure, [2]), (_polynomial_structure(h3), [])):
        eta, xi = S.eta.components, S.xi.components
        exi = S.eta_of_xi()
        frame = pc.distribution_frame(S, E.Values([]))
        want = [[E.add(E.ONE if a == i else E.ZERO,
                       E.mul(E.const(-1), E.div(eta[i], exi), xi[a])) for a in range(3)]
                for i in range(3)]
        assert [i for i, w in enumerate(want) if all(c is E.ZERO for c in w)] == dropped
        want = [w for i, w in enumerate(want) if i not in dropped]
        assert len(frame) == len(want)
        for X, w in zip(frame, want):
            assert list(X.components) == w
            assert [E.to_str(c) for c in X.components] == [E.to_str(c) for c in w]
    assert structure.eta_of_xi() is E.ONE
    assert len(pc.distribution_frame(structure, E.Values(base_points))) == 2
