"""Lift calculus on the tangent bundle chart."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from metallic_tm import bundle as bd
from metallic_tm import exprs as E
from metallic_tm import manifold as mf
from metallic_tm.exprs import Var

from conftest import eval_zero


@pytest.fixture(scope="module")
def fields(h3):
    x1, x2, x3 = h3.variables
    X = mf.TensorField(h3, (1, 0), [x2, E.ZERO, E.ZERO])
    Y = mf.TensorField(h3, (1, 0), [E.ZERO, E.mul(x1, x3), E.ZERO])
    return X, Y


def vec_residual(lhs, rhs):
    return [E.add(a, E.mul(E.const(-1), b)) for a, b in zip(lhs, rhs)]


def test_function_lifts(tb, points):
    x1 = Var("base", 1)
    assert bd.vlift_function(tb, x1) == x1
    assert bd.clift_function(tb, x1) == Var("fiber", 1)
    assert bd.hlift_function(tb, E.mul(x1, Var("base", 3))) == E.ZERO


def test_complete_lift_fiber_sign_is_positive(tb, fields):
    """Regression pin: the fiber block of X^c is +y^j d_j X^l; a minus sign
    breaks the bracket law [X^c, Y^c] = [X, Y]^c."""
    X, Y = fields
    Xc = bd.clift_vector(tb, X)
    n = tb.n
    for l in range(n):
        want = tb.ydel(X.components[l])
        assert Xc.components[n + l] == want

    # the flipped-sign variant fails the bracket identity
    def flipped(Z):
        comps = Z.components.flat[:n] + [
            E.mul(E.const(-1), c) for c in Z.components.flat[n:]
        ]
        comps = Z.components.flat[:n] + [
            E.mul(E.const(-1), tb.ydel(Z0)) for Z0 in Z.components.flat[:n]
        ]
        return mf.TensorField(tb.chart, (1, 0), comps)

    Xm = flipped(bd.clift_vector(tb, X))
    Ym = flipped(bd.clift_vector(tb, Y))
    XYm = flipped(bd.clift_vector(tb, mf.lie_bracket(X, Y)))
    resid = vec_residual(mf.lie_bracket(Xm, Ym).components, XYm.components)
    pt = tb.point([Fraction(1), Fraction(1), Fraction(2)],
                  [Fraction(1), Fraction(-2), Fraction(3)])
    assert not eval_zero(resid, pt)
    # while the shipped sign satisfies it
    ok = vec_residual(
        mf.lie_bracket(bd.clift_vector(tb, X), bd.clift_vector(tb, Y)).components,
        bd.clift_vector(tb, mf.lie_bracket(X, Y)).components,
    )
    assert eval_zero(ok, pt)


def test_bracket_table(tb, conn, fields, points):
    X, Y = fields
    R = mf.curvature(conn)
    Xv, Yv = bd.vlift_vector(tb, X), bd.vlift_vector(tb, Y)
    Xh, Yh = bd.hlift_vector(tb, X), bd.hlift_vector(tb, Y)
    for pt in points:
        assert eval_zero(mf.lie_bracket(Xv, Yv).components, pt)
        # [X^v, Y^h] = -(nabla_Y X)^v
        lhs = mf.lie_bracket(Xv, Yh).components
        rhs = bd.vlift_vector(tb, mf.cov_vec(conn, Y, X)).components
        assert eval_zero([E.add(a, b) for a, b in zip(lhs, rhs)], pt)
        # [X^h, Y^h] = [X, Y]^h - gamma R(X, Y)
        lhs = mf.lie_bracket(Xh, Yh).components
        rhs = bd.hlift_vector(tb, mf.lie_bracket(X, Y)).components
        defect = bd.gamma_bracket_defect(tb, R, X, Y).components
        resid = [E.add(a, E.mul(E.const(-1), b), c)
                 for a, b, c in zip(lhs, rhs, defect)]
        assert eval_zero(resid, pt)


def test_metric_lifts(tb, h3, fields, points):
    X, Y = fields
    gc = bd.clift_metric(tb)
    gh = bd.hlift_metric(tb)
    G = bd.sasaki_metric(tb)
    gXY = E.ZERO
    for a, b in itertools.product(range(3), repeat=2):
        gXY = E.add(gXY, E.mul(h3.metric[a, b], X.components[a], Y.components[b]))

    def pair(metric, U, V):
        s = E.ZERO
        for a, b in itertools.product(range(6), repeat=2):
            s = E.add(s, E.mul(metric.components[a, b],
                               U.components[a], V.components[b]))
        return s

    Xv, Yv = bd.vlift_vector(tb, X), bd.vlift_vector(tb, Y)
    Xc, Yc = bd.clift_vector(tb, X), bd.clift_vector(tb, Y)
    Xh, Yh = bd.hlift_vector(tb, X), bd.hlift_vector(tb, Y)
    for pt in points:
        ev = lambda e: E.evaluate(e, pt)
        assert ev(pair(gc, Xv, Yv)) == 0
        assert ev(pair(gc, Xv, Yc)) == ev(gXY)
        assert ev(pair(gc, Xc, Yc)) == ev(bd.clift_function(tb, gXY))
        assert ev(pair(gh, Xh, Yh)) == 0
        assert ev(pair(gh, Xv, Yh)) == ev(gXY)
        assert ev(pair(G, Xv, Yv)) == ev(gXY)
        assert ev(pair(G, Xh, Yh)) == ev(gXY)
        assert ev(pair(G, Xv, Yh)) == 0


def test_oneform_lifts(tb, fields, points):
    X, _ = fields
    x2 = Var("base", 2)
    w = mf.TensorField(tb.base, (0, 1), [x2, E.ZERO, E.ZERO])
    wX = E.mul(x2, X.components[0])
    Xv = bd.vlift_vector(tb, X)
    Xc = bd.clift_vector(tb, X)
    Xh = bd.hlift_vector(tb, X)

    def act(form, vec):
        s = E.ZERO
        for a in range(6):
            s = E.add(s, E.mul(form.components[a], vec.components[a]))
        return s

    wv = bd.lift_oneform(tb, w, "v")
    wc = bd.lift_oneform(tb, w, "c")
    wh = bd.lift_oneform(tb, w, "h")
    for pt in points:
        ev = lambda e: E.evaluate(e, pt)
        assert ev(act(wv, Xc)) == ev(wX)
        assert ev(act(wv, Xv)) == 0
        assert ev(act(wc, Xv)) == ev(wX)
        assert ev(act(wc, Xc)) == ev(bd.clift_function(tb, wX))
        assert ev(act(wh, Xh)) == 0
        assert ev(act(wh, Xv)) == ev(wX)


def test_tensor11_lift_frames(tb, structure, fields, points):
    X, _ = fields
    phi = structure.phi
    phiX = mf.apply_11(phi, X)
    cases = [
        ("c", bd.clift_vector(tb, X), bd.clift_vector(tb, phiX)),
        ("c", bd.vlift_vector(tb, X), bd.vlift_vector(tb, phiX)),
        ("h", bd.hlift_vector(tb, X), bd.hlift_vector(tb, phiX)),
        ("h", bd.vlift_vector(tb, X), bd.vlift_vector(tb, phiX)),
        ("v", bd.clift_vector(tb, X), bd.vlift_vector(tb, phiX)),
    ]
    for kind, arg, want in cases:
        lifted = bd.lift_tensor11(tb, phi, kind)
        got = mf.apply_11(lifted, arg)
        resid = vec_residual(got.components, want.components)
        for pt in points:
            assert eval_zero(resid, pt), kind


def test_polynomial_functoriality(tb, h3, points):
    """P(F^c) = (P(F))^c and P(F^h) = (P(F))^h for P(x) = x^2 - x - 1."""
    n = 3
    comps = mf.zeros((n, n))
    for a, b in itertools.product(range(n), repeat=2):
        if (a + b) % 2 == 0:
            comps[a, b] = Var("base", ((a + b) % n) + 1)
    F = mf.TensorField(h3, (1, 1), comps)

    def poly(mat, dim):
        out = mf.zeros((dim, dim))
        for a, b in itertools.product(range(dim), repeat=2):
            s = E.ZERO
            for m in range(dim):
                s = E.add(s, E.mul(mat[a, m], mat[m, b]))
            s = E.add(s, E.mul(E.const(-1), mat[a, b]))
            if a == b:
                s = E.add(s, E.const(-1))
            out[a, b] = s
        return out

    PF = mf.TensorField(h3, (1, 1), poly(F.components, n))
    for kind in ("c", "h"):
        lifted = bd.lift_tensor11(tb, F, kind)
        lhs = poly(lifted.components, 2 * n)
        rhs = bd.lift_tensor11(tb, PF, kind).components
        resid = [E.add(lhs[a, b], E.mul(E.const(-1), rhs[a, b]))
                 for a, b in itertools.product(range(2 * n), repeat=2)]
        for pt in points:
            assert eval_zero(resid, pt), kind


def test_lifted_connections(tb, conn, fields, points):
    X, Y = fields
    R = mf.curvature(conn)
    cc = bd.clift_connection(tb)
    hc = bd.hlift_connection(tb)
    nXY = mf.cov_vec(conn, X, Y)
    Xv, Yv = bd.vlift_vector(tb, X), bd.vlift_vector(tb, Y)
    Xc, Yc = bd.clift_vector(tb, X), bd.clift_vector(tb, Y)
    Xh, Yh = bd.hlift_vector(tb, X), bd.hlift_vector(tb, Y)
    cases = [
        (cc, Xc, Yc, bd.clift_vector(tb, nXY).components),
        (cc, Xv, Yc, bd.vlift_vector(tb, nXY).components),
        (cc, Xc, Yv, bd.vlift_vector(tb, nXY).components),
        (cc, Xv, Yv, [E.ZERO] * 6),
        (hc, Xh, Yh, bd.hlift_vector(tb, nXY).components),
        (hc, Xh, Yv, bd.vlift_vector(tb, nXY).components),
        (hc, Xv, Yh, [E.ZERO] * 6),
    ]
    for C2, U, V, want in cases:
        got = mf.cov_vec(C2, U, V)
        resid = vec_residual(got.components, want)
        for pt in points:
            assert eval_zero(resid, pt)
    # nabla^h_{X^c} Y^c picks up the curvature slice
    got = mf.cov_vec(hc, Xc, Yc)
    gslice = bd.gamma_curvature(tb, R, X, Y)
    resid = [E.add(a, E.mul(E.const(-1), b), c) for a, b, c in zip(
        got.components, bd.clift_vector(tb, nXY).components, gslice.components)]
    for pt in points:
        assert eval_zero(resid, pt)


@pytest.mark.parametrize("shape", [(), (3,), (3, 3), (3, 3, 3)])
def test_ydel_acts_componentwise(tb, shape):
    """ydel of an array is the array of ydel of its components, each the
    same tree y^j d_j e as for a single expression."""
    xs = tb.base.variables
    arr = mf.zeros(shape)
    for k, idx in enumerate(np.ndindex(shape)):
        if k % 4 != 2:
            arr[idx] = E.add(E.mul(E.const(k + 1), E.pow_(xs[k % 3], k % 3 + 2)), xs[(k + 1) % 3])
    got = mf.asarray(tb.ydel(arr))
    assert got.shape == shape
    for idx in np.ndindex(shape):
        want = mf.contract("j,j->", tb.fiber_vars, tb.base.partials(arr[idx]))
        assert got[idx] == want and E.to_str(got[idx]) == E.to_str(want)
        assert got[idx] == tb.ydel(arr[idx])


def test_gamma_tilde_is_built_once_and_needs_a_connection(h3, conn):
    bare = bd.TangentBundleChart(h3)
    for _ in range(2):  # the error is raised again, not cached
        with pytest.raises(mf.GeometryError, match="connection"):
            bare.gamma_tilde
    tb2 = bd.TangentBundleChart(h3, conn)
    assert tb2.gamma_tilde is tb2.gamma_tilde
    assert tb2.gamma_tilde[2, 0] == mf.contract("k,k->", tb2.fiber_vars,
                                                [conn.coefficients[2, k, 0] for k in range(3)])
