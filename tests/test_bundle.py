"""Lift calculus on the tangent bundle chart.

The lift laws are checked on four charts: the hyperbolic half-space h3;
its twin, the same structure pulled back along (x1, x2 + x1*x3, x3 + x1^2),
a chart with a non-diagonal metric and a non-constant phi; and the bundled
``warped-h3`` and ``split-h3``.
"""

import itertools
import math
import pathlib
from fractions import Fraction

import numpy as np
import pytest

from metallic_tm import bundle as bd
from metallic_tm import exprs as E
from metallic_tm import harness
from metallic_tm import manifold as mf
from metallic_tm.exprs import Var

from conftest import (TWIN, bracket, bundle_point, clift_blocks, eval_zero, evaluate_array,
                      hlift_blocks, lifted_metric, loop_covariant_derivative, nabla,
                      sasaki_blocks)
from metallic_tm.cli import bundled_manifest_path

# every bundled chart and every pulled-back twin
CHARTS = sorted(pathlib.Path(bundled_manifest_path()).parent.glob("*.json")) + sorted(
    TWIN.parent.glob("*-twin.json"))


@pytest.fixture(scope="module")
def fields(charts):
    return charts["h3"].X, charts["h3"].Y


def vec_residual(lhs, rhs):
    return [E.add(a, E.mul(E.const(-1), b)) for a, b in zip(lhs, rhs)]


def test_function_lifts(charts):
    """f^v = f, f^c = y^j d_j f and the horizontal lift is 0; the lifted
    fields act on lifted functions as X^v f^v = 0, X^v f^c = (Xf)^v and
    X^c f^c = (Xf)^c."""
    for c in charts.values():
        tb, X = c.tb, c.X
        x1, x2, x3 = tb.base.variables
        assert bd.lift(tb, "v", x1) == x1
        assert bd.lift(tb, "c", x1) == Var("fiber", 1)
        assert bd.lift(tb, "h", E.mul(x1, x3)) == E.ZERO
        f = E.add(E.mul(x1, x3), E.pow_(x2, 2))
        Xf = mf.contract("m,m->", X, tb.base.partials(f))
        Xv, Xc = bd.lift(tb, "v", X), bd.lift(tb, "c", X)

        def act(U, fn):  # U fn, a vector field on TM applied to a function there
            return mf.contract("a,a->", U, tb.chart.partials(fn))

        for pt in c.points:
            ev = lambda e: E.evaluate(e, pt)
            assert ev(Xf) != 0, c.name  # the laws are not 0 = 0
            assert ev(act(Xv, bd.lift(tb, "v", f))) == 0, c.name
            assert ev(act(Xv, bd.lift(tb, "c", f))) == ev(bd.lift(tb, "v", Xf)), c.name
            assert ev(act(Xc, bd.lift(tb, "c", f))) == ev(bd.lift(tb, "c", Xf)), c.name


def test_complete_lift_fiber_sign_is_positive(tb, fields):
    """Regression pin: the fiber block of X^c is +y^j d_j X^l; a minus sign
    breaks the bracket law [X^c, Y^c] = [X, Y]^c."""
    X, Y = fields
    Xc = bd.lift(tb, "c", X)
    n = tb.n
    for l in range(n):
        want = tb.ydel(X.components[l])
        assert Xc.components[n + l] == want

    # the flipped-sign variant fails the bracket identity
    def flipped(Z):
        comps = [*Z.components.flat[:n],
                 *(E.mul(E.const(-1), tb.ydel(Z0)) for Z0 in Z.components.flat[:n])]
        return mf.TensorField(tb.chart, (1, 0), comps)

    Xm = flipped(bd.lift(tb, "c", X))
    Ym = flipped(bd.lift(tb, "c", Y))
    XYm = flipped(bd.lift(tb, "c", bracket(X, Y)))
    resid = vec_residual(bracket(Xm, Ym).components, XYm.components)
    pt = bundle_point(tb, [Fraction(1), Fraction(1), Fraction(2)],
                  [Fraction(1), Fraction(-2), Fraction(3)])
    assert not eval_zero(resid, pt)
    # while the shipped sign satisfies it
    ok = vec_residual(bracket(bd.lift(tb, "c", X), bd.lift(tb, "c", Y)).components,
                      bd.lift(tb, "c", bracket(X, Y)).components)
    assert eval_zero(ok, pt)


def test_bracket_table(charts):
    for c in charts.values():
        tb, X, Y = c.tb, c.X, c.Y
        conn = tb.connection
        Xv, Yv = bd.lift(tb, "v", X), bd.lift(tb, "v", Y)
        Xh, Yh = bd.lift(tb, "h", X), bd.lift(tb, "h", Y)
        Xc, Yc = bd.lift(tb, "c", X), bd.lift(tb, "c", Y)
        # [X^c, Y^c] = [X, Y]^c
        cc = vec_residual(bracket(Xc, Yc).components, bd.lift(tb, "c", bracket(X, Y)).components)
        # gamma R(X, Y) = (R(X, Y)y)^v
        defect = bd.lift(tb, "v", mf.TensorField(tb.base, (1, 0), mf.contract(
            "lijk,i,j,k->l", tb.curvature, X, Y, tb.fiber_vars))).components
        for pt in c.points:
            assert eval_zero(bracket(Xv, Yv).components, pt), c.name
            assert eval_zero(cc, pt), c.name
            # [X^v, Y^h] = -(nabla_Y X)^v
            lhs = bracket(Xv, Yh).components
            rhs = bd.lift(tb, "v", nabla(conn, Y, X)).components
            assert eval_zero([E.add(a, b) for a, b in zip(lhs, rhs)], pt), c.name
            # [X^h, Y^h] = [X, Y]^h - gamma R(X, Y)
            lhs = bracket(Xh, Yh).components
            rhs = bd.lift(tb, "h", bracket(X, Y)).components
            resid = [E.add(a, E.mul(E.const(-1), b), d)
                     for a, b, d in zip(lhs, rhs, defect)]
            assert eval_zero(resid, pt), c.name


def test_metric_lifts(charts):
    for c in charts.values():
        tb, X, Y = c.tb, c.X, c.Y
        n = tb.n
        gc, gh = lifted_metric(tb, "c"), lifted_metric(tb, "h")
        G = bd.sasaki_metric(tb)
        gXY = E.ZERO
        for a, b in itertools.product(range(n), repeat=2):
            gXY = E.add(gXY, E.mul(tb.base.metric[a, b], X.components[a], Y.components[b]))

        def pair(metric, U, V):
            s = E.ZERO
            for a, b in itertools.product(range(2 * n), repeat=2):
                s = E.add(s, E.mul(metric.components[a, b],
                                   U.components[a], V.components[b]))
            return s

        Xv, Yv = bd.lift(tb, "v", X), bd.lift(tb, "v", Y)
        Xc, Yc = bd.lift(tb, "c", X), bd.lift(tb, "c", Y)
        Xh, Yh = bd.lift(tb, "h", X), bd.lift(tb, "h", Y)
        # X and Y are not g-orthogonal, so the laws with g(X, Y) are not 0 = 0
        assert any(E.evaluate(gXY, pt) != 0 for pt in c.points), c.name
        for pt in c.points:
            ev = lambda e: E.evaluate(e, pt)
            assert ev(pair(gc, Xv, Yv)) == 0, c.name
            assert ev(pair(gc, Xv, Yc)) == ev(gXY), c.name
            assert ev(pair(gc, Xc, Yv)) == ev(gXY), c.name
            assert ev(pair(gc, Xc, Yc)) == ev(bd.lift(tb, "c", gXY)), c.name
            assert ev(pair(gh, Xh, Yh)) == 0, c.name
            assert ev(pair(gh, Xv, Yv)) == 0, c.name
            assert ev(pair(gh, Xv, Yh)) == ev(gXY), c.name
            assert ev(pair(G, Xv, Yv)) == ev(gXY), c.name
            assert ev(pair(G, Xh, Yh)) == ev(gXY), c.name
            assert ev(pair(G, Xv, Yh)) == 0, c.name


def test_oneform_lifts(charts):
    for c in charts.values():
        tb, X = c.tb, c.X
        x2 = tb.base.variables[1]
        w = mf.TensorField(tb.base, (0, 1), [x2, E.ZERO, E.ZERO])
        wX = E.mul(x2, X.components[0])
        Xv, Xc, Xh = (bd.lift(tb, kind, X) for kind in "vch")

        def act(form, vec):
            s = E.ZERO
            for a in range(2 * tb.n):
                s = E.add(s, E.mul(form.components[a], vec.components[a]))
            return s

        wv, wc, wh = (bd.lift(tb, kind, w) for kind in "vch")
        for pt in c.points:
            ev = lambda e: E.evaluate(e, pt)
            assert ev(act(wv, Xc)) == ev(wX), c.name
            assert ev(act(wv, Xv)) == 0, c.name
            assert ev(act(wc, Xv)) == ev(wX), c.name
            assert ev(act(wc, Xc)) == ev(bd.lift(tb, "c", wX)), c.name
            assert ev(act(wh, Xh)) == 0, c.name
            assert ev(act(wh, Xv)) == ev(wX), c.name


def test_tensor11_lift_frames(charts):
    for c in charts.values():
        tb, X = c.tb, c.X
        phi = c.structure.phi
        phiX = mf.apply_11(phi, X)
        cases = [
            ("c", bd.lift(tb, "c", X), bd.lift(tb, "c", phiX)),
            ("c", bd.lift(tb, "v", X), bd.lift(tb, "v", phiX)),
            ("h", bd.lift(tb, "h", X), bd.lift(tb, "h", phiX)),
            ("h", bd.lift(tb, "v", X), bd.lift(tb, "v", phiX)),
            ("v", bd.lift(tb, "c", X), bd.lift(tb, "v", phiX)),
        ]
        for kind, arg, want in cases:
            got = mf.apply_11(bd.lift(tb, kind, phi), arg)
            resid = vec_residual(got.components, want.components)
            for pt in c.points:
                assert eval_zero(resid, pt), (c.name, kind)


def test_polynomial_functoriality(charts):
    """P(F^c) = (P(F))^c and P(F^h) = (P(F))^h for P(x) = x^2 - x - 1."""
    n = 3

    def poly(mat, dim):
        out = []
        for a, b in itertools.product(range(dim), repeat=2):
            s = E.ZERO
            for m in range(dim):
                s = E.add(s, E.mul(mat[a, m], mat[m, b]))
            s = E.add(s, E.mul(E.const(-1), mat[a, b]))
            if a == b:
                s = E.add(s, E.const(-1))
            out.append(s)
        return mf.Array((dim, dim), out)

    for c in charts.values():
        M = c.tb.base
        comps = [M.variables[(a + b) % n] if (a + b) % 2 == 0 else E.ZERO
                 for a, b in itertools.product(range(n), repeat=2)]
        F = mf.TensorField(M, (1, 1), mf.Array((n, n), comps))
        PF = mf.TensorField(M, (1, 1), poly(F.components, n))
        for kind in ("c", "h"):
            lhs = poly(bd.lift(c.tb, kind, F).components, 2 * n)
            rhs = bd.lift(c.tb, kind, PF).components
            resid = [E.add(lhs[a, b], E.mul(E.const(-1), rhs[a, b]))
                     for a, b in itertools.product(range(2 * n), repeat=2)]
            for pt in c.points:
                assert eval_zero(resid, pt), (c.name, kind)


def test_lifted_connections(charts):
    for c in charts.values():
        tb, X, Y = c.tb, c.X, c.Y
        conn = tb.connection
        cc = bd.clift_connection(tb)
        hc = bd.hlift_connection(tb)
        nXY = nabla(conn, X, Y)
        Xv, Xc, Xh = (bd.lift(tb, kind, X) for kind in "vch")
        Yv, Yc, Yh = (bd.lift(tb, kind, Y) for kind in "vch")
        zero = [E.ZERO] * (2 * tb.n)
        cases = [
            (cc, Xc, Yc, bd.lift(tb, "c", nXY).components),
            (cc, Xv, Yc, bd.lift(tb, "v", nXY).components),
            (cc, Xc, Yv, bd.lift(tb, "v", nXY).components),
            (cc, Xv, Yv, zero),
            (hc, Xh, Yh, bd.lift(tb, "h", nXY).components),
            (hc, Xh, Yv, bd.lift(tb, "v", nXY).components),
            (hc, Xv, Yh, zero),
            (hc, Xv, Yv, zero),
        ]
        for C2, U, V, want in cases:
            resid = vec_residual(nabla(C2, U, V).components, want)
            for pt in c.points:
                assert eval_zero(resid, pt), c.name
        # nabla^h_{X^c} Y^c picks up the curvature slice gamma R(., X, Y) = (R(y, X)Y)^v
        got = nabla(hc, Xc, Yc)
        gslice = bd.lift(tb, "v", mf.TensorField(tb.base, (1, 0), mf.contract(
            "lkij,k,i,j->l", tb.curvature, tb.fiber_vars, X, Y)))
        resid = [E.add(a, E.mul(E.const(-1), b), d) for a, b, d in zip(
            got.components, bd.lift(tb, "c", nXY).components, gslice.components)]
        for pt in c.points:
            assert eval_zero(resid, pt), c.name


def _field(M, valence):
    """A field of ``valence`` on ``M`` with polynomial components, some zero."""
    xs = M.variables
    shape = (M.n,) * sum(valence)
    arr = mf.Array(shape, [E.add(E.mul(E.const(k + 1), E.pow_(xs[k % 3], k % 3 + 1)),
                                 E.mul(xs[(k + 1) % 3], xs[(k + 2) % 3])) if k % 4 != 2
                           else E.ZERO for k in range(math.prod(shape))])
    return mf.TensorField(M, valence, arr)


@pytest.mark.parametrize("valence", [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)],
                         ids=lambda v: f"{v[0]}{v[1]}")
@pytest.mark.parametrize("name", ["h3", "twin"])
def test_complete_minus_horizontal_lift_is_a_vertical_lift(charts, name, valence):
    """T^c - T^h = (y^j nabla_j T)^v for a (k, l) field T: the two lifts
    agree off the blocks where every index carries, and there the
    complete lift's y^j d_j T less the horizontal lift's connection terms
    is y^j nabla_j T."""
    c = charts[name]
    tb, M = c.tb, c.tb.base
    k, l = valence
    T = _field(M, valence)
    slots = "abcdefgh"[:k + l]
    nabla = loop_covariant_derivative(tb.connection, T)  # the derivative index at k
    ynabla = mf.contract(f"j,{slots[:k]}j{slots[k:]}->{slots}", tb.fiber_vars, nabla)
    assert not all(eval_zero(ynabla, pt) for pt in c.points)  # the law is not 0 = 0
    if k + l == 0:  # a function lifts to a function
        T = T.components.flat[0]
        resid = [bd.lift(tb, "c", T) - bd.lift(tb, "h", T) - bd.lift(tb, "v", ynabla)]
    else:
        want = bd.lift(tb, "v", mf.TensorField(M, valence, ynabla)).components
        resid = mf.add(bd.lift(tb, "c", T).components, -bd.lift(tb, "h", T).components, -want)
    for pt in c.points:
        assert eval_zero(resid, pt)


@pytest.mark.parametrize("shape", [(), (3,), (3, 3), (3, 3, 3)])
def test_ydel_acts_componentwise(tb, shape):
    """ydel of an array is the array of ydel of its components, each the
    same tree y^j d_j e as for a single expression."""
    xs = tb.base.variables
    arr = mf.Array(shape, [E.add(E.mul(E.const(k + 1), E.pow_(xs[k % 3], k % 3 + 2)),
                                 xs[(k + 1) % 3]) if k % 4 != 2 else E.ZERO
                           for k in range(math.prod(shape))])
    got = mf.asarray(tb.ydel(arr))
    assert got.shape == shape
    for idx in np.ndindex(shape):
        want = mf.contract("j,j->", tb.fiber_vars, tb.base.partials(arr[idx]))
        assert got[idx] == want and E.to_str(got[idx]) == E.to_str(want)
        assert got[idx] == tb.ydel(arr[idx])


def test_gamma_tilde_is_built_once_and_needs_a_connection(h3, conn, structure):
    """The bundle chart takes its base connection when it is made: without
    one, or with a field that is not a (1,2) field on the base chart, there
    is no chart to lift to."""
    with pytest.raises(TypeError):
        bd.TangentBundleChart(h3)
    twin = mf.ChartedManifold(h3.variables, h3.metric, h3.domain)
    for bad in (structure.phi, mf.TensorField(h3, (1, 3), mf.zeros((3,) * 4)),
                mf.TensorField(twin, (1, 2), conn.components)):
        with pytest.raises(mf.GeometryError, match="connection"):
            bd.TangentBundleChart(h3, bad)
    tb2 = bd.TangentBundleChart(h3, conn)
    assert tb2.gamma_tilde is tb2.gamma_tilde
    assert tb2.gamma_tilde[2, 0] == mf.contract("k,k->", tb2.fiber_vars,
                                                [conn.components[2, k, 0] for k in range(3)])


@pytest.mark.parametrize("path", CHARTS, ids=lambda p: p.stem)
def test_derived_objects_match_their_coordinate_blocks(path):
    """nabla^c, nabla^h and G, derived from their definitions, equal their
    hand-expanded coordinate blocks exactly at the chart's sample points."""
    m = harness.load_manifest(str(path))
    tb = bd.TangentBundleChart(m.manifold, mf.christoffel(m.manifold))
    for got, want in ((bd.clift_connection(tb).components, clift_blocks(tb)),
                      (bd.hlift_connection(tb).components, hlift_blocks(tb)),
                      (bd.sasaki_metric(tb).components, sasaki_blocks(tb))):
        assert got.shape == want.shape
        for pt in harness.sample_points(m):
            assert evaluate_array(got, pt).flat == evaluate_array(want, pt).flat
