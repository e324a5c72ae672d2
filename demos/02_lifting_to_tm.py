"""Vertical, complete and horizontal lifts to the tangent bundle.

Shows the lift calculus on TM over the hyperbolic half-space: the bracket
table, metric pairings for g^c, g^h and the Sasaki metric G, and the frame
displays of the lifted connections.  Everything evaluates to exact zeros.

Run:  python3 demos/02_lifting_to_tm.py
"""

import importlib.util
import pathlib
from fractions import Fraction

from metallic_tm import bundle as bd
from metallic_tm import exprs as E
from metallic_tm import manifold as mf

_here = pathlib.Path(__file__).parent
_spec = importlib.util.spec_from_file_location("demo01", _here / "01_hyperbolic_halfspace.py")
demo01 = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(demo01)


def is_zero_at(exprs, pt):
    return all(E.evaluate(e, pt) == 0 for e in exprs)


def nabla(C, U, V):
    """nabla_U V under the connection C: one row of cov_rows, as a vector field."""
    n = U.base.n
    return mf.TensorField(U.base, (1, 0), mf.cov_rows(C, mf.rows([U], n), mf.rows([V], n))[0, 0])


def bracket(U, V):
    """[U, V] for vector fields on one chart: one row of brackets, as a vector field."""
    n = U.base.n
    return mf.TensorField(U.base, (1, 0), mf.brackets(U.base, mf.rows([U], n), mf.rows([V], n))[0, 0])


def vertical(tb, v):
    """The vertical lift of the base vector v, such as gamma R(X, Y) = (R(X, Y)y)^v."""
    return bd.lift(tb, "v", mf.TensorField(tb.base, (1, 0), v)).components


def main():
    M, S = demo01.build()
    conn = mf.christoffel(M)
    tb = bd.TangentBundleChart(M, conn)
    # a point of TM: base coordinates x1..x3, then fiber coordinates y1..y3
    pt = dict(zip(tb.chart.variables, [Fraction(1), Fraction(1), Fraction(2),
                                       Fraction(1), Fraction(-2), Fraction(3)]))

    x1, x2, x3 = M.variables
    X = mf.TensorField(M, (1, 0), [x2, E.ZERO, E.ZERO])
    Y = mf.TensorField(M, (1, 0), [x3, E.mul(x1, x3), E.ZERO])

    # one lift for every kind ("v", "c", "h") and every tensor type
    Xv, Yv = bd.lift(tb, "v", X), bd.lift(tb, "v", Y)
    Xc, Yc = bd.lift(tb, "c", X), bd.lift(tb, "c", Y)
    Xh, Yh = bd.lift(tb, "h", X), bd.lift(tb, "h", Y)

    print("Bracket table:")
    print("  [X^v, Y^v] = 0:",
          is_zero_at(bracket(Xv, Yv).components, pt))
    lhs = bracket(Xc, Yc).components
    rhs = bd.lift(tb, "c", bracket(X, Y)).components
    print("  [X^c, Y^c] = [X, Y]^c:",
          is_zero_at([E.add(a, E.mul(E.const(-1), b)) for a, b in zip(lhs, rhs)], pt))
    lhs = bracket(Xh, Yh).components
    rhs = bd.lift(tb, "h", bracket(X, Y)).components
    defect = vertical(tb, mf.contract("lijk,i,j,k->l", tb.curvature, X, Y, tb.fiber_vars))
    print("  [X^h, Y^h] = [X, Y]^h - gamma R(X, Y):",
          is_zero_at([E.add(a, E.mul(E.const(-1), b), c)
                      for a, b, c in zip(lhs, rhs, defect)], pt))

    print("\nMetric pairings at an exact point:")
    gc = bd.lift(tb, "c", mf.TensorField(M, (0, 2), M.metric))
    G = bd.sasaki_metric(tb)

    def pair(metric, U, V):
        return E.evaluate(mf.contract("ab,a,b->", metric, U, V), pt)

    print(f"  g^c(X^v, Y^v) = {pair(gc, Xv, Yv)}   (always 0)")
    print(f"  g^c(X^v, Y^c) = {pair(gc, Xv, Yc)}   (= g(X,Y)^v)")
    print(f"  G(X^v, Y^v)   = {pair(G, Xv, Yv)}   (= g(X,Y)^v)")
    print(f"  G(X^v, Y^h)   = {pair(G, Xv, Yh)}   (always 0)")

    print("\nLifted connections:")
    cc = bd.clift_connection(tb)
    hc = bd.hlift_connection(tb)
    nXY = nabla(conn, X, Y)
    got = nabla(cc, Xc, Yc).components
    want = bd.lift(tb, "c", nXY).components
    print("  nabla^c_{X^c} Y^c = (nabla_X Y)^c:",
          is_zero_at([E.add(a, E.mul(E.const(-1), b)) for a, b in zip(got, want)], pt))
    got = nabla(hc, Xc, Yc).components
    want = bd.lift(tb, "c", nXY).components
    # gamma R(., X, Y) = (R(y, X)Y)^v
    slice_ = vertical(tb, mf.contract("lkij,k,i,j->l", tb.curvature, tb.fiber_vars, X, Y))
    print("  nabla^h_{X^c} Y^c = (nabla_X Y)^c - gamma R(., X, Y):",
          is_zero_at([E.add(a, E.mul(E.const(-1), b), c)
                      for a, b, c in zip(got, want, slice_)], pt))


if __name__ == "__main__":
    main()
