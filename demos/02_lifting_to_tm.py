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
from metallic_tm.exprs import Var

_here = pathlib.Path(__file__).parent
_spec = importlib.util.spec_from_file_location("demo01", _here / "01_hyperbolic_halfspace.py")
demo01 = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(demo01)


def is_zero_at(exprs, pt):
    return all(E.evaluate(e, pt) == 0 for e in exprs)


def main():
    M, S = demo01.build()
    conn = mf.christoffel(M)
    R = mf.curvature(conn)
    tb = bd.TangentBundleChart(M, conn)
    pt = tb.point([Fraction(1), Fraction(1), Fraction(2)],
                  [Fraction(1), Fraction(-2), Fraction(3)])

    x1, x2, x3 = M.variables
    X = mf.TensorField(M, (1, 0), [x2, E.ZERO, E.ZERO])
    Y = mf.TensorField(M, (1, 0), [x3, E.mul(x1, x3), E.ZERO])

    Xv, Yv = bd.vlift_vector(tb, X), bd.vlift_vector(tb, Y)
    Xc, Yc = bd.clift_vector(tb, X), bd.clift_vector(tb, Y)
    Xh, Yh = bd.hlift_vector(tb, X), bd.hlift_vector(tb, Y)

    print("Bracket table:")
    print("  [X^v, Y^v] = 0:",
          is_zero_at(mf.lie_bracket(Xv, Yv).components, pt))
    lhs = mf.lie_bracket(Xc, Yc).components
    rhs = bd.clift_vector(tb, mf.lie_bracket(X, Y)).components
    print("  [X^c, Y^c] = [X, Y]^c:",
          is_zero_at([E.add(a, E.mul(E.const(-1), b)) for a, b in zip(lhs, rhs)], pt))
    lhs = mf.lie_bracket(Xh, Yh).components
    rhs = bd.hlift_vector(tb, mf.lie_bracket(X, Y)).components
    defect = bd.gamma_bracket_defect(tb, R, X, Y).components
    print("  [X^h, Y^h] = [X, Y]^h - gamma R(X, Y):",
          is_zero_at([E.add(a, E.mul(E.const(-1), b), c)
                      for a, b, c in zip(lhs, rhs, defect)], pt))

    print("\nMetric pairings at an exact point:")
    gc = bd.clift_metric(tb)
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
    nXY = mf.cov_vec(conn, X, Y)
    got = mf.cov_vec(cc, Xc, Yc).components
    want = bd.clift_vector(tb, nXY).components
    print("  nabla^c_{X^c} Y^c = (nabla_X Y)^c:",
          is_zero_at([E.add(a, E.mul(E.const(-1), b)) for a, b in zip(got, want)], pt))
    got = mf.cov_vec(hc, Xc, Yc).components
    want = bd.clift_vector(tb, nXY).components
    slice_ = bd.gamma_curvature(tb, R, X, Y).components
    print("  nabla^h_{X^c} Y^c = (nabla_X Y)^c - gamma R(., X, Y):",
          is_zero_at([E.add(a, E.mul(E.const(-1), b), c)
                      for a, b, c in zip(got, want, slice_)], pt))


if __name__ == "__main__":
    main()
