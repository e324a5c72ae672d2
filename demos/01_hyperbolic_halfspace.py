"""The hyperbolic half-space as a P-Sasakian manifold.

Builds the chart {x3 > 0} with metric delta_ij / x3^2, the structure tensors
phi = diag(-1, -1, 0), eta = dx3 / x3, xi = x3 d3, and verifies the defining
equations exactly at rational points: each equation is a residual array
that must vanish, decided by ``verdicts.residual_verdict``.

Run:  python3 demos/01_hyperbolic_halfspace.py
"""

from fractions import Fraction

from metallic_tm import exprs as E
from metallic_tm import manifold as mf
from metallic_tm import paracontact as pc
from metallic_tm.exprs import Var
from metallic_tm.verdicts import FLOAT_TOL, residual_verdict


def build():
    xs = [Var("base", i) for i in range(1, 4)]
    inv2 = E.div(E.ONE, E.pow_(xs[2], 2))
    g = [[inv2 if i == j else E.ZERO for j in range(3)] for i in range(3)]
    M = mf.ChartedManifold(xs, g, domain=[xs[2]])
    phi = mf.TensorField(M, (1, 1), [[-1, 0, 0], [0, -1, 0], [0, 0, 0]])
    eta = mf.TensorField(M, (0, 1), [E.ZERO, E.ZERO, E.div(E.ONE, xs[2])])
    xi = mf.TensorField(M, (1, 0), [E.ZERO, E.ZERO, xs[2]])
    return M, pc.ParacontactStructure(M, phi, eta, xi)


def main():
    M, S = build()
    pts = [
        dict(zip(M.variables, [Fraction(1), Fraction(1), Fraction(2)])),
        dict(zip(M.variables, [Fraction(2), Fraction(-1), Fraction(3)])),
    ]
    values = E.Values(pts)  # the values at the points, each node computed once

    print("Christoffel symbols (at x3 = 2):")
    conn = mf.christoffel(M)
    for k in range(3):
        for i in range(3):
            for j in range(i, 3):
                v = E.evaluate(conn.components[k, i, j], pts[0])
                if v != 0:
                    print(f"  Gamma^{k+1}_{i+1}{j+1} = {v}")

    print("\nStructure axioms at 2 rational points:")
    residuals = {**pc.almost_paracontact(S), **pc.metric_compat(S), **pc.p_sasakian(S, conn)}
    for axiom_id, resid in residuals.items():
        v, _ = residual_verdict(axiom_id, M, values, FLOAT_TOL, resid)
        print(f"  {axiom_id:<20} {v.status}")

    print("\nObstruction tensors N1..N4 (all vanish):")
    for name, T in pc.n_tensors(S).items():
        vals = list(E.Values(pts[:1]).each(T.components.flat))
        print(f"  {name}: {'zero' if all(x == 0 for x in vals) else 'NONZERO'}")

    print("\nThe distribution D = ker(eta) is not flat:")
    resid = pc.D_flat(S, conn, pc.distribution_frame(S, values))  # eta(nabla_X Y)
    v, _ = residual_verdict("D-flat", M, values, FLOAT_TOL, resid)
    print(f"  D-flat {v.status}, witness frame {v.witness.frame}, "
          f"residual {v.witness.value}")


if __name__ == "__main__":
    main()
