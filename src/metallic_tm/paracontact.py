"""Almost paracontact structures (phi, eta, xi) and the P-Sasakian axioms.

Checks build residual tensors symbolically once, then evaluate them at
sample points; the points decide the arithmetic.  An axiom holds when every
residual component is exactly zero at exact points, or within the tolerance
at float points.
"""

from __future__ import annotations

from typing import List

from . import exprs as E
from . import manifold as mf
from .manifold import ChartedManifold, Connection, GeometryError, TensorField
from .verdicts import FLOAT_TOL, AxiomVerdict, ResidualTracker, meets_zero, residual_verdict


class ParacontactStructure:
    """The triple (phi, eta, xi) over a charted manifold."""

    def __init__(self, base: ChartedManifold, phi: TensorField, eta: TensorField, xi: TensorField) -> None:
        if phi.valence != (1, 1) or eta.valence != (0, 1) or xi.valence != (1, 0):
            raise GeometryError("paracontact fields must have valences (1,1), (0,1), (1,0)")
        self.base = base
        self.phi = phi
        self.eta = eta
        self.xi = xi

    def eta_of_xi(self) -> E.Expr:
        return mf.contract("m,m->", self.eta, self.xi)


def check_almost_paracontact(S: ParacontactStructure, points,
                             tol: float = FLOAT_TOL) -> List[AxiomVerdict]:
    """phi^2 = I - eta (x) xi, eta(xi) = 1, phi xi = 0, eta o phi = 0."""
    M = S.base
    phi, eta, xi = S.phi.components, S.eta.components, S.xi.components

    r1 = mf.add(mf.contract("am,mj->aj", phi, phi), -mf.identity(M.n), mf.outer(xi, eta))
    r2 = [S.eta_of_xi() - 1]
    r3 = mf.contract("am,m->a", phi, xi)
    r4 = mf.contract("m,mj->j", eta, phi)

    return [residual_verdict(aid, M, points, tol, r)
            for aid, r in (("phi-squared", r1), ("eta-of-xi", r2), ("phi-xi", r3),
                           ("eta-circ-phi", r4))]


def check_metric_compat(S: ParacontactStructure, points,
                        tol: float = FLOAT_TOL) -> List[AxiomVerdict]:
    """g(X,Y) = g(phiX,phiY) + eta(X)eta(Y) and its equivalents."""
    M = S.base
    g = M.metric
    phi, eta, xi = S.phi.components, S.eta.components, S.xi.components

    # g - phi^T g phi - eta (x) eta
    r1 = mf.add(g, mf.contract("ai,ab,bj->ij", -phi, g, phi), mf.outer(-eta, eta))

    r2 = mf.contract("mi,mj+im,mj->ij", phi, g, -g, phi)  # g(phi X, Y) - g(X, phi Y)
    r3 = mf.add(-eta, mf.contract("im,m->i", g, xi))  # g(X, xi) - eta(X)

    return [residual_verdict(aid, M, points, tol, r)
            for aid, r in (("compat-eq4", r1), ("compat-phi-symmetry", r2),
                           ("compat-g-xi", r3))]


def check_p_sasakian(S: ParacontactStructure, C: Connection, points,
                     tol: float = FLOAT_TOL) -> List[AxiomVerdict]:
    """(nabla_X phi)Y = -g(X,Y)xi - eta(Y)X + 2 eta(X)eta(Y)xi and nabla_X xi = phi X."""
    M = S.base
    g = M.metric
    phi, eta, xi = S.phi.components, S.eta.components, S.xi.components

    delta = mf.expr_array(mf.identity(M.n))
    rhs = mf.contract("ij,a+j,ai+i,j,a->aij", -g, xi, -eta, delta, eta * E.const(2), eta, xi)
    r1 = mf.covariant_derivative(C, S.phi).components - rhs  # [a, i, j]
    r2 = mf.covariant_derivative(C, S.xi).components - phi  # [a, i]

    return [residual_verdict("p-sasakian-eq6", M, points, tol, r1),
            residual_verdict("p-sasakian-eq7", M, points, tol, r2)]


def n_tensors(S: ParacontactStructure) -> dict:
    """The four obstruction tensors N1..N4 of the structure."""
    M = S.base
    phi, eta, xi = S.phi, S.eta, S.xi

    deta = mf.exterior_derivative(eta).components
    # N1 = N_phi - 2 deta (x) xi, with [a, i, j] = (-2) deta[i, j] xi[a]
    n1 = mf.add(mf.nijenhuis(phi).components, mf.outer(xi.components, deta) * E.const(-2))
    # [i, j] = (L_{phi d_i} eta)_j = phi^m_i d_m eta_j + eta_m d_j phi^m_i
    lie_forms = mf.contract("mi,mj+m,jmi->ij", phi, M.partials(eta.components),
                            eta, M.partials(phi.components))
    n2 = lie_forms - lie_forms.T

    n3 = mf.lie_derivative(xi, phi).components
    n4 = mf.lie_derivative(xi, eta).components

    return {
        "N1": TensorField(M, (1, 2), n1),
        "N2": TensorField(M, (0, 2), n2),
        "N3": TensorField(M, (1, 1), n3),
        "N4": TensorField(M, (0, 1), n4),
    }


def distribution_frame(S: ParacontactStructure, points=(),
                       tol: float = FLOAT_TOL) -> List[TensorField]:
    """Spanning fields for D: {d_i - (eta(d_i)/eta(xi)) xi}, zeros dropped.

    A member counts as zero when it is structurally zero or meets zero
    (``meets_zero`` with ``tol``) at every supplied sample point (quotients
    such as eta(xi) rarely cancel structurally).
    """
    M = S.base
    eta, xi = S.eta.components, S.xi.components
    eta_xi = S.eta_of_xi()
    members = mf.add(mf.identity(M.n), mf.outer([-(e / eta_xi) for e in eta.flat], xi))

    def vanishes(c: E.Expr) -> bool:
        return all(meets_zero(E.evaluate(c, pt), tol) for pt in points)

    out = []
    for comps in members:
        if all(E._is_const(c, 0) for c in comps):
            continue
        if points and all(vanishes(c) for c in comps):
            continue
        out.append(TensorField(M, (1, 0), comps))
    return out


def check_D_flat(S: ParacontactStructure, C: Connection, frame, points,
                 tol: float = FLOAT_TOL) -> AxiomVerdict:
    """eta(nabla_X Y) = 0 for the spanning family ``frame`` of D-valued
    fields (``distribution_frame``)."""
    X = mf.rows(frame, S.base.n)
    resid = mf.contract("m,xym->xy", S.eta, mf.cov_rows(C, X, X))
    tracker = ResidualTracker(tol)
    for idx in mf.ndindex(resid.shape):
        tracker.track(S.base, points, idx, resid[idx])
    return tracker.verdict("D-flat")
