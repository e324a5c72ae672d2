"""Almost paracontact structures (phi, eta, xi) and the P-Sasakian axioms.

Each axiom is a residual tensor, built symbolically and returned as an
array keyed by its axiom id; ``harness`` evaluates it at the sample points
and decides it.  ``distribution_frame`` alone takes points, to drop members
of the frame that vanish at all of them.
"""

from __future__ import annotations

from typing import Dict, List

from . import exprs as E
from . import manifold as mf
from .manifold import ChartedManifold, GeometryError, TensorField
from .verdicts import FLOAT_TOL, vanishes


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


def almost_paracontact(S: ParacontactStructure) -> Dict[str, mf.Array]:
    """phi^2 = I - eta (x) xi, eta(xi) = 1, phi xi = 0, eta o phi = 0."""
    phi, eta, xi = S.phi.components, S.eta.components, S.xi.components
    return {
        "phi-squared": mf.add(mf.contract("am,mj->aj", phi, phi), -mf.identity(S.base.n),
                              mf.outer(xi, eta)),
        "eta-of-xi": mf.asarray([S.eta_of_xi() - 1]),
        "phi-xi": mf.contract("am,m->a", phi, xi),
        "eta-circ-phi": mf.contract("m,mj->j", eta, phi),
    }


def metric_compat(S: ParacontactStructure) -> Dict[str, mf.Array]:
    """g(X,Y) = g(phiX,phiY) + eta(X)eta(Y) and its equivalents."""
    g = S.base.metric
    phi, eta, xi = S.phi.components, S.eta.components, S.xi.components
    return {
        # g - phi^T g phi - eta (x) eta
        "compat-eq4": mf.add(g, mf.contract("ai,ab,bj->ij", -phi, g, phi), mf.outer(-eta, eta)),
        # g(phi X, Y) - g(X, phi Y)
        "compat-phi-symmetry": mf.contract("mi,mj+im,mj->ij", phi, g, -g, phi),
        "compat-g-xi": mf.add(-eta, mf.contract("im,m->i", g, xi)),  # g(X, xi) - eta(X)
    }


def p_sasakian(S: ParacontactStructure, C: TensorField) -> Dict[str, mf.Array]:
    """(nabla_X phi)Y = -g(X,Y)xi - eta(Y)X + 2 eta(X)eta(Y)xi and nabla_X xi = phi X."""
    M = S.base
    phi, eta, xi = S.phi.components, S.eta.components, S.xi.components
    delta = mf.expr_array(mf.identity(M.n))
    rhs = mf.contract("ij,a+j,ai+i,j,a->aij", -M.metric, xi, -eta, delta, eta * E.const(2), eta, xi)
    return {
        "p-sasakian-eq6": mf.covariant_derivative(C, S.phi).components - rhs,  # [a, i, j]
        "p-sasakian-eq7": mf.covariant_derivative(C, S.xi).components - phi,  # [a, i]
    }


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


def distribution_frame(S: ParacontactStructure, values: E.Values,
                       tol: float = FLOAT_TOL) -> List[TensorField]:
    """Spanning fields for D: {d_i - (eta(d_i)/eta(xi)) xi}, zeros dropped.

    A member counts as zero when it is structurally zero or, when ``values``
    has points, vanishes at every one of them (``verdicts.vanishes`` with
    ``tol``; a quotient cancels structurally only over a monomial denominator).
    """
    M = S.base
    eta, xi = S.eta.components, S.xi.components
    eta_xi = S.eta_of_xi()
    members = mf.add(mf.identity(M.n), mf.outer([-(e / eta_xi) for e in eta.flat], xi))
    out = []
    for comps in members:
        if all(c is E.ZERO for c in comps):
            continue
        if values.points and vanishes(comps, values, tol):
            continue
        out.append(TensorField(M, (1, 0), comps))
    return out


def D_flat(S: ParacontactStructure, C: TensorField, frame) -> mf.Array:
    """eta(nabla_X Y) at [x, y] for the spanning family ``frame`` of D-valued
    fields (``distribution_frame``); D is flat when it vanishes."""
    X = mf.rows(frame, S.base.n)
    return mf.contract("m,xym->xy", S.eta, mf.cov_rows(C, X, X))
