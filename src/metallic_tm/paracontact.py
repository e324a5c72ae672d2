"""Almost paracontact structures (phi, eta, xi) and the P-Sasakian axioms.

Checks build residual tensors symbolically once, then evaluate them at
sample points; an axiom holds when every residual component is exactly zero
(exact mode) or below tolerance (float mode).
"""

from __future__ import annotations

import itertools
from typing import List, Sequence

import numpy as np

from . import exprs as E
from . import manifold as mf
from .manifold import ChartedManifold, Connection, GeometryError, TensorField
from .scalars import is_zero, scalar_abs
from .verdicts import AxiomVerdict, ResidualTracker


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


def _point_coords(M: ChartedManifold, point) -> tuple:
    return tuple(point[v] for v in M.variables)


def _check_array(arr: np.ndarray, points, mode: str, M: ChartedManifold,
                 axiom_id: str, tol: float = 1e-9) -> AxiomVerdict:
    """Residual array of expressions, expected zero at every point."""
    tracker = ResidualTracker(mode, tol)
    for pt in points:
        coords = _point_coords(M, pt)
        it = np.nditer(arr, flags=["multi_index", "refs_ok"])
        for x in it:
            v = E.evaluate(x.item(), pt, mode)
            tracker.update(v, coords, it.multi_index)
    return tracker.verdict(axiom_id)


def check_almost_paracontact(S: ParacontactStructure, points, mode: str = "exact") -> List[AxiomVerdict]:
    """phi^2 = I - eta (x) xi, eta(xi) = 1, phi xi = 0, eta o phi = 0."""
    M = S.base
    n = M.n
    phi, eta, xi = S.phi.components, S.eta.components, S.xi.components

    r1 = mf.contract("am,mj->aj", phi, phi)
    for a, j in itertools.product(range(n), repeat=2):
        ident = E.ONE if a == j else E.ZERO
        r1[a, j] = E.add(r1[a, j], E.mul(E.const(-1), ident), E.mul(xi[a], eta[j]))

    r2 = np.array([E.add(S.eta_of_xi(), E.const(-1))], dtype=object)
    r3 = mf.contract("am,m->a", phi, xi)
    r4 = mf.contract("m,mj->j", eta, phi)

    return [
        _check_array(r1, points, mode, M, "phi-squared"),
        _check_array(r2, points, mode, M, "eta-of-xi"),
        _check_array(r3, points, mode, M, "phi-xi"),
        _check_array(r4, points, mode, M, "eta-circ-phi"),
    ]


def check_metric_compat(S: ParacontactStructure, points, mode: str = "exact") -> List[AxiomVerdict]:
    """g(X,Y) = g(phiX,phiY) + eta(X)eta(Y) and its equivalents."""
    M = S.base
    n = M.n
    g = M.metric
    phi, eta, xi = S.phi.components, S.eta.components, S.xi.components

    r1 = mf.contract("ai,ab,bj->ij", -phi, g, phi)  # g - phi^T g phi - eta (x) eta
    for i, j in itertools.product(range(n), repeat=2):
        r1[i, j] = E.add(g[i, j], r1[i, j], E.mul(E.const(-1), eta[i], eta[j]))

    r2 = mf.contract("mi,mj+im,mj->ij", phi, g, -g, phi)  # g(phi X, Y) - g(X, phi Y)

    r3 = mf.contract("im,m->i", g, xi)  # g(X, xi) - eta(X)
    for i in range(n):
        r3[i] = E.add(E.mul(E.const(-1), eta[i]), r3[i])

    return [
        _check_array(r1, points, mode, M, "compat-eq4"),
        _check_array(r2, points, mode, M, "compat-phi-symmetry"),
        _check_array(r3, points, mode, M, "compat-g-xi"),
    ]


def check_p_sasakian(S: ParacontactStructure, C: Connection, points, mode: str = "exact") -> List[AxiomVerdict]:
    """(nabla_X phi)Y = -g(X,Y)xi - eta(Y)X + 2 eta(X)eta(Y)xi and nabla_X xi = phi X."""
    M = S.base
    n = M.n
    g = M.metric
    phi, eta, xi = S.phi.components, S.eta.components, S.xi.components

    dphi = mf.covariant_derivative(C, S.phi).components  # [a, i, j]
    r1 = mf.zeros((n, n, n))
    for a, i, j in itertools.product(range(n), repeat=3):
        rhs = E.add(
            E.mul(E.const(-1), g[i, j], xi[a]),
            E.mul(E.const(-1), eta[j], E.ONE if a == i else E.ZERO),
            E.mul(E.const(2), eta[i], eta[j], xi[a]),
        )
        r1[a, i, j] = E.add(dphi[a, i, j], E.mul(E.const(-1), rhs))

    dxi = mf.covariant_derivative(C, S.xi).components  # [a, i]
    r2 = mf.zeros((n, n))
    for a, i in itertools.product(range(n), repeat=2):
        r2[a, i] = E.add(dxi[a, i], E.mul(E.const(-1), phi[a, i]))

    return [
        _check_array(r1, points, mode, M, "p-sasakian-eq6"),
        _check_array(r2, points, mode, M, "p-sasakian-eq7"),
    ]


def n_tensors(S: ParacontactStructure) -> dict:
    """The four obstruction tensors N1..N4 of the structure."""
    M = S.base
    n = M.n
    phi, eta, xi = S.phi, S.eta, S.xi

    nphi = mf.nijenhuis(phi).components
    deta = mf.exterior_derivative(eta).components
    n1 = mf.zeros((n, n, n))
    for a, i, j in itertools.product(range(n), repeat=3):
        n1[a, i, j] = E.add(
            nphi[a, i, j],
            E.mul(E.const(-2), deta[i, j], xi.components[a]),
        )

    n2 = mf.zeros((n, n))
    lie_forms = [
        mf.lie_derivative(mf.column_field(phi, i), eta).components
        for i in range(n)
    ]
    for i, j in itertools.product(range(n), repeat=2):
        n2[i, j] = E.add(lie_forms[i][j], E.mul(E.const(-1), lie_forms[j][i]))

    n3 = mf.lie_derivative(xi, phi).components
    n4 = mf.lie_derivative(xi, eta).components

    return {
        "N1": TensorField(M, (1, 2), n1),
        "N2": TensorField(M, (0, 2), n2),
        "N3": TensorField(M, (1, 1), n3),
        "N4": TensorField(M, (0, 1), n4),
    }


def in_distribution(S: ParacontactStructure, point, v: Sequence) -> bool:
    """True when eta_point(v) = 0, i.e. v lies in the distribution D."""
    eta_pt = mf.evaluate_array(S.eta.components, point)
    return is_zero(sum(eta_pt[m] * v[m] for m in range(S.base.n)))


def distribution_frame(S: ParacontactStructure, points=(), mode: str = "exact") -> List[TensorField]:
    """Spanning fields for D: {d_i - (eta(d_i)/eta(xi)) xi}, zeros dropped.

    A member counts as zero when it is structurally zero or evaluates to
    zero at every supplied sample point (quotients such as eta(xi) rarely
    cancel structurally).
    """
    M = S.base
    n = M.n
    eta, xi = S.eta.components, S.xi.components
    exi = S.eta_of_xi()

    def vanishes(c: E.Expr) -> bool:
        return all(
            scalar_abs(E.evaluate(c, pt, mode)) <= (0 if mode == "exact" else 1e-12)
            for pt in points
        )

    out = []
    for i in range(n):
        comps = mf.zeros(n)
        for a in range(n):
            c = E.ONE if a == i else E.ZERO
            comps[a] = E.add(c, E.mul(E.const(-1), E.div(eta[i], exi), xi[a]))
        if all(E._is_const(c, 0) for c in comps):
            continue
        if points and all(vanishes(c) for c in comps):
            continue
        out.append(TensorField(M, (1, 0), comps))
    return out


def check_D_flat(S: ParacontactStructure, C: Connection, points, mode: str = "exact") -> AxiomVerdict:
    """eta(nabla_X Y) = 0 for a spanning family of D-valued fields."""
    M = S.base
    frame = distribution_frame(S, points, mode)
    eta = S.eta.components
    tracker = ResidualTracker(mode)
    for i, X in enumerate(frame):
        for j, Y in enumerate(frame):
            resid = mf.contract("m,m->", eta, mf.cov_vec(C, X, Y))
            for pt in points:
                v = E.evaluate(resid, pt, mode)
                tracker.update(v, _point_coords(M, pt), (i, j))
    return tracker.verdict("D-flat")
