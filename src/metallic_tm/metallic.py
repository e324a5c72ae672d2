"""Metallic structures on TM built from lifted paracontact data.

Two structures are provided: J, assembled from complete lifts, and F, from
horizontal lifts.  Components carry exact coefficients in Q(sigma), so the
defining identity T^2 = pT + qI is an exact zero test at rational points.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional

import numpy as np

from . import bundle as bd
from . import exprs as E
from . import manifold as mf
from . import paracontact as pc
from .manifold import Connection, TensorField
from .scalars import MetallicScalar, is_zero, sigma
from .verdicts import AxiomVerdict, ResidualTracker, Witness


@dataclass(frozen=True)
class MetallicParams:
    """Metallic parameters (p, q) and the sign variant (eps1, eps2) of the
    eta (x) xi terms in J and F.

    The structures built from these parameters are metallic if and only if
    eps1 * eps2 = 1.  For eps1 * eps2 = -1 the residual T^2 - pT - qI is the
    nonzero closed form given in ``build_J`` and ``build_F``.
    """

    p: int
    q: int
    eps1: int = 1
    eps2: int = 1

    def __post_init__(self):
        if self.p < 1 or self.q < 1:
            raise ValueError(f"metallic parameters must be positive, got p={self.p} q={self.q}")
        if self.eps1 not in (1, -1) or self.eps2 not in (1, -1):
            raise ValueError("sign variants must be +1 or -1")

    @property
    def sigma(self) -> MetallicScalar:
        return sigma(self.p, self.q)

    @property
    def amp(self) -> MetallicScalar:
        """(2 sigma - p) / 2, the linear coefficient in J and F."""
        return MetallicScalar(Fraction(-self.p, 2), 1, self.p, self.q)

    @property
    def amp_squared(self) -> Fraction:
        """A = ((2 sigma - p)/2)^2 = (p^2 + 4q)/4, a rational number."""
        return Fraction(self.p * self.p + 4 * self.q, 4)

    def label(self) -> str:
        s1 = "+" if self.eps1 == 1 else "-"
        s2 = "+" if self.eps2 == 1 else "-"
        return f"p={self.p},q={self.q},eps=({s1},{s2})"


@dataclass(frozen=True)
class MetallicOnTM:
    kind: str  # "complete_J" or "horizontal_F"
    tensor: TensorField
    params: MetallicParams


def _outer(form: TensorField, vec: TensorField) -> np.ndarray:
    """eta (x) xi as a (1,1) component matrix on the same chart."""
    n2 = form.base.n
    out = mf.zeros((n2, n2))
    for a, b in itertools.product(range(n2), repeat=2):
        out[a, b] = E.mul(vec.components[a], form.components[b])
    return out


def _assemble(tb: bd.TangentBundleChart, params: MetallicParams,
              phi_lift: TensorField, term1: np.ndarray, term2: np.ndarray,
              kind: str) -> MetallicOnTM:
    n2 = 2 * tb.n
    half_p = E.const(Fraction(params.p, 2))
    amp = E.const(params.amp)
    comps = mf.zeros((n2, n2))
    for a, b in itertools.product(range(n2), repeat=2):
        inner = E.add(
            phi_lift.components[a, b],
            E.mul(E.const(params.eps1), term1[a, b]),
            E.mul(E.const(params.eps2), term2[a, b]),
        )
        ident = half_p if a == b else E.ZERO
        comps[a, b] = E.add(ident, E.mul(E.const(-1), amp, inner))
    return MetallicOnTM(kind, TensorField(tb.chart, (1, 1), comps), params)


def build_J(S: pc.ParacontactStructure, tb: bd.TangentBundleChart,
            params: MetallicParams) -> MetallicOnTM:
    """J = (p/2) I - ((2s-p)/2) (phi^c + eps1 eta^v (x) xi^v + eps2 eta^c (x) xi^c).

    J is metallic if and only if eps1 * eps2 = 1.  Since
    eta^v(xi^v) = eta^c(xi^c) = 0 and eta^v(xi^c) = eta^c(xi^v) = 1,

        J^2 - pJ - qI = ((p^2 + 4q)/4) (eps1 eps2 - 1) (eta^c (x) xi^v + eta^v (x) xi^c).
    """
    phic = bd.lift_tensor11(tb, S.phi, "c")
    ev = bd.lift_oneform(tb, S.eta, "v")
    ec = bd.lift_oneform(tb, S.eta, "c")
    xv = bd.vlift_vector(tb, S.xi)
    xc = bd.clift_vector(tb, S.xi)
    return _assemble(tb, params, phic, _outer(ev, xv), _outer(ec, xc), "complete_J")


def build_F(S: pc.ParacontactStructure, tb: bd.TangentBundleChart,
            params: MetallicParams) -> MetallicOnTM:
    """F = (p/2) I - ((2s-p)/2) (phi^h + eps1 eta^v (x) xi^v + eps2 eta^h (x) xi^h).

    F is metallic if and only if eps1 * eps2 = 1.  Since
    eta^v(xi^v) = eta^h(xi^h) = 0 and eta^v(xi^h) = eta^h(xi^v) = 1,

        F^2 - pF - qI = ((p^2 + 4q)/4) (eps1 eps2 - 1) (eta^h (x) xi^v + eta^v (x) xi^h).
    """
    phih = bd.lift_tensor11(tb, S.phi, "h")
    ev = bd.lift_oneform(tb, S.eta, "v")
    eh = bd.lift_oneform(tb, S.eta, "h")
    xv = bd.vlift_vector(tb, S.xi)
    xh = bd.hlift_vector(tb, S.xi)
    return _assemble(tb, params, phih, _outer(ev, xv), _outer(eh, xh), "horizontal_F")


# ----------------------------------------------------------------------
# pointwise checks
# ----------------------------------------------------------------------

def _coords(chart, point):
    return tuple(point[v] for v in chart.variables)


def pq_residual(t: np.ndarray, p: int, q: int) -> np.ndarray:
    """t^2 - p t - q I for a square component matrix of expressions."""
    out = mf.contract("am,mb->ab", t, t)
    for a, b in np.ndindex(out.shape):
        ident = E.const(-q) if a == b else E.ZERO
        out[a, b] = E.add(out[a, b], E.mul(E.const(-p), t[a, b]), ident)
    return out


def metallic_residual(T: MetallicOnTM) -> np.ndarray:
    """T^2 - pT - qI as a component matrix of expressions."""
    return pq_residual(T.tensor.components, T.params.p, T.params.q)


def check_metallic(T: MetallicOnTM, points, mode: str = "exact") -> AxiomVerdict:
    resid = metallic_residual(T)
    chart = T.tensor.base
    tracker = ResidualTracker(mode)
    for pt in points:
        coords = _coords(chart, pt)
        for a, b in itertools.product(range(chart.n), repeat=2):
            v = E.evaluate(resid[a, b], pt, mode)
            tracker.update(v, coords, (a, b))
    return tracker.verdict(f"metallic[{T.kind};{T.params.label()}]")


def check_compat(metric: TensorField, T: MetallicOnTM, points, mode: str = "exact") -> List[AxiomVerdict]:
    """Both compatibility forms: the (p,q) identity and plain symmetry."""
    chart = T.tensor.base
    n2 = chart.n
    m = metric.components
    t = T.tensor.components
    p, q = T.params.p, T.params.q

    mt = mf.contract("ak,kb->ab", m, t)  # metric(e_a, T e_b)
    r_pq = mf.contract("ka,kb->ab", t, mt)  # metric(Ta,Tb) - p metric(a,Tb) - q metric(a,b)
    for a, b in itertools.product(range(n2), repeat=2):
        r_pq[a, b] = E.add(
            r_pq[a, b],
            E.mul(E.const(-p), mt[a, b]),
            E.mul(E.const(-q), m[a, b]),
        )

    r_sym = mf.zeros((n2, n2))  # metric(Ta, b) - metric(a, Tb)
    for a, b in itertools.product(range(n2), repeat=2):
        r_sym[a, b] = E.add(mt[b, a], E.mul(E.const(-1), mt[a, b]))

    out = []
    for rid, resid in (("compat-pq", r_pq), ("compat-symmetry", r_sym)):
        tracker = ResidualTracker(mode)
        for pt in points:
            coords = _coords(chart, pt)
            for a, b in itertools.product(range(n2), repeat=2):
                tracker.update(E.evaluate(resid[a, b], pt, mode), coords, (a, b))
        out.append(tracker.verdict(f"{rid}[{T.kind}]"))
    return out


# ----------------------------------------------------------------------
# Nijenhuis tensor on TM and the proof-table decomposition
# ----------------------------------------------------------------------

def nijenhuis_TM(T: MetallicOnTM) -> TensorField:
    return mf.nijenhuis(T.tensor)


def _scale_vec(scalar: E.Expr, V: TensorField) -> np.ndarray:
    return np.array([E.mul(scalar, c) for c in V.components], dtype=object)


def nijenhuis_rows(S: pc.ParacontactStructure, tb: bd.TangentBundleChart,
                   params: MetallicParams, NJ: TensorField,
                   X: TensorField, Y: TensorField) -> Dict[str, np.ndarray]:
    """Residuals of the lifted-frame closed forms for N_J, one row per
    frame pair, with A = ((2 sigma - p)/2)^2.

    Each entry is LHS - RHS as a vector of bundle expressions; all of them
    vanish identically when the closed forms hold for (X, Y).  The closed
    forms assume X and Y are sections of the distribution D = ker(eta), and
    they hold for any almost paracontact structure, not just P-Sasakian ones.
    """
    nt = pc.n_tensors(S)
    A = E.const(params.amp_squared)

    def lift(v, kind):
        return bd.clift_vector(tb, v) if kind == "c" else bd.vlift_vector(tb, v)

    def vecdiff(lhs, rhs):
        return np.array(
            [E.add(a, E.mul(E.const(-1), b)) for a, b in zip(lhs, rhs)], dtype=object
        )

    Xv, Xc = lift(X, "v"), lift(X, "c")
    Yv, Yc = lift(Y, "v"), lift(Y, "c")
    xiv, xic = lift(S.xi, "v"), lift(S.xi, "c")

    def nj_on(U: TensorField, V: TensorField) -> np.ndarray:
        return mf.contract("aij,i,j->a", NJ, U, V)

    n1xy = mf.TensorField(S.base, (1, 0), mf.contract("aij,i,j->a", nt["N1"], X, Y))
    n2xy = mf.contract("ij,i,j->", nt["N2"], X, Y)
    n3x = mf.apply_11(nt["N3"], X)
    phin3x = mf.apply_11(S.phi, n3x)
    n4x = mf.contract("m,m->", nt["N4"], X)
    n2_x_xi = mf.contract("ij,i,j->", nt["N2"], X, S.xi)

    rows: Dict[str, np.ndarray] = {}

    # N_J(X^v, Y^v) = 0
    rows["vv"] = nj_on(Xv, Yv)

    # N_J(X^v, Y^c) = A([N1(X,Y)]^v + N2(X,Y) xi^c)
    rhs = np.array([
        E.add(a, E.mul(A, n2xy, b))
        for a, b in zip(_scale_vec(A, lift(n1xy, "v")), xic.components)
    ], dtype=object)
    rows["vc"] = vecdiff(nj_on(Xv, Yc), rhs)

    # N_J(X^c, Y^c) = A([N1(X,Y)]^c + N2(X,Y) xi^v)
    rhs = np.array([
        E.add(a, E.mul(A, n2xy, b))
        for a, b in zip(_scale_vec(A, lift(n1xy, "c")), xiv.components)
    ], dtype=object)
    rows["cc"] = vecdiff(nj_on(Xc, Yc), rhs)

    # N_J(X^v, xi^v) = A(-(N3 X)^v + N4(X) xi^c)
    rhs = np.array([
        E.add(E.mul(E.const(-1), A, a), E.mul(A, n4x, b))
        for a, b in zip(lift(n3x, "v").components, xic.components)
    ], dtype=object)
    rows["v-xiv"] = vecdiff(nj_on(Xv, xiv), rhs)

    # N_J(X^v, xi^c) = A([phi(N3 X) - N4(X) xi]^v + N2(X,xi) xi^c)
    inner = mf.TensorField(S.base, (1, 0), np.array([
        E.add(a, E.mul(E.const(-1), n4x, b))
        for a, b in zip(phin3x.components, S.xi.components)
    ], dtype=object))
    rhs = np.array([
        E.add(E.mul(A, a), E.mul(A, n2_x_xi, b))
        for a, b in zip(lift(inner, "v").components, xic.components)
    ], dtype=object)
    rows["v-xic"] = vecdiff(nj_on(Xv, xic), rhs)

    # N_J(X^c, xi^v) = A(-(N3 X)^c + (phi(N3 X))^v - [N4(phi X) - N4(X)]^c xi^c)
    n4phix = mf.contract("m,m->", nt["N4"], mf.apply_11(S.phi, X))
    scal = E.add(n4phix, E.mul(E.const(-1), n4x))
    scal_c = tb.ydel(scal)
    rhs = np.array([
        E.add(
            E.mul(E.const(-1), A, a),
            E.mul(A, b),
            E.mul(E.const(-1), A, scal_c, c),
        )
        for a, b, c in zip(
            lift(n3x, "c").components, lift(phin3x, "v").components, xic.components
        )
    ], dtype=object)
    rows["c-xiv"] = vecdiff(nj_on(Xc, xiv), rhs)

    # N_J(xi^v, xi^v) = N_J(xi^c, xi^c) = N_J(xi^v, xi^c) = 0
    rows["xiv-xiv"] = nj_on(xiv, xiv)
    rows["xic-xic"] = nj_on(xic, xic)
    rows["xiv-xic"] = nj_on(xiv, xic)

    return rows


# ----------------------------------------------------------------------
# F-integrability side conditions
# ----------------------------------------------------------------------

def check_F_integrability_conditions(S: pc.ParacontactStructure, C: Connection,
                                     points, mode: str = "exact") -> Dict[str, AxiomVerdict]:
    """The two curvature/connection conditions of the F-integrability theorem
    plus D-flatness, each evaluated on distribution frame tuples."""
    M = S.base
    n = M.n
    R = mf.curvature(C)
    frame = pc.distribution_frame(S, points, mode)
    eta = S.eta.components

    d_flat = pc.check_D_flat(S, C, points, mode)

    # e4: R(phiX, phiY)Z + R(X,Y)Z - phi{ R(phiX, Y)Z + R(X, phiY)Z } = 0
    tr4 = ResidualTracker(mode)
    for ix, X in enumerate(frame):
        phiX = mf.apply_11(S.phi, X)
        for iy, Y in enumerate(frame):
            phiY = mf.apply_11(S.phi, Y)
            for iz, Z in enumerate(frame):
                t1 = mf.contract("lijk,i,j,k->l", R, phiX, phiY, Z)
                t2 = mf.contract("lijk,i,j,k->l", R, X, Y, Z)
                t3 = mf.contract("lijk,i,j,k->l", R, phiX, Y, Z)
                t4 = mf.contract("lijk,i,j,k->l", R, X, phiY, Z)
                inner = mf.contract("am,m->a", S.phi, t3 + t4)
                for a in range(n):
                    resid = E.add(t1[a], t2[a], E.mul(E.const(-1), inner[a]))
                    for pt in points:
                        tr4.update(E.evaluate(resid, pt, mode),
                                   _coords(M, pt), (ix, iy, iz, a))
    e4 = tr4.verdict("e4-curvature")

    # e5: nabla_{phiX} phiY - phi nabla_{phiX} Y - phi nabla_X phiY + nabla_X Y = 0
    tr5 = ResidualTracker(mode)
    equivalence_ok = True
    for ix, X in enumerate(frame):
        phiX = mf.apply_11(S.phi, X)
        for iy, Y in enumerate(frame):
            phiY = mf.apply_11(S.phi, Y)
            t1 = mf.cov_vec(C, phiX, phiY)
            t2 = mf.apply_11(S.phi, mf.cov_vec(C, phiX, Y))
            t3 = mf.apply_11(S.phi, mf.cov_vec(C, X, phiY))
            t4 = mf.cov_vec(C, X, Y)
            resid = [
                E.add(t1.components[a], E.mul(E.const(-1), t2.components[a]),
                      E.mul(E.const(-1), t3.components[a]), t4.components[a])
                for a in range(n)
            ]
            eta_nxy = mf.contract("m,m->", eta, t4)
            for pt in points:
                vals = [E.evaluate(r, pt, mode) for r in resid]
                for a, v in enumerate(vals):
                    tr5.update(v, _coords(M, pt), (ix, iy, a))
                e5_zero = all(is_zero(v) for v in vals)
                eta_zero = is_zero(E.evaluate(eta_nxy, pt, mode))
                if e5_zero != eta_zero:
                    equivalence_ok = False
    e5 = tr5.verdict("e5-connection")

    equiv = AxiomVerdict("e5-equiv-eta-nabla", "holds" if equivalence_ok else "fails", 0, None)
    return {"D_flat": d_flat, "e4": e4, "e5": e5, "e5_equivalence": equiv}


# ----------------------------------------------------------------------
# parallelity probes
# ----------------------------------------------------------------------

def parallelity_probe(T: MetallicOnTM, lifted_conn: Connection,
                      S: pc.ParacontactStructure, tb: bd.TangentBundleChart,
                      points, mode: str = "exact") -> AxiomVerdict:
    """(nabla~_X~ T) xi~ against the closed form; the structure is reported
    non-parallel when every D-frame direction gives a nonzero residual that
    matches the closed form exactly.

    complete_J:   (nabla^c_{X^c} J) xi^c = -((2s-p)/2) [(phi X)^v - X^c]
    horizontal_F: (nabla^h_{X^h} F) xi^h = -((2s-p)/2) [(phi X)^v - (phi^2 X)^h]
    """
    n = tb.n
    amp = E.const(T.params.amp)
    dT = mf.covariant_derivative(lifted_conn, T.tensor)  # [a, A, b]
    phi2 = mf.TensorField(S.base, (1, 1), mf.contract("am,mb->ab", S.phi, S.phi))

    def lift_dir(X: mf.TensorField) -> mf.TensorField:
        return (bd.clift_vector(tb, X) if T.kind == "complete_J"
                else bd.hlift_vector(tb, X))

    def closed_form(X: mf.TensorField) -> np.ndarray:
        phiX = mf.apply_11(S.phi, X)
        if T.kind == "complete_J":
            second = bd.clift_vector(tb, X)
        else:
            second = bd.hlift_vector(tb, mf.apply_11(phi2, X))
        return np.array([
            E.mul(E.const(-1), amp, E.add(a, E.mul(E.const(-1), b)))
            for a, b in zip(bd.vlift_vector(tb, phiX).components, second.components)
        ], dtype=object)

    xil = lift_dir(S.xi)

    def residual(X: mf.TensorField) -> np.ndarray:
        return mf.contract("aij,i,j->a", dT, lift_dir(X), xil)

    d_frame = pc.distribution_frame(S, points, mode)

    # closed-form match: the J display is qualified to directions in D,
    # while the F display carries phi^2 and holds on the whole frame
    if T.kind == "complete_J":
        match_frame = d_frame
    else:
        match_frame = [
            mf.TensorField(S.base, (1, 0),
                           [E.ONE if a == i else E.ZERO for a in range(n)])
            for i in range(n)
        ]
    match = ResidualTracker(mode)
    for i, X in enumerate(match_frame):
        diff = [E.add(r, E.mul(E.const(-1), c))
                for r, c in zip(residual(X), closed_form(X))]
        for pt in points:
            coords = _coords(tb.chart, pt)
            for a in range(2 * n):
                match.update(E.evaluate(diff[a], pt, mode), coords, (i, a))

    # non-vanishing over every distribution frame direction
    nonzero_all = True
    zero_witness: Optional[Witness] = None
    sample = ResidualTracker(mode)
    for i, X in enumerate(d_frame):
        resid = residual(X)
        for pt in points:
            coords = _coords(tb.chart, pt)
            vals = [E.evaluate(r, pt, mode) for r in resid]
            for a, v in enumerate(vals):
                sample.update(v, coords, (i, a))
            if all(is_zero(v) if mode == "exact" else abs(v) <= 1e-9 for v in vals):
                nonzero_all = False
                zero_witness = Witness(coords, (i,), "0")

    if match.all_zero and nonzero_all:
        # pass: report the (nonzero) probe residual itself as the witness
        return AxiomVerdict(f"never-parallel[{T.kind}]", "holds",
                            sample.max_value, sample.witness)
    return AxiomVerdict(f"never-parallel[{T.kind}]", "fails",
                        match.max_value, match.witness or zero_witness)


# ----------------------------------------------------------------------
# fundamental forms
# ----------------------------------------------------------------------

def fundamental_form(T: MetallicOnTM, metric: TensorField) -> TensorField:
    """Phi(X~, Y~) = metric(X~, T Y~) - (p/2) metric(X~, Y~).

    Compatibility makes this tensor symmetric, not antisymmetric; it is fed
    to the coboundary formula componentwise.
    """
    chart = T.tensor.base
    n2 = chart.n
    m = metric.components
    t = T.tensor.components
    halfp = E.const(Fraction(T.params.p, 2))
    out = mf.contract("ak,kb->ab", m, t)
    for a, b in itertools.product(range(n2), repeat=2):
        out[a, b] = E.add(out[a, b], E.mul(E.const(-1), halfp, m[a, b]))
    return TensorField(chart, (0, 2), out)


def d_fundamental(phi_form: TensorField) -> TensorField:
    """The 1/3 cyclic coboundary applied to the fundamental form."""
    return mf.coboundary_2form(phi_form)


def dphi_on(dphi: TensorField, X: TensorField, Y: TensorField, Z: TensorField) -> E.Expr:
    return mf.contract("ijk,i,j,k->", dphi, X, Y, Z)
