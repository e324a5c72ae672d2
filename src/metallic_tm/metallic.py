"""Metallic structures on TM built from lifted paracontact data.

Two structures are provided: J, assembled from complete lifts, and F, from
horizontal lifts.  Both are T = (p/2) I - (a/2) Psi with a = 2 sigma - p and
an almost product structure Psi over Q that depends on the signs (eps1,
eps2) alone.  Every check below decides a residual of Psi, over Q, once per
sign pair: a residual of T is a nonzero constant times it (``MetallicParams``
gives the constants), so it vanishes for every (p, q) exactly when the Psi
residual does.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional

from . import bundle as bd
from . import exprs as E
from . import manifold as mf
from . import paracontact as pc
from .manifold import Connection, TensorField
from .scalars import sigma
from .verdicts import (FLOAT_TOL, AxiomVerdict, ResidualTracker, Witness, meets_zero,
                       residual_verdict)


class MetallicParams:
    """Metallic parameters (p, q) and the sign variant (eps1, eps2) of the
    eta (x) xi terms in J and F.

    J and F are T = (p/2) I - (a/2) Psi with a = 2 sigma - p, where the
    almost product structure Psi depends on the signs alone (``build_psi``).
    They are metallic if and only if eps1 * eps2 = 1.
    """

    def __init__(self, p: int, q: int, eps1: int = 1, eps2: int = 1) -> None:
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in (p, q, eps1, eps2)):
            raise ValueError("metallic parameters and signs must be integers, got "
                             f"MetallicParams(p={p!r}, q={q!r}, eps1={eps1!r}, eps2={eps2!r})")
        if p < 1 or q < 1:
            raise ValueError(f"metallic parameters must be positive, got p={p} q={q}")
        if eps1 not in (1, -1) or eps2 not in (1, -1):
            raise ValueError("sign variants must be +1 or -1")
        self.p = p
        self.q = q
        self.eps1 = eps1
        self.eps2 = eps2

    @property
    def sigma(self):
        return sigma(self.p, self.q)

    @property
    def amp(self):
        """a/2 = sigma - p/2, the linear coefficient in J and F; positive."""
        return self.sigma - Fraction(self.p, 2)

    @property
    def amp_squared(self) -> Fraction:
        """a^2/4 = ((2 sigma - p)/2)^2 = (p^2 + 4q)/4, a rational number."""
        return Fraction(self.p * self.p + 4 * self.q, 4)

    def coefficients(self) -> tuple:
        """(a^2/4, -pa/4, -a/2): the constants that turn values of Psi-level
        residuals, over Q, into those of T = (p/2) I - (a/2) Psi."""
        return self.amp_squared, -Fraction(self.p, 2) * self.amp, -self.amp


STRUCTURES = {"c": "complete_J", "h": "horizontal_F"}


def structure_label(lift: str, eps1: int, eps2: int) -> str:
    """The structure and sign pair of a Psi, as axiom ids carry them."""
    s1, s2 = ("+" if e == 1 else "-" for e in (eps1, eps2))
    return f"{STRUCTURES[lift]};eps=({s1},{s2})"


def build_psi(S: pc.ParacontactStructure, tb: bd.TangentBundleChart, lift: str,
              eps1: int, eps2: int) -> TensorField:
    """Psi = phi^k + eps1 eta^v (x) xi^v + eps2 eta^k (x) xi^k, with k = "c"
    (complete lifts, for J) or "h" (horizontal lifts, for F).

    Psi is over Q and does not depend on (p, q).  By the metallic <-> almost
    product correspondence (Hretcanu & Crasmareanu, Rev. Un. Mat. Argentina
    54, 2013), T = (p/2) I - (a/2) Psi with a = 2 sigma - p.  Since
    eta^v(xi^v) = eta^k(xi^k) = 0 and eta^v(xi^k) = eta^k(xi^v) = 1,

        Psi^2 - I = (eps1 eps2 - 1) (eta^k (x) xi^v + eta^v (x) xi^k),

    so T^2 - pT - qI = (a^2/4) (Psi^2 - I) vanishes for every (p, q) if
    eps1 * eps2 = 1 and for none if eps1 * eps2 = -1.
    """
    phik = bd.lift(tb, lift, S.phi).components
    # eta (x) xi at [a, b] is xi^a eta_b
    term1 = mf.outer(bd.lift(tb, "v", S.xi).components, bd.lift(tb, "v", S.eta).components)
    term2 = mf.outer(bd.lift(tb, lift, S.xi).components, bd.lift(tb, lift, S.eta).components)
    comps = mf.add(phik, term1 * E.const(eps1), term2 * E.const(eps2))
    return TensorField(tb.chart, (1, 1), comps)


# ----------------------------------------------------------------------
# pointwise checks
# ----------------------------------------------------------------------

def pq_residual(t: mf.Array, p: int, q: int) -> mf.Array:
    """t^2 - p t - q I for a square component matrix of expressions."""
    return mf.add(mf.contract("am,mb->ab", t, t), t * E.const(-p), mf.identity(len(t)) * -q)


def check_metallic(psi: TensorField, label: str, points, tol: float = FLOAT_TOL) -> AxiomVerdict:
    """Psi^2 - I, which times a^2/4 is T^2 - pT - qI."""
    return residual_verdict(f"metallic[{label}]", psi.base, points, tol,
                            pq_residual(psi.components, 0, 1))


def check_compat(metric: TensorField, psi: TensorField, label: str, points,
                 tol: float = FLOAT_TOL) -> List[AxiomVerdict]:
    """u = Psi^T G Psi - G (``compat-isometry``) and w = Psi^T G - G Psi
    (``compat-symmetry``) for a symmetric metric G.  The compatibility forms
    of T are

        T^T G T - pGT - qG = (a^2/4) u - (pa/4) w
        T^T G - G T        = -(a/2) w

    and both vanish for every (p, q) exactly when u = 0 and w = 0.
    """
    m, s = metric.components, psi.components
    ms = mf.contract("ak,kb->ab", m, s)  # metric(e_a, Psi e_b)
    u = mf.contract("ka,kb->ab", s, ms) - m  # metric(Psi a, Psi b) - metric(a, b)
    w = ms.T - ms  # metric(Psi a, b) - metric(a, Psi b)
    return [residual_verdict(f"{rid}[{label}]", psi.base, points, tol, r)
            for rid, r in (("compat-isometry", u), ("compat-symmetry", w))]


# ----------------------------------------------------------------------
# Nijenhuis tensor on TM and the proof-table decomposition
# ----------------------------------------------------------------------

def nijenhuis_rows(S: pc.ParacontactStructure, tb: bd.TangentBundleChart,
                   N: TensorField, X: TensorField, Y: TensorField) -> Dict[str, mf.Array]:
    """Residuals of the lifted-frame closed forms for N = N_Psi, the
    Nijenhuis tensor of Psi = phi^c + eps1 eta^v (x) xi^v + eps2 eta^c (x) xi^c,
    one row per frame pair.  For J = (p/2) I - (a/2) Psi, N_J = A N_Psi with
    A = a^2/4 = ((2 sigma - p)/2)^2, so these rows times A are those of N_J.

    Each entry is LHS - RHS as a vector of bundle expressions; all of them
    vanish identically when the closed forms hold for (X, Y).  The closed
    forms assume X and Y are sections of the distribution D = ker(eta), and
    they hold for any almost paracontact structure, not just P-Sasakian ones.
    """
    nt = pc.n_tensors(S)
    Xv, Xc = bd.lift(tb, "v", X), bd.lift(tb, "c", X)
    Yv, Yc = bd.lift(tb, "v", Y), bd.lift(tb, "c", Y)
    xiv, xic = bd.lift(tb, "v", S.xi), bd.lift(tb, "c", S.xi)

    def n_on(U: TensorField, V: TensorField) -> mf.Array:
        return mf.contract("aij,i,j->a", N, U, V)

    n1xy = mf.TensorField(S.base, (1, 0), mf.contract("aij,i,j->a", nt["N1"], X, Y))
    n2xy = mf.contract("ij,i,j->", nt["N2"], X, Y)
    n3x = mf.apply_11(nt["N3"], X)
    phin3x = mf.apply_11(S.phi, n3x)
    n4x = mf.contract("m,m->", nt["N4"], X)
    n2_x_xi = mf.contract("ij,i,j->", nt["N2"], X, S.xi)

    rows: Dict[str, mf.Array] = {}

    # N(X^v, Y^v) = 0
    rows["vv"] = n_on(Xv, Yv)

    # N(X^v, Y^c) = [N1(X,Y)]^v + N2(X,Y) xi^c
    rhs = mf.contract("a+,a->a", bd.lift(tb, "v", n1xy).components, n2xy, xic.components)
    rows["vc"] = n_on(Xv, Yc) - rhs

    # N(X^c, Y^c) = [N1(X,Y)]^c + N2(X,Y) xi^v
    rhs = mf.contract("a+,a->a", bd.lift(tb, "c", n1xy).components, n2xy, xiv.components)
    rows["cc"] = n_on(Xc, Yc) - rhs

    # N(X^v, xi^v) = -(N3 X)^v + N4(X) xi^c
    rhs = mf.contract("a+,a->a", -bd.lift(tb, "v", n3x).components, n4x, xic.components)
    rows["v-xiv"] = n_on(Xv, xiv) - rhs

    # N(X^v, xi^c) = [phi(N3 X) - N4(X) xi]^v + N2(X,xi) xi^c
    inner = mf.TensorField(S.base, (1, 0),
                           mf.contract("a+,a->a", phin3x.components, -n4x, S.xi.components))
    rhs = mf.contract("a+,a->a", bd.lift(tb, "v", inner).components, n2_x_xi, xic.components)
    rows["v-xic"] = n_on(Xv, xic) - rhs

    # N(X^c, xi^v) = -(N3 X)^c + (phi(N3 X))^v - [N4(phi X) - N4(X)]^c xi^c
    n4phix = mf.contract("m,m->", nt["N4"], mf.apply_11(S.phi, X))
    scal_c = tb.ydel(n4phix - n4x)
    rhs = mf.contract("a+a+,a->a", -bd.lift(tb, "c", n3x).components,
                      bd.lift(tb, "v", phin3x).components, -scal_c, xic.components)
    rows["c-xiv"] = n_on(Xc, xiv) - rhs

    # N(xi^v, xi^v) = N(xi^c, xi^c) = N(xi^v, xi^c) = 0
    rows["xiv-xiv"] = n_on(xiv, xiv)
    rows["xic-xic"] = n_on(xic, xic)
    rows["xiv-xic"] = n_on(xiv, xic)

    return rows


# ----------------------------------------------------------------------
# F-integrability side conditions
# ----------------------------------------------------------------------

def check_F_integrability_conditions(S: pc.ParacontactStructure, C: Connection,
                                     R: TensorField, frame, points,
                                     tol: float = FLOAT_TOL) -> Dict[str, AxiomVerdict]:
    """The two curvature/connection conditions of the F-integrability theorem
    plus D-flatness, each evaluated on tuples of the distribution frame
    ``frame`` (``distribution_frame``).  ``R`` is the curvature of ``C``."""
    M = S.base
    X = mf.rows(frame, M.n)  # [x, a]: the frame fields X_x
    phiX = mf.contract("am,xm->xa", S.phi, X)

    d_flat = pc.check_D_flat(S, C, frame, points, tol)

    # e4: R(phiX, phiY)Z + R(X,Y)Z - phi{ R(phiX, Y)Z + R(X, phiY)Z } = 0
    def r_on(U, V):  # [x, y, z, l] = R(U_x, V_y) X_z
        return mf.contract("lijk,xi,yj,zk->xyzl", R, U, V, X)

    inner = mf.contract("am,xyzm->xyza", S.phi, mf.add(r_on(phiX, X), r_on(X, phiX)))
    resid4 = mf.add(r_on(phiX, phiX), r_on(X, X), -inner)
    tr4 = ResidualTracker(tol)
    for idx in mf.ndindex(resid4.shape):
        tr4.track(M, points, idx, resid4[idx])
    e4 = tr4.verdict("e4-curvature")

    # e5: nabla_{phiX} phiY - phi nabla_{phiX} Y - phi nabla_X phiY + nabla_X Y = 0
    nXY = mf.cov_rows(C, X, X)
    resid5 = mf.add(mf.cov_rows(C, phiX, phiX),
                    -mf.contract("am,xym->xya", S.phi, mf.cov_rows(C, phiX, X)),
                    -mf.contract("am,xym->xya", S.phi, mf.cov_rows(C, X, phiX)), nXY)
    eta_nxy = mf.contract("m,xym->xy", S.eta, nXY)
    tr5 = ResidualTracker(tol)
    equivalence_ok = True
    for ix, iy in mf.ndindex(eta_nxy.shape):
        for pt, vals in zip(points, tr5.track(M, points, (ix, iy), resid5[ix, iy])):
            e5_zero = all(meets_zero(v, tol) for v in vals)
            eta_zero = meets_zero(E.evaluate(eta_nxy[ix, iy], pt), tol)
            if e5_zero != eta_zero:
                equivalence_ok = False
    e5 = tr5.verdict("e5-connection")

    equiv = AxiomVerdict("e5-equiv-eta-nabla", "holds" if equivalence_ok else "fails", 0, None)
    return {"D_flat": d_flat, "e4": e4, "e5": e5, "e5_equivalence": equiv}


# ----------------------------------------------------------------------
# parallelity probes
# ----------------------------------------------------------------------

def parallelity_probe(psi: TensorField, lift: str, lifted_conn: Connection,
                      S: pc.ParacontactStructure, tb: bd.TangentBundleChart,
                      frame, points, tol: float = FLOAT_TOL) -> AxiomVerdict:
    """(nabla~_X~ Psi) xi~ against the closed form; the structure is reported
    non-parallel when every direction of the D-frame ``frame``
    (``distribution_frame``) gives a nonzero residual that matches the
    closed form exactly.  ``lift`` is "c" (J, nabla^c) or "h" (F, nabla^h):

    complete_J:   (nabla^c_{X^c} Psi) xi^c = (phi X)^v - X^c
    horizontal_F: (nabla^h_{X^h} Psi) xi^h = (phi X)^v - (phi^2 X)^h

    Since nabla~ T = -(a/2) nabla~ Psi with -a/2 != 0, T is parallel for no
    (p, q) when these are nonzero; the values are those of Psi, over Q.
    """
    n = tb.n
    dpsi = mf.covariant_derivative(lifted_conn, psi)  # [a, A, b]
    # closed-form match: the J display is qualified to directions in D,
    # while the F display carries phi^2 and holds on the whole frame
    if lift == "c":
        basis = []
        matched = second = frame
    else:
        phi2 = mf.TensorField(S.base, (1, 1), mf.contract("am,mb->ab", S.phi, S.phi))
        basis = [mf.TensorField(S.base, (1, 0), mf.identity(n)[i]) for i in range(n)]
        matched, second = basis, [mf.apply_11(phi2, X) for X in basis]
    # the probes (nabla~_X~ Psi) xi~, frame directions first, then the basis
    probes = mf.contract("aij,xi,j->xa", dpsi,
                         bd.lifted_rows(tb, lift, list(frame) + basis), bd.lift(tb, lift, S.xi))
    closed = (bd.lifted_rows(tb, "v", [mf.apply_11(S.phi, X) for X in matched])
              - bd.lifted_rows(tb, lift, second))
    match = ResidualTracker(tol)
    for i, (probe, want) in enumerate(zip(list(probes)[len(probes) - len(closed):], closed)):
        match.track(tb.chart, points, (i,), probe - want)

    # non-vanishing over every distribution frame direction
    nonzero_all = True
    zero_witness: Optional[Witness] = None
    sample = ResidualTracker(tol)
    for i, probe in enumerate(list(probes)[:len(frame)]):
        for pt, vals in zip(points, sample.track(tb.chart, points, (i,), probe)):
            if all(meets_zero(v, tol) for v in vals):
                nonzero_all = False
                zero_witness = Witness(tb.chart.coords(pt), (i,), "0")

    axiom_id = f"never-parallel[{STRUCTURES[lift]}]"
    if match.all_zero and nonzero_all:
        # pass: report the (nonzero) probe residual itself as the witness
        return AxiomVerdict(axiom_id, "holds", sample.max_value, sample.witness)
    return AxiomVerdict(axiom_id, "fails", match.max_value, match.witness or zero_witness)
