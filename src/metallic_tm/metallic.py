"""Metallic structures on TM built from lifted paracontact data.

Two structures are provided: J, assembled from complete lifts, and F, from
horizontal lifts.  Both are T = (p/2) I - (a/2) Psi with a = 2 sigma - p and
an almost product structure Psi over Q that depends on the signs (eps1,
eps2) alone.  Every function below builds residuals of Psi, over Q, for
``harness`` to decide once per sign pair: a residual of T is a nonzero
constant times it (``MetallicParams`` gives the constants), so it vanishes
for every (p, q) exactly when the Psi residual does.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Tuple

from . import bundle as bd
from . import exprs as E
from . import manifold as mf
from . import paracontact as pc
from .manifold import TensorField
from .scalars import half_root


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
    def amp(self):
        """a/2 = sigma - p/2 = sqrt(p^2 + 4q)/2, the linear coefficient in J
        and F; positive (``scalars.half_root``)."""
        return half_root(self.p, self.q)

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
# pointwise residuals
# ----------------------------------------------------------------------

def pq_residual(t: mf.Array, p: int, q: int) -> mf.Array:
    """t^2 - p t - q I for a square component matrix of expressions; with
    (p, q) = (0, 1) it is Psi^2 - I, which times a^2/4 is T^2 - pT - qI."""
    return mf.add(mf.contract("am,mb->ab", t, t), t * E.const(-p), mf.identity(len(t)) * -q)


def compat_residuals(metric: TensorField, psi: TensorField, label: str) -> Dict[str, mf.Array]:
    """u = Psi^T G Psi - G (``compat-isometry``) and w = Psi^T G - G Psi
    (``compat-symmetry``) for a symmetric metric G.  The compatibility forms
    of T are

        T^T G T - pGT - qG = (a^2/4) u - (pa/4) w
        T^T G - G T        = -(a/2) w

    and both vanish for every (p, q) exactly when u = 0 and w = 0.
    """
    m, s = metric.components, psi.components
    ms = mf.contract("ak,kb->ab", m, s)  # metric(e_a, Psi e_b)
    return {f"compat-isometry[{label}]": mf.contract("ka,kb->ab", s, ms) - m,
            f"compat-symmetry[{label}]": ms.T - ms}


# ----------------------------------------------------------------------
# F-integrability side conditions
# ----------------------------------------------------------------------

def F_integrability_residuals(S: pc.ParacontactStructure, C: TensorField,
                               R: TensorField, frame) -> Dict[str, mf.Array]:
    """D-flatness (``D-flat``, eta(nabla_X Y), ``paracontact.D_flat``) and the
    curvature and connection conditions of the F-integrability theorem
    (``e4-curvature`` and ``e5-connection``) on tuples of the distribution
    frame ``frame`` (``distribution_frame``).  ``R`` is the curvature of
    ``C``.  e5 vanishes at a pair (X, Y) exactly when eta(nabla_X Y) does."""
    X = mf.rows(frame, S.base.n)  # [x, a]: the frame fields X_x
    phiX = mf.contract("am,xm->xa", S.phi, X)

    def r_on(U, V):  # [x, y, z, l] = R(U_x, V_y) X_z
        return mf.contract("lijk,xi,yj,zk->xyzl", R, U, V, X)

    inner = mf.contract("am,xyzm->xyza", S.phi, mf.add(r_on(phiX, X), r_on(X, phiX)))
    return {
        "D-flat": pc.D_flat(S, C, frame),
        # e4: R(phiX, phiY)Z + R(X,Y)Z - phi{ R(phiX, Y)Z + R(X, phiY)Z } = 0
        "e4-curvature": mf.add(r_on(phiX, phiX), r_on(X, X), -inner),
        # e5: nabla_{phiX} phiY - phi nabla_{phiX} Y - phi nabla_X phiY + nabla_X Y = 0
        "e5-connection": mf.add(mf.cov_rows(C, phiX, phiX),
                                -mf.contract("am,xym->xya", S.phi, mf.cov_rows(C, phiX, X)),
                                -mf.contract("am,xym->xya", S.phi, mf.cov_rows(C, X, phiX)),
                                mf.cov_rows(C, X, X)),
    }


# ----------------------------------------------------------------------
# parallelity probes
# ----------------------------------------------------------------------

def parallelity_probes(psi: TensorField, lift: str, lifted_conn: TensorField,
                       S: pc.ParacontactStructure, tb: bd.TangentBundleChart,
                       frame) -> Tuple[mf.Array, mf.Array]:
    """The probes (nabla~_X~ Psi) xi~ = nabla~_X~(Psi xi~) - Psi nabla~_X~ xi~
    for the directions X of the D-frame ``frame`` (``distribution_frame``),
    as rows, and the mismatch of the probes from their closed form.  They
    are taken on the vector fields, so the full nabla~ Psi is never built.
    ``lift`` is "c" (J, nabla^c) or "h" (F, nabla^h):

    complete_J:   (nabla^c_{X^c} Psi) xi^c = (phi X)^v - X^c
    horizontal_F: (nabla^h_{X^h} Psi) xi^h = (phi X)^v - (phi^2 X)^h

    The J display is qualified to directions in D, so its mismatch is taken
    on the frame; the F display carries phi^2 and holds on every direction,
    so its mismatch is taken on the coordinate fields.  Since
    nabla~ T = -(a/2) nabla~ Psi with -a/2 != 0, T is parallel for no (p, q)
    when the probes are nonzero and match; the values are those of Psi, over Q.
    """
    n = tb.n
    if lift == "c":
        basis = []
        matched = second = frame
    else:
        phi2 = mf.TensorField(S.base, (1, 1), mf.contract("am,mb->ab", S.phi, S.phi))
        basis = [mf.TensorField(S.base, (1, 0), mf.identity(n)[i]) for i in range(n)]
        matched, second = basis, [mf.apply_11(phi2, X) for X in basis]
    # frame directions first, then the basis; the row index y of one field is 0
    dirs = bd.lifted_rows(tb, lift, list(frame) + basis)
    xi = bd.lift(tb, lift, S.xi)
    psi_xi = mf.asarray([mf.contract("am,m->a", psi, xi)])
    probes = mf.contract("xya+am,xym->xa", mf.cov_rows(lifted_conn, dirs, psi_xi),
                         -psi.components, mf.cov_rows(lifted_conn, dirs, mf.rows([xi], 2 * n)))
    closed = (bd.lifted_rows(tb, "v", [mf.apply_11(S.phi, X) for X in matched])
              - bd.lifted_rows(tb, lift, second))
    rows = list(probes)
    return mf.asarray(rows[:len(frame)]), mf.asarray(rows[len(rows) - len(closed):]) - closed
