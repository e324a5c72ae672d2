"""Lifts from a base chart to its tangent bundle.

The bundle chart has coordinates (x^1..x^n, y^1..y^n); every lifted object
is materialized as coordinate components on this 2n-dimensional chart, so
all of the generic tensor calculus in ``manifold`` applies unchanged.

Conventions, fixed once and audited by tests:
  * complete lift of a vector field has fiber part +y^j d_j X^i (the sign
    is forced by X^c f^c = (Xf)^c);
  * Gamma-tilde denotes the fiber contraction GT[l][i] = y^k Gamma^l_{ki};
  * the horizontal lift of a function is f^c - gamma(df), which vanishes
    identically.
"""

from __future__ import annotations

import itertools
from typing import List, Optional

import numpy as np

from . import exprs as E
from . import manifold as mf
from .exprs import Expr, Var
from .manifold import ChartedManifold, Connection, GeometryError, TensorField


class TangentBundleChart:
    """Induced chart on TM over a base chart, with optional base connection."""

    def __init__(self, base: ChartedManifold, connection: Optional[Connection] = None) -> None:
        self.base = base
        self.n = base.n
        fiber = tuple(Var("fiber", v.index) for v in base.variables)
        for v in base.variables:
            if v.kind != "base":
                raise GeometryError("bundle base chart must use base-kind variables")
        self.base_vars = base.variables
        self.fiber_vars = fiber
        self.chart = ChartedManifold(
            base.variables + fiber,
            metric=None,
            domain=base.domain,
            coord_names=base.coord_names + tuple(v.name for v in fiber),
        )
        self.connection = connection
        self._gamma_tilde = None

    @property
    def gamma_tilde(self) -> np.ndarray:
        """GT[l][i] = y^k Gamma^l_{ki}."""
        if self.connection is None:
            raise GeometryError("this lift needs a base connection")
        if self._gamma_tilde is None:
            self._gamma_tilde = mf.contract("k,lki->li", self.fiber_vars,
                                            self.connection.coefficients)
        return self._gamma_tilde

    def ydel(self, e: Expr) -> Expr:
        """The complete-lift derivation y^j d_j applied to a base expression."""
        return mf.contract("j,j->", self.fiber_vars, self.base.partials(e))

    def point(self, base_coords, fiber_coords) -> dict:
        pt = dict(zip(self.base_vars, base_coords))
        pt.update(zip(self.fiber_vars, fiber_coords))
        return pt


def _blocks_to_matrix(tb: TangentBundleChart, bb, bf, fb, ff) -> np.ndarray:
    n = tb.n
    out = mf.zeros((2 * n, 2 * n))
    out[:n, :n] = bb
    out[:n, n:] = bf
    out[n:, :n] = fb
    out[n:, n:] = ff
    return out


# ----------------------------------------------------------------------
# functions
# ----------------------------------------------------------------------

def vlift_function(tb: TangentBundleChart, f: Expr) -> Expr:
    return f


def clift_function(tb: TangentBundleChart, f: Expr) -> Expr:
    return tb.ydel(f)


def hlift_function(tb: TangentBundleChart, f: Expr) -> Expr:
    """f^h = f^c - gamma(df); the two terms cancel, so f^h = 0."""
    return E.add(clift_function(tb, f), E.mul(E.const(-1), tb.ydel(f)))


# ----------------------------------------------------------------------
# vector fields
# ----------------------------------------------------------------------

def vlift_vector(tb: TangentBundleChart, X: TensorField) -> TensorField:
    n = tb.n
    comps = mf.zeros(2 * n)
    comps[n:] = X.components
    return TensorField(tb.chart, (1, 0), comps)


def clift_vector(tb: TangentBundleChart, X: TensorField) -> TensorField:
    n = tb.n
    comps = mf.zeros(2 * n)
    comps[:n] = X.components
    for i in range(n):
        comps[n + i] = tb.ydel(X.components[i])
    return TensorField(tb.chart, (1, 0), comps)


def hlift_vector(tb: TangentBundleChart, X: TensorField) -> TensorField:
    n = tb.n
    comps = mf.zeros(2 * n)
    comps[:n] = X.components
    comps[n:] = mf.contract("li,i->l", -tb.gamma_tilde, X)
    return TensorField(tb.chart, (1, 0), comps)


def adapted_frame(tb: TangentBundleChart) -> List[TensorField]:
    """{delta/delta x^i} followed by {d/dy^i}."""
    n = tb.n
    gt = tb.gamma_tilde
    frame = []
    for i in range(n):
        comps = mf.zeros(2 * n)
        comps[i] = E.ONE
        for l in range(n):
            comps[n + l] = E.mul(E.const(-1), gt[l, i])
        frame.append(TensorField(tb.chart, (1, 0), comps))
    for i in range(n):
        comps = mf.zeros(2 * n)
        comps[n + i] = E.ONE
        frame.append(TensorField(tb.chart, (1, 0), comps))
    return frame


# ----------------------------------------------------------------------
# 1-forms
# ----------------------------------------------------------------------

def lift_oneform(tb: TangentBundleChart, w: TensorField, kind: str) -> TensorField:
    if w.valence != (0, 1):
        raise GeometryError("lift_oneform needs a 1-form")
    n = tb.n
    comps = mf.zeros(2 * n)
    if kind == "v":
        comps[:n] = w.components
    elif kind == "c":
        for i in range(n):
            comps[i] = tb.ydel(w.components[i])
        comps[n:] = w.components
    elif kind == "h":
        comps[:n] = mf.contract("ki,k->i", tb.gamma_tilde, w)
        comps[n:] = w.components
    else:
        raise GeometryError(f"unknown lift kind {kind!r}")
    return TensorField(tb.chart, (0, 1), comps)


# ----------------------------------------------------------------------
# (1,1) tensors
# ----------------------------------------------------------------------

def lift_tensor11(tb: TangentBundleChart, F: TensorField, kind: str) -> TensorField:
    if F.valence != (1, 1):
        raise GeometryError("lift_tensor11 needs a (1,1) tensor")
    n = tb.n
    Fc = F.components
    zero = mf.zeros((n, n))
    if kind == "v":
        # defined by F^v(X^c) = (FX)^v, F^v(X^v) = 0
        m = _blocks_to_matrix(tb, zero, zero, Fc, zero)
    elif kind == "c":
        lower = mf.zeros((n, n))
        for a, j in itertools.product(range(n), repeat=2):
            lower[a, j] = tb.ydel(Fc[a, j])
        m = _blocks_to_matrix(tb, Fc, zero, lower, Fc)
    elif kind == "h":
        gt = tb.gamma_tilde
        lower = mf.contract("al,lj+al,lj->aj", Fc, gt, -gt, Fc)
        m = _blocks_to_matrix(tb, Fc, zero, lower, Fc)
    else:
        raise GeometryError(f"unknown lift kind {kind!r}")
    return TensorField(tb.chart, (1, 1), m)


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

def clift_metric(tb: TangentBundleChart) -> TensorField:
    """g^c = [[y^k d_k g, g], [g, 0]]."""
    g = tb.base.metric
    n = tb.n
    upper = mf.zeros((n, n))
    for i, j in itertools.product(range(n), repeat=2):
        upper[i, j] = tb.ydel(g[i, j])
    m = _blocks_to_matrix(tb, upper, g.copy(), g.copy(), mf.zeros((n, n)))
    return TensorField(tb.chart, (0, 2), m)


def hlift_metric(tb: TangentBundleChart) -> TensorField:
    """g^h = g_ij theta^i (x) eta^j + g_ij eta^i (x) theta^j,
    with eta^i = GT[i][k] dx^k + dy^i."""
    g = tb.base.metric
    gt = tb.gamma_tilde
    n = tb.n
    bb = mf.contract("il,lk+li,lk->ik", g, gt, gt, g)
    m = _blocks_to_matrix(tb, bb, g.copy(), g.copy(), mf.zeros((n, n)))
    return TensorField(tb.chart, (0, 2), m)


def sasaki_metric(tb: TangentBundleChart) -> TensorField:
    """G = [[g + GT^T g GT, GT^T g], [g GT, g]]."""
    g = tb.base.metric
    gt = tb.gamma_tilde
    bb = g + mf.contract("ai,ab,bj->ij", gt, g, gt)
    bf = mf.contract("ai,aj->ij", gt, g)
    fb = mf.contract("ia,aj->ij", g, gt)
    m = _blocks_to_matrix(tb, bb, bf, fb, g.copy())
    return TensorField(tb.chart, (0, 2), m)


# ----------------------------------------------------------------------
# gamma operators
# ----------------------------------------------------------------------

def gamma_curvature(tb: TangentBundleChart, R: TensorField, X: TensorField, Y: TensorField) -> TensorField:
    """gamma R(., X, Y): the vertical field (x,y) -> (R(y,X)Y)^v."""
    if R.valence != (1, 3):
        raise GeometryError("gamma_curvature needs the (1,3) curvature tensor")
    n = tb.n
    comps = mf.zeros(2 * n)
    comps[n:] = mf.contract("lkij,k,i,j->l", R, tb.fiber_vars, X, Y)
    return TensorField(tb.chart, (1, 0), comps)


def gamma_bracket_defect(tb: TangentBundleChart, R: TensorField, X: TensorField, Y: TensorField) -> TensorField:
    """gamma R(X, Y): the vertical field (x,y) -> (R(X,Y)y)^v."""
    n = tb.n
    comps = mf.zeros(2 * n)
    comps[n:] = mf.contract("lijk,i,j,k->l", R, X, Y, tb.fiber_vars)
    return TensorField(tb.chart, (1, 0), comps)


# ----------------------------------------------------------------------
# lifted connections
# ----------------------------------------------------------------------

def clift_connection(tb: TangentBundleChart) -> Connection:
    """Complete lift: nonzero coefficients
    C^k_{ij} = Gamma^k_{ij}, C^kbar_{ij} = y^l d_l Gamma^k_{ij},
    C^kbar_{i jbar} = C^kbar_{ibar j} = Gamma^k_{ij}."""
    n = tb.n
    G = tb.connection.coefficients
    H = mf.zeros((2 * n,) * 3)
    H[:n, :n, :n] = G
    for k, i, j in itertools.product(range(n), repeat=3):
        H[k + n, i, j] = tb.ydel(G[k, i, j])
    H[n:, :n, n:] = G
    H[n:, n:, :n] = G
    return Connection(tb.chart, H)


def hlift_connection(tb: TangentBundleChart, R: Optional[TensorField] = None) -> Connection:
    """Horizontal lift: defined by nabla^h on the horizontal/vertical frame
    (nabla^h_{X^v} . = 0, nabla^h_{X^h}Y^v = (nabla_X Y)^v,
    nabla^h_{X^h}Y^h = (nabla_X Y)^h), solved into coordinates."""
    n = tb.n
    G = tb.connection.coefficients
    dG = tb.base.partials(G)
    inner = mf.contract("lmj,kil+lij,kml->kijm", G, G, -G, G)  # [k, i, j, m]
    for k, i, j, m in itertools.product(range(n), repeat=4):
        inner[k, i, j, m] = E.add(dG[i, k, m, j], inner[k, i, j, m])
    H = mf.zeros((2 * n,) * 3)
    H[:n, :n, :n] = G
    H[n:, :n, :n] = mf.contract("m,kijm->kij", tb.fiber_vars, inner)
    H[n:, :n, n:] = G
    H[n:, n:, :n] = G
    return Connection(tb.chart, H)
