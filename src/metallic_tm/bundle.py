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
from functools import cached_property
from typing import Optional

from . import exprs as E
from . import manifold as mf
from .exprs import Var
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
        self.chart = ChartedManifold(base.variables + fiber, domain=base.domain)
        self.connection = connection

    @cached_property
    def gamma_tilde(self) -> mf.Array:
        """GT[l][i] = y^k Gamma^l_{ki}."""
        if self.connection is None:
            raise GeometryError("this lift needs a base connection")
        return mf.contract("k,lki->li", self.fiber_vars, self.connection.coefficients)

    def ydel(self, e):
        """The complete-lift derivation y^j d_j applied to a base expression,
        or componentwise to an array of them."""
        idx = "abcdefghi"[:mf.asarray(e).ndim]
        return mf.contract(f"j,j{idx}->{idx}", self.fiber_vars, self.base.partials(e))

    def point(self, base_coords, fiber_coords) -> dict:
        pt = dict(zip(self.base_vars, base_coords))
        pt.update(zip(self.fiber_vars, fiber_coords))
        return pt


def _blocks(tb: TangentBundleChart, **blocks) -> mf.Array:
    """The array with every axis of size 2n whose n-blocks are given by
    name, one letter per axis (b for the base half, f for the fiber half),
    such as ``fb=`` for the lower left block of a matrix; the blocks not
    named are zero."""
    n = tb.n
    rank = len(next(iter(blocks)))
    cells = [("", 0)]  # (block name, offset in the block) of each entry, in C order
    for _ in range(rank):
        cells = [(name + half, off * n + i) for name, off in cells for half in "bf" for i in range(n)]
    return mf.Array((2 * n,) * rank, [blocks[name].flat[off] if name in blocks else E.ZERO
                                      for name, off in cells])


# ----------------------------------------------------------------------
# lifts
# ----------------------------------------------------------------------

def lift(tb: TangentBundleChart, kind: str, T):
    """The vertical ("v"), complete ("c") or horizontal ("h") lift of a
    function (an Expr, lifted to an Expr) or of a (k, l) tensor field.

    An index of the lift carries when it is a contravariant fiber index or a
    covariant base index; let r = k + l.  The vertical lift holds T in the
    blocks where all r indices carry.  The complete and horizontal lifts
    hold T where r - 1 carry, and where all r carry: y^j d_j T (complete),
    or the connection terms of y^j nabla_j T taken slot by slot, the last
    slot first, GT^m_c T_..m.. for a covariant slot and -GT^a_m T^..m.. for
    a contravariant one (horizontal).  Every other block is zero.  This is
    the one rule of Yano & Ishihara, Tangent and Cotangent Bundles (1973).
    """
    k, l = T.valence if isinstance(T, TensorField) else (0, 0)
    comps = getattr(T, "components", T)
    slots = "abcdefghijkl"[:k + l]  # every letter but m
    if kind == "v":
        full = comps
    elif kind == "c":
        full = tb.ydel(comps)
    elif kind == "h":
        specs, ops = [], []
        for s in reversed(range(k + l)):
            moved = slots[:s] + "m" + slots[s + 1:]
            specs.append((f"{slots[s]}m," if s < k else f"m{slots[s]},") + moved)
            ops += [-tb.gamma_tilde if s < k else tb.gamma_tilde, comps]
        full = mf.contract("+".join(specs) + "->" + slots, *ops) if specs else E.ZERO
    else:
        raise GeometryError(f"unknown lift kind {kind!r}")
    if not slots:
        return full
    blocks = {}
    for halves in itertools.product("bf", repeat=k + l):
        carried = sum((h == "f") == (s < k) for s, h in enumerate(halves))
        if carried == k + l:
            blocks["".join(halves)] = full
        elif carried == k + l - 1 and kind != "v":
            blocks["".join(halves)] = comps
    return TensorField(tb.chart, (k, l), _blocks(tb, **blocks))


def lifted_rows(tb: TangentBundleChart, kind: str, fields) -> mf.Array:
    """The lifts of base vector fields as rows [x, A]."""
    return mf.rows([lift(tb, kind, X) for X in fields], 2 * tb.n)


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

def sasaki_metric(tb: TangentBundleChart) -> TensorField:
    """G = [[g + GT^T g GT, GT^T g], [g GT, g]]."""
    g = tb.base.metric
    gt = tb.gamma_tilde
    bb = mf.add(g, mf.contract("ai,ab,bj->ij", gt, g, gt))
    bf = mf.contract("ai,aj->ij", gt, g)
    fb = mf.contract("ia,aj->ij", g, gt)
    return TensorField(tb.chart, (0, 2), _blocks(tb, bb=bb, bf=bf, fb=fb, ff=g))


# ----------------------------------------------------------------------
# gamma operators
# ----------------------------------------------------------------------

def gamma_curvature(tb: TangentBundleChart, R: TensorField, X: TensorField, Y: TensorField) -> TensorField:
    """gamma R(., X, Y): the vertical field (x,y) -> (R(y,X)Y)^v."""
    if R.valence != (1, 3):
        raise GeometryError("gamma_curvature needs the (1,3) curvature tensor")
    comps = _blocks(tb, f=mf.contract("lkij,k,i,j->l", R, tb.fiber_vars, X, Y))
    return TensorField(tb.chart, (1, 0), comps)


def gamma_bracket_defect(tb: TangentBundleChart, R: TensorField, X: TensorField, Y: TensorField) -> TensorField:
    """gamma R(X, Y): the vertical field (x,y) -> (R(X,Y)y)^v."""
    comps = _blocks(tb, f=mf.contract("lijk,i,j,k->l", R, X, Y, tb.fiber_vars))
    return TensorField(tb.chart, (1, 0), comps)


# ----------------------------------------------------------------------
# lifted connections
# ----------------------------------------------------------------------

def clift_connection(tb: TangentBundleChart) -> Connection:
    """Complete lift: nonzero coefficients
    C^k_{ij} = Gamma^k_{ij}, C^kbar_{ij} = y^l d_l Gamma^k_{ij},
    C^kbar_{i jbar} = C^kbar_{ibar j} = Gamma^k_{ij}."""
    G = tb.connection.coefficients
    return Connection(tb.chart, _blocks(tb, bbb=G, fbb=tb.ydel(G), fbf=G, ffb=G))


def hlift_connection(tb: TangentBundleChart) -> Connection:
    """Horizontal lift: defined by nabla^h on the horizontal/vertical frame
    (nabla^h_{X^v} . = 0, nabla^h_{X^h}Y^v = (nabla_X Y)^v,
    nabla^h_{X^h}Y^h = (nabla_X Y)^h), solved into coordinates."""
    G = tb.connection.coefficients
    dG = tb.base.partials(G)
    # [k, i, j, m]: d_i Gamma^k_{mj} plus the Gamma Gamma terms
    inner = mf.add(dG.transpose(1, 0, 3, 2), mf.contract("lmj,kil+lij,kml->kijm", G, G, -G, G))
    lower = mf.contract("m,kijm->kij", tb.fiber_vars, inner)
    return Connection(tb.chart, _blocks(tb, bbb=G, fbb=lower, fbf=G, ffb=G))
