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
        for v in base.variables:
            if v.kind != "base":
                raise GeometryError("bundle base chart must use base-kind variables")
        self.fiber_vars = tuple(Var("fiber", v.index) for v in base.variables)
        self.chart = ChartedManifold(base.variables + self.fiber_vars, domain=base.domain)
        self.connection = connection

    def _connection(self) -> Connection:
        if self.connection is None:
            raise GeometryError("this lift needs a base connection")
        return self.connection

    @cached_property
    def gamma_tilde(self) -> mf.Array:
        """GT[l][i] = y^k Gamma^l_{ki}."""
        return mf.contract("k,lki->li", self.fiber_vars, self._connection().coefficients)

    @cached_property
    def gamma_complete(self) -> mf.Array:
        """The complete lift (``lift``) of Gamma taken as a (1,2) array."""
        gamma = TensorField(self.base, (1, 2), self._connection().coefficients)
        return lift(self, "c", gamma).components

    @cached_property
    def curvature(self) -> TensorField:
        """The curvature of the base connection."""
        return mf.curvature(self._connection())

    def ydel(self, e):
        """The complete-lift derivation y^j d_j applied to a base expression,
        or componentwise to an array of them."""
        idx = "abcdefghi"[:mf.asarray(e).ndim]
        return mf.contract(f"j,j{idx}->{idx}", self.fiber_vars, self.base.partials(e))


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
# gamma operators
# ----------------------------------------------------------------------

def gamma_curvature(tb: TangentBundleChart, X: TensorField, Y: TensorField) -> TensorField:
    """gamma R(., X, Y): the vertical field (x,y) -> (R(y,X)Y)^v."""
    comps = _blocks(tb, f=mf.contract("lkij,k,i,j->l", tb.curvature, tb.fiber_vars, X, Y))
    return TensorField(tb.chart, (1, 0), comps)


def gamma_bracket_defect(tb: TangentBundleChart, X: TensorField, Y: TensorField) -> TensorField:
    """gamma R(X, Y): the vertical field (x,y) -> (R(X,Y)y)^v."""
    comps = _blocks(tb, f=mf.contract("lijk,i,j,k->l", tb.curvature, X, Y, tb.fiber_vars))
    return TensorField(tb.chart, (1, 0), comps)


# ----------------------------------------------------------------------
# derived objects: G, nabla^c and nabla^h
# ----------------------------------------------------------------------

def sasaki_metric(tb: TangentBundleChart) -> TensorField:
    """G = B^T diag(g, g) B with B = [[I, 0], [GT, I]]: the rows of B are the
    adapted coframe (dx^i, dy^i + GT^i_k dx^k), dual to the frame
    (d_i^h, d_i^v), so G is g on both halves of that frame."""
    g, one = tb.base.metric, mf.expr_array(mf.identity(tb.n))
    B = _blocks(tb, bb=one, fb=tb.gamma_tilde, ff=one)
    G = mf.contract("ai,ab,bj->ij", B, _blocks(tb, bb=g, ff=g), B)
    return TensorField(tb.chart, (0, 2), G)


def clift_connection(tb: TangentBundleChart) -> Connection:
    """nabla^c, the complete lift of the base connection: its coefficients
    are those of Gamma lifted as a (1,2) array."""
    return Connection(tb.chart, tb.gamma_complete)


def hlift_connection(tb: TangentBundleChart) -> Connection:
    """nabla^h: nabla^c plus K[k,i,j] = y^m R^k_{imj} = (R(d_i, y) d_j)^k in its
    fiber-base-base block, R the base curvature.  Then nabla^h_{X^v} = 0,
    nabla^h_{X^h} Y^v = (nabla_X Y)^v and nabla^h_{X^h} Y^h = (nabla_X Y)^h."""
    C = tb.gamma_complete
    K = _blocks(tb, fbb=mf.contract("m,kimj->kij", tb.fiber_vars, tb.curvature))
    # the other blocks keep the nodes of nabla^c: adding 0 can rewrite a tree
    return Connection(tb.chart, mf.Array(C.shape, [c if k is E.ZERO else E.add(c, k)
                                                   for c, k in zip(C.flat, K.flat)]))
