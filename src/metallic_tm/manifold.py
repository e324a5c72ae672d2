"""Tensor calculus on a coordinate chart.

All operations are dimension generic: a chart is just an ordered tuple of
variables with optional domain constraints and a metric, so the same code
serves the base manifold (n variables of base kind) and the tangent bundle
(2n variables, base plus fiber).  Components are ``exprs.Expr`` trees stored
in ``Array``s; index order is contravariant slots first, covariant slots
after, and every derivative-type operation puts the new covariant index
first.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter
from typing import Sequence

from . import exprs as E
from .exprs import Expr, Var


class GeometryError(ValueError):
    """Unsupported valence or inconsistent chart data."""


def ndindex(shape):
    """Every index tuple of ``shape`` in C order, the last index fastest."""
    return itertools.product(*map(range, shape))


def _offsets(shape, strides) -> list:
    """sum(i * s for i, s in zip(index, strides)) for every index of
    ``shape`` in C order: the flat positions a strided view reads."""
    out = [0]
    for d, s in zip(shape, strides):
        steps = [i * s for i in range(d)]
        out = [o + t for o in out for t in steps]
    return out


class Array:
    """A shape and a flat list of entries in C order.

    Indexing takes a full index tuple (an entry) or a leading part of one
    (a copy of that block, so iteration runs over the first axis).  The
    elementwise operations apply Python's operators to the entries, so
    ``-a``, ``a * c``, ``c * a`` and ``a - b`` build the ``exprs`` trees of
    ``-e``, ``e * c``, ``c * e`` and ``e - f`` entry by entry.  Sums go
    through ``add``.
    """

    __slots__ = ("shape", "flat", "_strides")

    def __init__(self, shape, flat) -> None:
        self.shape = tuple(shape)
        self.flat = list(flat)
        strides, size = [], 1
        for d in reversed(self.shape):
            strides.append(size)
            size *= d
        if size != len(self.flat):
            raise GeometryError(f"{len(self.flat)} entries do not fill shape {self.shape}")
        self._strides = tuple(reversed(strides))

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def _offset(self, idx) -> int:
        if len(idx) > self.ndim:
            raise IndexError(f"index {idx} has more axes than shape {self.shape}")
        off = 0
        for i, d, s in zip(idx, self.shape, self._strides):
            if not 0 <= i < d:
                raise IndexError(f"index {idx} is out of range for shape {self.shape}")
            off += i * s
        return off

    def __getitem__(self, idx):
        idx = idx if isinstance(idx, tuple) else (idx,)
        off = self._offset(idx)
        if len(idx) == self.ndim:
            return self.flat[off]
        size = self._strides[len(idx) - 1] if idx else len(self.flat)
        return Array(self.shape[len(idx):], self.flat[off:off + size])

    def __setitem__(self, idx, value) -> None:
        idx = idx if isinstance(idx, tuple) else (idx,)
        if len(idx) != self.ndim:
            raise IndexError(f"assignment needs a full index of shape {self.shape}")
        self.flat[self._offset(idx)] = value

    def __len__(self) -> int:
        return self.shape[0]

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def transpose(self, *axes) -> "Array":
        """Axis k of the result is axis ``axes[k]`` of this array; no axes
        reverses them."""
        axes = axes or tuple(reversed(range(self.ndim)))
        shape, flat = [self.shape[a] for a in axes], self.flat
        return Array(shape, [flat[o] for o in _offsets(shape, [self._strides[a] for a in axes])])

    @property
    def T(self) -> "Array":
        return self.transpose()

    def __neg__(self) -> "Array":
        return Array(self.shape, [-e for e in self.flat])

    def __mul__(self, c) -> "Array":
        return Array(self.shape, [e * c for e in self.flat])

    def __rmul__(self, c) -> "Array":
        return Array(self.shape, [c * e for e in self.flat])

    def __sub__(self, other) -> "Array":
        if not isinstance(other, Array) or other.shape != self.shape:
            raise GeometryError(f"cannot subtract from an array of shape {self.shape}")
        return Array(self.shape, [a - b for a, b in zip(self.flat, other.flat)])


def asarray(x) -> Array:
    """``x`` as an Array: an Array itself, a nested list or tuple stacked
    along new leading axes, anything else a 0-d array."""
    if isinstance(x, Array):
        return x
    if isinstance(x, (list, tuple)):
        subs = [asarray(v) for v in x]
        inner = subs[0].shape if subs else ()
        if any(s.shape != inner for s in subs):
            raise GeometryError("nested entries of different shapes")
        return Array((len(subs),) + inner, [e for s in subs for e in s.flat])
    return Array((), [x])


def zeros(shape) -> Array:
    shape = (shape,) if isinstance(shape, int) else tuple(shape)
    return Array(shape, [E.ZERO] * math.prod(shape))


def identity(n: int) -> Array:
    """The n x n identity of the integers 1 and 0."""
    return Array((n, n), [int(i == j) for i in range(n) for j in range(n)])


def outer(a, b) -> Array:
    """The entries a[i...] * b[j...] at [i..., j...]."""
    a, b = asarray(a), asarray(b)
    return Array(a.shape + b.shape, [x * y for x in a.flat for y in b.flat])


def expr_array(nested) -> Array:
    """A new Array of ``nested`` with every entry that is not an Expr made
    a constant."""
    arr = asarray(nested)
    return Array(arr.shape, [e if isinstance(e, Expr) else E.const(e) for e in arr.flat])


class ChartedManifold:
    """A single coordinate chart with a metric.

    ``variables`` fixes both the dimension and the differentiation order;
    ``domain`` is a list of expressions required to be strictly positive at
    admissible points.
    """

    def __init__(self, variables: Sequence[Var], metric=None, domain: Sequence[Expr] = ()) -> None:
        self.variables = tuple(variables)
        self.n = len(self.variables)
        if self.n < 2:
            raise GeometryError("chart dimension must be at least 2")
        self.domain = tuple(domain)
        if metric is None:
            self.metric = None
        else:
            self.metric = expr_array(metric)
            if self.metric.shape != (self.n, self.n):
                raise GeometryError(
                    f"metric shape {self.metric.shape} does not match dimension {self.n}"
                )

    def diff(self, e: Expr, i: int) -> Expr:
        return E.diff(e, self.variables[i])

    def partials(self, arr) -> Array:
        """d_i of every component of ``arr`` (an Expr or an array of them),
        the derivative index first."""
        arr = asarray(arr)
        return Array((self.n,) + arr.shape,
                     [self.diff(e, i) for i in range(self.n) for e in arr.flat])

    def coords(self, point) -> tuple:
        """The coordinates of ``point`` in the order of ``variables``."""
        return tuple(point[v] for v in self.variables)


class TensorField:
    """A (k,l) tensor field on a chart, components in index order
    (contravariant..., covariant...)."""

    def __init__(self, base: ChartedManifold, valence, components) -> None:
        self.base = base
        self.valence = (int(valence[0]), int(valence[1]))
        k, l = self.valence
        self.components = expr_array(components)
        want = (base.n,) * (k + l)
        if self.components.shape != want:
            raise GeometryError(
                f"components shape {self.components.shape} does not match "
                f"valence {self.valence} in dimension {base.n}"
            )

    def __repr__(self):
        return f"TensorField(valence={self.valence}, n={self.base.n})"


def contract(spec: str, *arrays):
    """Einsum-style sum of products of Expr arrays or tensor fields.

    ``contract("aij,i,j->a", N, X, Y)`` is out[a] = sum_ij N[a,i,j] X[i] Y[j].
    Products joined by ``+`` share one sum and are all added for a value of
    the summed indices before the next: with dY[j, i] = d_j Y^i,
    ``contract("j,ji+j,ji->i", X, dY, -Y, dX)`` is the Lie bracket [X, Y].
    Each product sums only over the letters it names (the einsum rule): a
    summed letter it does not name contributes the product once, at the
    letter's first value, so ``contract("i,ia+i,j,aij->a", U, dV, U, V, G)``
    is U^i d_i V^a + U^i V^j G^a_ij.  An output letter it does not name
    broadcasts it.  An empty output index list gives a single Expr.

    Only the nonzero support is visited.  Each operand's entries that are
    not the zero constant are listed once, and the factors of a product
    are joined on their shared index letters, so only index tuples at
    which every factor is nonzero make a term.  The terms are then ordered
    by output index, summed indices (in order of first appearance, the
    first outermost) and product number: the order of the nested loops the
    spec stands for, with the products of a sum alternating.  Each
    component is built by one ``E.add`` call over its terms in that order,
    so the trees are those of the dense loop that skips a product with a
    zero factor.
    """
    ops = [asarray(getattr(a, "components", a)) for a in arrays]
    shape, plan = _plan(spec, tuple(op.shape for op in ops))
    support: dict = {}  # id(operand) -> its nonzero entries as (index, Expr)
    found = []  # (full index tuple, product number, factors)
    operands = iter(ops)
    for pno, (steps, full_of, rests) in enumerate(plan):
        rows = [((), ())]  # (values of the bound letters, factors so far)
        for (repeats, key_of_entry, key_of_row, new_of_entry), op in zip(steps, operands):
            if id(op) not in support:
                support[id(op)] = [(idx, e) for idx, e in zip(ndindex(op.shape), op.flat)
                                   if e is not E.ZERO]
            table: dict = {}
            for idx, e in support[id(op)]:
                if repeats and any(idx[k] != idx[f] for k, f in repeats):
                    continue  # a repeated letter, as in "ii", takes one value
                table.setdefault(key_of_entry(idx), []).append((new_of_entry(idx), e))
            rows = [(vals + new, fs + (e,)) for vals, fs in rows
                    for new, e in table.get(key_of_row(vals), ())]
        found += [(full_of(vals + rest), pno, fs) for vals, fs in rows for rest in rests]
    found.sort(key=lambda t: t[:2])
    terms: dict = {}
    for full, _, fs in found:
        terms.setdefault(full[:len(shape)], []).append(E.mul(*fs))
    out = [E.add(*terms.get(oidx, ())) for oidx in ndindex(shape)]
    return Array(shape, out) if shape else out[0]


def _picker(at):
    """The function of a tuple t that gives tuple(t[k] for k in at)."""
    if len(at) > 1:
        return itemgetter(*at)
    return (lambda t: (t[at[0]],)) if at else (lambda t: ())


@lru_cache(maxsize=4096)
def _plan(spec: str, shapes: tuple):
    """The output shape and, per product, its join steps (the positions of a
    repeated letter; pickers of an entry's join key, a row's join key and an
    entry's new letters), a picker of its term order and the values of the
    output letters it does not name.  lru_cache keeps no exception."""
    lhs, out_idx = spec.split("->")
    products = [p.split(",") for p in lhs.split("+")]
    subs = [s for p in products for s in p]
    if len(shapes) != len(subs):
        raise GeometryError(f"contract {spec!r} needs {len(subs)} operands, got {len(shapes)}")
    dims: dict = {}
    for sub, shape in zip(subs, shapes):
        if len(sub) != len(shape):
            raise GeometryError(f"contract {spec!r}: operand {sub!r} has shape {shape}")
        for c, d in zip(sub, shape):
            if dims.setdefault(c, d) != d:
                raise GeometryError(f"contract {spec!r}: index {c!r} has two sizes")
    letters = list(out_idx) + [c for c in dict.fromkeys("".join(subs)) if c not in out_idx]
    plan = []
    for p in products:
        bound: list = []  # letters in the order the factors bind them
        steps = []
        for sub in p:
            first = {c: sub.index(c) for c in sub}
            repeats = tuple((k, first[c]) for k, c in enumerate(sub) if k != first[c])
            keys = [c for c in first if c in bound]
            new_at = [k for c, k in first.items() if c not in bound]
            steps.append((repeats, _picker([first[c] for c in keys]),
                          _picker([bound.index(c) for c in keys]), _picker(new_at)))
            bound += [sub[k] for k in new_at]
        free = [c for c in letters if c not in bound]
        rests = tuple(itertools.product(*(range(dims[c]) if c in out_idx else (0,)
                                         for c in free)))
        plan.append((tuple(steps), _picker([(bound + free).index(c) for c in letters]), rests))
    return tuple(dims[c] for c in out_idx), tuple(plan)


def add(*arrays):
    """Componentwise sum of Expr arrays of one shape (or of Exprs, or
    numbers): one ``E.add`` call per component, terms in argument order.
    Without an array argument the sum is a single Expr.  Shapes do not
    broadcast: ``contract("a+,a->a", u, s, v)`` adds a scalar s times v."""
    ops = [asarray(a) for a in arrays]
    shape = ops[0].shape
    if any(op.shape != shape for op in ops):
        raise GeometryError(f"cannot add shapes {', '.join(str(op.shape) for op in ops)}")
    out = [E.add(*terms) for terms in zip(*(op.flat for op in ops))]
    return Array(shape, out) if shape else out[0]


def rows(fields, n: int) -> Array:
    """Vector fields on an ``n``-dimensional chart stacked as the rows [x, a]
    of one array, a contract operand that stands for all of them."""
    return Array((len(fields), n), [e for F in fields for e in F.components.flat])


# ----------------------------------------------------------------------
# metric geometry
# ----------------------------------------------------------------------

def _minor(m: Array, i: int, j: int) -> Array:
    """``m`` without row i and column j."""
    n = m.shape[0]
    return Array((n - 1, n - 1), [m.flat[r * n + c] for r in range(n) if r != i
                                  for c in range(n) if c != j])


def _det(m: Array, memo: dict) -> Expr:
    """Laplace expansion along the first row.  ``memo`` maps the entries of each
    minor met to its determinant, so a dense m x m block costs about 2^m
    minors, not m! products."""
    n = m.shape[0]
    if n == 1:
        return m[0, 0]
    key = tuple(m.flat)
    if key not in memo:
        terms = []
        for j in range(n):
            entry = m[0, j]
            if entry is E.ZERO:
                continue
            term = E.mul(entry, _det(_minor(m, 0, j), memo))
            terms.append(term if j % 2 == 0 else E.mul(E.MINUS_ONE, term))
        memo[key] = E.add(*terms)
    return memo[key]


def inverse_matrix(m) -> Array:
    """Symbolic inverse via adjugate over determinant (Laplace expansion); the
    minors' determinants are kept for this call only."""
    arr = expr_array(m)
    n, memo = arr.shape[0], {}
    d = _det(arr, memo)
    inv = zeros((n, n))
    for i in range(n):
        for j in range(n):
            cof = _det(_minor(arr, j, i), memo) if n > 1 else E.ONE
            if (i + j) % 2 == 1:
                cof = E.mul(E.MINUS_ONE, cof)
            inv[i, j] = E.div(cof, d)
    return inv


def christoffel(M: ChartedManifold) -> TensorField:
    """The Levi-Civita connection of the chart metric.  A connection is the
    (1,2) field of its coefficients, [k, i, j] = Gamma^k_{ij}, meaning
    nabla_{d_i} d_j = Gamma^k_{ij} d_k."""
    if M.metric is None:
        raise GeometryError("chart has no metric")
    g = M.metric
    ginv = inverse_matrix(g)
    dg = M.partials(g)  # dg[k][i][j] = d_k g_ij
    # 2 Gamma_{lij}, stored [i][j][l]: d_i g_jl + d_j g_il - d_l g_ij
    first_kind = add(dg, dg.transpose(1, 0, 2), -dg.transpose(1, 2, 0))
    gamma = contract("kl,ijl->kij", ginv, first_kind) * E.const(Fraction(1, 2))
    return TensorField(M, (1, 2), gamma)


def curvature(C: TensorField) -> TensorField:
    """R[l][i][j][k] with R(d_i, d_j) d_k = R^l_{ijk} d_l."""
    M, G = C.base, C.components
    dG = M.partials(G)  # [i, l, j, k] = d_i Gamma^l_jk
    GG = contract("lim,mjk+ljm,mik->lijk", G, G, -G, G)
    R = add(dG.transpose(1, 0, 2, 3), -dG.transpose(1, 2, 0, 3), GG)
    return TensorField(M, (1, 3), R)


# ----------------------------------------------------------------------
# brackets and derivatives
# ----------------------------------------------------------------------

def covariant_derivative(C: TensorField, T: TensorField) -> TensorField:
    """nabla T as one contraction: d_i T, then per slot +Gamma^c_{im} T^..m..
    (contravariant) or -Gamma^m_{ic} T_..m.. (covariant), summed over m with
    the slots in order; the d_i T product does not name m, so it comes once,
    first.  The derivative index i goes first among the covariant slots."""
    M = C.base
    k, l = T.valence
    slots = "abcdefghjkl"[:k + l]  # every letter but i and m
    G, minus_G = C.components, -C.components if l else None
    specs, ops = ["i" + slots], [M.partials(T.components)]
    for s, c in enumerate(slots):
        specs.append((f"{c}im," if s < k else f"mi{c},") + slots[:s] + "m" + slots[s + 1:])
        ops += [G if s < k else minus_G, T.components]
    out = contract("+".join(specs) + "->" + slots[:k] + "i" + slots[k:], *ops)
    return TensorField(M, (k, l + 1), out)


def cov_rows(C: TensorField, U: Array, V: Array) -> Array:
    """[x, y, a] = (nabla_{U_x} V_y)^a = U^i d_i V^a + U^i V^j Gamma^a_ij for
    vector fields stacked as rows U[x, i] and V[y, j] (``rows``), every pair
    at once; ``cov_rows(C, rows([U], n), rows([V], n))[0, 0]`` is nabla_U V."""
    return contract("xi,iya+xi,yj,aij->xya", U, C.base.partials(V), U, V, C)


def lie_derivative(X: TensorField, T: TensorField) -> TensorField:
    """L_X T as one contraction: X^m d_m T, then per slot -T^..m.. d_m X^c
    (contravariant) or +T_..m.. d_c X^m (covariant), summed over m with the
    slots in order.  For a vector field T this is the bracket [X, T]."""
    if X.valence != (1, 0):
        raise GeometryError("lie_derivative direction must be a vector field")
    if X.base is not T.base:
        raise GeometryError("the fields live on different charts")
    M = X.base
    k, l = T.valence
    slots = "abcdefghijkl"[:k + l]  # every letter but m
    dX = M.partials(X.components)  # [c, m] = d_c X^m
    specs, ops = ["m,m" + slots], [X.components, M.partials(T.components)]
    minus_T = -T.components if k else None
    for s, c in enumerate(slots):
        moved = slots[:s] + "m" + slots[s + 1:]
        specs.append(f"{moved},m{c}" if s < k else f"{moved},{c}m")
        ops += [minus_T if s < k else T.components, dX]
    return TensorField(M, (k, l), contract("+".join(specs) + "->" + slots, *ops))


def exterior_derivative(T: TensorField) -> TensorField:
    """d on 1-forms with factor 1/2, the convention
    2 domega(X,Y) = X omega(Y) - Y omega(X) - omega([X,Y])."""
    if T.valence != (0, 1):
        raise GeometryError(f"exterior_derivative does not support valence {T.valence}")
    M = T.base
    dw = M.partials(T.components)
    return TensorField(M, (0, 2), (dw - dw.T) * E.const(Fraction(1, 2)))


def coboundary(M: ChartedManifold, P, U: Array, V: Array, W: Array) -> Array:
    """[x, y, z] = dP(U_x, V_y, W_z) for a (0,2) tensor P on ``M``, alternating
    or not, and vector fields stacked as rows (``rows``): one contraction of
    3 dP(X,Y,Z) = sum_cyc X P(Y,Z) - sum_cyc P([X,Y],Z) on the fields."""
    def d_pair(A, B):  # [m, p, q] = d_m P(A_p, B_q)
        return M.partials(contract("ab,pa,qb->pq", P, A, B))

    def minus_bracket(A, B):  # [p, q, a] = -[A_p, B_q]^a
        return contract("pm,mqa+qm,mpa->pqa", -A, M.partials(B), B, M.partials(A))

    out = contract("xm,myz+ym,mzx+zm,mxy+xya,ab,zb+yza,ab,xb+zxa,ab,yb->xyz",
                   U, d_pair(V, W), V, d_pair(W, U), W, d_pair(U, V),
                   minus_bracket(U, V), P, W, minus_bracket(V, W), P, U,
                   minus_bracket(W, U), P, V)
    return out * E.const(Fraction(1, 3))


def apply_11(F: TensorField, X: TensorField) -> TensorField:
    """F(X) for a (1,1) tensor and a vector field."""
    return TensorField(F.base, (1, 0), contract("am,m->a", F, X))


def nijenhuis(F: TensorField) -> TensorField:
    """N_F(d_i, d_j)^a = F^m_i d_m F^a_j - F^m_j d_m F^a_i
    - F^a_m (d_i F^m_j - d_j F^m_i), the coordinate form of
    [FX,FY] - F[FX,Y] - F[X,FY] + F^2[X,Y], as one contraction."""
    if F.valence != (1, 1):
        raise GeometryError("nijenhuis needs a (1,1) tensor")
    Fc, minus_F = F.components, -F.components
    dF = F.base.partials(Fc)  # [m, a, j] = d_m F^a_j
    out = contract("mi,maj+mj,mai+am,imj+am,jmi->aij",
                   Fc, dF, minus_F, dF, minus_F, dF, Fc, dF)
    return TensorField(F.base, (1, 2), out)
