"""Tensor calculus on a coordinate chart.

All operations are dimension generic: a chart is just an ordered tuple of
variables with optional domain constraints and a metric, so the same code
serves the base manifold (n variables of base kind) and the tangent bundle
(2n variables, base plus fiber).  Components are ``exprs.Expr`` trees stored
in numpy object arrays; index order is contravariant slots first, covariant
slots after, and every derivative-type operation puts the new covariant
index first.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import exprs as E
from .exprs import Expr, Var


class GeometryError(ValueError):
    """Unsupported valence or inconsistent chart data."""


def zeros(shape) -> np.ndarray:
    out = np.empty(shape, dtype=object)
    out[...] = E.ZERO
    return out


def expr_array(nested) -> np.ndarray:
    arr = np.array(nested, dtype=object)
    flat = arr.reshape(-1)
    for i, e in enumerate(flat):
        if not isinstance(e, Expr):
            flat[i] = E.const(e)
    return flat.reshape(arr.shape)


def evaluate_array(arr: np.ndarray, point, mode: str = "exact") -> np.ndarray:
    out = np.empty(arr.shape, dtype=object)
    it = np.nditer(arr, flags=["multi_index", "refs_ok"])
    for x in it:
        out[it.multi_index] = E.evaluate(x.item(), point, mode)
    return out


class ChartedManifold:
    """A single coordinate chart with a metric.

    ``variables`` fixes both the dimension and the differentiation order;
    ``domain`` is a list of expressions required to be strictly positive at
    admissible points.
    """

    def __init__(
        self,
        variables: Sequence[Var],
        metric=None,
        domain: Sequence[Expr] = (),
        coord_names: Optional[Sequence[str]] = None,
    ) -> None:
        self.variables = tuple(variables)
        self.n = len(self.variables)
        if self.n < 2:
            raise GeometryError("chart dimension must be at least 2")
        self.domain = tuple(domain)
        self.coord_names = tuple(coord_names) if coord_names else tuple(
            v.name for v in self.variables
        )
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

    def partials(self, arr) -> np.ndarray:
        """d_i of every component of ``arr`` (an Expr or an array of them),
        the derivative index first."""
        arr = np.asarray(arr, dtype=object)
        out = np.empty((self.n,) + arr.shape, dtype=object)
        for i in range(self.n):
            for idx in np.ndindex(arr.shape):
                out[(i,) + idx] = self.diff(arr[idx], i)
        return out

    def point(self, coords) -> dict:
        if len(coords) != self.n:
            raise GeometryError(f"expected {self.n} coordinates, got {len(coords)}")
        return dict(zip(self.variables, coords))


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


class Connection:
    """Linear connection, coefficients Gamma[k][i][j] meaning
    nabla_{d_i} d_j = Gamma^k_{ij} d_k."""

    def __init__(self, base: ChartedManifold, coefficients) -> None:
        self.base = base
        self.coefficients = expr_array(coefficients)
        n = base.n
        if self.coefficients.shape != (n, n, n):
            raise GeometryError("connection coefficients must have shape (n,n,n)")


def contract(spec: str, *arrays):
    """Einsum-style sum of products of Expr arrays or tensor fields.

    ``contract("aij,i,j->a", N, X, Y)`` is out[a] = sum_ij N[a,i,j] X[i] Y[j].
    Products joined by ``+`` share one sum and are all added for a value of
    the summed indices before the next: with dY[j, i] = d_j Y^i,
    ``contract("j,ji+j,ji->i", X, dY, -Y, dX)`` is the Lie bracket [X, Y].
    Summed indices run in order of first appearance, the first outermost,
    so the terms come in the order of the nested loops the spec stands
    for.  A product with a zero factor is skipped, and each component is
    built by one ``E.add`` call.  An empty output index list gives a single
    Expr.
    """
    lhs, out_idx = spec.split("->")
    products = [p.split(",") for p in lhs.split("+")]
    subs = [s for p in products for s in p]
    ops = [np.asarray(getattr(a, "components", a), dtype=object) for a in arrays]
    if len(ops) != len(subs):
        raise GeometryError(f"contract {spec!r} needs {len(subs)} operands, got {len(ops)}")
    dims: dict = {}
    for sub, op in zip(subs, ops):
        if len(sub) != op.ndim:
            raise GeometryError(f"contract {spec!r}: operand {sub!r} has shape {op.shape}")
        for c, d in zip(sub, op.shape):
            if dims.setdefault(c, d) != d:
                raise GeometryError(f"contract {spec!r}: index {c!r} has two sizes")
    summed = [c for c in dict.fromkeys("".join(subs)) if c not in out_idx]
    slot = {c: k for k, c in enumerate(list(out_idx) + summed)}
    pairs = iter(zip(ops, subs))
    plan = [[(op, [slot[c] for c in sub]) for op, sub in itertools.islice(pairs, len(p))]
            for p in products]
    out = np.empty(tuple(dims[c] for c in out_idx), dtype=object)
    for oidx in np.ndindex(out.shape):
        terms = []
        for sidx in itertools.product(*(range(dims[c]) for c in summed)):
            full = oidx + sidx
            for factors in plan:
                fs = [op[tuple(full[k] for k in pos)] for op, pos in factors]
                if not any(E._is_const(f, 0) for f in fs):
                    terms.append(E.mul(*fs))
        out[oidx] = E.add(*terms)
    return out[()] if not out_idx else out


# ----------------------------------------------------------------------
# metric geometry
# ----------------------------------------------------------------------

def _det(m: np.ndarray) -> Expr:
    n = m.shape[0]
    if n == 1:
        return m[0, 0]
    terms = []
    rest = m[1:, :]
    for j in range(n):
        entry = m[0, j]
        if E._is_const(entry, 0):
            continue
        minor = np.delete(rest, j, axis=1)
        term = E.mul(entry, _det(minor))
        terms.append(term if j % 2 == 0 else E.mul(E.const(-1), term))
    return E.add(*terms)


def det(m) -> Expr:
    """Determinant of a square Expr matrix by Laplace expansion."""
    arr = expr_array(m)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise GeometryError("determinant needs a square matrix")
    return _det(arr)


def inverse_matrix(m) -> np.ndarray:
    """Symbolic inverse via adjugate over determinant."""
    arr = expr_array(m)
    n = arr.shape[0]
    d = det(arr)
    inv = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            minor = np.delete(np.delete(arr, j, axis=0), i, axis=1)
            cof = _det(minor) if n > 1 else E.ONE
            if (i + j) % 2 == 1:
                cof = E.mul(E.const(-1), cof)
            inv[i, j] = E.div(cof, d)
    return inv


def christoffel(M: ChartedManifold) -> Connection:
    """Levi-Civita coefficients of the chart metric."""
    if M.metric is None:
        raise GeometryError("chart has no metric")
    n = M.n
    g = M.metric
    ginv = inverse_matrix(g)
    dg = M.partials(g)  # dg[k][i][j] = d_k g_ij
    first_kind = zeros((n, n, n))  # 2 Gamma_{lij}, stored [i][j][l]
    for i, j, l in itertools.product(range(n), repeat=3):
        first_kind[i, j, l] = E.add(dg[i, j, l], dg[j, i, l], E.mul(E.const(-1), dg[l, i, j]))
    gamma = contract("kl,ijl->kij", ginv, first_kind)
    half = E.const(Fraction(1, 2))
    for idx in np.ndindex(gamma.shape):
        gamma[idx] = E.mul(half, gamma[idx])
    return Connection(M, gamma)


def curvature(C: Connection) -> TensorField:
    """R[l][i][j][k] with R(d_i, d_j) d_k = R^l_{ijk} d_l."""
    M = C.base
    n = M.n
    G = C.coefficients
    dG = M.partials(G)
    GG = contract("lim,mjk+ljm,mik->lijk", G, G, -G, G)
    R = zeros((n, n, n, n))
    for l, i, j, k in itertools.product(range(n), repeat=4):
        R[l, i, j, k] = E.add(dG[i, l, j, k], E.mul(E.const(-1), dG[j, l, i, k]), GG[l, i, j, k])
    return TensorField(M, (1, 3), R)


def torsion(C: Connection) -> TensorField:
    G = C.coefficients
    n = C.base.n
    T = zeros((n, n, n))
    for k, i, j in itertools.product(range(n), repeat=3):
        T[k, i, j] = E.add(G[k, i, j], E.mul(E.const(-1), G[k, j, i]))
    return TensorField(C.base, (1, 2), T)


# ----------------------------------------------------------------------
# brackets and derivatives
# ----------------------------------------------------------------------

def lie_bracket(X: TensorField, Y: TensorField) -> TensorField:
    if X.valence != (1, 0) or Y.valence != (1, 0):
        raise GeometryError("lie_bracket needs two vector fields")
    if X.base is not Y.base:
        raise GeometryError("vector fields live on different charts")
    M = X.base
    out = contract("j,ji+j,ji->i", X, M.partials(Y.components),
                   -Y.components, M.partials(X.components))
    return TensorField(M, (1, 0), out)


def covariant_derivative(C: Connection, T: TensorField) -> TensorField:
    """nabla T, one Gamma term per slot: +Gamma^a_{im} T^..m.. for each
    contravariant slot, -Gamma^m_{ij} T_..m.. for each covariant slot, summed
    over m with the slots in order.  The derivative index i goes first
    among the covariant slots."""
    M = C.base
    n = M.n
    G = C.coefficients
    k, l = T.valence
    comp = T.components
    dcomp = M.partials(comp)
    out = zeros((n,) * (k + l + 1))
    for idx in itertools.product(range(n), repeat=k + l):
        for i in range(n):
            terms = [dcomp[(i,) + idx]]
            for m in range(n):
                for s, c in enumerate(idx):
                    moved = comp[idx[:s] + (m,) + idx[s + 1:]]
                    if s < k:
                        terms.append(E.mul(G[c, i, m], moved))
                    else:
                        terms.append(E.mul(E.const(-1), G[m, i, c], moved))
            out[idx[:k] + (i,) + idx[k:]] = E.add(*terms)
    return TensorField(M, (k, l + 1), out)


def cov_vec(C: Connection, U: TensorField, V: TensorField) -> TensorField:
    """Directional derivative nabla_U V of a vector field."""
    if U.valence != (1, 0) or V.valence != (1, 0):
        raise GeometryError("cov_vec needs two vector fields")
    M = C.base
    n = M.n
    G = C.coefficients
    Uc, Vc = U.components, V.components
    dV = M.partials(Vc)
    out = zeros(n)
    for a in range(n):
        terms = []
        for i in range(n):
            terms.append(E.mul(Uc[i], dV[i, a]))
            terms += (E.mul(Uc[i], Vc[j], G[a, i, j]) for j in range(n))
        out[a] = E.add(*terms)
    return TensorField(M, (1, 0), out)


def lie_derivative(X: TensorField, T: TensorField) -> TensorField:
    if X.valence != (1, 0):
        raise GeometryError("lie_derivative direction must be a vector field")
    M = X.base
    Xc, dX = X.components, M.partials(X.components)
    if T.valence == (0, 1):
        eta = T.components
        out = contract("m,mj+m,jm->j", Xc, M.partials(eta), eta, dX)
        return TensorField(M, (0, 1), out)
    if T.valence == (1, 1):
        F = T.components
        out = contract("m,mkj+mj,mk+km,jm->kj", Xc, M.partials(F), -F, dX, F, dX)
        return TensorField(M, (1, 1), out)
    raise GeometryError(f"lie_derivative does not support valence {T.valence}")


def _structurally_antisymmetric(comp: np.ndarray) -> bool:
    n = comp.shape[0]
    for i in range(n):
        if not E._is_const(comp[i, i], 0):
            return False
        for j in range(i + 1, n):
            a, b = comp[i, j], comp[j, i]
            if E._is_const(a, 0) and E._is_const(b, 0):
                continue
            if E.mul(E.const(-1), a) != b:
                return False
    return True


def exterior_derivative(T: TensorField) -> TensorField:
    """d on 1-forms (factor 1/2) and antisymmetric 2-forms (factor 1/3).

    The normalizations match the coboundary convention
    3 dPhi(X,Y,Z) = sum X Phi(Y,Z) - sum Phi([X,Y],Z) and its degree-one
    analogue 2 domega(X,Y) = X omega(Y) - Y omega(X) - omega([X,Y]).
    """
    M = T.base
    n = M.n
    if T.valence == (0, 1):
        dw = M.partials(T.components)
        half = E.const(Fraction(1, 2))
        out = zeros((n, n))
        for i, j in itertools.product(range(n), repeat=2):
            out[i, j] = E.mul(half, E.add(dw[i, j], E.mul(E.const(-1), dw[j, i])))
        return TensorField(M, (0, 2), out)
    if T.valence == (0, 2):
        if not _structurally_antisymmetric(T.components):
            raise GeometryError("exterior_derivative needs an antisymmetric 2-form")
        return coboundary_2form(T)
    raise GeometryError(f"exterior_derivative does not support valence {T.valence}")


def coboundary_2form(T: TensorField) -> TensorField:
    """The 1/3-coboundary formula applied componentwise, with no
    antisymmetry gate.  Used where a fundamental form is fed in as built."""
    if T.valence != (0, 2):
        raise GeometryError("coboundary_2form needs a (0,2) tensor")
    M = T.base
    n = M.n
    dP = M.partials(T.components)
    third = E.const(Fraction(1, 3))
    out = zeros((n, n, n))
    for i, j, k in itertools.product(range(n), repeat=3):
        out[i, j, k] = E.mul(third, E.add(dP[i, j, k], dP[j, k, i], dP[k, i, j]))
    return TensorField(M, (0, 3), out)


def column_field(F: TensorField, j: int) -> TensorField:
    """The vector field F(d_j) from a (1,1) tensor."""
    return TensorField(F.base, (1, 0), F.components[:, j])


def apply_11(F: TensorField, X: TensorField) -> TensorField:
    """F(X) for a (1,1) tensor and a vector field."""
    return TensorField(F.base, (1, 0), contract("am,m->a", F, X))


def nijenhuis(F: TensorField) -> TensorField:
    """N_F(X,Y) = [FX,FY] - F[FX,Y] - F[X,FY] + F^2[X,Y] on coordinate pairs."""
    if F.valence != (1, 1):
        raise GeometryError("nijenhuis needs a (1,1) tensor")
    M = F.base
    n = M.n
    basis = [
        TensorField(M, (1, 0), [E.ONE if a == i else E.ZERO for a in range(n)])
        for i in range(n)
    ]
    cols = [column_field(F, j) for j in range(n)]
    out = zeros((n, n, n))
    for i in range(n):
        for j in range(i + 1, n):
            b1 = lie_bracket(cols[i], cols[j])
            b2 = apply_11(F, lie_bracket(cols[i], basis[j]))
            b3 = apply_11(F, lie_bracket(basis[i], cols[j]))
            # [d_i, d_j] = 0, so the F^2 term drops
            for a in range(n):
                val = E.add(
                    b1.components[a],
                    E.mul(E.const(-1), b2.components[a]),
                    E.mul(E.const(-1), b3.components[a]),
                )
                out[a, i, j] = val
                out[a, j, i] = E.mul(E.const(-1), val)
    return TensorField(M, (1, 2), out)
