"""Charts, connections, curvature and derivative operators on the base."""

import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from metallic_tm import bundle as bd
from metallic_tm import exprs as E
from metallic_tm import manifold as mf
from metallic_tm.exprs import Var

from conftest import eval_zero, evaluate_array


def test_christoffel_h3_values(h3, conn, base_points):
    """Known nonzero symbols of the hyperbolic half-space."""
    pt = base_points[0]  # x3 = 2
    x3 = Fraction(2)
    G = conn.components
    expected = {
        (2, 0, 0): 1 / x3,   # Gamma^3_11
        (0, 0, 2): -1 / x3,  # Gamma^1_13
        (2, 2, 2): -1 / x3,  # Gamma^3_33
        (1, 1, 2): -1 / x3,  # Gamma^2_23
        (2, 1, 1): 1 / x3,   # Gamma^3_22
    }
    for (k, i, j), want in expected.items():
        assert E.evaluate(G[k, i, j], pt) == want
        assert E.evaluate(G[k, j, i], pt) == want  # symmetry


def test_connection_is_torsion_free_and_metric(h3, conn, base_points):
    G = conn.components  # torsion-free: Gamma^k_ij = Gamma^k_ji
    assert eval_zero(G - G.transpose(0, 2, 1), base_points[0])
    gfield = mf.TensorField(h3, (0, 2), h3.metric)
    dg = mf.covariant_derivative(conn, gfield)
    for pt in base_points:
        assert eval_zero(dg.components, pt)


def test_h3_constant_curvature_minus_one(h3, conn, base_points):
    """R^l_ijk = -(g_jk d^l_i - g_ik d^l_j) for curvature -1."""
    R = mf.curvature(conn).components
    g = h3.metric
    n = h3.n
    for pt in base_points:
        for l, i, j, k in itertools.product(range(n), repeat=4):
            want = E.add(
                E.mul(E.const(-1), g[j, k], E.ONE if l == i else E.ZERO),
                E.mul(g[i, k], E.ONE if l == j else E.ZERO),
            )
            got = E.evaluate(R[l, i, j, k], pt)
            assert got == E.evaluate(want, pt), (l, i, j, k)


def test_inverse_metric(h3, base_points):
    ginv = mf.inverse_matrix(h3.metric)
    pt = base_points[1]  # x3 = 3
    assert E.evaluate(ginv[0, 0], pt) == 9
    n = h3.n
    for i, j in itertools.product(range(n), repeat=2):
        s = E.ZERO
        for m in range(n):
            s = E.add(s, E.mul(ginv[i, m], h3.metric[m, j]))
        want = 1 if i == j else 0
        assert E.evaluate(s, pt) == want


def test_lie_bracket_coordinate_fields(h3, base_points):
    x1 = Var("base", 1)
    X = mf.TensorField(h3, (1, 0), [E.ONE, E.ZERO, E.ZERO])
    Y = mf.TensorField(h3, (1, 0), [E.ZERO, x1, E.ZERO])
    B = mf.lie_derivative(X, Y)  # the bracket [X, Y]
    pt = base_points[0]
    assert E.evaluate(B.components[1], pt) == 1  # [d1, x1 d2] = d2
    assert E.evaluate(B.components[0], pt) == 0
    # antisymmetry
    B2 = mf.lie_derivative(Y, X)
    assert E.evaluate(E.add(B.components[1], B2.components[1]), pt) == 0


def test_exterior_derivative_one_form_half_convention(h3, base_points):
    """(dw)_ij = (1/2)(d_i w_j - d_j w_i)."""
    x2 = Var("base", 2)
    w = mf.TensorField(h3, (0, 1), [x2, E.ZERO, E.ZERO])  # x2 dx1
    dw = mf.exterior_derivative(w).components
    pt = base_points[0]
    assert E.evaluate(dw[1, 0], pt) == Fraction(1, 2)
    assert E.evaluate(dw[0, 1], pt) == Fraction(-1, 2)


def test_exterior_derivative_closed_form(h3, base_points):
    x3 = Var("base", 3)
    w = mf.TensorField(h3, (0, 1), [E.ZERO, E.ZERO, E.div(E.ONE, x3)])
    dw = mf.exterior_derivative(w)
    for pt in base_points:
        assert eval_zero(dw.components, pt)


def test_coboundary_third_convention(h3, base_points):
    """On the coordinate fields, 3 dPhi(d_i, d_j, d_k) = d_i Phi_jk + d_j Phi_ki
    + d_k Phi_ij, with no antisymmetry gate: symmetric inputs are accepted."""
    x1 = Var("base", 1)
    comps = mf.zeros((3, 3))
    comps[1, 2] = x1
    comps[2, 1] = x1  # symmetric
    coords = mf.expr_array(mf.identity(3))  # the rows d1, d2, d3
    d = mf.coboundary(h3, comps, coords, coords, coords)
    pt = base_points[0]
    assert E.evaluate(d[0, 1, 2], pt) == Fraction(1, 3)


def test_coboundary_on_noncoordinate_fields(h3, base_points):
    """Phi_23 = Phi_32 = x1 and Phi_13 = Phi_31 = x3 on X = x2 d1, Y = d2,
    Z = d3, where [X, Y] = -d1 and the other brackets vanish:
    3 dPhi(X,Y,Z) = X(x1) + Y(x2 x3) + Z(0) - Phi(-d1, d3) = x2 + 2 x3.
    Contracting the array (1/3) cyclic d_i Phi_jk with X, Y, Z instead
    gives x2/3."""
    x1, x2, x3 = h3.variables
    comps = mf.zeros((3, 3))
    comps[1, 2] = comps[2, 1] = x1
    comps[0, 2] = comps[2, 0] = x3
    X = mf.expr_array([[x2, 0, 0]])
    Y, Z = mf.expr_array([[0, 1, 0]]), mf.expr_array([[0, 0, 1]])
    d = mf.coboundary(h3, comps, X, Y, Z)
    for pt in base_points:
        assert E.evaluate(d[0, 0, 0], pt) == (pt[x2] + 2 * pt[x3]) / 3


def test_exterior_derivative_rejects_valence_0_2(h3):
    """d is defined on 1-forms only; dPhi of a (0,2) tensor is evaluated on
    fields by mf.coboundary, antisymmetric or not."""
    comps = mf.zeros((3, 3))
    comps[0, 1] = E.ONE
    comps[1, 0] = E.mul(E.const(-1), E.ONE)  # antisymmetric, still rejected
    Phi = mf.TensorField(h3, (0, 2), comps)
    with pytest.raises(mf.GeometryError, match="valence"):
        mf.exterior_derivative(Phi)


def test_lie_derivative_of_metric_along_killing_field(h3, base_points):
    """L_X g on the (0,2) half-space metric: d1 and the dilation x^i d_i are
    Killing fields, the second with nonconstant components, so the dX terms
    are exercised; L_{d3} g = d3 (x3^-2) delta = -(2/x3) g."""
    x1, x2, x3 = h3.variables
    g = mf.TensorField(h3, (0, 2), h3.metric)
    d1 = mf.TensorField(h3, (1, 0), [E.ONE, E.ZERO, E.ZERO])
    dilation = mf.TensorField(h3, (1, 0), [x1, x2, x3])
    d3 = mf.TensorField(h3, (1, 0), [E.ZERO, E.ZERO, E.ONE])
    for X in (d1, dilation):
        lg = mf.lie_derivative(X, g)
        assert lg.valence == (0, 2)
        for pt in base_points:
            assert eval_zero(lg.components, pt)
    lg = mf.lie_derivative(d3, g).components
    for pt in base_points:
        want = evaluate_array(h3.metric * E.div(E.const(-2), x3), pt)
        assert evaluate_array(lg, pt).flat == want.flat
        assert want[0, 0] != 0


def test_nijenhuis_of_identity_vanishes(h3, base_points):
    ident = mf.TensorField(h3, (1, 1), [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    N = mf.nijenhuis(ident)
    for pt in base_points:
        assert eval_zero(N.components, pt)


def test_metric_required_for_christoffel():
    xs = [Var("base", i) for i in range(1, 3)]
    M = mf.ChartedManifold(xs, None)
    with pytest.raises(mf.GeometryError):
        mf.christoffel(M)


def _numpy_values(arr, pt):
    """The values of an Expr array at ``pt`` as a numpy array, for einsum."""
    return np.array(evaluate_array(arr, pt).flat, dtype=object).reshape(arr.shape)


@pytest.mark.parametrize("spec, shapes", [
    ("ij,jk->ik", [(3, 3), (3, 3)]),
    ("lijk,i,j,k->l", [(3, 3, 3, 3), (3,), (3,), (3,)]),
    ("ijk,i,j,k->", [(3, 3, 3), (3,), (3,), (3,)]),
    ("j,ji+j,ji->i", [(3,), (3, 3), (3,), (3, 3)]),
])
def test_contract_matches_einsum(spec, shapes, base_points):
    """Evaluated at a rational point, contract agrees exactly with numpy's
    einsum over the evaluated arrays (one einsum per product of a sum)."""
    xs = [Var("base", i) for i in range(1, 4)]
    pt = base_points[1]
    arrays = []
    for s, shape in enumerate(shapes):
        arr = mf.zeros(shape)
        for k, idx in enumerate(np.ndindex(shape)):
            if (k + s) % 3:  # leave some zero entries for the skip path
                arr[idx] = E.add(E.mul(E.const(k - 4), xs[k % 3]), E.const(Fraction(1, s + 2)))
        arrays.append(arr)
    got = mf.contract(spec, *arrays)
    lhs, out = spec.split("->")
    values = iter([_numpy_values(a, pt) for a in arrays])
    want = sum(np.einsum(f"{p}->{out}", *[next(values) for _ in p.split(",")])
               for p in lhs.split("+"))
    if isinstance(got, mf.Array):
        assert np.array_equal(_numpy_values(got, pt), want)
    else:
        assert E.evaluate(got, pt) == want


def test_contract_keeps_loop_term_order():
    """Summed indices run outermost-first and the products of a sum
    alternate, so contract builds the tree the nested accumulator loop
    builds; float evaluation sums the terms in that order."""
    x1, x2, x3 = (Var("base", i) for i in range(1, 4))
    y1 = Var("fiber", 1)
    P = mf.asarray([E.pow_(x1, j + 1) for j in range(3)])
    Q = mf.asarray([[E.pow_(x2, 3 * j + i + 1) for i in range(3)] for j in range(3)])
    R = mf.asarray([E.pow_(x3, j + 1) for j in range(3)])
    S = mf.asarray([[E.pow_(y1, 3 * j + i + 1) for i in range(3)] for j in range(3)])
    got = mf.contract("j,ji+j,ji->i", P, Q, R, S)
    for i in range(3):
        s = E.ZERO
        for j in range(3):
            s = E.add(s, E.mul(P[j], Q[j, i]), E.mul(R[j], S[j, i]))
        assert got[i] == s
    T = mf.contract("ia,jb,ab->ij", Q, S, Q)
    for i, j in itertools.product(range(3), repeat=2):
        s = E.ZERO
        for a, b in itertools.product(range(3), repeat=2):
            s = E.add(s, E.mul(Q[i, a], S[j, b], Q[a, b]))
        assert T[i, j] == s


def _dense_contract(spec, *arrays):
    """The reference contract visits the dense index box: the nested loops
    the spec stands for, the products of a sum alternating, a product with
    a zero factor skipped, one add per output component.  A product is
    emitted only where every summed letter it does not name is at 0, so it
    is taken once (the einsum rule)."""
    lhs, out_idx = spec.split("->")
    products = [p.split(",") for p in lhs.split("+")]
    subs = [s for p in products for s in p]
    dims = {c: d for sub, a in zip(subs, arrays) for c, d in zip(sub, a.shape)}
    summed = [c for c in dict.fromkeys("".join(subs)) if c not in out_idx]
    out = {}
    for oidx in itertools.product(*(range(dims[c]) for c in out_idx)):
        terms = []
        for sidx in itertools.product(*(range(dims[c]) for c in summed)):
            val = dict(zip(list(out_idx) + summed, oidx + sidx))
            ops = iter(arrays)
            for p in products:
                fs = [next(ops)[tuple(val[c] for c in sub)] for sub in p]
                unnamed = [c for c in summed if c not in "".join(p)]
                if any(val[c] for c in unnamed):
                    continue
                if not any(f is E.ZERO for f in fs):
                    terms.append(E.mul(*fs))
        out[oidx] = E.add(*terms)
    return out


def _blocks(shape, allowed, tag):
    """An Expr array on a 2n = 4 dimensional chart, nonzero only on the
    blocks in ``allowed``: tuples of 0 (first half of an axis) or 1."""
    xs = [Var("base", 1), Var("base", 2), Var("fiber", 1), Var("fiber", 2)]
    arr = mf.zeros(shape)
    for k, idx in enumerate(np.ndindex(shape)):
        if tuple(2 * i // d for i, d in zip(idx, shape)) in allowed:
            arr[idx] = E.add(E.mul(E.const(tag + k), E.pow_(xs[k % 4], k % 3 + 1)),
                             xs[(k + tag) % 4])
    return arr


LOWER = {(0, 0), (1, 0), (1, 1)}  # the block pattern of a complete lift
DIAG = {(0, 0), (1, 1)}


@pytest.mark.parametrize("spec, operands", [
    # block-sparse 2n-shaped operands
    ("ab,bc->ac", [(4, 4, LOWER), (4, 4, DIAG)]),
    ("kl,ijl->kij", [(4, 4, DIAG), (4, 4, 4, {(0, 0, 0), (1, 0, 1), (0, 1, 1), (1, 1, 0)})]),
    ("lijk,i,j,k->l", [(4, 4, 4, 4, {(0, 0, 0, 0), (1, 0, 1, 1), (1, 1, 0, 0)}),
                       (4, {(0,)}), (4, {(0,), (1,)}), (4, {(1,)})]),
    # the products of a sum have different supports
    ("j,ji+j,ji->i", [(4, {(0,), (1,)}), (4, 4, LOWER), (4, {(1,)}), (4, 4, DIAG)]),
    ("lim,mjk+ljm,mik->lijk", [(4, 4, 4, {(0, 0, 1), (1, 1, 1)}),
                               (4, 4, 4, {(0, 0, 0), (1, 0, 0)}),
                               (4, 4, 4, {(1, 0, 1), (1, 1, 1)}),
                               (4, 4, 4, {(1, 0, 0), (1, 1, 0)})]),
    # a product that does not name j is taken once, at j = 0
    ("i,ia+i,j,aij->a", [(4, {(0,), (1,)}), (4, 4, LOWER), (4, {(0,), (1,)}), (4, {(1,)}),
                         (4, 4, 4, {(0, 0, 1), (1, 1, 0)})]),
    # an all-zero product inside a sum
    ("j,ji+j,ji->i", [(4, {(0,), (1,)}), (4, 4, LOWER), (4, set()), (4, 4, DIAG)]),
    # a 0-d output and a repeated letter
    ("ab,a,b->", [(4, 4, LOWER), (4, {(0,), (1,)}), (4, {(1,)})]),
    ("aa,ab->b", [(4, 4, LOWER), (4, 4, DIAG)]),
])
def test_contract_over_the_support_builds_the_dense_loop_trees(spec, operands):
    """Enumerating only the nonzero support builds, component by component,
    the same tree as the dense nested loop, printed form included."""
    arrays = [_blocks(op[:-1], op[-1], tag) for tag, op in enumerate(operands)]
    got = mf.contract(spec, *arrays)
    want = _dense_contract(spec, *arrays)
    if not spec.split("->")[1]:
        got = np.array(got, dtype=object)
    assert set(np.ndindex(got.shape)) == set(want)
    for idx, e in want.items():
        assert got[idx] == e
        assert E.to_str(got[idx]) == E.to_str(e)
    assert any(e != E.ZERO for e in want.values())


@pytest.mark.parametrize("shapes, message", [
    ([(3, 3)], "needs 2 operands, got 1"),
    ([(3, 3), (2,)], "index 'j' has two sizes"),
    ([(3,), (3,)], "operand 'ij' has shape (3,)"),
])
def test_malformed_contract_raises_on_every_call(shapes, message):
    """The plan of a spec is kept per operand shapes, but no error is: a
    malformed call raises GeometryError each time, and the spec still
    serves operands that fit it."""
    ops = [_sparse(shape, k) for k, shape in enumerate(shapes)]
    for _ in range(2):
        with pytest.raises(mf.GeometryError, match=re.escape(message)):
            mf.contract("ij,j->i", *ops)
    fit = [_sparse((3, 3), 0), _sparse((3,), 1)]
    assert list(mf.contract("ij,j->i", *fit)) == [_dense_contract("ij,j->i", *fit)[(i,)]
                                                  for i in range(3)]


def _sparse(shape, tag):
    """An Expr array of ``shape`` with a zero at every third entry."""
    xs = [Var("base", 1), Var("base", 2), Var("fiber", 1), Var("fiber", 2)]
    return mf.Array(shape, [E.ZERO if (k + tag) % 3 == 0 else
                            E.add(E.mul(E.const(tag + k), xs[k % 4]), xs[(k + tag) % 4])
                            for k in range(math.prod(shape))])


@pytest.mark.parametrize("spec, shape_sets", [
    ("ij,jk->ik", [[(2, 3), (3, 4)], [(4, 2), (2, 1)]]),
    ("i,ia+i,j,aij->a", [[(2,), (2, 3), (2,), (2,), (3, 2, 2)],
                         [(3,), (3, 2), (3,), (1,), (2, 3, 1)]]),
])
def test_one_spec_on_operands_of_two_shapes(spec, shape_sets):
    """A spec used on operands of two shapes, alternately, builds for each
    the trees of the dense nested loop: each shape gets its own plan."""
    for shapes in shape_sets + shape_sets:
        arrays = [_sparse(shape, tag) for tag, shape in enumerate(shapes)]
        got, want = mf.contract(spec, *arrays), _dense_contract(spec, *arrays)
        assert got.shape == tuple(max(idx) + 1 for idx in zip(*want))
        assert all(got[idx] == e for idx, e in want.items())
        assert any(e != E.ZERO for e in want.values())


def test_contract_with_zero_operand_gives_zero():
    xs = mf.asarray([Var("base", i) for i in range(1, 4)])
    out = mf.contract("ij,j->i", mf.zeros((3, 3)), xs)
    assert all(c is E.ZERO for c in out)
    assert mf.contract("i,i->", xs, mf.zeros(3)) is E.ZERO


def _loop_covariant_derivative(C, T):
    """The nested loops covariant_derivative was before it became one
    contraction: d_i T, then per m the Gamma term of each slot in order."""
    n, G = C.base.n, C.components
    k, l = T.valence
    comp = T.components
    dcomp = C.base.partials(comp)
    out = mf.zeros((n,) * (k + l + 1))
    for idx in itertools.product(range(n), repeat=k + l):
        for i in range(n):
            terms = [dcomp[(i,) + idx]]
            for m in range(n):
                for s, c in enumerate(idx):
                    moved = comp[idx[:s] + (m,) + idx[s + 1:]]
                    gamma = G[c, i, m] if s < k else G[m, i, c]
                    if gamma is E.ZERO or moved is E.ZERO:
                        continue
                    terms.append(E.mul(gamma, moved) if s < k
                                 else E.mul(E.const(-1), gamma, moved))
            out[idx[:k] + (i,) + idx[k:]] = E.add(*terms)
    return out


def _loop_cov_vec(C, U, V):
    """The nested loop nabla_U V was, before it became a contraction: per i,
    U^i d_i V^a, then U^i V^j Gamma^a_ij."""
    n, G = C.base.n, C.components
    Uc, Vc = U.components, V.components
    dV = C.base.partials(Vc)
    out = mf.zeros(n)
    for a in range(n):
        terms = []
        for i in range(n):
            products = [(Uc[i], dV[i, a])] + [(Uc[i], Vc[j], G[a, i, j]) for j in range(n)]
            terms += (E.mul(*fs) for fs in products if not any(f is E.ZERO for f in fs))
        out[a] = E.add(*terms)
    return out


def _same_trees(got, want):
    assert got.shape == want.shape
    for idx in np.ndindex(want.shape):
        assert got[idx] == want[idx], idx
        assert E.to_str(got[idx]) == E.to_str(want[idx]), idx
    assert any(e != E.ZERO for e in want.flat)


@pytest.mark.parametrize("valence", [(1, 0), (0, 1), (1, 1), (0, 2), (1, 2)])
def test_covariant_derivative_builds_the_loop_trees(tb, valence):
    """On the complete-lift connection, one contraction gives the trees of
    the nested loops, term order and printed form included."""
    cc = bd.clift_connection(tb)
    xs = tb.chart.variables
    comps = mf.zeros((6,) * sum(valence))
    for k, idx in enumerate(np.ndindex(comps.shape)):
        if k % 3 != 1:  # leave zeros for the skip
            comps[idx] = E.add(E.mul(E.const(k - 7), E.pow_(xs[k % 6], k % 3 + 1)), xs[(k + 2) % 6])
    T = mf.TensorField(tb.chart, valence, comps)
    _same_trees(mf.covariant_derivative(cc, T).components, _loop_covariant_derivative(cc, T))


def test_cov_rows_builds_the_loop_trees(tb, conn):
    """On single rows, cov_rows gives the trees of the nested loop, on the
    base chart and under nabla^c and nabla^h on TM."""
    x1, x2, x3 = tb.base.variables
    X = mf.TensorField(tb.base, (1, 0), [x2, E.ZERO, E.mul(x1, x3)])
    Y = mf.TensorField(tb.base, (1, 0), [E.ZERO, E.mul(x1, x3), E.pow_(x2, 2)])
    cc, hc = bd.clift_connection(tb), bd.hlift_connection(tb)
    lifts = {k: (bd.lift(tb, k, X), bd.lift(tb, k, Y)) for k in "vch"}
    got = mf.cov_rows(conn, mf.rows([X], 3), mf.rows([Y], 3))
    assert got.shape == (1, 1, 3)
    _same_trees(got[0, 0], _loop_cov_vec(conn, X, Y))
    for C, (a, b) in ((cc, "cc"), (cc, "vc"), (cc, "cv"), (hc, "hh"), (hc, "hv"), (hc, "cc")):
        U, V = lifts[a][0], lifts[b][1]
        _same_trees(mf.cov_rows(C, mf.rows([U], 6), mf.rows([V], 6))[0, 0],
                    _loop_cov_vec(C, U, V))
    # every pair of fields stacked as rows at once
    us, vs = [X, Y], [Y, X, Y]
    got = mf.cov_rows(conn, mf.rows(us, 3), mf.rows(vs, 3))
    assert got.shape == (2, 3, 3) and mf.rows([], 3).shape == (0, 3)
    for x, y in np.ndindex(2, 3):
        _same_trees(got[x, y], _loop_cov_vec(conn, us[x], vs[y]))


def test_only_vector_fields_stack_as_rows(h3, structure):
    """A row of cov_rows is a vector field: ``rows`` refuses a (1,1) field
    as it refuses any field whose components are not one row."""
    with pytest.raises(mf.GeometryError, match="do not fill shape"):
        mf.rows([structure.phi], 3)
    with pytest.raises(mf.GeometryError, match="do not fill shape"):
        mf.rows([structure.xi, structure.phi], 3)
    assert mf.rows([structure.xi], 3).shape == (1, 3)


def test_lie_derivative_needs_both_fields_on_one_chart(h3, tb):
    """A vector field and a field of any valence on another chart, of the
    same dimension or not, are a GeometryError, not a contraction."""
    x1, x2, x3 = h3.variables
    X = mf.TensorField(h3, (1, 0), [x2, E.ZERO, x1])
    twin = mf.ChartedManifold(h3.variables, h3.metric, h3.domain)
    for T in (mf.TensorField(twin, (1, 0), [x3, x1, E.ZERO]),
              mf.TensorField(twin, (0, 2), h3.metric),
              bd.lift(tb, "v", X)):
        with pytest.raises(mf.GeometryError, match="different charts"):
            mf.lie_derivative(X, T)
        with pytest.raises(mf.GeometryError, match="different charts"):
            mf.lie_derivative(mf.TensorField(T.base, (1, 0), mf.zeros(T.base.n)), X)


def test_a_connection_is_a_1_2_field(h3, structure):
    """A connection is the (1,2) field of its coefficients: an array of
    another shape is no such field, and a (1,1) field given as a connection
    is a GeometryError in every operation that takes one."""
    with pytest.raises(mf.GeometryError, match="does not match valence"):
        mf.TensorField(h3, (1, 2), mf.zeros((3, 3)))
    with pytest.raises(mf.GeometryError, match="does not match valence"):
        mf.TensorField(h3, (1, 2), mf.zeros((3, 3, 4)))
    phi, xi = structure.phi, structure.xi
    X = mf.rows([xi], 3)
    for call in (lambda: mf.curvature(phi), lambda: mf.covariant_derivative(phi, xi),
                 lambda: mf.covariant_derivative(phi, phi), lambda: mf.cov_rows(phi, X, X)):
        with pytest.raises(mf.GeometryError, match="operand"):
            call()


def test_array_indexes_and_transposes_as_numpy_does():
    """Entries, leading blocks, rows, transposes and sums of an Array agree
    with numpy's on the same C-order data; an index out of range and a sum
    or difference of two shapes are errors, not wrapped reads or
    broadcasts."""
    ref = np.arange(24).reshape(2, 3, 4)
    a = mf.Array((2, 3, 4), range(24))
    assert (a.shape, a.ndim, len(a)) == (ref.shape, ref.ndim, len(ref))
    for idx in np.ndindex(ref.shape):
        assert a[idx] == ref[idx]
    assert a[1].flat == ref[1].ravel().tolist() and a[1, 2].flat == ref[1, 2].tolist()
    assert [row.flat for row in a] == [row.ravel().tolist() for row in ref]
    for axes in ((1, 0, 2), (2, 0, 1), (1, 2, 0), ()):
        got, want = a.transpose(*axes), ref.transpose(*axes)
        assert got.shape == want.shape and got.flat == want.ravel().tolist()
    assert a.T.flat == ref.T.ravel().tolist()
    got = mf.add(a, mf.Array((2, 3, 4), [1000] * 24))
    assert got.shape == (2, 3, 4) and all(
        got[idx] == E.const(int(ref[idx]) + 1000) for idx in np.ndindex(2, 3, 4))
    for bad in ((2, 0, 0), (0, 3, 0), (0, 0, 4), (0, 0, 0, 0), (-1, 0, 0)):
        with pytest.raises(IndexError):
            a[bad]
    with pytest.raises(mf.GeometryError):
        a - a.transpose(0, 2, 1)
    for other in (mf.Array((2,), [0, 0]), mf.Array((3, 1), [100, 200, 300]), 1000):
        with pytest.raises(mf.GeometryError):
            mf.add(a, other)


def test_add_sums_one_shape_componentwise():
    """mf.add is one E.add per component over its arguments in order, all
    of one shape; a sum of single Exprs is one Expr.  Arguments of two
    shapes are an error, even where numpy would broadcast them: a scalar
    times an array is a contract."""
    x1, x2, x3 = (Var("base", i) for i in range(1, 4))
    xs = [x1, x2, x3]
    A = mf.asarray([[E.mul(E.const(i - j), xs[i], xs[j]) for j in range(3)] for i in range(3)])
    b = mf.asarray([E.pow_(x, 2) for x in xs])
    got = mf.add(A, -A.T, mf.identity(3) * -2)
    assert got.shape == (3, 3)
    for i, j in itertools.product(range(3), repeat=2):
        want = E.add(A[i, j], E.mul(E.const(-1), A[j, i]), -2 if i == j else 0)
        assert got[i, j] == want and E.to_str(got[i, j]) == E.to_str(want)
    assert mf.add(x1, x2) == E.add(x1, x2)
    for args in ((A, b), (b, A), (A, x1), (x1, b), (b, mf.asarray([b]))):
        with pytest.raises(mf.GeometryError, match="cannot add shapes"):
            mf.add(*args)
    got = mf.contract("a+,a->a", b, x1, mf.asarray(xs))
    assert list(got) == [E.add(b[a], E.mul(x1, xs[a])) for a in range(3)]


def _fields_on(chart, shape, seed):
    """A polynomial Expr array on ``chart``, every third entry zero."""
    xs = chart.variables
    out = mf.zeros(shape)
    for k, idx in enumerate(np.ndindex(shape)):
        if (k + seed) % 3 != 1:
            out[idx] = E.add(E.mul(E.const(k - 5 + seed), E.pow_(xs[k % len(xs)], k % 3 + 1)),
                             xs[(k + seed) % len(xs)])
    return out


def _spec_lie_bracket(X, Y):
    """The bracket spec [X, Y] had before it became lie_derivative's."""
    M = X.base
    return mf.contract("j,ji+j,ji->i", X, M.partials(Y.components),
                       -Y.components, M.partials(X.components))


def _branch_lie_derivative(X, T):
    """The per-valence branches lie_derivative had before it became one
    generated spec."""
    M = X.base
    Xc, dX = X.components, M.partials(X.components)
    if T.valence == (1, 0):
        return _spec_lie_bracket(X, T)
    if T.valence == (0, 1):
        eta = T.components
        return mf.contract("m,mj+m,jm->j", Xc, M.partials(eta), eta, dX)
    F = T.components
    return mf.contract("m,mkj+mj,mk+km,jm->kj", Xc, M.partials(F), -F, dX, F, dX)


@pytest.mark.parametrize("valence", [(1, 0), (0, 1), (1, 1)])
def test_lie_derivative_builds_the_branch_trees(tb, valence):
    """The generated spec gives the trees of the old per-valence specs,
    term order and printed form included."""
    M = tb.chart
    X = mf.TensorField(M, (1, 0), _fields_on(M, (6,), 1))
    T = mf.TensorField(M, valence, _fields_on(M, (6,) * sum(valence), 2))
    want = _branch_lie_derivative(X, T)
    dX = M.partials(X.components)
    assert any(dX[c, m] != dX[m, c] for c, m in np.ndindex(dX.shape))  # d_c X^m is not symmetric
    _same_trees(mf.lie_derivative(X, T).components, want)


def _loop_nijenhuis(F):
    """The column-pair loop nijenhuis was: three brackets against the
    coordinate fields per pair (i < j), the other half by antisymmetry."""
    M, n = F.base, F.base.n
    basis = [mf.TensorField(M, (1, 0), [E.ONE if a == i else E.ZERO for a in range(n)])
             for i in range(n)]
    cols = [mf.TensorField(M, (1, 0), [F.components[a, j] for a in range(n)]) for j in range(n)]

    def bracket(X, Y):
        return mf.TensorField(M, (1, 0), _spec_lie_bracket(X, Y))

    out = mf.zeros((n, n, n))
    for i in range(n):
        for j in range(i + 1, n):
            b1 = bracket(cols[i], cols[j])
            b2 = mf.apply_11(F, bracket(cols[i], basis[j]))
            b3 = mf.apply_11(F, bracket(basis[i], cols[j]))
            for a in range(n):
                val = E.add(b1.components[a], E.mul(E.const(-1), b2.components[a]),
                            E.mul(E.const(-1), b3.components[a]))
                out[a, i, j] = val
                out[a, j, i] = E.mul(E.const(-1), val)
    return out


def _same_nijenhuis(F, points):
    got = mf.nijenhuis(F).components
    want = _loop_nijenhuis(F)
    n = F.base.n
    assert all(got[a, i, i] is E.ZERO for a in range(n) for i in range(n))
    for pt in points:
        assert evaluate_array(got, pt).flat == evaluate_array(want, pt).flat
    return want


def test_nijenhuis_matches_the_column_pair_loop(structure, tb, points, base_points):
    """In exact value at sample points: phi, Psi_J and Psi_F for both sign
    pairs, and a dense polynomial (1,1) field whose N is nonzero."""
    from metallic_tm import metallic as ml

    _same_nijenhuis(structure.phi, base_points)
    for lift, eps in itertools.product("ch", (1, -1)):
        _same_nijenhuis(ml.build_psi(structure, tb, lift, eps, eps), points)
    dense = mf.TensorField(tb.base, (1, 1), _fields_on(tb.base, (3, 3), 1))
    want = _same_nijenhuis(dense, base_points)
    assert any(E.evaluate(e, base_points[0]) != 0 for e in want.flat)
