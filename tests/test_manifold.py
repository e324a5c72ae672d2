"""Charts, connections, curvature and derivative operators on the base."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from metallic_tm import exprs as E
from metallic_tm import manifold as mf
from metallic_tm.exprs import Var

from conftest import eval_zero


def test_christoffel_h3_values(h3, conn, base_points):
    """Known nonzero symbols of the hyperbolic half-space."""
    pt = base_points[0]  # x3 = 2
    x3 = Fraction(2)
    G = conn.coefficients
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
    assert eval_zero(mf.torsion(conn).components, base_points[0])
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
    B = mf.lie_bracket(X, Y)
    pt = base_points[0]
    assert E.evaluate(B.components[1], pt) == 1  # [d1, x1 d2] = d2
    assert E.evaluate(B.components[0], pt) == 0
    # antisymmetry
    B2 = mf.lie_bracket(Y, X)
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


def test_coboundary_2form_third_convention(h3, base_points):
    """(dPhi)_ijk = (1/3)(d_i Phi_jk + d_j Phi_ki + d_k Phi_ij), no
    antisymmetry gate: symmetric inputs are accepted."""
    x1 = Var("base", 1)
    comps = mf.zeros((3, 3))
    comps[1, 2] = x1
    comps[2, 1] = x1  # symmetric
    Phi = mf.TensorField(h3, (0, 2), comps)
    d = mf.coboundary_2form(Phi).components
    pt = base_points[0]
    assert E.evaluate(d[0, 1, 2], pt) == Fraction(1, 3)


def test_exterior_derivative_gates_on_antisymmetry(h3):
    comps = mf.zeros((3, 3))
    comps[0, 1] = E.ONE
    comps[1, 0] = E.ONE  # symmetric: not a 2-form
    Phi = mf.TensorField(h3, (0, 2), comps)
    with pytest.raises(mf.GeometryError):
        mf.exterior_derivative(Phi)


def test_lie_derivative_of_metric_along_killing_field(h3, base_points):
    """d1 is a Killing field of the half-space metric."""
    X = mf.TensorField(h3, (1, 0), [E.ONE, E.ZERO, E.ZERO])
    gfield = mf.TensorField(h3, (0, 2), h3.metric)
    # L_X g via covariant derivative identity: components d_1 g_ij here
    lg = mf.zeros((3, 3))
    for i, j in itertools.product(range(3), repeat=2):
        lg[i, j] = E.diff(h3.metric[i, j], h3.variables[0])
    for pt in base_points:
        assert eval_zero(lg, pt)


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
    values = iter([mf.evaluate_array(a, pt) for a in arrays])
    want = sum(np.einsum(f"{p}->{out}", *[next(values) for _ in p.split(",")])
               for p in lhs.split("+"))
    if isinstance(got, np.ndarray):
        assert np.array_equal(mf.evaluate_array(got, pt), want)
    else:
        assert E.evaluate(got, pt) == want


def test_contract_keeps_loop_term_order():
    """Summed indices run outermost-first and the products of a sum
    alternate, so contract builds the tree the nested accumulator loop
    builds; float evaluation sums the terms in that order."""
    x1, x2, x3 = (Var("base", i) for i in range(1, 4))
    y1 = Var("fiber", 1)
    P = np.array([E.pow_(x1, j + 1) for j in range(3)], dtype=object)
    Q = np.array([[E.pow_(x2, 3 * j + i + 1) for i in range(3)] for j in range(3)], dtype=object)
    R = np.array([E.pow_(x3, j + 1) for j in range(3)], dtype=object)
    S = np.array([[E.pow_(y1, 3 * j + i + 1) for i in range(3)] for j in range(3)], dtype=object)
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


def test_contract_with_zero_operand_gives_zero():
    xs = np.array([Var("base", i) for i in range(1, 4)], dtype=object)
    out = mf.contract("ij,j->i", mf.zeros((3, 3)), xs)
    assert all(c is E.ZERO for c in out)
    assert mf.contract("i,i->", xs, mf.zeros(3)) is E.ZERO
