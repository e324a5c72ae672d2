"""Shared fixtures: the hyperbolic half-space chart and its lifts."""

from fractions import Fraction

import pytest

from metallic_tm import bundle as bd
from metallic_tm import exprs as E
from metallic_tm import manifold as mf
from metallic_tm import paracontact as pc
from metallic_tm.cli import bundled_manifest_path


@pytest.fixture(scope="session")
def h3():
    """Upper half-space with the hyperbolic metric delta_ij / x3^2."""
    xs = [E.Var("base", i) for i in range(1, 4)]
    inv2 = E.div(E.ONE, E.pow_(xs[2], 2))
    g = [[inv2 if i == j else E.ZERO for j in range(3)] for i in range(3)]
    return mf.ChartedManifold(xs, g, domain=[xs[2]])


@pytest.fixture(scope="session")
def structure(h3):
    """The P-Sasakian triple phi = diag(-1,-1,0), eta = dx3/x3, xi = x3 d3."""
    x3 = h3.variables[2]
    phi = mf.TensorField(h3, (1, 1), [[-1, 0, 0], [0, -1, 0], [0, 0, 0]])
    eta = mf.TensorField(h3, (0, 1), [E.ZERO, E.ZERO, E.div(E.ONE, x3)])
    xi = mf.TensorField(h3, (1, 0), [E.ZERO, E.ZERO, x3])
    return pc.ParacontactStructure(h3, phi, eta, xi)


@pytest.fixture(scope="session")
def conn(h3):
    return mf.christoffel(h3)


@pytest.fixture(scope="session")
def tb(h3, conn):
    return bd.TangentBundleChart(h3, conn)


@pytest.fixture(scope="session")
def points(tb):
    """Two exact rational bundle points in the admissible region."""
    F = Fraction
    return [
        tb.point([F(1), F(1), F(2)], [F(1), F(-2), F(3)]),
        tb.point([F(2), F(-1), F(3)], [F(1, 2), F(5), F(-1)]),
    ]


@pytest.fixture(scope="session")
def base_points(h3):
    F = Fraction
    return [
        dict(zip(h3.variables, [F(1), F(1), F(2)])),
        dict(zip(h3.variables, [F(2), F(-1), F(3)])),
    ]


@pytest.fixture(scope="session")
def manifest_path():
    return bundled_manifest_path()


def eval_zero(arr, point):
    """True when every expression in arr evaluates to exactly zero."""
    return all(v == 0 for v in mf.evaluate_array(arr, point).flat)
