"""Shared fixtures: the hyperbolic half-space chart and its lifts."""

from fractions import Fraction

import numpy as np
import pytest

from metallic_tm import bundle as bd
from metallic_tm import exprs as E
from metallic_tm import manifold as mf
from metallic_tm import metallic as ml
from metallic_tm import paracontact as pc
from metallic_tm.cli import bundled_manifest_path
from metallic_tm.verdicts import FLOAT_TOL, residual_verdict


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


def lifted_metric(tb, kind):
    """The lift of the base metric as a (0, 2) field."""
    return bd.lift(tb, kind, mf.TensorField(tb.base, (0, 2), tb.base.metric))


def decide(chart, points, residuals, tol=FLOAT_TOL):
    """The verdict on each residual array of ``residuals``, keyed by axiom
    id, as the harness decides it (``verdicts.residual_verdict``)."""
    return {aid: residual_verdict(aid, chart, points, tol, r)[0] for aid, r in residuals.items()}


def metallic_verdict(psi, label, points):
    """The verdict on Psi^2 - I, as the J- and F-metallic suites decide it."""
    return decide(psi.base, points, {label: ml.pq_residual(psi.components, 0, 1)})[label]


def eval_zero(arr, point):
    """True when every expression in arr evaluates to exactly zero."""
    return all(v == 0 for v in mf.evaluate_array(arr, point).flat)


# -- the T-level oracle ------------------------------------------------------
#
# J and F are T = (p/2) I - (a/2) Psi.  The program decides every claim on
# Psi over Q; the tests that hold a claim of T against it build T's values
# from Psi's at a point, over Q(sigma), and apply the defining formulas to
# them directly.

def values(arr, point):
    """The values of an Expr array at ``point`` as a numpy object array."""
    arr = mf.asarray(arr)
    return np.array(mf.evaluate_array(arr, point).flat, dtype=object).reshape(arr.shape)


def t_values(psi, prm, point):
    """T = (p/2) I - (a/2) Psi at ``point``, and its partials [m, a, b] =
    d_m T^a_b = -(a/2) d_m Psi^a_b (the constant part has none)."""
    n = psi.components.shape[0]
    t = Fraction(prm.p, 2) * np.identity(n, dtype=object) - prm.amp * values(psi.components, point)
    dt = -prm.amp * values(psi.base.partials(psi.components), point)
    return t, dt


def _nonzero(x):
    return [(idx, v) for idx, v in np.ndenumerate(x) if v != 0]


def nijenhuis_values(t, dt):
    """N_T^a_ij = T^m_i d_m T^a_j - T^m_j d_m T^a_i - T^a_m (d_i T^m_j - d_j T^m_i),
    summed over nonzero factors."""
    out = np.zeros(t.shape[:1] * 3, dtype=object)
    t_nz, dt_nz = _nonzero(t), _nonzero(dt)
    for (m, x), tv in t_nz:
        for (k, a, y), dv in dt_nz:
            if k == m:  # T^m_x d_m T^a_y
                out[a, x, y] += tv * dv
                out[a, y, x] -= tv * dv
    for (a, m), tv in t_nz:
        for (i, k, j), dv in dt_nz:
            if k == m:  # T^a_m d_i T^m_j
                out[a, i, j] -= tv * dv
                out[a, j, i] += tv * dv
    return out


def covariant_values(t, dt, gamma):
    """(nabla T)[a, i, b] = d_i T^a_b + Gamma^a_im T^m_b - Gamma^m_ib T^a_m,
    summed over nonzero factors."""
    out = dt.transpose(1, 0, 2).copy()
    t_nz = _nonzero(t)
    for (c, i, m), g in _nonzero(gamma):
        for (k, b), tv in t_nz:
            if k == m:  # Gamma^c_im T^m_b
                out[c, i, b] += g * tv
    for (m, i, b), g in _nonzero(gamma):
        for (a, k), tv in t_nz:
            if k == m:  # Gamma^m_ib T^a_m
                out[a, i, b] -= g * tv
    return out
