"""Shared fixtures: the hyperbolic half-space chart and its lifts."""

import itertools
import math
import pathlib
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest

from metallic_tm import bundle as bd
from metallic_tm import exprs as E
from metallic_tm import harness
from metallic_tm import manifold as mf
from metallic_tm import metallic as ml
from metallic_tm import paracontact as pc
from metallic_tm.cli import bundled_manifest_path
from metallic_tm.scalars import MetallicScalar
from metallic_tm.verdicts import residual_verdict


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


def from_entries(shape, entries) -> mf.Array:
    """The Array of ``shape`` with ``entries[idx]`` at each index given in
    the dict and the zero constant at every other."""
    return mf.Array(shape, [entries.get(idx, E.ZERO) for idx in mf.ndindex(shape)])


def nabla(C, U, V):
    """nabla_U V for vector fields U and V under the connection C, as a
    vector field: the one-row case of ``manifold.cov_rows``."""
    n = U.base.n
    return mf.TensorField(U.base, (1, 0), mf.cov_rows(C, mf.rows([U], n), mf.rows([V], n))[0, 0])


def bracket(U, V):
    """[U, V] for vector fields U and V on one chart, as a vector field: the
    one-row case of ``manifold.brackets``."""
    n = U.base.n
    return mf.TensorField(U.base, (1, 0), mf.brackets(U.base, mf.rows([U], n), mf.rows([V], n))[0, 0])


def loop_covariant_derivative(C, T):
    """nabla T of a (k, l) field T under the connection C by nested loops, the
    general-valence oracle: d_i T, then per m the Gamma term of each slot in
    order, +Gamma^c_im T^..m.. for a contravariant slot and
    -Gamma^m_ic T_..m.. for a covariant one.  The derivative index i goes
    first among the covariant slots."""
    n, G = C.base.n, C.components
    k, l = T.valence
    comp = T.components
    dcomp = C.base.partials(comp)
    out = {}
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
    return from_entries((n,) * (k + l + 1), out)


def chart_point(chart, coords) -> dict:
    """The point of ``chart`` with ``coords``, in the order of its variables."""
    assert len(coords) == chart.n, coords
    return dict(zip(chart.variables, coords))


def bundle_point(tb, base_coords, fiber_coords) -> dict:
    """The point of the bundle chart ``tb`` with these base and fiber coordinates."""
    return chart_point(tb.chart, [*base_coords, *fiber_coords])


def evaluate_array(arr, point) -> mf.Array:
    """Every component of ``arr`` at ``point``, through one value cache."""
    arr = mf.asarray(arr)
    return mf.Array(arr.shape, list(E.Values([point]).each(arr.flat)))


@pytest.fixture(scope="session")
def points(tb):
    """Two exact rational bundle points in the admissible region."""
    F = Fraction
    return [
        bundle_point(tb, [F(1), F(1), F(2)], [F(1), F(-2), F(3)]),
        bundle_point(tb, [F(2), F(-1), F(3)], [F(1, 2), F(5), F(-1)]),
    ]


@pytest.fixture(scope="session")
def base_points(h3):
    F = Fraction
    return [
        dict(zip(h3.variables, [F(1), F(1), F(2)])),
        dict(zip(h3.variables, [F(2), F(-1), F(3)])),
    ]


TWIN = pathlib.Path(__file__).parent / "data" / "hyperbolic-h3-twin.json"


class Chart(NamedTuple):
    name: str
    tb: bd.TangentBundleChart
    structure: object
    points: list
    X: mf.TensorField
    Y: mf.TensorField


def _chart(name, M, structure, conn=None):
    """The bundle chart over ``M``, two exact points of it and the test
    fields X = x2 d1 and Y = x3 d1 + x1 x3 d2, which g does not make
    orthogonal: g(X, Y) = x2 x3 g_11 + x1 x2 x3 g_12."""
    conn = conn or mf.christoffel(M)
    tb = bd.TangentBundleChart(M, conn)
    F = Fraction
    points = [bundle_point(tb, [F(1), F(1), F(2)], [F(1), F(-2), F(3)]),
              bundle_point(tb, [F(2), F(-1), F(3)], [F(1, 2), F(5), F(-1)])]
    x1, x2, x3 = M.variables
    X = mf.TensorField(M, (1, 0), [x2, E.ZERO, E.ZERO])
    Y = mf.TensorField(M, (1, 0), [x3, E.mul(x1, x3), E.ZERO])
    return Chart(name, tb, structure, points, X, Y)


@pytest.fixture(scope="session")
def charts(h3, structure, conn):
    """h3; its twin, the same structure pulled back along (x1, x2 + x1*x3,
    x3 + x1^2), with a non-diagonal metric and a non-constant phi; and the
    bundled ``warped-h3`` and ``split-h3``, by name."""
    twin = harness.load_manifest(str(TWIN))
    bundled = [harness.load_manifest(bundled_manifest_path(n)) for n in ("warped-h3", "split-h3")]
    return {c.name: c for c in (_chart("h3", h3, structure, conn),
                                _chart("twin", twin.manifold, twin.structure),
                                *(_chart(m.name, m.manifold, m.structure) for m in bundled))}


@pytest.fixture(scope="session")
def manifest_path():
    return bundled_manifest_path()


def family(h_minus, h_plus) -> dict:
    """The manifest document of the warped two-block chart
    g = x_n^-2 (h_minus + dx_n^2) + x_n^2 h_plus on n = len(h_minus) +
    len(h_plus) + 1 coordinates, with phi = diag(-1..., +1..., 0) on the two
    blocks, eta = dx_n / x_n, xi = x_n d_n and the domain x_n > 0.  The
    block entries are expression texts in x1..x_{n-1}, each one factor (a
    sum goes in parentheses).  The metallic sets and the sample plan are
    those of the bundled charts."""
    k, n = len(h_minus), len(h_minus) + len(h_plus) + 1
    x = f"x{n}"

    def entry(i, j):
        if i == j == n - 1:
            return f"{x}^-2"
        if i < k and j < k:
            h, scale = h_minus[i][j], f"{x}^-2"
        elif k <= min(i, j) and max(i, j) < n - 1:
            h, scale = h_plus[i - k][j - k], f"{x}^2"
        else:
            return "0"
        return {"0": "0", "1": scale}.get(h, f"{scale}*{h}")

    signs = [-1] * k + [1] * len(h_plus) + [0]
    return {
        "name": f"warped-n{n}",
        "dimension": n,
        "coordinates": [f"x{i}" for i in range(1, n + 1)],
        "domain": [x],
        "metric": [[entry(i, j) for j in range(n)] for i in range(n)],
        "phi": [[str(signs[i]) if i == j else "0" for j in range(n)] for i in range(n)],
        "eta": ["0"] * (n - 1) + [f"1/{x}"],
        "xi": ["0"] * (n - 1) + [x],
        "metallic": [{"p": 1, "q": 1, "eps1": 1, "eps2": 1},
                     {"p": 2, "q": 1, "eps1": 1, "eps2": 1},
                     {"p": 3, "q": 5, "eps1": -1, "eps2": -1}],
        "sample_plan": {"count": 3, "seed": 7, "mode": "exact",
                        "base_ranges": [["1", "4"]] * n, "fiber_ranges": [["-3", "3"]] * n},
    }


def dense(m):
    """h = delta + x'x'^T on x1..xm, the fiber block of the dense warped charts."""
    return [[f"(1 + x{i}^2)" if i == j else f"x{min(i, j)}*x{max(i, j)}" for j in range(1, m + 1)]
            for i in range(1, m + 1)]


def first_primes(count):
    """The first ``count`` primes, by trial division."""
    primes = []
    k = 2
    while len(primes) < count:
        if all(k % p for p in itertools.takewhile(lambda p: p * p <= k, primes)):
            primes.append(k)
        k += 1
    return primes


def lifted_metric(tb, kind):
    """The lift of the base metric as a (0, 2) field."""
    return bd.lift(tb, kind, mf.TensorField(tb.base, (0, 2), tb.base.metric))


def decide(chart, points, residuals):
    """The verdict on each residual array of ``residuals``, keyed by axiom
    id, as the harness decides it (``verdicts.residual_verdict``)."""
    values = E.Values(points)
    return {aid: residual_verdict(aid, chart, values, r)[0] for aid, r in residuals.items()}


def metallic_verdict(psi, label, points):
    """The verdict on Psi^2 - I, as the J- and F-metallic suites decide it."""
    return decide(psi.base, points, {label: ml.pq_residual(psi.components, 0, 1)})[label]


def eval_zero(arr, point):
    """True when every expression in arr evaluates to exactly zero."""
    return all(v == 0 for v in evaluate_array(arr, point).flat)


def cached_value(values, e, i=0):
    """The value the cache of ``values`` (an ``E.Values``) holds for ``e``
    at its ``i``-th point, as ``evaluate`` returns it.  At exact points it
    keeps a reduced (numerator, denominator > 0) pair of ints, at float
    points a float."""
    v = values.cache[e][i]
    if not values.exact:
        assert type(v) is float
        return v
    n, d = v
    assert type(n) is int and type(d) is int and d > 0 and math.gcd(n, d) == 1, v
    return Fraction(n, d)


# -- the proof-table decomposition of N_Psi ----------------------------------
#
# The paper proves N_J = 0 by evaluating N_Psi on pairs of lifted fields.
# The closed forms of those rows serve the tests as an oracle.

def nijenhuis_rows(S, tb, N, X, Y):
    """Residuals of the lifted-frame closed forms for N = N_Psi, the
    Nijenhuis tensor of Psi = phi^c + eps1 eta^v (x) xi^v + eps2 eta^c (x) xi^c,
    one row per frame pair.  For J = (p/2) I - (a/2) Psi, N_J = A N_Psi with
    A = a^2/4 = ((2 sigma - p)/2)^2, so these rows times A are those of N_J.

    Each entry is LHS - RHS as a vector of bundle expressions; all of them
    vanish identically when the closed forms hold for (X, Y).  The closed
    forms assume X and Y are sections of the distribution D = ker(eta), and
    they hold for any almost paracontact structure, not just P-Sasakian ones:
    a law of the lifts that no manifest can break, so the tests check it and
    the J-integrable suite decides N_Psi alone.
    """
    nt = pc.n_tensors(S)
    Xv, Xc = bd.lift(tb, "v", X), bd.lift(tb, "c", X)
    Yv, Yc = bd.lift(tb, "v", Y), bd.lift(tb, "c", Y)
    xiv, xic = bd.lift(tb, "v", S.xi), bd.lift(tb, "c", S.xi)

    def n_on(U, V):
        return mf.contract("aij,i,j->a", N, U, V)

    n1xy = mf.TensorField(S.base, (1, 0), mf.contract("aij,i,j->a", nt["N1"], X, Y))
    n2xy = mf.contract("ij,i,j->", nt["N2"], X, Y)
    n3x = mf.apply_11(nt["N3"], X)
    phin3x = mf.apply_11(S.phi, n3x)
    n4x = mf.contract("m,m->", nt["N4"], X)
    n2_x_xi = mf.contract("ij,i,j->", nt["N2"], X, S.xi)

    rows = {}

    # N(X^v, Y^v) = 0
    rows["vv"] = n_on(Xv, Yv)

    # N(X^v, Y^c) = [N1(X,Y)]^v + N2(X,Y) xi^c
    rhs = mf.contract("a+,a->a", bd.lift(tb, "v", n1xy).components, n2xy, xic.components)
    rows["vc"] = n_on(Xv, Yc) - rhs

    # N(X^c, Y^c) = [N1(X,Y)]^c + N2(X,Y) xi^v
    rhs = mf.contract("a+,a->a", bd.lift(tb, "c", n1xy).components, n2xy, xiv.components)
    rows["cc"] = n_on(Xc, Yc) - rhs

    # N(X^v, xi^v) = -(N3 X)^v + N4(X) xi^c
    rhs = mf.contract("a+,a->a", -bd.lift(tb, "v", n3x).components, n4x, xic.components)
    rows["v-xiv"] = n_on(Xv, xiv) - rhs

    # N(X^v, xi^c) = [phi(N3 X) - N4(X) xi]^v + N2(X,xi) xi^c
    inner = mf.TensorField(S.base, (1, 0),
                           mf.contract("a+,a->a", phin3x.components, -n4x, S.xi.components))
    rhs = mf.contract("a+,a->a", bd.lift(tb, "v", inner).components, n2_x_xi, xic.components)
    rows["v-xic"] = n_on(Xv, xic) - rhs

    # N(X^c, xi^v) = -(N3 X)^c + (phi(N3 X))^v - [N4(phi X) - N4(X)]^c xi^c
    n4phix = mf.contract("m,m->", nt["N4"], mf.apply_11(S.phi, X))
    scal_c = tb.ydel(n4phix - n4x)
    rhs = mf.contract("a+a+,a->a", -bd.lift(tb, "c", n3x).components,
                      bd.lift(tb, "v", phin3x).components, -scal_c, xic.components)
    rows["c-xiv"] = n_on(Xc, xiv) - rhs

    # N(xi^v, xi^v) = N(xi^c, xi^c) = N(xi^v, xi^c) = 0
    rows["xiv-xiv"] = n_on(xiv, xiv)
    rows["xic-xic"] = n_on(xic, xic)
    rows["xiv-xic"] = n_on(xiv, xic)

    return rows


# -- the T-level oracle ------------------------------------------------------
#
# J and F are T = (p/2) I - (a/2) Psi.  The program decides every claim on
# Psi over Q; the tests that hold a claim of T against it build T's values
# from Psi's at a point, over Q(sigma), and apply the defining formulas to
# them directly.  The program holds only rationals and multiples
# y*sqrt(p^2 + 4q), so the arithmetic of Q(sigma) is the tests' own.

class QSigma:
    """a + b*sigma in Q(sigma), sigma^2 = p sigma + q, with a rational sigma
    folded into a.  ``QSigma.of`` reads a value of the program: y*sqrt(d)
    is -y p + 2y sigma, since sqrt(d) = 2 sigma - p."""

    __slots__ = ("a", "b", "p", "q")

    def __init__(self, a, b, p, q):
        d = p * p + 4 * q
        r = math.isqrt(d)
        if r * r == d:
            a, b = a + b * Fraction(p + r, 2), 0
        self.a, self.b, self.p, self.q = Fraction(a), Fraction(b), p, q

    @staticmethod
    def of(x, p, q):
        """x in Q(sigma_{p,q}); None for anything but a scalar."""
        if isinstance(x, QSigma):
            assert x.p * x.p + 4 * x.q == p * p + 4 * q
            return x
        if isinstance(x, (int, Fraction)):
            return QSigma(x, 0, p, q)
        if isinstance(x, MetallicScalar):
            assert x.p * x.p + 4 * x.q == p * p + 4 * q
            return QSigma(-x.y * p, 2 * x.y, p, q)
        return None

    def _pair(self, other):
        return QSigma.of(other, self.p, self.q)

    def __add__(self, other):
        o = self._pair(other)
        return NotImplemented if o is None else QSigma(self.a + o.a, self.b + o.b, self.p, self.q)

    __radd__ = __add__

    def __neg__(self):
        return QSigma(-self.a, -self.b, self.p, self.q)

    def __sub__(self, other):
        o = self._pair(other)
        return NotImplemented if o is None else self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._pair(other)
        if o is None:
            return NotImplemented
        # (a1 + b1 s)(a2 + b2 s) with s^2 = p s + q
        return QSigma(self.a * o.a + self.b * o.b * self.q,
                      self.a * o.b + self.b * o.a + self.b * o.b * self.p, self.p, self.q)

    __rmul__ = __mul__

    def __eq__(self, other):
        o = self._pair(other)
        return NotImplemented if o is None else (self.a, self.b) == (o.a, o.b)

    __hash__ = None

    def __bool__(self):
        return bool(self.a or self.b)

    def __repr__(self):
        return f"QSigma({self.a}, {self.b}, p={self.p}, q={self.q})"

    def report_value(self):
        """The value as a report holds it: a Fraction, or y*sqrt(d) when
        it is a multiple of sqrt(d) = 2 sigma - p (a = -b p / 2)."""
        if not self.b:
            return self.a
        assert 2 * self.a == -self.b * self.p, self
        return MetallicScalar(self.b / 2, self.p, self.q)


def values(arr, point):
    """The values of an Expr array at ``point`` as a numpy object array."""
    arr = mf.asarray(arr)
    return np.array(evaluate_array(arr, point).flat, dtype=object).reshape(arr.shape)


def t_values(psi, prm, point):
    """T = (p/2) I - (a/2) Psi at ``point``, and its partials [m, a, b] =
    d_m T^a_b = -(a/2) d_m Psi^a_b (the constant part has none)."""
    n = psi.components.shape[0]
    amp = QSigma(-Fraction(prm.p, 2), 1, prm.p, prm.q)  # a/2 = sigma - p/2
    t = Fraction(prm.p, 2) * np.identity(n, dtype=object) - amp * values(psi.components, point)
    dt = -amp * values(psi.base.partials(psi.components), point)
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


# -- the coordinate blocks of nabla^c, nabla^h and G --------------------------
#
# bundle derives the lifted connections and the Sasaki metric from their
# definitions.  Their blocks, written out by hand, are the oracle.

def from_blocks(n, rank, **blocks):
    """The array with ``rank`` axes of size 2n whose n-blocks are named by
    one letter per axis, b for the base half and f for the fiber half; the
    blocks not named are zero."""
    out = {}
    for idx in itertools.product(range(2 * n), repeat=rank):
        name = "".join("bf"[i // n] for i in idx)
        if name in blocks:
            out[idx] = blocks[name][tuple(i % n for i in idx)]
    return from_entries((2 * n,) * rank, out)


def clift_blocks(tb):
    """nabla^c: C^k_{ij} = Gamma^k_{ij}, C^kbar_{ij} = y^l d_l Gamma^k_{ij},
    C^kbar_{i jbar} = C^kbar_{ibar j} = Gamma^k_{ij}."""
    G = tb.connection.components
    ydG = mf.contract("l,lkij->kij", tb.fiber_vars, tb.base.partials(G))
    return from_blocks(tb.n, 3, bbb=G, fbb=ydG, fbf=G, ffb=G)


def hlift_blocks(tb):
    """nabla^h: nabla^c with C^kbar_{ij} = y^m (d_i Gamma^k_{mj}
    + Gamma^l_{mj} Gamma^k_{il} - Gamma^l_{ij} Gamma^k_{ml}), the frame
    equations nabla^h_{X^v} = 0, nabla^h_{X^h} Y^v = (nabla_X Y)^v and
    nabla^h_{X^h} Y^h = (nabla_X Y)^h solved into coordinates."""
    G = tb.connection.components
    dG = tb.base.partials(G)
    # [k, i, j, m]: d_i Gamma^k_{mj} plus the Gamma Gamma terms
    inner = mf.add(dG.transpose(1, 0, 3, 2), mf.contract("lmj,kil+lij,kml->kijm", G, G, -G, G))
    lower = mf.contract("m,kijm->kij", tb.fiber_vars, inner)
    return from_blocks(tb.n, 3, bbb=G, fbb=lower, fbf=G, ffb=G)


def sasaki_blocks(tb):
    """G = [[g + GT^T g GT, GT^T g], [g GT, g]], GT[l][i] = y^k Gamma^l_{ki}."""
    g = tb.base.metric
    gt = mf.contract("k,lki->li", tb.fiber_vars, tb.connection.components)
    bb = mf.add(g, mf.contract("ai,ab,bj->ij", gt, g, gt))
    bf = mf.contract("ai,aj->ij", gt, g)
    fb = mf.contract("ia,aj->ij", g, gt)
    return from_blocks(tb.n, 2, bb=bb, bf=bf, fb=fb, ff=g)
