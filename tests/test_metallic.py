"""Metallic structures J and F on TM: identities, compatibility,
integrability, parallelity and the fundamental forms.

The program decides each claim on the almost product structure Psi, over
Q.  The tests that state a claim of T = (p/2) I - (a/2) Psi itself build
T's values from Psi's at a point (``conftest.t_values``) and hold them
against the defining formulas."""

import itertools
import pathlib
from fractions import Fraction

import numpy as np
import pytest

from metallic_tm import bundle as bd
from metallic_tm import exprs as E
from metallic_tm import harness
from metallic_tm import manifold as mf
from metallic_tm import metallic as ml
from metallic_tm import paracontact as pc
from metallic_tm.cli import bundled_manifest_path
from metallic_tm.exprs import Var
from metallic_tm.harness import _t_verdict
from metallic_tm.scalars import MetallicScalar, is_zero
from metallic_tm.verdicts import ResidualTracker

from conftest import (QSigma, covariant_values, decide, eval_zero, evaluate_array, lifted_metric,
                      metallic_verdict, nijenhuis_rows, nijenhuis_values, t_values, values)

PQ_SET = [(1, 1), (1, 2), (2, 1), (3, 5)]


@pytest.fixture(scope="module")
def psi_J(structure, tb):
    return ml.build_psi(structure, tb, "c", 1, 1)


@pytest.fixture(scope="module")
def psi_F(structure, tb):
    return ml.build_psi(structure, tb, "h", 1, 1)


def test_params_amp_and_sigma():
    prm = ml.MetallicParams(2, 1)
    assert str(prm.amp) == "-1+sigma"  # a/2 = sigma - p/2 = sqrt(8)/2
    assert prm.amp * prm.amp == prm.amp_squared
    assert prm.amp_squared == Fraction(2)
    assert ml.structure_label("c", 1, 1) == "complete_J;eps=(+,+)"
    assert ml.structure_label("h", 1, -1) == "horizontal_F;eps=(+,-)"


def test_params_validation():
    with pytest.raises(ValueError):
        ml.MetallicParams(0, 1)
    with pytest.raises(ValueError):
        ml.MetallicParams(1, 1, eps1=2)


@pytest.mark.parametrize("p,q,s", [(1, 2, 2), (2, 3, 3), (1, 6, 3)])
def test_rational_sigma_gives_rational_coefficients(p, q, s):
    """When p^2 + 4q is a square, a/2 = sigma - p/2 and every coefficient
    are Fractions."""
    prm = ml.MetallicParams(p, q)
    assert prm.amp == s - Fraction(p, 2)
    a = 2 * Fraction(s) - p
    assert prm.coefficients() == (a * a / 4, -p * a / 4, -a / 2)
    assert all(type(c) is Fraction for c in prm.coefficients())
    assert type(prm.amp) is Fraction and prm.amp * prm.amp == prm.amp_squared


# -- the six coefficient identities, over Q[p, q, sigma]/(sigma^2 - p sigma - q)

class Poly:
    """A polynomial in p, q and sigma over Q, reduced with the rewrite
    sigma^2 -> p sigma + q: a dict from exponents (i, j, k) of p^i q^j
    sigma^k, with k at most 1, to nonzero Fraction coefficients."""

    def __init__(self, terms=()):
        self.terms = {}
        for (i, j, k), c in dict(terms).items():
            while k >= 2:  # sigma^k = sigma^(k-2) (p sigma + q)
                self._put((i, j + 1, k - 2), c)
                i, k = i + 1, k - 1
            self._put((i, j, k), c)

    def _put(self, key, c):
        c = self.terms.get(key, 0) + Fraction(c)
        if c:
            self.terms[key] = c
        else:
            self.terms.pop(key, None)

    @staticmethod
    def of(x):
        return x if isinstance(x, Poly) else Poly({(0, 0, 0): x})

    def __add__(self, other):
        out = Poly(self.terms)
        for key, c in Poly.of(other).terms.items():
            out._put(key, c)
        return out

    def __neg__(self):
        return Poly({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-Poly.of(other))

    def __mul__(self, other):
        other = Poly.of(other)
        out = {}
        for (i1, j1, k1), c1 in self.terms.items():
            for (i2, j2, k2), c2 in other.terms.items():
                key = (i1 + i2, j1 + j2, k1 + k2)
                out[key] = out.get(key, 0) + c1 * c2
        return Poly(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return self.terms == Poly.of(other).terms

    def at(self, p, q):
        """The (1, sigma) coordinates (a, b) of the value a + b*sigma at
        integers (p, q)."""
        out = [Fraction(0), Fraction(0)]
        for (i, j, k), c in self.terms.items():
            out[k] += c * p ** i * q ** j
        return tuple(out)


class Lin:
    """A linear combination, with Poly coefficients, of words in symbols
    that do not commute (Psi, Psi^T, G, the fields X and Y, brackets):
    the product concatenates words, and the Lie bracket of two
    combinations is bilinear over the constants p, q and sigma."""

    def __init__(self, terms=()):
        self.terms = {w: c for w, c in dict(terms).items() if c.terms}

    @staticmethod
    def word(*symbols):
        return Lin({tuple(symbols): Poly.of(1)})

    def __add__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, Poly()) + c
        return Lin(out)

    def __sub__(self, other):
        return self + other.scaled(-1)

    def scaled(self, c):
        return Lin({w: Poly.of(c) * v for w, v in self.terms.items()})

    def __mul__(self, other):
        out = Lin()
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                out = out + Lin({w1 + w2: c1 * c2})
        return out

    def __eq__(self, other):
        return (self - other).terms == {}


def bracket(U, V):
    out = Lin()
    for u, cu in U.terms.items():
        for v, cv in V.terms.items():
            out = out + Lin({(("[", u, v),): cu * cv})
    return out


def nijenhuis(S, X, Y):
    """[SX, SY] - S[SX, Y] - S[X, SY] + S^2[X, Y]."""
    return (bracket(S * X, S * Y) - S * bracket(S * X, Y) - S * bracket(X, S * Y)
            + S * S * bracket(X, Y))


def nabla(L):
    """nabla of a constant combination of I and Psi: nabla I = 0."""
    return Lin({tuple("nabla " + s for s in w): c for w, c in L.terms.items() if w})


P, Q, SIGMA = Poly({(1, 0, 0): 1}), Poly({(0, 1, 0): 1}), Poly({(0, 0, 1): 1})
A_SYM = 2 * SIGMA - P  # a
COEFS_SYM = (A_SYM * A_SYM * Fraction(1, 4), -P * A_SYM * Fraction(1, 4), -A_SYM * Fraction(1, 2))


def test_the_six_identities_hold_for_every_p_and_q():
    """With T = (p/2) I - (a/2) Psi and a = 2 sigma - p, the README's six
    identities hold in Q[p, q, sigma]/(sigma^2 - p sigma - q) with p and q
    symbolic, so for every (p, q); and a^2/4 = (p^2 + 4q)/4."""
    A, B, C = COEFS_SYM
    I, Psi, PsiT, G = Lin.word(), Lin.word("Psi"), Lin.word("Psi^T"), Lin.word("G")
    X, Y = Lin.word("X"), Lin.word("Y")
    T = I.scaled(P * Fraction(1, 2)) + Psi.scaled(-A_SYM * Fraction(1, 2))
    TT = I.scaled(P * Fraction(1, 2)) + PsiT.scaled(-A_SYM * Fraction(1, 2))

    assert A == (P * P + 4 * Q) * Fraction(1, 4)
    assert T * T - T.scaled(P) - I.scaled(Q) == (Psi * Psi - I).scaled(A)
    w = PsiT * G - G * Psi
    assert TT * G * T - (G * T).scaled(P) - G.scaled(Q) == (PsiT * G * Psi - G).scaled(A) \
        + w.scaled(B)
    assert TT * G - G * T == w.scaled(C)
    assert nijenhuis(T, X, Y) == nijenhuis(Psi, X, Y).scaled(A)
    assert nabla(T) == nabla(Psi).scaled(C)
    assert G * T - G.scaled(P * Fraction(1, 2)) == (G * Psi).scaled(C)


@pytest.mark.parametrize("p,q", PQ_SET + [(2, 3), (1, 6), (5, 2)])
def test_coefficients_are_the_symbolic_ones(p, q):
    """``MetallicParams.coefficients`` is (a^2/4, -pa/4, -a/2) at (p, q)."""
    prm = ml.MetallicParams(p, q)
    for got, want in zip(prm.coefficients() + (prm.amp,), COEFS_SYM + (-COEFS_SYM[2],)):
        assert QSigma.of(got, p, q) == QSigma(*want.at(p, q), p, q)


# -- the almost product structure Psi --------------------------------------

# the three parameter sets of the bundled manifest, one with a rational
# sigma and one mixed-sign set
PQ_EPS = [(1, 1, 1, 1), (2, 1, 1, 1), (3, 5, -1, -1), (2, 1, 1, -1), (1, 2, 1, 1)]


def _cross(structure, tb, lift, pt):
    """eta^k (x) xi^v + eta^v (x) xi^k at ``pt``, with k = c or h."""
    ev, ek = bd.lift(tb, "v", structure.eta), bd.lift(tb, lift, structure.eta)
    xv, xk = bd.lift(tb, "v", structure.xi), bd.lift(tb, lift, structure.xi)
    return (values(mf.outer(xv.components, ek.components), pt)
            + values(mf.outer(xk.components, ev.components), pt))


@pytest.mark.parametrize("lift", ["c", "h"])
def test_psi_squared(structure, tb, points, lift):
    """Psi^2 = I for matched signs; for mixed signs Psi^2 - I is
    (eps1 eps2 - 1)(eta^k (x) xi^v + eta^v (x) xi^k), with k = c or h."""
    for e1, e2 in itertools.product((1, -1), repeat=2):
        psi = ml.build_psi(structure, tb, lift, e1, e2).components
        square = mf.contract("am,mb->ab", psi, psi)
        for pt in points:
            got = values(square, pt) - np.identity(6, dtype=object)
            assert (got == (e1 * e2 - 1) * _cross(structure, tb, lift, pt)).all(), (lift, e1, e2)
            assert (got != 0).any() == (e1 * e2 == -1)


def _same_verdict(verdict, reference, chart, points, prm):
    """The verdict ranks exactly the reference residual values (one array
    per point, over Q(sigma)), in the same order, so its worst value and
    witness are the same."""
    tracker = ResidualTracker()
    for pt, vals in zip(points, reference):
        for idx in np.ndindex(vals.shape):
            tracker.update(QSigma.of(vals[idx], prm.p, prm.q).report_value(),
                           chart.coords(pt), idx)
    assert QSigma.of(verdict.max_residual, prm.p, prm.q) == \
        QSigma.of(tracker.max_value, prm.p, prm.q), verdict.axiom_id
    assert verdict.witness == tracker.witness, verdict.axiom_id
    return tracker.max_value


@pytest.mark.parametrize("p,q,e1,e2", PQ_EPS)
def test_psi_combinations_equal_the_residuals_of_T(structure, tb, points, p, q, e1, e2):
    """The residuals of T, built from its values, equal the Psi-level ones
    times (a^2/4, -pa/4, -a/2), exactly: the metallic identity, both
    compatibility forms (with g^c and with the Sasaki metric, so that the
    -pa/4 term is nonzero somewhere), N_T, nabla~ T and the fundamental
    form.  The T-level values the report prints for the set (the Psi
    verdict through ``harness._t_verdict``) are those of T's residuals."""
    prm = ml.MetallicParams(p, q, e1, e2)
    coefs = prm.coefficients()
    A, B, C = (QSigma.of(c, p, q) for c in coefs)
    conns = {"c": bd.clift_connection(tb), "h": bd.hlift_connection(tb)}
    eye = np.identity(6, dtype=object)
    nonzero_sym = False
    for lift in "ch":
        psi = ml.build_psi(structure, tb, lift, e1, e2)
        label = ml.structure_label(lift, e1, e2)
        n_psi = mf.nijenhuis(psi).components
        cov_psi = mf.covariant_derivative(conns[lift], psi).components
        ts = [t_values(psi, prm, pt) for pt in points]
        s_vals = [values(psi.components, pt) for pt in points]

        r_metallic = [t @ t - p * t - q * eye for t, _ in ts]
        for r, s in zip(r_metallic, s_vals):
            assert (r == A * (s @ s - eye)).all()
        _same_verdict(_t_verdict(metallic_verdict(psi, label, points), [coefs[0]]), r_metallic,
                      tb.chart, points, prm)

        for pt, (t, dt), s in zip(points, ts, s_vals):
            assert (nijenhuis_values(t, dt) == A * values(n_psi, pt)).all()
            gamma = values(conns[lift].components, pt)
            assert (covariant_values(t, dt, gamma) == C * values(cov_psi, pt)).all()

        for metric in (lifted_metric(tb, "c"), bd.sasaki_metric(tb)):
            ms = [values(metric.components, pt) for pt in points]
            r_pq = [t.T @ m @ t - p * m @ t - q * m for (t, _), m in zip(ts, ms)]
            r_sym = [t.T @ m - m @ t for (t, _), m in zip(ts, ms)]
            w_zero = True
            for (t, _), s, m, rp, rs in zip(ts, s_vals, ms, r_pq, r_sym):
                u, w = s.T @ m @ s - m, s.T @ m - m @ s
                assert (rp == A * u + B * w).all() and (rs == C * w).all()
                assert (m @ t - Fraction(p, 2) * m == C * (m @ s)).all()
                w_zero = w_zero and not w.any()
            v_iso, v_sym = (_t_verdict(v, [coefs[k]]) for v, k in zip(
                decide(tb.chart, points, ml.compat_residuals(metric, psi, label)).values(), (0, 2)))
            nonzero_sym |= not is_zero(_same_verdict(v_sym, r_sym, tb.chart, points, prm))
            if w_zero:  # then T^T G T - pGT - qG is A u
                _same_verdict(v_iso, r_pq, tb.chart, points, prm)
    assert nonzero_sym


@pytest.mark.parametrize("p,q", PQ_SET)
def test_J_and_F_metallic_matched_signs(structure, tb, points, p, q):
    """T^2 = pT + qI for matched signs, at every point; the verdict on Psi,
    which does not depend on (p, q), holds."""
    for e1, e2 in [(1, 1), (-1, -1)]:
        prm = ml.MetallicParams(p, q, e1, e2)
        for lift in "ch":
            psi = ml.build_psi(structure, tb, lift, e1, e2)
            assert metallic_verdict(psi, ml.structure_label(lift, e1, e2), points).holds
            for pt in points:
                t, _ = t_values(psi, prm, pt)
                assert not (t @ t - p * t - q * np.identity(6, dtype=object)).any()


@pytest.mark.parametrize("p,q", [(1, 1), (2, 1)])
def test_mixed_signs_are_not_metallic(structure, tb, points, p, q):
    """eps1*eps2 = -1 breaks T^2 = pT + qI: the eta (x) xi cross terms of the
    two sign choices no longer cancel."""
    for e1, e2 in [(1, -1), (-1, 1)]:
        prm = ml.MetallicParams(p, q, e1, e2)
        for lift in "ch":
            psi = ml.build_psi(structure, tb, lift, e1, e2)
            v = metallic_verdict(psi, ml.structure_label(lift, e1, e2), points)
            assert not v.holds and v.witness is not None
            t, _ = t_values(psi, prm, points[0])
            assert (t @ t - p * t - q * np.identity(6, dtype=object)).any()


def test_J_compatible_with_complete_lift_metric(tb, points, psi_J):
    gc = lifted_metric(tb, "c")
    verdicts = decide(tb.chart, points, ml.compat_residuals(gc, psi_J, "J"))
    assert list(verdicts) == ["compat-isometry[J]", "compat-symmetry[J]"]
    for v in verdicts.values():
        assert v.holds, v.axiom_id


def test_F_compatible_with_sasaki_metric(tb, points, psi_F):
    G = bd.sasaki_metric(tb)
    for v in decide(tb.chart, points, ml.compat_residuals(G, psi_F, "F")).values():
        assert v.holds, v.axiom_id


def test_cross_compat_fails(tb, points, psi_J):
    """J is not compatible with the Sasaki metric: a designed counterexample
    that guards against a checker which trivially passes."""
    G = bd.sasaki_metric(tb)
    verdicts = decide(tb.chart, points, ml.compat_residuals(G, psi_J, "J"))
    assert not all(v.holds for v in verdicts.values())


def _n_t(psi, pt, prm=ml.MetallicParams(1, 1)):
    return nijenhuis_values(*t_values(psi, prm, pt))


def test_NJ_vanishes_on_p_sasakian(points, psi_J):
    for pt in points:
        assert not _n_t(psi_J, pt).any()


def test_NF_does_not_vanish(points, psi_F):
    assert any(_n_t(psi_F, pt).any() for pt in points)


@pytest.mark.parametrize("chart", ["hyperbolic-h3", "hyperbolic-h5", "hyperbolic-h7",
                                   "hyperbolic-h3-twin", "hyperbolic-h5-twin",
                                   "hyperbolic-h7-twin"])
def test_proof_rows_vanish_on_p_sasakian(chart):
    """Every proof-table row of N_Psi vanishes at the sample points of the
    bundled charts and of their pulled-back twins, for the field pair of
    ``SuiteContext.test_fields`` and for the coordinate pair (d1, d2)."""
    path = (bundled_manifest_path(chart) if not chart.endswith("-twin")
            else str(pathlib.Path(__file__).parent / "data" / f"{chart}.json"))
    m = harness.load_manifest(path)
    ctx = harness.SuiteContext(m, m.plan)
    X, Y, _, _, _ = ctx.test_fields()
    d1, d2 = (mf.TensorField(ctx.M, (1, 0), mf.identity(ctx.M.n)[i]) for i in (0, 1))
    N = mf.nijenhuis(ctx.psi("c"))
    for pair in ((X, Y), (d1, d2)):
        rows = nijenhuis_rows(ctx.S, ctx.tb, N, *pair)
        assert set(rows) == {
            "vv", "vc", "cc", "v-xiv", "v-xic", "c-xiv",
            "xiv-xiv", "xic-xic", "xiv-xic",
        }
        for rid, resid in rows.items():
            for pt in ctx.points:
                assert eval_zero(resid, pt), (rid, pt)


def rotated_block_structure(h3):
    """Almost paracontact but not P-Sasakian: the phi block on span(d1,d2)
    rotated by a point-dependent hyperbolic reflection."""
    t = E.add(Var("base", 1), Var("base", 3))
    den = E.add(E.ONE, E.mul(t, t))
    a = E.div(E.add(E.ONE, E.mul(E.const(-1), t, t)), den)
    b = E.div(E.mul(E.const(2), t), den)
    x3 = h3.variables[2]
    phi = mf.TensorField(h3, (1, 1), [
        [a, b, E.ZERO],
        [b, E.mul(E.const(-1), a), E.ZERO],
        [E.ZERO, E.ZERO, E.ZERO],
    ])
    eta = mf.TensorField(h3, (0, 1), [E.ZERO, E.ZERO, E.div(E.ONE, x3)])
    xi = mf.TensorField(h3, (1, 0), [E.ZERO, E.ZERO, x3])
    return pc.ParacontactStructure(h3, phi, eta, xi)


def test_proof_rows_match_closed_forms_under_phi_mutation(h3, conn, points):
    """With a non-P-Sasakian phi the N tensors are nonzero, and the lifted
    frame values of N_Psi still match the closed forms, for X, Y sections
    of the distribution D."""
    S = rotated_block_structure(h3)
    nt = pc.n_tensors(S)
    assert not eval_zero(nt["N1"].components, points[0])
    assert not eval_zero(nt["N3"].components, points[0])

    tb2 = bd.TangentBundleChart(h3, conn)
    psi = ml.build_psi(S, tb2, "c", 1, 1)
    assert any(_n_t(psi, pt).any() for pt in points)

    x1, _, x3 = h3.variables
    X = mf.TensorField(h3, (1, 0), [E.ONE, x1, E.ZERO])
    Y = mf.TensorField(h3, (1, 0), [x3, E.ONE, E.ZERO])
    rows = nijenhuis_rows(S, tb2, mf.nijenhuis(psi), X, Y)
    for rid, resid in rows.items():
        for pt in points:
            assert eval_zero(resid, pt), rid


def contact_3d():
    """The contact structure eta = dx3 - x2 dx1 with a scaled para-complex
    rotation on ker(eta); almost paracontact, not P-Sasakian, d(eta) != 0."""
    xs = [Var("base", i) for i in range(1, 4)]
    x2, x3 = xs[1], xs[2]
    M = mf.ChartedManifold(xs, None)
    f = E.add(E.ONE, E.mul(x3, x3))
    finv = E.div(E.ONE, f)
    # e1 = d1 + x2 d3 and e2 = d2 span ker(eta); phi e1 = f e2, phi e2 = e1/f
    phi = mf.TensorField(M, (1, 1), [
        [E.ZERO, finv, E.ZERO],
        [f, E.ZERO, E.ZERO],
        [E.ZERO, E.mul(x2, finv), E.ZERO],
    ])
    eta = mf.TensorField(M, (0, 1), [E.mul(E.const(-1), x2), E.ZERO, E.ONE])
    xi = mf.TensorField(M, (1, 0), [E.ZERO, E.ZERO, E.ONE])
    return M, pc.ParacontactStructure(M, phi, eta, xi)


def test_proof_rows_on_contact_example():
    """Nonzero d(eta) feeds the N1 correction term -2 d(eta) (x) xi; the
    closed forms still match on distribution sections."""
    M, S = contact_3d()
    F = Fraction
    bvars = list(M.variables)
    fvars = [Var("fiber", i) for i in range(1, 4)]
    pts = [
        dict(zip(bvars + fvars, [F(1), F(2), F(1), F(1), F(-1), F(2)])),
        dict(zip(bvars + fvars, [F(-1), F(1, 2), F(2), F(3), F(1), F(-2)])),
    ]
    for v in decide(M, pts, pc.almost_paracontact(S)).values():
        assert v.holds, v.axiom_id
    deta = mf.exterior_derivative(S.eta)
    assert not eval_zero(deta.components, pts[0])

    # flat connection on this chart
    C = mf.TensorField(M, (1, 2), mf.zeros((3, 3, 3)))
    tb2 = bd.TangentBundleChart(M, C)
    psi = ml.build_psi(S, tb2, "c", 1, 1)
    assert metallic_verdict(psi, "J", pts).holds

    x2 = M.variables[1]
    # sections of ker(eta)
    X = mf.TensorField(M, (1, 0), [E.ONE, E.ZERO, x2])
    Y = mf.TensorField(M, (1, 0), [E.ZERO, E.ONE, E.ZERO])
    rows = nijenhuis_rows(S, tb2, mf.nijenhuis(psi), X, Y)
    for rid, resid in rows.items():
        for pt in pts:
            assert eval_zero(resid, pt), rid


def _never_parallel(probes, mismatch, tb, points):
    """The probes match their closed form and none vanishes at a point;
    the verdict on the probes, whose largest value is reported."""
    for pt in points:
        assert eval_zero(mismatch, pt)
        assert not any(eval_zero(row, pt) for row in probes)
    return decide(tb.chart, points, {"probes": probes})["probes"]


def test_J_never_parallel(structure, tb, points, psi_J):
    cc = bd.clift_connection(tb)
    probes, mismatch = ml.parallelity_probes(psi_J, "c", cc, structure, tb,
                                             pc.distribution_frame(structure, E.Values(points)))
    assert probes.shape == mismatch.shape == (2, 6)  # the J display is taken on the frame
    v = _never_parallel(probes, mismatch, tb, points)
    # the probe of Psi is -1 at its largest; that of J is -a/2 times it
    assert v.max_residual == -1
    got = -ml.MetallicParams(1, 1).amp * v.max_residual
    assert QSigma.of(got, 1, 1) == QSigma(-Fraction(1, 2), 1, 1, 1)  # -1/2 + sigma


def test_F_never_parallel(structure, tb, points, psi_F):
    hc = bd.hlift_connection(tb)
    probes, mismatch = ml.parallelity_probes(psi_F, "h", hc, structure, tb,
                                             pc.distribution_frame(structure, E.Values(points)))
    # the F display is taken on the three coordinate fields
    assert probes.shape == (2, 6) and mismatch.shape == (3, 6)
    v = _never_parallel(probes, mismatch, tb, points)
    assert v.witness is not None
    assert float(v.max_residual) != 0.0


def test_F_integrability_conditions(h3, structure, conn, points):
    res = ml.F_integrability_residuals(structure, conn, mf.curvature(conn),
                                       pc.distribution_frame(structure, E.Values(points)))
    verdicts = decide(h3, points, res)
    assert list(verdicts) == ["D-flat", "e4-curvature", "e5-connection"]
    assert verdicts["e4-curvature"].holds
    assert not verdicts["D-flat"].holds
    assert not verdicts["e5-connection"].holds
    assert verdicts["D-flat"].witness.frame == (0, 0)
    # e5 vanishes at a pair and point exactly when eta(nabla_X Y) does
    for pt in points:
        d, e5 = (evaluate_array(res[aid], pt) for aid in ("D-flat", "e5-connection"))
        for i in mf.ndindex(d.shape):
            assert (d[i] == 0) == all(v == 0 for v in e5[i])


def test_fundamental_form_is_symmetric(tb, points, psi_J):
    Phi = mf.contract("ak,kb->ab", lifted_metric(tb, "c"), psi_J)
    for pt in points:
        assert eval_zero(Phi - Phi.T, pt)


def test_dphi_prime_value_on_unit_field(structure, tb, points, psi_F):
    """dPhi'(X^h, X^v, xi^v) = -(2 sigma - p)/6 for the unit field X = x3 d1."""
    G = bd.sasaki_metric(tb)
    x3 = structure.base.variables[2]
    X = mf.TensorField(structure.base, (1, 0), [x3, E.ZERO, E.ZERO])
    val = mf.coboundary(tb.chart, mf.contract("ak,kb->ab", G, psi_F),
                        bd.lifted_rows(tb, "h", [X]), bd.lifted_rows(tb, "v", [X]),
                        bd.lifted_rows(tb, "v", [structure.xi]))[0, 0, 0]
    prm = ml.MetallicParams(1, 1)
    expected = QSigma(Fraction(1, 6), -Fraction(1, 3), 1, 1)  # -(2 sigma - 1)/6
    for pt in points:  # dPhi' = -(a/2) d(G(., Psi .))
        got = -prm.amp * E.evaluate(val, pt)
        assert isinstance(got, MetallicScalar) and QSigma.of(got, 1, 1) == expected


def test_dphi_vanishes_on_distribution_c_c_v_triples(structure, tb, points, psi_J):
    frame = pc.distribution_frame(structure, E.Values(points))
    Xc = bd.lifted_rows(tb, "c", frame)
    dPhi = mf.coboundary(tb.chart, mf.contract("ak,kb->ab", lifted_metric(tb, "c"), psi_J),
                         Xc, Xc, bd.lifted_rows(tb, "v", frame))
    for pt in points:
        assert eval_zero(dPhi, pt)
