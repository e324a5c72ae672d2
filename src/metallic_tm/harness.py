"""Manifest ingestion, sample planning, suite orchestration and reports.

A manifest is a JSON description of a charted manifold with an almost
paracontact structure and a list of metallic parameter sets.  The harness
samples admissible rational points deterministically, runs the proposition
suites, and emits a reproducible JSON report.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from . import bundle as bd
from . import exprs as E
from . import manifold as mf
from . import metallic as ml
from . import paracontact as pc
from .exprs import Var
from .scalars import is_zero, scalar_abs, scalar_str
from .verdicts import FLOAT_TOL, ResidualTracker

TOOL_NAME = "metallic-tm"
TOOL_VERSION = "0.1.0"

SUITE_IDS = (
    "axioms",
    "lifts",
    "J-metallic",
    "J-compat",
    "J-integrable",
    "J-parallel",
    "Phi-closedness",
    "F-metallic",
    "F-compat",
    "F-integrability-conditions",
    "F-parallel",
    "Phi-prime",
)


class ManifestError(ValueError):
    """Invalid manifest content (shape, parse, or parameter errors)."""


class SamplingError(RuntimeError):
    """No admissible sample point found within the retry budget."""


@dataclass(frozen=True)
class SamplePlan:
    count: int = 10
    seed: int = 2024
    mode: str = "exact"
    base_ranges: tuple = ()
    fiber_ranges: tuple = ()
    tol: float = FLOAT_TOL

    def to_json(self) -> dict:
        return {
            "count": self.count,
            "seed": self.seed,
            "mode": self.mode,
            "base_ranges": [[scalar_str(a), scalar_str(b)] for a, b in self.base_ranges],
            "fiber_ranges": [[scalar_str(a), scalar_str(b)] for a, b in self.fiber_ranges],
            "tolerance": self.tol,
        }


@dataclass
class Manifest:
    name: str
    n: int
    manifold: mf.ChartedManifold
    structure: pc.ParacontactStructure
    params: List[ml.MetallicParams]
    plan: SamplePlan
    raw_bytes: bytes = b""

    def sha256(self) -> str:
        return hashlib.sha256(self.raw_bytes).hexdigest()


def _frac(x) -> Fraction:
    if isinstance(x, bool):
        raise ManifestError(f"expected a rational number, got {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ManifestError(f"bad rational literal {x!r}: {exc}") from None
    raise ManifestError(f"expected a rational number, got {x!r}")


def _parse_expr(text, n: int, where: str) -> E.Expr:
    if not isinstance(text, str):
        raise ManifestError(f"{where}: expression must be a string, got {text!r}")
    try:
        return E.parse(text, n)
    except E.ParseError as exc:
        raise ManifestError(f"{where}: {exc}") from None


def _parse_matrix(rows, n: int, where: str) -> list:
    if not isinstance(rows, list) or len(rows) != n:
        raise ManifestError(f"{where}: expected {n} rows")
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise ManifestError(f"{where}: row {i} must have {n} entries")
        out.append([_parse_expr(e, n, f"{where}[{i}][{j}]") for j, e in enumerate(row)])
    return out


def _parse_vector(items, n: int, where: str) -> list:
    if not isinstance(items, list) or len(items) != n:
        raise ManifestError(f"{where}: expected {n} entries")
    return [_parse_expr(e, n, f"{where}[{i}]") for i, e in enumerate(items)]


def _parse_plan(doc, n: int) -> SamplePlan:
    doc = doc or {}
    count = doc.get("count", 10)
    if not isinstance(count, int) or count < 1:
        raise ManifestError(f"sample plan count must be a positive integer, got {count!r}")
    seed = doc.get("seed", 2024)
    if not isinstance(seed, int):
        raise ManifestError("sample plan seed must be an integer")
    mode = doc.get("mode", "exact")
    if mode not in ("exact", "float"):
        raise ManifestError(f"sample plan mode must be exact or float, got {mode!r}")

    def ranges(key, default_lo, default_hi):
        rs = doc.get(key)
        if rs is None:
            return tuple((default_lo, default_hi) for _ in range(n))
        if not isinstance(rs, list) or len(rs) != n:
            raise ManifestError(f"sample plan {key} must list {n} intervals")
        out = []
        for r in rs:
            if not isinstance(r, list) or len(r) != 2:
                raise ManifestError(f"sample plan {key} entries must be [lo, hi]")
            lo, hi = _frac(r[0]), _frac(r[1])
            if not lo < hi:
                raise ManifestError(f"sample plan {key} interval [{lo},{hi}] is empty")
            out.append((lo, hi))
        return tuple(out)

    return SamplePlan(
        count=count,
        seed=seed,
        mode=mode,
        base_ranges=ranges("base_ranges", Fraction(1), Fraction(4)),
        fiber_ranges=ranges("fiber_ranges", Fraction(-3), Fraction(3)),
        tol=float(doc.get("tolerance", FLOAT_TOL)),
    )


def parse_manifest(doc: dict, raw: bytes = b"") -> Manifest:
    if not isinstance(doc, dict):
        raise ManifestError("manifest must be a JSON object")
    try:
        n = doc["dimension"]
    except KeyError:
        raise ManifestError("manifest is missing 'dimension'") from None
    if not isinstance(n, int) or n < 2:
        raise ManifestError(f"dimension must be an integer >= 2, got {n!r}")

    coords = doc.get("coordinates", [f"x{i}" for i in range(1, n + 1)])
    if len(coords) != n:
        raise ManifestError(f"expected {n} coordinate names, got {len(coords)}")

    for key in ("metric", "phi", "eta", "xi"):
        if key not in doc:
            raise ManifestError(f"manifest is missing '{key}'")

    variables = tuple(Var("base", i) for i in range(1, n + 1))
    metric = _parse_matrix(doc["metric"], n, "metric")
    domain = [_parse_expr(e, n, f"domain[{i}]") for i, e in enumerate(doc.get("domain", []))]
    M = mf.ChartedManifold(variables, metric, domain=domain, coord_names=coords)

    phi = mf.TensorField(M, (1, 1), _parse_matrix(doc["phi"], n, "phi"))
    eta = mf.TensorField(M, (0, 1), _parse_vector(doc["eta"], n, "eta"))
    xi = mf.TensorField(M, (1, 0), _parse_vector(doc["xi"], n, "xi"))
    S = pc.ParacontactStructure(M, phi, eta, xi)

    raw_params = doc.get("metallic", [])
    if not isinstance(raw_params, list) or not raw_params:
        raise ManifestError("manifest needs at least one metallic parameter set")
    params = []
    for i, mp in enumerate(raw_params):
        if not isinstance(mp, dict):
            raise ManifestError(f"metallic[{i}] must be an object")
        try:
            params.append(ml.MetallicParams(
                p=mp.get("p"), q=mp.get("q"),
                eps1=mp.get("eps1", 1), eps2=mp.get("eps2", 1),
            ))
        except (TypeError, ValueError) as exc:
            raise ManifestError(f"metallic[{i}]: {exc}") from None

    plan = _parse_plan(doc.get("sample_plan"), n)
    name = doc.get("name", "unnamed")
    return Manifest(name, n, M, S, params, plan, raw)


def load_manifest(path: str) -> Manifest:
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ManifestError(f"{path}: invalid JSON: {exc}") from None
    return parse_manifest(doc, raw)


# ----------------------------------------------------------------------
# sampling
# ----------------------------------------------------------------------

_MAX_REDRAWS = 2000


def sample_points(manifest: Manifest, plan: Optional[SamplePlan] = None):
    """Deterministic admissible bundle points; exact rationals, converted
    to float for float mode."""
    plan = plan or manifest.plan
    if plan.count < 1:
        raise ManifestError("sample count must be at least 1")
    M = manifest.manifold
    n = manifest.n
    rng = random.Random(plan.seed)
    fiber_vars = tuple(Var("fiber", i) for i in range(1, n + 1))

    def draw(lo: Fraction, hi: Fraction) -> Fraction:
        den = rng.randint(2, 7)
        lo_i = int(lo * den) + 1
        hi_i = int(hi * den) - 1
        if lo_i > hi_i:
            lo_i, hi_i = int(lo * den), int(hi * den)
        return Fraction(rng.randint(lo_i, hi_i), den)

    points = []
    attempts = 0
    while len(points) < plan.count:
        attempts += 1
        if attempts > _MAX_REDRAWS:
            raise SamplingError(
                f"no admissible point found after {_MAX_REDRAWS} draws; "
                "check domain constraints against base_ranges"
            )
        base = [draw(lo, hi) for lo, hi in plan.base_ranges]
        pt = dict(zip(M.variables, base))
        if not all(E.evaluate(c, pt) > 0 for c in M.domain):
            continue
        fiber = [draw(lo, hi) for lo, hi in plan.fiber_ranges]
        if all(f == 0 for f in fiber):
            continue
        pt.update(zip(fiber_vars, fiber))
        points.append(pt)

    if plan.mode == "float":
        points = [{v: float(c) for v, c in pt.items()} for pt in points]
    return points


# ----------------------------------------------------------------------
# suite context
# ----------------------------------------------------------------------

class SuiteContext:
    """Shared geometry for one verification run."""

    def __init__(self, manifest: Manifest, plan: SamplePlan) -> None:
        self.manifest = manifest
        self.plan = plan
        self.M = manifest.manifold
        self.S = manifest.structure
        self.conn = mf.christoffel(self.M)
        self.R = mf.curvature(self.conn)
        self.tb = bd.TangentBundleChart(self.M, self.conn)
        self.points = sample_points(manifest, plan)
        self.mode = plan.mode
        self.gc = bd.clift_metric(self.tb)
        self.G = bd.sasaki_metric(self.tb)
        self.cc = bd.clift_connection(self.tb)
        self.hc = bd.hlift_connection(self.tb)
        self.dphi_prime_sign: Optional[str] = None
        self._J: Dict[ml.MetallicParams, ml.MetallicOnTM] = {}
        self._F: Dict[ml.MetallicParams, ml.MetallicOnTM] = {}

    def J(self, prm: ml.MetallicParams) -> ml.MetallicOnTM:
        if prm not in self._J:
            self._J[prm] = ml.build_J(self.S, self.tb, prm)
        return self._J[prm]

    def F(self, prm: ml.MetallicParams) -> ml.MetallicOnTM:
        if prm not in self._F:
            self._F[prm] = ml.build_F(self.S, self.tb, prm)
        return self._F[prm]

    def coords(self, pt) -> tuple:
        return tuple(pt[v] for v in self.tb.chart.variables if v in pt)

    def test_fields(self):
        """Deterministic non-constant fields exercising all lift laws."""
        M = self.M
        n = M.n
        Xc = mf.zeros(n)
        Xc[0] = E.Var("base", 2 if n >= 2 else 1)
        Yc = mf.zeros(n)
        Yc[min(1, n - 1)] = E.mul(E.Var("base", 1), E.Var("base", n))
        X = mf.TensorField(M, (1, 0), Xc)
        Y = mf.TensorField(M, (1, 0), Yc)
        f = E.Var("base", 1)
        w = mf.TensorField(M, (0, 1), [E.Var("base", 2)] + [E.ZERO] * (n - 1))
        F2c = mf.zeros((n, n))
        for a, b in itertools.product(range(n), repeat=2):
            F2c[a, b] = E.Var("base", ((a + b) % n) + 1) if (a + b) % 2 == 0 else E.ZERO
        F2 = mf.TensorField(M, (1, 1), F2c)
        return X, Y, f, w, F2


def _suite_result(suite_id: str, status: str, max_residual, witnesses: list,
                  notes: Optional[dict] = None) -> dict:
    """One suite entry of the report; every suite is written by this."""
    out = {
        "id": suite_id,
        "status": status,
        "max_residual": {"exact": scalar_str(max_residual), "float": float(max_residual)},
        "witnesses": witnesses,
    }
    if notes:
        out["notes"] = notes
    return out


def _tracker_suite(suite_id: str, tracker: ResidualTracker, status: Optional[str] = None,
                   witnesses: Optional[list] = None, notes: Optional[dict] = None) -> dict:
    if status is None:
        status = "pass" if tracker.all_zero else "fail"
    if witnesses is None:
        witnesses = [tracker.witness.to_json()] if tracker.witness else []
    return _suite_result(suite_id, status, tracker.max_value, witnesses, notes)


def _verdicts_to_suite(suite_id: str, verdicts) -> dict:
    worst = None
    failed = []
    for v in verdicts:
        if not v.holds:
            failed.append(v)
        if worst is None or scalar_abs(v.max_residual) > scalar_abs(worst.max_residual):
            worst = v
    status = "pass" if not failed else "fail"
    witnesses = []
    for v in (failed or ([worst] if worst and worst.witness else [])):
        if v.witness:
            w = v.witness.to_json()
            w["axiom"] = v.axiom_id
            witnesses.append(w)
    return _suite_result(suite_id, status, worst.max_residual if worst else 0, witnesses)


# ----------------------------------------------------------------------
# the 12 suites
# ----------------------------------------------------------------------

def suite_axioms(ctx: SuiteContext) -> dict:
    verdicts = []
    verdicts += pc.check_almost_paracontact(ctx.S, ctx.points, ctx.mode)
    verdicts += pc.check_metric_compat(ctx.S, ctx.points, ctx.mode)
    verdicts += pc.check_p_sasakian(ctx.S, ctx.conn, ctx.points, ctx.mode)
    return _verdicts_to_suite("axioms", verdicts)


def suite_lifts(ctx: SuiteContext) -> dict:
    tb, M, conn, R = ctx.tb, ctx.M, ctx.conn, ctx.R
    n = M.n
    X, Y, f, w, F2 = ctx.test_fields()
    prm = ctx.manifest.params[0]
    tracker = ResidualTracker(ctx.mode, ctx.plan.tol)
    residuals: List[tuple] = []  # (label, expr or iterable of exprs)

    def vec_minus(a, b):
        return [E.add(u, E.mul(E.const(-1), v)) for u, v in zip(a, b)]

    Xv, Xc, Xh = bd.vlift_vector(tb, X), bd.clift_vector(tb, X), bd.hlift_vector(tb, X)
    Yv, Yc, Yh = bd.vlift_vector(tb, Y), bd.clift_vector(tb, Y), bd.hlift_vector(tb, Y)
    Xf = mf.contract("m,m->", X, M.partials(f))

    # function lift laws
    for label, U, fn, want in (
        ("Xv-fv", Xv, bd.vlift_function(tb, f), E.ZERO),
        ("Xv-fc", Xv, bd.clift_function(tb, f), bd.vlift_function(tb, Xf)),
        ("Xc-fc", Xc, bd.clift_function(tb, f), bd.clift_function(tb, Xf)),
    ):
        got = mf.contract("a,a->", U, tb.chart.partials(fn))
        residuals.append((label, vec_minus([got], [want])))
    residuals.append(("fh-zero", [bd.hlift_function(tb, f)]))

    # bracket table
    XYb = mf.lie_bracket(X, Y)
    residuals.append(("bracket-vv", mf.lie_bracket(Xv, Yv).components))
    residuals.append(("bracket-cc", vec_minus(
        mf.lie_bracket(Xc, Yc).components, bd.clift_vector(tb, XYb).components)))
    residuals.append(("bracket-vh", [
        E.add(a, b) for a, b in zip(
            mf.lie_bracket(Xv, Yh).components,
            bd.vlift_vector(tb, mf.cov_vec(conn, Y, X)).components)]))
    ghh = bd.gamma_bracket_defect(tb, R, X, Y)
    residuals.append(("bracket-hh", [
        E.add(a, E.mul(E.const(-1), b), c) for a, b, c in zip(
            mf.lie_bracket(Xh, Yh).components,
            bd.hlift_vector(tb, XYb).components,
            ghh.components)]))

    # metric pairings
    gXY = mf.contract("ab,a,b->", M.metric, X, Y)
    gh = bd.hlift_metric(tb)
    for label, metric, U, V, want in (
        ("gc-vv", ctx.gc, Xv, Yv, E.ZERO),
        ("gc-vc", ctx.gc, Xv, Yc, gXY),
        ("gc-cv", ctx.gc, Xc, Yv, gXY),
        ("gc-cc", ctx.gc, Xc, Yc, bd.clift_function(tb, gXY)),
        ("gh-vv", gh, Xv, Yv, E.ZERO),
        ("gh-hh", gh, Xh, Yh, E.ZERO),
        ("gh-vh", gh, Xv, Yh, gXY),
        ("G-vv", ctx.G, Xv, Yv, gXY),
        ("G-hh", ctx.G, Xh, Yh, gXY),
        ("G-vh", ctx.G, Xv, Yh, E.ZERO),
    ):
        residuals.append((label, vec_minus([mf.contract("ab,a,b->", metric, U, V)], [want])))

    # one-form lift laws
    wX = mf.contract("m,m->", w, X)
    wv = bd.lift_oneform(tb, w, "v")
    wc = bd.lift_oneform(tb, w, "c")
    wh = bd.lift_oneform(tb, w, "h")
    for label, form, U, want in (
        ("wv-Xc", wv, Xc, wX),
        ("wc-Xv", wc, Xv, wX),
        ("wc-Xc", wc, Xc, bd.clift_function(tb, wX)),
        ("wh-Xh", wh, Xh, E.ZERO),
        ("wh-Xv", wh, Xv, wX),
    ):
        residuals.append((label, vec_minus([mf.contract("a,a->", form, U)], [want])))

    # (1,1) lift laws on frames
    F2X = mf.apply_11(F2, X)
    for kind, arg, want in (
        ("c", Xc, bd.clift_vector(tb, F2X)),
        ("c", Xv, bd.vlift_vector(tb, F2X)),
        ("h", Xh, bd.hlift_vector(tb, F2X)),
        ("h", Xv, bd.vlift_vector(tb, F2X)),
        ("v", Xc, bd.vlift_vector(tb, F2X)),
    ):
        lifted = bd.lift_tensor11(tb, F2, kind)
        got = mf.apply_11(lifted, arg)
        residuals.append((f"F{kind}-frame", vec_minus(got.components, want.components)))

    # polynomial functoriality with P(x) = x^2 - p x - q
    PFfield = mf.TensorField(M, (1, 1), ml.pq_residual(F2.components, prm.p, prm.q))
    for kind in ("c", "h"):
        lifted = bd.lift_tensor11(tb, F2, kind)
        lhs = ml.pq_residual(lifted.components, prm.p, prm.q)
        rhs = bd.lift_tensor11(tb, PFfield, kind).components
        residuals.append((f"P-functorial-{kind}", [
            E.add(lhs[a, b], E.mul(E.const(-1), rhs[a, b]))
            for a, b in itertools.product(range(2 * n), repeat=2)]))

    # lifted connection frame displays
    nXY = mf.cov_vec(conn, X, Y)
    zero_vec = [E.ZERO] * (2 * n)
    conn_cases = [
        ("cc-cc", ctx.cc, Xc, Yc, bd.clift_vector(tb, nXY).components),
        ("cc-vc", ctx.cc, Xv, Yc, bd.vlift_vector(tb, nXY).components),
        ("cc-cv", ctx.cc, Xc, Yv, bd.vlift_vector(tb, nXY).components),
        ("cc-vv", ctx.cc, Xv, Yv, zero_vec),
        ("hc-hh", ctx.hc, Xh, Yh, bd.hlift_vector(tb, nXY).components),
        ("hc-hv", ctx.hc, Xh, Yv, bd.vlift_vector(tb, nXY).components),
        ("hc-vh", ctx.hc, Xv, Yh, zero_vec),
        ("hc-vv", ctx.hc, Xv, Yv, zero_vec),
    ]
    for label, conn2, U, V, want in conn_cases:
        got = mf.cov_vec(conn2, U, V)
        residuals.append((f"conn-{label}", vec_minus(got.components, want)))
    # nabla^h_{X^c} Y^c = (nabla_X Y)^c - gamma R(., X, Y)
    gslice = bd.gamma_curvature(tb, R, X, Y)
    got = mf.cov_vec(ctx.hc, Xc, Yc)
    residuals.append(("conn-hc-cc", [
        E.add(a, E.mul(E.const(-1), b), c) for a, b, c in zip(
            got.components, bd.clift_vector(tb, nXY).components, gslice.components)]))

    for label, exprs in residuals:
        for pt in ctx.points:
            coords = ctx.coords(pt)
            for idx, e in enumerate(exprs):
                tracker.update(E.evaluate(e, pt, ctx.mode), coords, (label, idx))
    return _tracker_suite("lifts", tracker)


def _metallic_suite(ctx: SuiteContext, suite_id: str, builder) -> dict:
    verdicts = []
    for prm in ctx.manifest.params:
        T = builder(prm)
        verdicts.append(ml.check_metallic(T, ctx.points, ctx.mode))
    return _verdicts_to_suite(suite_id, verdicts)


def suite_J_metallic(ctx: SuiteContext) -> dict:
    return _metallic_suite(ctx, "J-metallic", ctx.J)


def suite_F_metallic(ctx: SuiteContext) -> dict:
    return _metallic_suite(ctx, "F-metallic", ctx.F)


def suite_J_compat(ctx: SuiteContext) -> dict:
    verdicts = []
    for prm in ctx.manifest.params:
        verdicts += ml.check_compat(ctx.gc, ctx.J(prm), ctx.points, ctx.mode)
    return _verdicts_to_suite("J-compat", verdicts)


def suite_F_compat(ctx: SuiteContext) -> dict:
    verdicts = []
    for prm in ctx.manifest.params:
        verdicts += ml.check_compat(ctx.G, ctx.F(prm), ctx.points, ctx.mode)
    return _verdicts_to_suite("F-compat", verdicts)


def suite_J_integrable(ctx: SuiteContext) -> dict:
    prm = ctx.manifest.params[0]
    J = ctx.J(prm)
    NJ = ml.nijenhuis_TM(J)
    tracker = ResidualTracker(ctx.mode, ctx.plan.tol)
    n2 = 2 * ctx.manifest.n
    for pt in ctx.points:
        coords = ctx.coords(pt)
        for a, i, j in itertools.product(range(n2), repeat=3):
            tracker.update(E.evaluate(NJ.components[a, i, j], pt, ctx.mode), coords, (a, i, j))
    # the proof-table decomposition for one representative field pair
    X, Y, _, _, _ = ctx.test_fields()
    rows = ml.nijenhuis_rows(ctx.S, ctx.tb, prm, NJ, X, Y)
    for rid, resid in rows.items():
        for pt in ctx.points:
            coords = ctx.coords(pt)
            for idx, e in enumerate(resid):
                tracker.update(E.evaluate(e, pt, ctx.mode), coords, (rid, idx))
    return _tracker_suite("J-integrable", tracker)


def suite_J_parallel(ctx: SuiteContext) -> dict:
    prm = ctx.manifest.params[0]
    v = ml.parallelity_probe(ctx.J(prm), ctx.cc, ctx.S, ctx.tb, ctx.points, ctx.mode)
    return _never_suite("J-parallel", v)


def suite_F_parallel(ctx: SuiteContext) -> dict:
    prm = ctx.manifest.params[0]
    v = ml.parallelity_probe(ctx.F(prm), ctx.hc, ctx.S, ctx.tb, ctx.points, ctx.mode)
    return _never_suite("F-parallel", v)


def _never_suite(suite_id: str, v) -> dict:
    return _suite_result(suite_id, "pass" if v.holds else "fail", v.max_residual,
                         [v.witness.to_json()] if v.witness else [])


def suite_Phi_closedness(ctx: SuiteContext) -> dict:
    """Conditional report: dPhi(X^c, Y^c, Z^v) next to the Eq. (27) residual
    on distribution triples; the suite passes when the two vanish together."""
    prm = ctx.manifest.params[0]
    J = ctx.J(prm)
    Phi = ml.fundamental_form(J, ctx.gc)
    dPhi = ml.d_fundamental(Phi)
    frame = pc.distribution_frame(ctx.S, ctx.points, ctx.mode)
    M, conn, tb = ctx.M, ctx.conn, ctx.tb
    phi = ctx.S.phi

    tracker = ResidualTracker(ctx.mode, ctx.plan.tol)
    consistent = True
    witnesses = []
    for (iX, X), (iY, Y), (iZ, Z) in itertools.product(
            enumerate(frame), repeat=3):
        lhs = ml.dphi_on(dPhi, bd.clift_vector(tb, X), bd.clift_vector(tb, Y),
                         bd.vlift_vector(tb, Z))
        rhs = E.add(*(
            mf.contract("ab,a,b->", M.metric, mf.cov_vec(conn, V, U), mf.apply_11(phi, W))
            for U, V, W in ((X, Y, Z), (Y, Z, X), (Z, X, Y))))
        for pt in ctx.points:
            coords = ctx.coords(pt)
            lv = E.evaluate(lhs, pt, ctx.mode)
            rv = E.evaluate(rhs, pt, ctx.mode)
            tracker.update(lv, coords, (iX, iY, iZ, "dPhi"))
            tracker.note_scale(rv)
            lz = is_zero(lv) if ctx.mode == "exact" else scalar_abs(lv) <= ctx.plan.tol
            rz = is_zero(rv) if ctx.mode == "exact" else scalar_abs(rv) <= ctx.plan.tol
            if lz != rz:
                consistent = False
                witnesses.append({
                    "point": [scalar_str(c) for c in coords],
                    "frame": [iX, iY, iZ],
                    "value": f"dPhi={scalar_str(lv)} eq27={scalar_str(rv)}",
                })
    status = "pass" if consistent else "fail"
    return _tracker_suite("Phi-closedness", tracker, status=status,
                         witnesses=witnesses,
                         notes={"criterion": "dPhi vanishes iff the eq27 residual vanishes"})


def suite_F_integrability(ctx: SuiteContext) -> dict:
    prm = ctx.manifest.params[0]
    res = ml.check_F_integrability_conditions(ctx.S, ctx.conn, ctx.points, ctx.mode)
    NF = ml.nijenhuis_TM(ctx.F(prm))
    n2 = 2 * ctx.manifest.n
    nf_zero = True
    for pt in ctx.points:
        for a, i, j in itertools.product(range(n2), repeat=3):
            v = E.evaluate(NF.components[a, i, j], pt, ctx.mode)
            if not (is_zero(v) if ctx.mode == "exact" else scalar_abs(v) <= ctx.plan.tol):
                nf_zero = False
                break
        if not nf_zero:
            break
    conditions_hold = res["D_flat"].holds and res["e4"].holds
    consistent = (nf_zero == conditions_hold) and res["e5_equivalence"].holds
    worst = max(res.values(), key=lambda v: scalar_abs(v.max_residual))
    witnesses = []
    for key in ("D_flat", "e4", "e5"):
        v = res[key]
        if v.witness:
            w = v.witness.to_json()
            w["axiom"] = v.axiom_id
            w["status"] = v.status
            witnesses.append(w)
    return _suite_result("F-integrability-conditions", "pass" if consistent else "fail",
                         worst.max_residual, witnesses, notes={
                             "D_flat": res["D_flat"].status,
                             "e4": res["e4"].status,
                             "e5": res["e5"].status,
                             "e5_equiv_eta_nabla": res["e5_equivalence"].status,
                             "N_F_vanishes": nf_zero,
                             "criterion": "N_F vanishes iff (D-flat and e4) hold",
                         })


def suite_Phi_prime(ctx: SuiteContext) -> dict:
    """dPhi'(X^h, X^v, xi^v) = -((2s-p)/6) (g(X,X))^v on distribution fields;
    the measured sign is recorded in the report conventions."""
    prm = ctx.manifest.params[0]
    Fm = ctx.F(prm)
    Phip = ml.fundamental_form(Fm, ctx.G)
    dPhip = ml.d_fundamental(Phip)
    frame = pc.distribution_frame(ctx.S, ctx.points, ctx.mode)
    M, tb = ctx.M, ctx.tb
    amp6 = E.const(prm.amp * Fraction(1, 3))  # (2s-p)/6
    xiv = bd.vlift_vector(tb, ctx.S.xi)

    tracker = ResidualTracker(ctx.mode, ctx.plan.tol)
    nonzero_all = True
    sign_counts = {"+": 0, "-": 0}
    for i, X in enumerate(frame):
        val_e = ml.dphi_on(dPhip, bd.hlift_vector(tb, X), bd.vlift_vector(tb, X), xiv)
        gXX = mf.contract("ab,a,b->", M.metric, X, X)
        resid = E.add(val_e, E.mul(amp6, gXX))  # expect zero for sign "-"
        for pt in ctx.points:
            coords = ctx.coords(pt)
            v = E.evaluate(resid, pt, ctx.mode)
            tracker.update(v, coords, (i,))
            dval = E.evaluate(val_e, pt, ctx.mode)
            if is_zero(dval) if ctx.mode == "exact" else scalar_abs(dval) <= ctx.plan.tol:
                nonzero_all = False
            else:
                sign_counts["-" if float(dval) < 0 else "+"] += 1
    if sign_counts["-"] >= sign_counts["+"]:
        ctx.dphi_prime_sign = "-"
    else:
        ctx.dphi_prime_sign = "+"
    status = "pass" if (tracker.all_zero and nonzero_all) else "fail"
    return _tracker_suite("Phi-prime", tracker, status=status,
                         notes={"measured_sign": ctx.dphi_prime_sign,
                                "criterion": "dPhi'(X^h,X^v,xi^v) = -((2sigma-p)/6) g(X,X)^v, nonzero"})


_SUITES = {
    "axioms": suite_axioms,
    "lifts": suite_lifts,
    "J-metallic": suite_J_metallic,
    "J-compat": suite_J_compat,
    "J-integrable": suite_J_integrable,
    "J-parallel": suite_J_parallel,
    "Phi-closedness": suite_Phi_closedness,
    "F-metallic": suite_F_metallic,
    "F-compat": suite_F_compat,
    "F-integrability-conditions": suite_F_integrability,
    "F-parallel": suite_F_parallel,
    "Phi-prime": suite_Phi_prime,
}


def run_suites(manifest: Manifest, suites: Optional[Sequence[str]] = None,
               plan: Optional[SamplePlan] = None) -> dict:
    """Run the requested suites (all by default) with axiom gating and
    return the full report document."""
    plan = plan or manifest.plan
    requested = list(suites) if suites else list(SUITE_IDS)
    for sid in requested:
        if sid not in _SUITES:
            raise ManifestError(f"unknown suite {sid!r}; known: {', '.join(SUITE_IDS)}")

    ctx = SuiteContext(manifest, plan)
    results = []
    axioms_ok = True

    ordered = [sid for sid in SUITE_IDS if sid in requested]

    # always gate on the axioms, even when the suite itself is filtered out
    axioms_res = suite_axioms(ctx)
    axioms_ok = axioms_res["status"] == "pass"

    for sid in ordered:
        if sid == "axioms":
            results.append(axioms_res)
            continue
        if not axioms_ok:
            results.append(_suite_result(sid, "skipped", 0, [], notes={
                "reason": "axioms suite failed; structure suites not run"}))
            continue
        results.append(_SUITES[sid](ctx))

    return {
        "tool": {"name": TOOL_NAME, "version": TOOL_VERSION},
        "manifest": manifest.name,
        "manifest_hash": manifest.sha256(),
        "plan": plan.to_json(),
        "conventions": {
            "xc_sign": "+",
            "d1form": "1/2",
            "dphi_prime_sign": ctx.dphi_prime_sign,
        },
        "suites": results,
    }


def emit_report(report: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_report(report))


def render_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def report_all_pass(report: dict) -> bool:
    return all(s["status"] == "pass" for s in report["suites"])
