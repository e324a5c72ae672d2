"""Manifest ingestion, sample planning, suite orchestration and reports.

A manifest is a JSON description of a charted manifold with an almost
paracontact structure and a list of metallic parameter sets.  The harness
samples admissible rational points deterministically, runs the proposition
suites, and emits a reproducible JSON report.
"""

from __future__ import annotations

import json
import random
import re
import sys
from functools import cached_property
from fractions import Fraction
from typing import Any, Dict, List, NamedTuple, Optional, Sequence

try:  # CPython's own SHA-256: hashlib would load OpenSSL's libcrypto for one digest
    from _sha2 import sha256  # CPython 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 and 3.11
    except ImportError:  # an interpreter built without either
        from hashlib import sha256

from . import bundle as bd
from . import exprs as E
from . import manifold as mf
from . import metallic as ml
from . import paracontact as pc
from .exprs import Var
from .scalars import abs_greater, scalar_float, scalar_str, sign
from .verdicts import (FLOAT_TOL, AxiomVerdict, Witness, meets_zero, residual_verdict, vanishes,
                       worst)

TOOL_NAME = "metallic-tm"
TOOL_VERSION = "0.1.0"


class ManifestError(ValueError):
    """Invalid manifest content (shape, parse, or parameter errors)."""


class SamplingError(RuntimeError):
    """No admissible sample point found within the retry budget."""


class SamplePlan(NamedTuple):
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


class Manifest(NamedTuple):
    """A parsed manifest; ``raw_bytes`` are the file's bytes, hashed into the report."""
    name: str
    n: int
    manifold: mf.ChartedManifold
    structure: pc.ParacontactStructure
    params: List[ml.MetallicParams]
    plan: SamplePlan
    raw_bytes: bytes = b""

    def sha256(self) -> str:
        return sha256(self.raw_bytes).hexdigest()


def _check_keys(doc: dict, allowed: str, where: str) -> None:
    """Reject keys outside the space-separated ``allowed``, as the schema does."""
    unknown = sorted(set(doc) - set(allowed.split()))
    if unknown:
        raise ManifestError(f"{where}: unknown key(s) {', '.join(map(repr, unknown))}")


def _is_int(x) -> bool:
    """A JSON integer: an int that is not a bool."""
    return isinstance(x, int) and not isinstance(x, bool)


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")  # the schema's rational literal


def _frac(x, where: str) -> Fraction:
    """A range end: a JSON integer or a string such as ``"-3"`` or ``"7/2"``."""
    if _is_int(x):
        return Fraction(x)
    if isinstance(x, str) and _RATIONAL.fullmatch(x):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ManifestError(f"{where}: {x!r} has a zero denominator") from None
        except ValueError:  # more digits than the interpreter converts
            raise ManifestError(f"{where}: a literal of {len(x)} characters is too long") from None
    raise ManifestError(f"{where}: expected an integer or a literal like \"-7/2\", got {x!r}")


def _parse_expr(text, n: int, where: str) -> E.Expr:
    if not isinstance(text, str):
        raise ManifestError(f"{where}: expression must be a string, got {text!r}")
    try:
        return E.parse(text, n)
    except E.ParseError as exc:
        raise ManifestError(f"{where}: {exc}") from None


def _parse_vector(items, n: int, where: str) -> list:
    if not isinstance(items, list) or len(items) != n:
        raise ManifestError(f"{where}: expected {n} entries")
    return [_parse_expr(e, n, f"{where}[{i}]") for i, e in enumerate(items)]


def _parse_matrix(rows, n: int, where: str) -> list:
    if not isinstance(rows, list) or len(rows) != n:
        raise ManifestError(f"{where}: expected {n} rows")
    return [_parse_vector(row, n, f"{where}[{i}]") for i, row in enumerate(rows)]


def _parse_plan(doc, n: int) -> SamplePlan:
    if not isinstance(doc, dict):
        raise ManifestError(f"sample_plan must be an object, got {doc!r}")
    _check_keys(doc, "count seed mode base_ranges fiber_ranges tolerance", "sample_plan")
    count = doc.get("count", 10)
    if not _is_int(count) or count < 1:
        raise ManifestError(f"sample plan count must be a positive integer, got {count!r}")
    seed = doc.get("seed", 2024)
    if not _is_int(seed):
        raise ManifestError("sample plan seed must be an integer")
    tol = doc.get("tolerance", FLOAT_TOL)
    if (isinstance(tol, bool) or not isinstance(tol, (int, float))
            or not 0 < tol <= sys.float_info.max):
        raise ManifestError(f"sample plan tolerance must be a positive number, got {tol!r}")
    mode = doc.get("mode", "exact")
    if mode not in ("exact", "float"):
        raise ManifestError(f"sample plan mode must be exact or float, got {mode!r}")

    def ranges(key, default_lo, default_hi):
        if key not in doc:
            return tuple((default_lo, default_hi) for _ in range(n))
        rs = doc[key]
        if not isinstance(rs, list) or len(rs) != n:
            raise ManifestError(f"sample plan {key} must list {n} intervals")
        out = []
        for r in rs:
            if not isinstance(r, list) or len(r) != 2:
                raise ManifestError(f"sample plan {key} entries must be [lo, hi]")
            lo, hi = (_frac(end, f"sample plan {key}") for end in r)
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
        tol=float(tol),
    )


def parse_manifest(doc: dict, raw: bytes = b"") -> Manifest:
    if not isinstance(doc, dict):
        raise ManifestError("manifest must be a JSON object")
    _check_keys(doc, "name dimension coordinates domain metric phi eta xi metallic sample_plan",
                "manifest")
    try:
        n = doc["dimension"]
    except KeyError:
        raise ManifestError("manifest is missing 'dimension'") from None
    if not _is_int(n) or n < 2:
        raise ManifestError(f"dimension must be an integer >= 2, got {n!r}")

    coords = doc.get("coordinates", [f"x{i}" for i in range(1, n + 1)])
    if not isinstance(coords, list) or len(coords) != n or not all(
            isinstance(c, str) for c in coords):
        raise ManifestError(f"coordinates must list {n} names, got {coords!r}")
    name = doc.get("name", "unnamed")
    if not isinstance(name, str):
        raise ManifestError(f"name must be a string, got {name!r}")

    for key in ("metric", "phi", "eta", "xi"):
        if key not in doc:
            raise ManifestError(f"manifest is missing '{key}'")

    variables = tuple(Var("base", i) for i in range(1, n + 1))
    metric = _parse_matrix(doc["metric"], n, "metric")
    domain = doc.get("domain", [])
    if not isinstance(domain, list):
        raise ManifestError(f"domain must be a list of expressions, got {domain!r}")
    domain = [_parse_expr(e, n, f"domain[{i}]") for i, e in enumerate(domain)]
    M = mf.ChartedManifold(variables, metric, domain=domain)

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
        _check_keys(mp, "p q eps1 eps2", f"metallic[{i}]")
        try:
            params.append(ml.MetallicParams(
                p=mp.get("p"), q=mp.get("q"),
                eps1=mp.get("eps1", 1), eps2=mp.get("eps2", 1),
            ))
        except (TypeError, ValueError) as exc:
            raise ManifestError(f"metallic[{i}]: {exc}") from None

    plan = _parse_plan(doc.get("sample_plan", {}), n)
    return Manifest(name, n, M, S, params, plan, raw)


def load_manifest(path: str) -> Manifest:
    """Read and parse a manifest file.  Raises ``OSError`` if it cannot be
    read, ``UnicodeDecodeError`` if its bytes are not text in a JSON
    encoding, ``json.JSONDecodeError`` if the text is not JSON, ``ValueError``
    if it holds an integer too long for the interpreter to convert,
    ``RecursionError`` if it nests too deeply for the JSON decoder, and
    ``ManifestError`` if its content is invalid."""
    with open(path, "rb") as fh:
        raw = fh.read()
    return parse_manifest(json.loads(raw), raw)


# ----------------------------------------------------------------------
# sampling
# ----------------------------------------------------------------------

_MAX_REDRAWS = 2000


def sample_points(manifest: Manifest, plan: Optional[SamplePlan] = None):
    """Deterministic admissible bundle points (maps from ``Var``): exact
    rationals, made floats in float mode, so they decide the arithmetic."""
    plan = plan or manifest.plan
    if plan.count < 1:
        raise ManifestError("sample count must be at least 1")
    M = manifest.manifold
    n = manifest.n
    rng = random.Random(plan.seed)
    fiber_vars = tuple(Var("fiber", i) for i in range(1, n + 1))

    def draw(lo: Fraction, hi: Fraction) -> Fraction:
        den = rng.randint(2, 7)
        lo_i, hi_i = int(lo * den) + 1, int(hi * den) - 1
        while lo_i > hi_i:  # no k/den inside the range: a finer grid
            den *= 2
            lo_i, hi_i = int(lo * den) + 1, int(hi * den) - 1
        return Fraction(rng.randint(lo_i, hi_i), den)

    points = []
    rejected = 0  # draws rejected since the last admissible one
    while len(points) < plan.count:
        if rejected == _MAX_REDRAWS:
            raise SamplingError(
                f"no admissible point found after {_MAX_REDRAWS} draws; "
                "check domain constraints against base_ranges"
            )
        rejected += 1
        base = [draw(lo, hi) for lo, hi in plan.base_ranges]
        pt = dict(zip(M.variables, base))
        try:
            if not all(E.evaluate(c, pt) > 0 for c in M.domain):
                continue
        except E.EvalError:  # a constraint undefined at the draw rejects it too
            continue
        fiber = [draw(lo, hi) for lo, hi in plan.fiber_ranges]
        if all(f == 0 for f in fiber):
            continue
        rejected = 0
        pt.update(zip(fiber_vars, fiber))
        points.append(pt)

    if plan.mode == "float":
        return [{v: float(c) for v, c in pt.items()} for pt in points]
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
        self.g = mf.TensorField(self.M, (0, 2), self.M.metric)
        self.points = sample_points(manifest, plan)
        self.values = E.Values(self.points)  # the value cache of one suite
        self._psi: Dict[tuple, mf.TensorField] = {}
        # the listed parameter sets by sign pair, pairs in order of first listing
        self.sign_pairs: Dict[tuple, List[ml.MetallicParams]] = {}
        for prm in manifest.params:
            self.sign_pairs.setdefault((prm.eps1, prm.eps2), []).append(prm)

    # geometry, built on first read: ``--suites axioms`` reads conn alone
    conn = cached_property(lambda self: mf.christoffel(self.M))
    tb = cached_property(lambda self: bd.TangentBundleChart(self.M, self.conn))
    gc = cached_property(lambda self: bd.lift(self.tb, "c", self.g))
    G = cached_property(lambda self: bd.sasaki_metric(self.tb))
    cc = cached_property(lambda self: bd.clift_connection(self.tb))
    hc = cached_property(lambda self: bd.hlift_connection(self.tb))
    # the spanning fields of D = ker(eta)
    frame = cached_property(lambda self: pc.distribution_frame(self.S, self.values, self.plan.tol))

    def psi(self, lift: str, signs: Optional[tuple] = None) -> mf.TensorField:
        """Psi of J (lift "c") or F (lift "h") for a sign pair, by default that
        of the first listed set; built on first use, it is the unit of work
        of every structure suite."""
        key = (lift,) + (signs or next(iter(self.sign_pairs)))
        if key not in self._psi:
            self._psi[key] = ml.build_psi(self.S, self.tb, *key)
        return self._psi[key]

    def test_fields(self):
        """Deterministic non-constant fields exercising all lift laws."""
        M, n, x = self.M, self.M.n, self.M.variables
        zeros = [E.ZERO] * (n - 2)
        X = mf.TensorField(M, (1, 0), [x[1], E.ZERO] + zeros)
        Y = mf.TensorField(M, (1, 0), [E.ZERO, E.mul(x[0], x[n - 1])] + zeros)
        w = mf.TensorField(M, (0, 1), [x[1], E.ZERO] + zeros)
        F2 = mf.TensorField(M, (1, 1), [[x[(a + b) % n] if (a + b) % 2 == 0 else E.ZERO
                                         for b in range(n)] for a in range(n)])
        return X, Y, x[0], w, F2


class SuiteResult(NamedTuple):
    """The outcome of one suite; ``witnesses`` are (Witness, tags) pairs."""
    status: str  # "pass", "fail" or "skipped"
    max_residual: Any = 0
    witnesses: Sequence = ()
    notes: Optional[dict] = None

    def to_json(self, suite_id: str) -> dict:
        """The suite's report entry: the one writer of its fields."""
        out = {
            "id": suite_id,
            "status": self.status,
            "max_residual": {"exact": scalar_str(self.max_residual),
                             "float": scalar_float(self.max_residual)},
            "witnesses": [{**w.to_json(), **tags} for w, tags in self.witnesses],
        }
        if self.notes:
            out["notes"] = self.notes
        return out


def _witnesses(verdicts, *tags) -> list:
    """The witnesses of ``verdicts``, each tagged with the ``tags``
    ("axiom", "status") of its verdict."""
    return [(v.witness, {t: v.axiom_id if t == "axiom" else v.status for t in tags})
            for v in verdicts if v.witness]


def _result(verdicts, status: Optional[str] = None, notes: Optional[dict] = None,
            tags: tuple = ("axiom",), witnesses: Optional[list] = None) -> SuiteResult:
    """The result of a suite from its verdicts: the worst residual of them
    all and, by default, "pass" when every verdict holds, with the witnesses
    of the failed verdicts, or of the worst when none failed, tagged with
    the ``tags`` of their verdicts."""
    failed = [v for v in verdicts if not v.holds]
    top = worst(verdicts)
    if witnesses is None:
        witnesses = _witnesses(failed or [top], *tags)
    return SuiteResult(status or ("fail" if failed else "pass"), top.max_residual,
                       witnesses, notes)


def _t_level(value, coefs):
    """The first largest of coef * value over ``coefs``: a Psi-level value as
    the T-level values of listed parameter sets (a float coef for a float)."""
    out = [(float(c) if isinstance(value, float) else c) * value for c in coefs]
    return next(v for v in out if not any(abs_greater(u, v) for u in out))


def _t_verdict(verdict, coefs):
    """``verdict``, decided on Psi over Q, with its worst residual and
    witness value at the T level (``_t_level``)."""
    value = _t_level(verdict.max_residual, coefs)
    witness = verdict.witness and verdict.witness._replace(value=scalar_str(value))
    return verdict._replace(max_residual=value, witness=witness)


def _decide(ctx: SuiteContext, chart, residuals: dict) -> list:
    """(verdict, values per point) of each residual array of ``residuals``,
    keyed by axiom id, at the sample points (``verdicts.residual_verdict``):
    the one decision path, which every suite takes and no suite bypasses."""
    return [residual_verdict(aid, chart, ctx.values, ctx.plan.tol, r)
            for aid, r in residuals.items()]


# ----------------------------------------------------------------------
# the 12 suites
# ----------------------------------------------------------------------

def suite_axioms(ctx: SuiteContext) -> SuiteResult:
    S = ctx.S
    return _result([v for v, _ in _decide(ctx, ctx.M, {
        **pc.almost_paracontact(S), **pc.metric_compat(S), **pc.p_sasakian(S, ctx.conn)})])


def suite_lifts(ctx: SuiteContext) -> SuiteResult:
    tb, M, conn = ctx.tb, ctx.M, ctx.conn
    n = M.n
    X, Y, f, w, F2 = ctx.test_fields()
    prm = ctx.manifest.params[0]
    residuals: Dict[str, Any] = {}  # law id -> list or array of exprs

    Xv, Xc, Xh = (bd.lift(tb, kind, X) for kind in "vch")
    Yv, Yc, Yh = (bd.lift(tb, kind, Y) for kind in "vch")
    Xf = mf.contract("m,m->", X, M.partials(f))

    def nabla(C, U, V):  # nabla_U V, one row of cov_rows
        return mf.cov_rows(C, mf.rows([U], U.base.n), mf.rows([V], U.base.n))[0, 0]

    def vertical(v):  # v^v, the vertical lift of a base vector field v
        return bd.lift(tb, "v", mf.TensorField(M, (1, 0), v)).components

    # function lift laws
    for label, U, fn, want in (
        ("Xv-fv", Xv, bd.lift(tb, "v", f), E.ZERO),
        ("Xv-fc", Xv, bd.lift(tb, "c", f), bd.lift(tb, "v", Xf)),
        ("Xc-fc", Xc, bd.lift(tb, "c", f), bd.lift(tb, "c", Xf)),
    ):
        residuals[label] = [mf.contract("a,a->", U, tb.chart.partials(fn)) - want]
    residuals["fh-zero"] = [bd.lift(tb, "h", f)]

    # bracket table; [X^h, Y^h] = [X, Y]^h - gamma R(X, Y), gamma R(X, Y) = (R(X, Y)y)^v
    XYb = mf.lie_derivative(X, Y)
    residuals["bracket-vv"] = mf.lie_derivative(Xv, Yv).components
    residuals["bracket-cc"] = (mf.lie_derivative(Xc, Yc).components
                               - bd.lift(tb, "c", XYb).components)
    residuals["bracket-vh"] = mf.add(mf.lie_derivative(Xv, Yh).components,
                                     vertical(nabla(conn, Y, X)))
    residuals["bracket-hh"] = mf.add(
        mf.lie_derivative(Xh, Yh).components, -bd.lift(tb, "h", XYb).components,
        vertical(mf.contract("lijk,i,j,k->l", tb.curvature, X, Y, tb.fiber_vars)))

    # metric pairings
    gXY = mf.contract("ab,a,b->", M.metric, X, Y)
    gh = bd.lift(tb, "h", ctx.g)
    for label, metric, U, V, want in (
        ("gc-vv", ctx.gc, Xv, Yv, E.ZERO),
        ("gc-vc", ctx.gc, Xv, Yc, gXY),
        ("gc-cv", ctx.gc, Xc, Yv, gXY),
        ("gc-cc", ctx.gc, Xc, Yc, bd.lift(tb, "c", gXY)),
        ("gh-vv", gh, Xv, Yv, E.ZERO),
        ("gh-hh", gh, Xh, Yh, E.ZERO),
        ("gh-vh", gh, Xv, Yh, gXY),
        ("G-vv", ctx.G, Xv, Yv, gXY),
        ("G-hh", ctx.G, Xh, Yh, gXY),
        ("G-vh", ctx.G, Xv, Yh, E.ZERO),
    ):
        residuals[label] = [mf.contract("ab,a,b->", metric, U, V) - want]

    # one-form lift laws
    wX = mf.contract("m,m->", w, X)
    wv, wc, wh = (bd.lift(tb, kind, w) for kind in "vch")
    for label, form, U, want in (
        ("wv-Xc", wv, Xc, wX),
        ("wc-Xv", wc, Xv, wX),
        ("wc-Xc", wc, Xc, bd.lift(tb, "c", wX)),
        ("wh-Xh", wh, Xh, E.ZERO),
        ("wh-Xv", wh, Xv, wX),
    ):
        residuals[label] = [mf.contract("a,a->", form, U) - want]

    # (1,1) lift laws on frames
    F2lift = {kind: bd.lift(tb, kind, F2) for kind in "chv"}
    F2X = mf.apply_11(F2, X)
    for label, kind, arg, want in (
        ("Fc-Xc", "c", Xc, bd.lift(tb, "c", F2X)),
        ("Fc-Xv", "c", Xv, bd.lift(tb, "v", F2X)),
        ("Fh-Xh", "h", Xh, bd.lift(tb, "h", F2X)),
        ("Fh-Xv", "h", Xv, bd.lift(tb, "v", F2X)),
        ("Fv-Xc", "v", Xc, bd.lift(tb, "v", F2X)),
    ):
        residuals[label] = mf.apply_11(F2lift[kind], arg).components - want.components

    # polynomial functoriality with P(x) = x^2 - p x - q
    PFfield = mf.TensorField(M, (1, 1), ml.pq_residual(F2.components, prm.p, prm.q))
    for kind in ("c", "h"):
        lhs = ml.pq_residual(F2lift[kind].components, prm.p, prm.q)
        rhs = bd.lift(tb, kind, PFfield).components
        residuals[f"P-functorial-{kind}"] = (lhs - rhs).flat

    # lifted connection frame displays
    nXY = mf.TensorField(M, (1, 0), nabla(conn, X, Y))
    zero_vec = mf.zeros(2 * n)
    conn_cases = [
        ("cc-cc", ctx.cc, Xc, Yc, bd.lift(tb, "c", nXY).components),
        ("cc-vc", ctx.cc, Xv, Yc, bd.lift(tb, "v", nXY).components),
        ("cc-cv", ctx.cc, Xc, Yv, bd.lift(tb, "v", nXY).components),
        ("cc-vv", ctx.cc, Xv, Yv, zero_vec),
        ("hc-hh", ctx.hc, Xh, Yh, bd.lift(tb, "h", nXY).components),
        ("hc-hv", ctx.hc, Xh, Yv, bd.lift(tb, "v", nXY).components),
        ("hc-vh", ctx.hc, Xv, Yh, zero_vec),
        ("hc-vv", ctx.hc, Xv, Yv, zero_vec),
    ]
    for label, conn2, U, V, want in conn_cases:
        residuals[f"conn-{label}"] = nabla(conn2, U, V) - want
    # nabla^h_{X^c} Y^c = (nabla_X Y)^c - gamma R(., X, Y), gamma R(., X, Y) = (R(y, X)Y)^v
    residuals["conn-hc-cc"] = mf.add(
        nabla(ctx.hc, Xc, Yc), -bd.lift(tb, "c", nXY).components,
        vertical(mf.contract("lkij,k,i,j->l", tb.curvature, tb.fiber_vars, X, Y)))
    return _result([v for v, _ in _decide(ctx, tb.chart, residuals)])


def _pair_suite(ctx: SuiteContext, lift: str, residuals, ks: tuple, notes=None) -> SuiteResult:
    """The residual arrays ``residuals(psi, label)`` decided once per
    distinct sign pair, in the order the manifest first lists it; the
    verdict on the i-th array is reported at the T level of the listed sets
    with that pair, through their ``ks[i]``-th coefficient."""
    return _result([_t_verdict(v, [prm.coefficients()[k] for prm in sets])
                    for signs, sets in ctx.sign_pairs.items()
                    for (v, _), k in zip(_decide(ctx, ctx.tb.chart, residuals(
                        ctx.psi(lift, signs), ml.structure_label(lift, *signs))), ks)],
                   notes=notes)


def _metallic_suite(ctx: SuiteContext, lift: str) -> SuiteResult:
    """Psi^2 - I per sign pair; the notes name each pair whose T is metallic
    for no (p, q), with the closed form of its residual."""
    notes = {ml.structure_label(lift, *signs): "not metallic for any (p, q): Psi^2 - I = "
             f"(eps1 eps2 - 1) (eta^{lift} (x) xi^v + eta^v (x) xi^{lift}) != 0"
             for signs in ctx.sign_pairs if signs[0] != signs[1]}
    return _pair_suite(ctx, lift, lambda psi, label: {
        f"metallic[{label}]": ml.pq_residual(psi.components, 0, 1)}, (0,), notes)


def suite_J_metallic(ctx: SuiteContext) -> SuiteResult:
    return _metallic_suite(ctx, "c")


def suite_F_metallic(ctx: SuiteContext) -> SuiteResult:
    return _metallic_suite(ctx, "h")


def _compat_suite(ctx: SuiteContext, lift: str, metric: mf.TensorField) -> SuiteResult:
    """u = Psi^T G Psi - G at the level a^2/4, w = Psi^T G - G Psi at -a/2."""
    return _pair_suite(ctx, lift, lambda psi, label: ml.compat_residuals(metric, psi, label),
                       (0, 2))


def suite_J_compat(ctx: SuiteContext) -> SuiteResult:
    return _compat_suite(ctx, "c", ctx.gc)


def suite_F_compat(ctx: SuiteContext) -> SuiteResult:
    return _compat_suite(ctx, "h", ctx.G)


def suite_J_integrable(ctx: SuiteContext) -> SuiteResult:
    """N_J = (a^2/4) N_Psi, so N_J = 0 for all (p, q) exactly when N_Psi,
    decided over Q, is 0.  The proof-table rows that decompose N_Psi on
    lifted frames hold for any almost paracontact structure, so no manifest
    can fail them: the tests check them, not this suite."""
    (v, _), = _decide(ctx, ctx.tb.chart, {"N_Psi": mf.nijenhuis(ctx.psi("c")).components})
    return _result([_t_verdict(v, [ctx.manifest.params[0].amp_squared])], tags=())


def _parallel_suite(ctx: SuiteContext, lift: str, conn) -> SuiteResult:
    """T is never parallel: the probes (nabla~_X~ Psi) xi~ match their
    closed form and none vanishes at a point, over every direction of the
    D-frame (``metallic.parallelity_probes``).  A pass reports the largest
    probe; a fail the largest mismatch, or else the last vanishing probe."""
    probes, mismatch = ml.parallelity_probes(ctx.psi(lift), lift, conn, ctx.S, ctx.tb, ctx.frame)
    aid = f"never-parallel[{ml.STRUCTURES[lift]}]"
    (match, _), (probe, values) = _decide(ctx, ctx.tb.chart, {"match": mismatch, aid: probes})
    zeros = [Witness(ctx.tb.chart.coords(pt), (i,), "0") for i in range(len(probes))
             for pt, vals in zip(ctx.points, values)
             if all(meets_zero(v, ctx.plan.tol) for v in vals[i])]
    if match.holds and not zeros:
        v = probe._replace(status="holds")
    else:  # a mismatch that does not meet zero has a witness
        v = AxiomVerdict(aid, "fails", match.max_residual, match.witness or zeros[-1])
    return _result([_t_verdict(v, [-ctx.manifest.params[0].amp])], tags=())


def suite_J_parallel(ctx: SuiteContext) -> SuiteResult:
    return _parallel_suite(ctx, "c", ctx.cc)


def suite_F_parallel(ctx: SuiteContext) -> SuiteResult:
    return _parallel_suite(ctx, "h", ctx.hc)


def suite_Phi_closedness(ctx: SuiteContext) -> SuiteResult:
    """Conditional report: dPhi(X^c, Y^c, Z^v) next to the Eq. (27) residual
    on distribution triples; the suite passes when the two vanish together.
    dPhi is -a/2 times the coboundary on fields of g^c(., Psi .) over Q,
    which is what is decided."""
    scale = [-ctx.manifest.params[0].amp]
    M, tb, frame = ctx.M, ctx.tb, ctx.frame
    X = mf.rows(frame, M.n)
    Xc = bd.lifted_rows(tb, "c", frame)
    lhs = mf.coboundary(tb.chart, mf.contract("ak,kb->ab", ctx.gc, ctx.psi("c")),
                        Xc, Xc, bd.lifted_rows(tb, "v", frame))
    # g(nabla_{X_v} X_u, phi X_w) at [u, v, w]; eq. (27) sums its three cyclic shifts
    eq27 = mf.contract("ab,vua,wb->uvw", M.metric, mf.cov_rows(ctx.conn, X, X),
                       mf.contract("am,xm->xa", ctx.S.phi, X))
    rhs = mf.add(eq27, eq27.transpose(2, 0, 1), eq27.transpose(1, 2, 0))

    tol = ctx.plan.tol
    (dphi, lvs), (_, rvs) = _decide(ctx, tb.chart, {"dPhi": lhs, "eq27": rhs})
    # one per (triple, point) where exactly one of the two vanishes, triples outer
    witnesses = [(Witness(tb.chart.coords(pt), idx, f"dPhi={scalar_str(_t_level(lv[idx], scale))}"
                          f" eq27={scalar_str(rv[idx])}"), {})
                 for idx in mf.ndindex(lhs.shape) for pt, lv, rv in zip(ctx.points, lvs, rvs)
                 if meets_zero(lv[idx], tol) != meets_zero(rv[idx], tol)]
    return _result([_t_verdict(dphi, scale)],
                   status="fail" if witnesses else "pass", witnesses=witnesses,
                   notes={"criterion": "dPhi vanishes iff the eq27 residual vanishes"})


def suite_F_integrability(ctx: SuiteContext) -> SuiteResult:
    tol = ctx.plan.tol
    (d_flat, dvs), (e4, _), (e5, evs) = _decide(
        ctx, ctx.M, ml.F_integrability_residuals(ctx.S, ctx.conn, ctx.tb.curvature, ctx.frame))
    # e5 vanishes at a pair and point exactly when eta(nabla_X Y), the D-flat residual, does
    equivalent = all(meets_zero(d[i], tol) == all(meets_zero(v, tol) for v in e[i])
                     for d, e in zip(dvs, evs) for i in mf.ndindex(d.shape))
    equiv = AxiomVerdict("e5-equiv-eta-nabla", "holds" if equivalent else "fails", 0, None)
    NPsi = mf.nijenhuis(ctx.psi("h"))  # N_F = (a^2/4) N_Psi
    nf_zero = vanishes(NPsi.components, ctx.values, tol)
    consistent = (nf_zero == (d_flat.holds and e4.holds)) and equivalent
    return _result([d_flat, e4, e5, equiv], status="pass" if consistent else "fail",
                   witnesses=_witnesses([d_flat, e4, e5], "axiom", "status"),
                   notes={
                       "D_flat": d_flat.status,
                       "e4": e4.status,
                       "e5": e5.status,
                       "e5_equiv_eta_nabla": equiv.status,
                       "N_F_vanishes": nf_zero,
                       "criterion": "N_F vanishes iff (D-flat and e4) hold",
                   })


def suite_Phi_prime(ctx: SuiteContext) -> SuiteResult:
    """dPhi'(X^h, X^v, xi^v) = -((2s-p)/6) (g(X,X))^v on distribution fields.
    dPhi' is -a/2 times the coboundary on fields of G(., Psi .) over Q, whose
    value val is decided: the claim is val = g(X,X)/3, nonzero, and the
    measured sign of dPhi' is minus the sign of val, since -a/2 < 0."""
    M, tb, frame = ctx.M, ctx.tb, ctx.frame
    X = mf.rows(frame, M.n)
    val = mf.contract("xxz->x", mf.coboundary(  # the diagonal [i, i, 0]
        tb.chart, mf.contract("ak,kb->ab", ctx.G, ctx.psi("h")), bd.lifted_rows(tb, "h", frame),
        bd.lifted_rows(tb, "v", frame), bd.lifted_rows(tb, "v", [ctx.S.xi])))
    resid = mf.add(val, mf.contract("ab,xa,xb->x", M.metric, X, X) * E.const(Fraction(-1, 3)))

    (dphi, _), (_, vals) = _decide(ctx, tb.chart, {"dPhi'": resid, "val": val})
    vals = [v for arr in vals for v in arr.flat]
    nonzero = [v for v in vals if not meets_zero(v, ctx.plan.tol)]
    plus = sum(sign(v) < 0 for v in nonzero)  # dPhi' has the sign opposite to val
    return _result([_t_verdict(dphi, [-ctx.manifest.params[0].amp])],
                   status="pass" if dphi.holds and len(nonzero) == len(vals) else "fail",
                   tags=(), notes={
                       "measured_sign": "-" if len(nonzero) - plus >= plus else "+",
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
SUITE_IDS = tuple(_SUITES)  # in report order


def run_suites(manifest: Manifest, suites: Optional[Sequence[str]] = None,
               plan: Optional[SamplePlan] = None) -> dict:
    """Run the requested suites (all by default) with axiom gating and
    return the full report document."""
    plan = plan or manifest.plan
    requested = list(SUITE_IDS) if suites is None else list(suites)
    if not requested:
        raise ManifestError(f"no suite requested; known: {', '.join(SUITE_IDS)}")
    for sid in requested:
        if sid not in _SUITES:
            raise ManifestError(f"unknown suite {sid!r}; known: {', '.join(SUITE_IDS)}")

    ctx = SuiteContext(manifest, plan)
    # always gate on the axioms, even when the suite itself is filtered out
    results = {"axioms": suite_axioms(ctx)}
    skipped = SuiteResult("skipped", notes={
        "reason": "axioms suite failed; structure suites not run"})
    for sid in SUITE_IDS:
        if sid in results or sid not in requested:
            continue
        if results["axioms"].status != "pass":
            results[sid] = skipped
        else:
            ctx.values = E.Values(ctx.points)  # a value is kept for one suite
            results[sid] = _SUITES[sid](ctx)
    # the sign Phi-prime measured, or null when it did not run
    phi_prime = results.get("Phi-prime", skipped).notes

    return {
        "tool": {"name": TOOL_NAME, "version": TOOL_VERSION},
        "manifest": manifest.name,
        "manifest_hash": manifest.sha256(),
        "plan": plan.to_json(),
        "conventions": {
            "xc_sign": "+",
            "d1form": "1/2",
            "dphi_prime_sign": phi_prime.get("measured_sign"),
        },
        "suites": [results[sid].to_json(sid) for sid in SUITE_IDS if sid in requested],
    }


def emit_report(report: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_report(report))


def render_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def report_all_pass(report: dict) -> bool:
    return all(s["status"] == "pass" for s in report["suites"])
