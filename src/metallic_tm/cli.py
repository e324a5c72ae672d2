"""Command line entry points: manifest validation and suite verification."""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from typing import List, Optional

from . import harness
from .exprs import EvalError
from .harness import ManifestError, SamplePlan

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def bundled_manifest_path(name: str = "hyperbolic-h3") -> str:
    """Filesystem path of a manifest shipped with the package."""
    ref = resources.files("metallic_tm").joinpath(f"manifests/{name}.json")
    return str(ref)


def _schema_validate(doc: dict) -> Optional[str]:
    """Validate against the shipped JSON schema when jsonschema is present."""
    try:
        import jsonschema
    except ImportError:
        return None
    schema = json.loads(
        resources.files("metallic_tm")
        .joinpath("schemas/manifest.schema.json")
        .read_text()
    )
    try:
        jsonschema.validate(doc, schema)
    except jsonschema.ValidationError as exc:
        return f"schema: {exc.message}"
    return None


def _load(path: str):
    """Read and parse a manifest; exits 2 on IO/JSON trouble, 1 on content."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        print(f"error: {path} is not valid JSON: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    msg = _schema_validate(doc)
    if msg is not None:
        print(f"error: {path}: {msg}", file=sys.stderr)
        raise SystemExit(EXIT_FAIL)
    try:
        return harness.parse_manifest(doc, raw)
    except ManifestError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_FAIL)


def _parse_pq(text: str) -> List[dict]:
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ValueError(f"bad --pq entry {chunk!r}; expected 'p,q'")
        out.append({"p": int(parts[0]), "q": int(parts[1]), "eps1": 1, "eps2": 1})
    if not out:
        raise ValueError("--pq produced no parameter sets")
    return out


def cmd_validate(args) -> int:
    manifest = _load(args.manifest)
    print(
        f"{manifest.name}: dimension {manifest.n}, "
        f"{len(manifest.params)} metallic parameter set(s), "
        f"plan count={manifest.plan.count} seed={manifest.plan.seed} "
        f"mode={manifest.plan.mode}"
    )
    print("manifest is valid")
    return EXIT_OK


def cmd_verify(args) -> int:
    manifest = _load(args.manifest)

    if args.pq:
        try:
            pq = _parse_pq(args.pq)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        doc = json.loads(manifest.raw_bytes)
        doc["metallic"] = pq
        try:
            manifest = harness.parse_manifest(doc, manifest.raw_bytes)
        except ManifestError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_FAIL

    plan = manifest.plan
    plan = SamplePlan(
        count=args.points if args.points is not None else plan.count,
        seed=args.seed if args.seed is not None else plan.seed,
        mode=args.mode if args.mode is not None else plan.mode,
        base_ranges=plan.base_ranges,
        fiber_ranges=plan.fiber_ranges,
        tol=plan.tol,
    )

    suites = None
    if args.suites:
        suites = [s.strip() for s in args.suites.split(",") if s.strip()]

    try:
        report = harness.run_suites(manifest, suites=suites, plan=plan)
    except (ManifestError, harness.SamplingError, EvalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    for suite in report["suites"]:
        mr = suite["max_residual"]["exact"]
        print(f"{suite['id']:<30} {suite['status']:<8} max_residual={mr}")

    if args.report:
        try:
            harness.emit_report(report, args.report)
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return EXIT_USAGE
        print(f"report written to {args.report}")

    return EXIT_OK if harness.report_all_pass(report) else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metallic-tm",
        description="verify metallic structures on a tangent bundle chart",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("validate", help="check a manifest file")
    pv.add_argument("manifest", help="path to the manifest JSON")
    pv.set_defaults(func=cmd_validate)

    pr = sub.add_parser("verify", help="run verification suites")
    pr.add_argument("manifest", help="path to the manifest JSON")
    pr.add_argument("--suites", help="comma separated suite ids (default: all)")
    pr.add_argument("--points", type=int, help="number of sample points")
    pr.add_argument("--seed", type=int, help="sampler seed")
    pr.add_argument("--mode", choices=("exact", "float"), help="evaluation mode")
    pr.add_argument("--pq", help="override parameters, e.g. '1,1;2,1'")
    pr.add_argument("--report", help="write the JSON report to this path")
    pr.set_defaults(func=cmd_verify)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
