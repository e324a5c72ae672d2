"""Command line entry points: manifest validation and suite verification."""

from __future__ import annotations

import argparse
import atexit
import gc
import sys
from typing import List, Optional

from . import harness
from .exprs import EvalError
from .harness import ManifestError
from .scalars import ScalarError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
_freeze_at_exit = True  # until main has registered gc.freeze with atexit


def bundled_manifest_path(name: str = "hyperbolic-h3") -> str:
    """Filesystem path of a manifest shipped with the package."""
    # imported here: on Python 3.12 it loads inspect, which verify never needs
    from importlib import resources

    ref = resources.files("metallic_tm").joinpath(f"manifests/{name}.json")
    return str(ref)


def _load(path: str):
    """``harness.load_manifest``; exits 2 on IO/JSON trouble, 1 on content."""
    try:
        return harness.load_manifest(path)
    except OSError as exc:
        message, code = f"cannot read {path}: {exc}", EXIT_USAGE
    except ManifestError as exc:
        message, code = f"{path}: {exc}", EXIT_FAIL
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError and UnicodeDecodeError are ValueErrors, and so is
        # the JSON decoder's refusal of an integer too long to convert
        message, code = f"{path} is not valid JSON: {exc}", EXIT_USAGE
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(code)


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
    given = {"count": args.points, "seed": args.seed, "mode": args.mode}
    manifest = manifest._replace(plan=manifest.plan._replace(
        **{k: v for k, v in given.items() if v is not None}))

    suites = None if args.suites is None else [s.strip() for s in args.suites.split(",")
                                                if s.strip()]

    try:
        report = harness.run_suites(manifest, suites=suites)
    except (ManifestError, harness.SamplingError, EvalError, ScalarError) as exc:
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
    pr.add_argument("--report", help="write the JSON report to this path")
    pr.set_defaults(func=cmd_verify)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run one command with the cyclic collector paused (the node graph is
    acyclic and lives for the run); the caller gets its collector state back."""
    global _freeze_at_exit
    if _freeze_at_exit:  # the exit's final collection then skips what is alive
        atexit.register(gc.freeze)
        _freeze_at_exit = False
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)  # argparse exits 2 on usage errors
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
