"""Command line entry points: manifest validation and suite verification."""

from __future__ import annotations

import atexit
import gc
import sys
from types import SimpleNamespace
from typing import List, Optional

from . import harness
from .exprs import EvalError
from .harness import ManifestError
from .scalars import ScalarError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
USAGE = """\
usage: metallic-tm validate MANIFEST
       metallic-tm verify MANIFEST [--suites IDS] [--points N] [--seed N]
                                   [--mode exact|float] [--report PATH]
"""
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


# verify's options and the conversion of their values
_OPTIONS = {"--suites": str, "--points": int, "--seed": int, "--mode": str, "--report": str}


def parse_args(argv: List[str]) -> SimpleNamespace:
    """The command line as the namespace the commands read.  A usage error
    raises ValueError naming the argument."""
    if not argv or argv[0] not in ("validate", "verify"):
        raise ValueError(f"argument command: expected validate or verify, not {argv[0]!r}"
                         if argv else "argument command: missing")
    args = SimpleNamespace(command=argv[0], manifest=None, **{o[2:]: None for o in _OPTIONS})
    rest = iter(argv[1:])
    for word in rest:
        name, eq, value = word.partition("=")
        if name not in _OPTIONS or args.command == "validate":
            if args.manifest is not None or word.startswith("-") and word != "-":
                raise ValueError(f"unrecognized argument {word!r}")
            args.manifest = word
            continue
        if not eq:
            value = next(rest, None)
            if value is None or value.startswith("--"):
                raise ValueError(f"argument {name}: expected one value")
        try:
            setattr(args, name[2:], _OPTIONS[name](value))
        except ValueError:
            raise ValueError(f"argument {name}: expected an integer, not {value!r}") from None
    if args.manifest is None:
        raise ValueError("argument MANIFEST: missing")
    if args.mode not in (None, "exact", "float"):
        raise ValueError(f"argument --mode: expected exact or float, not {args.mode!r}")
    return args


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
        argv = sys.argv[1:] if argv is None else argv
        if "-h" in argv or "--help" in argv:
            print(USAGE, end="")
            return EXIT_OK
        try:
            args = parse_args(argv)
        except ValueError as exc:
            print(f"{USAGE}error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        return (cmd_validate if args.command == "validate" else cmd_verify)(args)
    except SystemExit as exc:  # _load exits on a manifest it cannot use
        return int(exc.code or 0)
    except MemoryError:
        pass  # reported below, once the exception has let go of the run's frames
    finally:
        if enabled:
            gc.enable()
    print("error: out of memory", file=sys.stderr)
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
