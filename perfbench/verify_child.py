"""One ``metallic-tm verify`` process, as the benchmark launches it.

    python3 perfbench/verify_child.py STAMP [--trace TRACE | --setup-only] -- verify MANIFEST ...

Everything after ``--`` goes to ``metallic_tm.cli.main`` unchanged, so the
process does what the ``metallic-tm`` console script does.  The one addition
is a stamp taken when ``harness.SuiteContext`` has been built: the time
(``time.monotonic``, the clock the parent reads before it spawns this
process) and the CPU time the process has used so far
(``time.process_time``).  It is written to STAMP as JSON when ``main``
returns.  With
``--trace`` the per-layer trace of ``layer_trace`` is installed first and
its metrics are written to TRACE.  With ``--setup-only`` the process exits
with code 0 as soon as the stamp is taken.
"""

from __future__ import annotations

import json
import sys
import time


class SetupDone(BaseException):
    """Ends a ``--setup-only`` process once the suite context is built."""


def main(argv) -> int:
    if "--" not in argv:
        print("usage: verify_child.py STAMP [--trace TRACE | --setup-only] -- CLI-ARGS",
              file=sys.stderr)
        return 2
    split = argv.index("--")
    own, cli_argv = argv[:split], argv[split + 1:]
    stamp_path = own[0]
    trace_path = own[2] if own[1:2] == ["--trace"] else None
    setup_only = own[1:] == ["--setup-only"]

    from metallic_tm import cli, harness

    tracer = None
    if trace_path:
        import layer_trace
        tracer = layer_trace.Tracer()
        tracer.install()

    built = []
    init = harness.SuiteContext.__init__

    def stamped_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append((time.monotonic(), time.process_time()))
        if setup_only:
            raise SetupDone

    harness.SuiteContext.__init__ = stamped_init
    try:
        rc = cli.main(cli_argv)
    except SetupDone:
        rc = 0

    with open(stamp_path, "w", encoding="utf-8") as fh:
        json.dump({"context_built": built[0][0] if built else None,
                   "cpu_s": built[0][1] if built else None}, fh)
    if tracer is not None:
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.metrics(), fh, sort_keys=True, indent=1)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
