"""Checks of one ``metallic-tm verify`` report against facts known in advance.

An operation is one suite of one verify process.  It fails when its status
differs from the one the method must give on the chart, or when the process
crashed (a traceback, an exit code other than 0 and 1, or no readable
report), which fails all twelve.  Every other disagreement with the facts
below is a problem: it makes the run incorrect.

- ``manifest_hash`` is the SHA-256 of the manifest bytes that were passed;
- ``plan`` has the requested count, seed and mode;
- the suites are ``SUITE_IDS``, in order;
- the exit code is 0 exactly when every suite passes;
- on an exact run of a P-Sasakian chart every suite passes, the identity
  suites have an exact residual of ``"0"``, and J-parallel and F-parallel a
  nonzero one, since neither structure is parallel;
- on a float run each suite is held against an exact run of the same
  manifest and points: that run gives the expected status, and the float
  residual of each suite that did not fail agrees with the exact one.
"""

from __future__ import annotations

import hashlib
import json
from typing import List, Optional, Sequence

# the twelve suites of the verifier, in report order (README, "Verification
# suites")
SUITE_IDS = (
    "axioms", "lifts", "J-metallic", "J-compat", "J-integrable", "J-parallel",
    "Phi-closedness", "F-metallic", "F-compat", "F-integrability-conditions",
    "F-parallel", "Phi-prime",
)

# suites whose residual is an identity that holds exactly on the chart
IDENTITY_SUITES = frozenset({
    "axioms", "lifts", "J-metallic", "J-compat", "J-integrable",
    "Phi-closedness", "F-metallic", "F-compat", "Phi-prime",
})

# suites whose residual is (nabla~ T) xi~ on ker(eta): never zero
NONPARALLEL_SUITES = frozenset({"J-parallel", "F-parallel"})

# float residuals of a passing suite must match the exact ones this closely
FLOAT_AGREEMENT = 1e-6


def crash_reason(returncode: int, stderr: str, report_bytes: Optional[bytes]) -> Optional[str]:
    """Why a verify process counts as crashed, or None.  Exit code 1 only
    says that a suite failed."""
    if "Traceback (most recent call last)" in stderr:
        return "traceback"
    if returncode not in (0, 1):
        return f"exit code {returncode}"
    if report_bytes is None:
        return "missing report"
    try:
        doc = json.loads(report_bytes)
    except ValueError:
        return "unreadable report"
    if not isinstance(doc, dict) or not isinstance(doc.get("suites"), list):
        return "report without suites"
    return None


def check_header(doc: dict, manifest_bytes: bytes, count: int, seed: int, mode: str) -> List[str]:
    problems = []
    want = hashlib.sha256(manifest_bytes).hexdigest()
    if doc.get("manifest_hash") != want:
        problems.append(f"manifest_hash {doc.get('manifest_hash')!r} is not {want}")
    plan = doc.get("plan") or {}
    for key, value in (("count", count), ("seed", seed), ("mode", mode)):
        if plan.get(key) != value:
            problems.append(f"plan.{key} is {plan.get(key)!r}, requested {value!r}")
    ids = [s.get("id") for s in doc["suites"]]
    if ids != list(SUITE_IDS):
        problems.append(f"suite ids {ids} are not the twelve suites in order")
    return problems


def score_round(returncode: int, stderr: str, report_bytes: Optional[bytes], *,
                manifest_bytes: bytes, count: int, seed: int, mode: str,
                reference: Optional[dict] = None, left_out: Sequence[str] = ()):
    """Score one verify process.

    ``reference`` is the parsed report of an exact run of the same manifest
    and points, for a float run; without it every suite is expected to pass
    and float residuals go unchecked.  Suites in ``left_out`` are run but
    are no operations: their status and residual are not checked.  Returns
    ``(failed, problems, crash)``: the operations (suite ids) that failed,
    the problems found, and the crash reason or None.
    """
    counted = [sid for sid in SUITE_IDS if sid not in left_out]
    crash = crash_reason(returncode, stderr, report_bytes)
    if crash is not None:
        return counted, [], crash
    doc = json.loads(report_bytes)
    problems = check_header(doc, manifest_bytes, count, seed, mode)
    suites = {s.get("id"): s for s in doc["suites"]}
    ref = {s.get("id"): s for s in (reference or {}).get("suites", [])}
    failed = [sid for sid in counted if sid not in suites
              or suites[sid].get("status") != ref.get(sid, {}).get("status", "pass")]

    all_pass = all(s.get("status") == "pass" for s in doc["suites"])
    if (returncode == 0) != all_pass:
        problems.append(f"exit code {returncode} but all suites pass is {all_pass}")

    for sid in counted:
        if sid in failed:
            continue
        residual = suites[sid].get("max_residual") or {}
        if mode == "exact":
            exact = residual.get("exact")
            if sid in IDENTITY_SUITES and exact != "0":
                problems.append(f"{sid}: identity residual {exact!r} is not 0")
            if sid in NONPARALLEL_SUITES and exact in (None, "0"):
                problems.append(f"{sid}: residual {exact!r} should be nonzero")
        elif sid in ref:
            got, want = residual.get("float"), ref[sid]["max_residual"]["float"]
            if not isinstance(got, (int, float)) or \
                    abs(got - want) > FLOAT_AGREEMENT * max(1.0, abs(want)):
                problems.append(f"{sid}: float residual {got!r} disagrees with exact {want!r}")
    return failed, problems, None
