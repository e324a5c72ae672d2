"""Fast tests of the benchmark's report checker and trace bookkeeping.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import hashlib
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layer_trace  # noqa: E402
import report_check as rc  # noqa: E402

MANIFEST = b'{"name": "chart"}\n'


def good_report(mode="exact"):
    suites = []
    for sid in rc.SUITE_IDS:
        exact = "-1/2+sigma" if sid in rc.NONPARALLEL_SUITES else "0"
        suites.append({"id": sid, "status": "pass",
                       "max_residual": {"exact": exact, "float": 1.118 if exact != "0" else 0.0},
                       "witnesses": []})
    return {
        "manifest_hash": hashlib.sha256(MANIFEST).hexdigest(),
        "plan": {"count": 3, "seed": 7, "mode": mode},
        "suites": suites,
    }


def score(doc, returncode=0, stderr="", mode="exact", reference=None):
    raw = None if doc is None else json.dumps(doc).encode()
    return rc.score_round(returncode, stderr, raw, manifest_bytes=MANIFEST,
                          count=3, seed=7, mode=mode, reference=reference)


def test_good_report_passes():
    assert score(good_report()) == ([], [], None)


def test_changed_hash_is_flagged():
    doc = good_report()
    doc["manifest_hash"] = hashlib.sha256(MANIFEST + b" ").hexdigest()
    failed, problems, crash = score(doc)
    assert failed == [] and crash is None
    assert any("manifest_hash" in p for p in problems)


def test_plan_mismatch_is_flagged():
    doc = good_report()
    doc["plan"]["seed"] = 8
    assert any("plan.seed" in p for p in score(doc)[1])


def test_nonzero_identity_residual_is_flagged():
    doc = good_report()
    doc["suites"][2]["max_residual"] = {"exact": "1/3", "float": 1 / 3}
    failed, problems, _ = score(doc)
    assert failed == []
    assert any(p.startswith("J-metallic: identity residual") for p in problems)


def test_zero_parallel_residual_is_flagged():
    doc = good_report()
    doc["suites"][5]["max_residual"] = {"exact": "0", "float": 0.0}
    assert any(p.startswith("J-parallel") for p in score(doc)[1])


def test_missing_suite_is_flagged_and_failed():
    doc = good_report()
    del doc["suites"][4]
    failed, problems, _ = score(doc)
    assert failed == ["J-integrable"]
    assert any("suite ids" in p for p in problems)


def test_failed_suite_counts_and_exit_code_must_agree():
    doc = good_report()
    doc["suites"][8]["status"] = "fail"
    assert score(doc, returncode=1) == (["F-compat"], [], None)
    assert any("exit code 0" in p for p in score(doc, returncode=0)[1])


def test_crash_counts_every_suite_as_failed():
    trace = "Traceback (most recent call last):\n  ...\nZeroDivisionError"
    for returncode, stderr, doc, reason in (
        (1, trace, good_report(), "traceback"),
        (2, "error: bad manifest", good_report(), "exit code 2"),
        (-9, "", None, "exit code -9"),
        (0, "", None, "missing report"),
    ):
        failed, problems, crash = score(doc, returncode=returncode, stderr=stderr)
        assert failed == list(rc.SUITE_IDS)
        assert crash == reason
    failed, _, crash = rc.score_round(0, "", b"{not json", manifest_bytes=MANIFEST,
                                      count=3, seed=7, mode="exact")
    assert len(failed) == 12 and crash == "unreadable report"


def test_float_run_is_held_against_the_exact_reference():
    reference = good_report()
    doc = good_report("float")
    doc["suites"][7]["status"] = "fail"
    doc["suites"][7]["max_residual"] = {"exact": "1.9e-06", "float": 1.9e-6}
    assert score(doc, returncode=1, mode="float", reference=reference) == (["F-metallic"], [], None)
    doc["suites"][5]["max_residual"]["float"] = 1.2
    _, problems, _ = score(doc, returncode=1, mode="float", reference=reference)
    assert any(p.startswith("J-parallel: float residual") for p in problems)


def test_self_time_excludes_wrapped_children():
    tracer = layer_trace.Tracer()

    def leaf():
        time.sleep(0.02)

    wrapped_leaf = tracer.wrap("leaf", leaf)

    def parent():
        time.sleep(0.01)
        wrapped_leaf()
        wrapped_leaf()

    tracer.wrap("parent", parent)()
    calls, total, self_s = tracer.stats["parent"]
    assert calls == 1 and tracer.stats["leaf"][0] == 2
    assert abs(total - self_s - tracer.stats["leaf"][1]) < 1e-9
    assert 0.009 < self_s < total - 0.039


def test_tree_size_counts_shared_subtrees_once():
    from metallic_tm import exprs as E

    x, y = E.Var("base", 1), E.Var("base", 2)
    e = E.Mul([E.Add([x, y]), E.Add([x, y])])
    assert layer_trace.tree_size(e) == (7, 4)


def test_speed_probe_scales_by_the_samples_before_a_time():
    import run

    probe = run.SpeedProbe()
    probe.stop()
    assert probe.samples  # one loop is timed before the first wait
    probe.samples = [(1.0, 0.001), (2.0, 0.001), (3.0, 0.004), (4.0, 0.004)]
    assert probe.scale() == run.REFERENCE_CALIBRATION_S / 0.0025
    assert probe.scale(until=2.5) == run.REFERENCE_CALIBRATION_S / 0.001
    assert probe.scale(until=0.5) == probe.scale()
