"""Residual aggregation: exact verdicts are decided without float()."""

import sys
from fractions import Fraction

from metallic_tm.harness import _tracker_suite
from metallic_tm.verdicts import ResidualTracker


def test_tiny_exact_residual_is_not_zero():
    """1/10^400 is 0.0 as a float, but not zero."""
    tracker = ResidualTracker("exact")
    tracker.update(0, (1,), (0,))
    tracker.update(Fraction(1, 10 ** 400), (1,), (1,))
    assert not tracker.all_zero
    assert tracker.verdict("tiny").status == "fails"
    assert tracker.witness.frame == (1,)


def test_huge_exact_residual_is_ranked_and_reported():
    """Residuals beyond the float range are ranked exactly, and the report
    gives the largest float in place of the value."""
    big = Fraction(10 ** 400)
    tracker = ResidualTracker("exact")
    for frame, value in enumerate((Fraction(1), -big, big - 1, big)):
        tracker.update(value, (2,), (frame,))
    assert tracker.max_value == -big
    assert tracker.witness.frame == (1,)
    assert tracker.verdict("huge").status == "fails"
    doc = _tracker_suite("huge", tracker)
    assert doc["status"] == "fail"
    assert doc["max_residual"]["float"] == -sys.float_info.max
