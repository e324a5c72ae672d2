"""Residual aggregation: exact verdicts are decided without float(), and
``ResidualTracker.track`` is the one loop that evaluates residuals."""

import ast
import pathlib
import sys
from fractions import Fraction

import numpy as np

import metallic_tm
from metallic_tm import exprs as E
from metallic_tm import manifold as mf
from metallic_tm.harness import _result
from metallic_tm.verdicts import ResidualTracker, residual_verdict


def test_tiny_exact_residual_is_not_zero():
    """1/10^400 is 0.0 as a float, but not zero."""
    tracker = ResidualTracker()
    tracker.update(0, (1,), (0,))
    tracker.update(Fraction(1, 10 ** 400), (1,), (1,))
    assert not tracker.all_zero
    assert tracker.verdict("tiny").status == "fails"
    assert tracker.witness.frame == (1,)


def test_huge_exact_residual_is_ranked_and_reported():
    """Residuals beyond the float range are ranked exactly, and the report
    gives the largest float in place of the value."""
    big = Fraction(10 ** 400)
    tracker = ResidualTracker()
    for frame, value in enumerate((Fraction(1), -big, big - 1, big)):
        tracker.update(value, (2,), (frame,))
    assert tracker.max_value == -big
    assert tracker.witness.frame == (1,)
    assert tracker.verdict("huge").status == "fails"
    result = _result([tracker.verdict("huge")])
    assert result.status == "fail" and result.max_residual == -big
    doc = result.to_json("huge")
    assert doc["status"] == "fail"
    assert doc["max_residual"] == {"exact": f"-{big}", "float": -sys.float_info.max}
    assert doc["witnesses"] == [{"point": ["2"], "frame": [1], "value": f"-{big}",
                                 "axiom": "huge"}]


class _Recorder(ResidualTracker):
    """A tracker that keeps every update it is given, in order."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def update(self, value, point_coords, frame):
        self.calls.append((value, tuple(point_coords), tuple(frame)))
        super().update(value, point_coords, frame)


def _line():
    x1, x2 = E.Var("base", 1), E.Var("base", 2)
    chart = mf.ChartedManifold((x1, x2))
    points = [E.Point(chart.point((Fraction(a), Fraction(b)))) for a, b in ((1, 2), (3, -1))]
    return chart, points, x1, x2


def test_track_updates_points_outer_then_components_under_label_frames():
    chart, points, x1, x2 = _line()
    arr = mf.asarray([[x1, x2], [E.mul(x1, x2), E.ZERO]])
    tracker = _Recorder()
    values = tracker.track(chart, points, ("lab",), arr)
    assert [c[1:] for c in tracker.calls] == [
        ((Fraction(a), Fraction(b)), ("lab",) + idx)
        for a, b in ((1, 2), (3, -1)) for idx in np.ndindex(2, 2)]
    # per point, an Array of the residual's shape
    assert [v.shape for v in values] == [(2, 2), (2, 2)]
    assert [v.flat for v in values] == [[1, 2, 2, 0], [3, -1, -3, 0]]
    assert values[1][1, 0] == -3 and values[1][1].flat == [-3, 0]
    assert [c[0] for c in tracker.calls] == values[0].flat + values[1].flat
    # 3 and then -3 at the second point: the first of the two is kept
    assert tracker.max_value == 3 and tracker.witness.frame == ("lab", 0, 0)
    assert tracker.witness.point == (3, -1)


def test_track_an_expression_has_the_label_as_its_frame():
    chart, points, x1, x2 = _line()
    tracker = _Recorder()
    values = tracker.track(chart, points, (0, 1, "dPhi"), E.add(x1, x2))
    assert [(v.shape, v.flat) for v in values] == [((), [3]), ((), [2])]
    assert values[0][()] == 3
    assert [c[2] for c in tracker.calls] == [(0, 1, "dPhi")] * 2


def test_track_evaluates_one_plain_array():
    """Each component is evaluated as it is, over Q at exact points and in
    floats at float points; nothing is scaled."""
    chart, points, x1, x2 = _line()
    values = ResidualTracker().track(chart, points, (), [x1, E.mul(E.const(Fraction(1, 2)), x2)])
    assert [v.flat for v in values] == [[1, 1], [3, Fraction(-1, 2)]]
    assert all(type(v) is Fraction for vals in values for v in vals)
    assert [v.flat for v in ResidualTracker().track(chart, points[:1], (), [E.ZERO])] == [[0]]
    float_point = E.Point({v: float(c) for v, c in points[0].items()})
    assert [v.flat for v in ResidualTracker().track(chart, [float_point], (), [x1])] == [[1.0]]


def test_track_keeps_the_first_of_equal_magnitudes():
    chart, points, x1, _ = _line()
    tracker = ResidualTracker()
    tracker.track(chart, points, ("t",), [E.mul(E.const(-2), x1), E.mul(E.const(2), x1)])
    assert tracker.max_value == -6
    assert tracker.witness.frame == ("t", 0) and tracker.witness.point == (3, -1)
    verdict, values = residual_verdict("tie", chart, points, 1e-9, [x1 - x1])
    assert verdict.holds and verdict.witness is None
    assert [v.flat for v in values] == [[0], [0]]


def test_the_points_decide_whether_the_tolerance_applies():
    """x1/10^6 is not zero at exact points, whatever the tolerance; at the
    same points as floats it is within a tolerance of 1e-3."""
    chart, points, x1, _ = _line()
    float_points = [E.Point({v: float(c) for v, c in pt.items()}) for pt in points]
    residual = E.mul(E.const(Fraction(1, 10 ** 6)), x1)
    exact = ResidualTracker(1e-3)
    exact.track(chart, points, (), [residual])
    assert exact.max_value == Fraction(3, 10 ** 6) and not exact.all_zero
    floats = ResidualTracker(1e-3)
    floats.track(chart, float_points, (), [residual])
    assert isinstance(floats.max_value, float) and floats.all_zero


def _loop_around_track(node) -> bool:
    """A ``for`` over ``ndindex`` whose body calls ``track``."""
    return (isinstance(node, ast.For) and "ndindex" in ast.unparse(node.iter)
            and any(isinstance(n, ast.Attribute) and n.attr == "track"
                    for stmt in node.body for n in ast.walk(stmt)))


def test_only_verdicts_updates_a_tracker():
    """Every residual check goes through ``ResidualTracker.track``: no other
    module calls a tracker's three-argument ``update``, and the per-module
    loop it replaced is gone.  The geometry builds residuals and the harness
    decides them: only ``verdicts`` and ``harness`` name the deciding types,
    no function of ``metallic`` takes points or a tolerance, in
    ``paracontact`` only ``distribution_frame`` does (to drop the frame
    members that vanish), and no loop over ``ndindex`` wraps ``track``."""
    src = pathlib.Path(metallic_tm.__file__).parent
    deciders = {"ResidualTracker", "residual_verdict", "AxiomVerdict"}
    takes_points = {}
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        assert "_check_array" not in text, path.name
        tree = ast.parse(text)
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        names |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
        if path.name not in ("verdicts.py", "harness.py"):
            assert not names & deciders, (path.name, names & deciders)
        assert not any(_loop_around_track(n) for n in ast.walk(tree)), path.name
        takes_points[path.stem] = sorted(
            n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)
            and {"points", "tol"} & {a.arg for a in n.args.args + n.args.kwonlyargs})
        if path.name == "verdicts.py":
            continue
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "update"):
                assert len(node.args) + len(node.keywords) <= 1, (path.name, node.lineno)
    assert takes_points["metallic"] == []
    assert takes_points["paracontact"] == ["distribution_frame"]
