"""Residual aggregation: exact verdicts are decided without float(), and
``ResidualTracker.track`` is the one loop that evaluates residuals.  Only
``verdicts`` drives a tracker: every suite decides through
``harness._decide``, which calls ``residual_verdict``, and a witness's frame
is the index of its residual component."""

import ast
import pathlib
import re
import sys
from fractions import Fraction

import numpy as np
import pytest

import metallic_tm
from metallic_tm import exprs as E
from metallic_tm import manifold as mf
from metallic_tm.harness import _result
from metallic_tm.verdicts import ResidualTracker, residual_verdict, vanishes

from conftest import chart_point


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
    points = [chart_point(chart, (Fraction(a), Fraction(b))) for a, b in ((1, 2), (3, -1))]
    return chart, points, x1, x2


def test_track_updates_points_outer_then_components_under_index_frames():
    chart, points, x1, x2 = _line()
    arr = mf.asarray([[x1, x2], [E.mul(x1, x2), E.ZERO]])
    tracker = _Recorder()
    values = tracker.track(chart, E.Values(points), arr)
    # the structural zero at (1, 1) is not evaluated and never reaches update
    assert [c[1:] for c in tracker.calls] == [
        ((Fraction(a), Fraction(b)), idx)
        for a, b in ((1, 2), (3, -1)) for idx in np.ndindex(2, 2) if idx != (1, 1)]
    # per point, an Array of the residual's shape
    assert [v.shape for v in values] == [(2, 2), (2, 2)]
    assert [v.flat for v in values] == [[1, 2, 2, 0], [3, -1, -3, 0]]
    assert values[1][1, 0] == -3 and values[1][1].flat == [-3, 0]
    assert [c[0] for c in tracker.calls] == values[0].flat[:3] + values[1].flat[:3]
    # 3 and then -3 at the second point: the first of the two is kept
    assert tracker.max_value == 3 and tracker.witness.frame == (0, 0)
    assert tracker.witness.point == (3, -1)


def test_track_an_expression_has_the_empty_frame():
    chart, points, x1, x2 = _line()
    tracker = _Recorder()
    values = tracker.track(chart, E.Values(points), E.add(x1, x2))
    assert [(v.shape, v.flat) for v in values] == [((), [3]), ((), [2])]
    assert values[0][()] == 3
    assert [c[2] for c in tracker.calls] == [()] * 2


def test_track_evaluates_one_plain_array():
    """Each component is evaluated as it is, over Q at exact points and in
    floats at float points; nothing is scaled."""
    chart, points, x1, x2 = _line()
    values = ResidualTracker().track(chart, E.Values(points),
                                     [x1, E.mul(E.const(Fraction(1, 2)), x2)])
    assert [v.flat for v in values] == [[1, 1], [3, Fraction(-1, 2)]]
    assert all(type(v) is Fraction for vals in values for v in vals)
    values = ResidualTracker().track(chart, E.Values(points[:1]), [E.ZERO])
    assert [v.flat for v in values] == [[0]]
    float_point = {v: float(c) for v, c in points[0].items()}
    values = ResidualTracker().track(chart, E.Values([float_point]), [x1])
    assert [v.flat for v in values] == [[1.0]]


@pytest.mark.parametrize("kind", [Fraction, float], ids=["exact", "float"])
def test_a_structural_zero_is_the_points_zero_without_evaluation(kind, monkeypatch):
    """E.ZERO is filled with what evaluate gives for it, ZERO.value at an
    exact point and 0.0 at a float point, and neither track nor vanishes
    evaluates it (no kernel computes it)."""
    chart, points, x1, x2 = _line()
    points = [{v: kind(c) for v, c in pt.items()} for pt in points]
    want = [[E.evaluate(E.ZERO, pt), E.evaluate(x1, pt)] for pt in points]
    evaluated = []

    def spy(kernel):
        def run(e, *args):
            evaluated.append(e)
            return kernel(e, *args)
        return run

    monkeypatch.setattr(E, "_exact", spy(E._exact))
    monkeypatch.setattr(E, "_float", spy(E._float))
    values = ResidualTracker().track(chart, E.Values(points), [E.ZERO, x1])
    assert [v.flat for v in values] == want
    assert [type(v) for v in values[0].flat] == [type(want[0][0]), kind]
    assert values[0][0] is E.ZERO.value or kind is float
    assert vanishes([E.ZERO, E.ZERO], E.Values(points))
    assert not vanishes([E.ZERO, x2], E.Values(points))
    assert evaluated and E.ZERO not in evaluated


@pytest.mark.parametrize("kind", [Fraction, float], ids=["exact", "float"])
def test_failures_are_met_points_outer(kind):
    """The values are computed a node at a time, at every point at once,
    yet ``track`` raises the first failure met with points outer and
    components in C order, and ``vanishes`` stops at the first nonzero
    value in that order, before a component that fails behind it."""
    chart, _, x1, x2 = _line()
    first = E.div(E.ONE, E.add(x1, E.const(-1)))  # fails at the second point
    second = E.div(E.ONE, E.add(x2, E.const(-2)))  # fails at the first point
    points = [{x1: kind(3), x2: kind(2)}, {x1: kind(1), x2: kind(5)}]
    with pytest.raises(E.EvalError, match=re.escape("division by zero at point in (x2 - 2)^(-1)")):
        ResidualTracker().track(chart, E.Values(points), [first, second])
    zero_first = E.mul(E.add(x2, E.const(-2)), first)  # 0 at the first point
    x1_less_3 = E.add(x1, E.const(-3))  # 0 at the first point, -2 at the second
    assert not vanishes([x1_less_3, zero_first], E.Values(points))
    with pytest.raises(E.EvalError, match=re.escape("division by zero at point in (x1 - 1)^(-1)")):
        vanishes([zero_first, x1_less_3], E.Values(points))
    assert not vanishes([x1_less_3, x2, second], E.Values(points))


def test_vanishes_stops_at_the_first_nonzero_run():
    """vanishes computes runs of components, E.ZERO left out, doubling in
    length (1, 2, 4, ...), at every point, and stops at the first run with a
    nonzero value at the first point: no node of a later run is computed.  A
    value that is nonzero only at a later point is found after every run."""
    chart, points, x1, x2 = _line()
    later = E.add(x2, E.const(7))
    values = E.Values(points)
    assert not vanishes([E.ZERO, x1, E.ZERO, later], values)
    assert x1 in values.cache and later not in values.cache
    x1_less_1 = E.add(x1, E.const(-1))  # 0 at the first point, 2 at the second
    product = E.mul(x1_less_1, x2)  # 0 at the first point, -2 at the second
    values = E.Values(points)
    assert not vanishes([x1_less_1, product], values)
    assert values.cache[product] == [(0, 1), (-2, 1)]


def test_track_keeps_the_first_of_equal_magnitudes():
    chart, points, x1, _ = _line()
    tracker = ResidualTracker()
    tracker.track(chart, E.Values(points), [E.mul(E.const(-2), x1), E.mul(E.const(2), x1)])
    assert tracker.max_value == -6
    assert tracker.witness.frame == (0,) and tracker.witness.point == (3, -1)
    verdict, values = residual_verdict("tie", chart, E.Values(points), [x1 - x1])
    assert verdict.holds and verdict.witness is None
    assert [v.flat for v in values] == [[0], [0]]


def test_zeros_leave_the_maximum_at_zero():
    """Exact and float zeros, -0.0 among them, never become the maximum:
    it stays 0, with no witness."""
    tracker = ResidualTracker()
    for frame, value in enumerate((Fraction(0), 0.0, -0.0, 0)):
        tracker.update(value, (1,), (frame,))
    assert tracker.max_value == 0 and type(tracker.max_value) is int
    assert tracker.witness is None and tracker.verdict("zeros").holds


@pytest.mark.parametrize("kind", [Fraction, float], ids=["exact", "float"])
def test_one_nonzero_among_zeros_is_the_witness(kind):
    """The one nonzero residual value, x2 - 2 at the second point, is the
    maximum, and its witness has its own point and component index."""
    chart, points, x1, x2 = _line()
    points = [{v: kind(c) for v, c in pt.items()} for pt in points]
    zero = E.Add((x1, E.Mul((E.MINUS_ONE, x1))))  # zero at every point, not folded
    arr = mf.asarray([[E.ZERO, zero], [E.add(x2, E.const(-2)), zero]])
    tracker = ResidualTracker()
    tracker.track(chart, E.Values(points), arr)
    assert tracker.max_value == -3 and type(tracker.max_value) is kind
    assert tracker.witness.frame == (1, 0) and tracker.witness.point == (3, -1)
    assert not tracker.all_zero


def test_the_points_decide_whether_the_tolerance_applies():
    """x1/10^12 is not zero at exact points; at the same points as floats
    it is within the tolerance of 1e-9."""
    chart, points, x1, _ = _line()
    float_points = [{v: float(c) for v, c in pt.items()} for pt in points]
    residual = E.mul(E.const(Fraction(1, 10 ** 12)), x1)
    exact = ResidualTracker()
    exact.track(chart, E.Values(points), [residual])
    assert exact.max_value == Fraction(3, 10 ** 12) and not exact.all_zero
    floats = ResidualTracker()
    floats.track(chart, E.Values(float_points), [residual])
    assert isinstance(floats.max_value, float) and floats.all_zero


def test_a_float_residual_past_the_float_range_is_an_error():
    """x1^150*x2^150*(x3 - 1), written so that floats take inf - inf, is
    100^300 at (100, 100, 2): exact points fail it, and at the same points
    as floats residual_verdict raises rather than reading the nan, which no
    tolerance ranks, as "holds"."""
    xs = [E.Var("base", i) for i in (1, 2, 3)]
    chart = mf.ChartedManifold(xs)
    residual = E.parse("x1^150*x2^150*x3 - x1^150*x2^150*(x3+1)/(x3+1)", 3)
    exact = [chart_point(chart, (Fraction(100), Fraction(100), Fraction(2)))]
    verdict, _ = residual_verdict("nan", chart, E.Values(exact), [residual])
    assert verdict.status == "fails" and verdict.max_residual == 100 ** 300
    floats = [{v: float(c) for v, c in pt.items()} for pt in exact]
    with pytest.raises(E.EvalError, match="float evaluation failed: the value is nan"):
        residual_verdict("nan", chart, E.Values(floats), [residual])


def _loop_around_track(node) -> bool:
    """A ``for`` over ``ndindex`` whose body calls ``track``."""
    return (isinstance(node, ast.For) and "ndindex" in ast.unparse(node.iter)
            and any(isinstance(n, ast.Attribute) and n.attr == "track"
                    for stmt in node.body for n in ast.walk(stmt)))


def test_only_verdicts_updates_a_tracker():
    """Every residual check goes through ``ResidualTracker.track``: no other
    module names ``ResidualTracker``, calls ``track`` or a tracker's
    three-argument ``update``, and the per-module loop it replaced is gone.
    The geometry builds residuals and the harness decides them: only
    ``verdicts`` and ``harness`` name ``residual_verdict`` and
    ``AxiomVerdict``, no function of ``metallic`` or ``paracontact`` takes
    points, no function of any module takes a tolerance (``meets_zero``
    holds the one constant), and no loop over ``ndindex`` wraps ``track``."""
    src = pathlib.Path(metallic_tm.__file__).parent
    deciders = {"residual_verdict", "AxiomVerdict"}
    takes_points, takes_tol = {}, []
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        assert "_check_array" not in text, path.name
        tree = ast.parse(text)
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        names |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
        names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        if path.name not in ("verdicts.py", "harness.py"):
            assert not names & deciders, (path.name, names & deciders)
        if path.name != "verdicts.py":
            assert "ResidualTracker" not in names, path.name
        assert not any(_loop_around_track(n) for n in ast.walk(tree)), path.name
        params = [(n.name, {a.arg for a in n.args.posonlyargs + n.args.args + n.args.kwonlyargs})
                  for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        takes_points[path.stem] = sorted(name for name, args in params if "points" in args)
        takes_tol += [(path.name, name) for name, args in params if "tol" in args]
        if path.name == "verdicts.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                assert node.func.attr != "track", (path.name, node.lineno)
                if node.func.attr == "update":
                    assert len(node.args) + len(node.keywords) <= 1, (path.name, node.lineno)
    assert takes_points["metallic"] == takes_points["paracontact"] == []
    assert takes_tol == []
