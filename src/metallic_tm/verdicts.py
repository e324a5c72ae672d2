"""Verdict records and residual aggregation shared by all checkers."""

from __future__ import annotations

from typing import Any, NamedTuple, Optional, Tuple

from . import exprs as E
from .manifold import Array, asarray, ndindex
from .scalars import abs_greater, is_zero, scalar_str

FLOAT_TOL = 1e-9


class Witness(NamedTuple):
    point: tuple
    frame: tuple
    value: str

    def to_json(self) -> dict:
        return {
            "point": [scalar_str(c) for c in self.point],
            "frame": list(self.frame),
            "value": self.value,
        }


class AxiomVerdict(NamedTuple):
    axiom_id: str
    status: str  # "holds" or "fails"
    max_residual: Any
    witness: Optional[Witness] = None

    @property
    def holds(self) -> bool:
        return self.status == "holds"


def meets_zero(value) -> bool:
    """A float meets zero when its magnitude is at most ``FLOAT_TOL``, any other
    value only when it is exactly zero: the one zero test of every verdict."""
    return abs(value) <= FLOAT_TOL if isinstance(value, float) else is_zero(value)


def vanishes(arr, values: E.Values) -> bool:
    """Whether every component of ``arr`` meets zero at every point of ``values``;
    it stops at the first that does not, points outer, computing runs of components
    (``E.ZERO`` left out), doubling in length, until one is nonzero at the first point."""
    flat, start = [e for e in asarray(arr).flat if e is not E.ZERO], 0
    while start < len(flat):  # the runs [0, 1), [1, 3), [3, 7), ...
        run, start = flat[start:2 * start + 1], 2 * start + 1
        if not all(meets_zero(v) for _, v in zip(run, values.each(run))):
            return False
    return all(meets_zero(v) for v in values.each(flat))


def worst(verdicts):
    """The first of the verdicts with the largest |max_residual|, or None."""
    out = None
    for v in verdicts:
        if out is None or abs_greater(v.max_residual, out.max_residual):
            out = v
    return out


class ResidualTracker:
    """Collects residual values and reports the max-magnitude one.

    Exact magnitudes are ranked exactly.  The residuals all meet zero when
    the largest one does (``meets_zero``).
    """

    def __init__(self) -> None:
        self.max_value: Any = 0
        self.witness: Optional[Witness] = None

    def update(self, value, point_coords, frame) -> None:
        if value and abs_greater(value, self.max_value):  # a zero never beats the maximum
            self.max_value = value
            self.witness = Witness(tuple(point_coords), tuple(frame), scalar_str(value))

    def track(self, chart, values: E.Values, arr) -> list:
        """Update with every component of ``arr`` (an Expr, or an Array or
        nested list of them) at every point of ``values``, points outer,
        components in C order (the last index fastest), under the component's
        index as its frame; an ``E.ZERO`` is the point's zero, not evaluated.
        Returns, per point, an Array of the values."""
        arr = asarray(arr)
        flat, indices, out = arr.flat, list(ndindex(arr.shape)), []
        table = values.each(flat)
        for pt in values.points:
            coords, row = chart.coords(pt), [v for _, v in zip(flat, table)]  # coords first
            for idx, e, v in zip(indices, flat, row):
                if e is not E.ZERO:
                    self.update(v, coords, idx)
            out.append(Array(arr.shape, row))
        return out

    @property
    def all_zero(self) -> bool:
        return meets_zero(self.max_value)

    def verdict(self, axiom_id: str) -> AxiomVerdict:
        return AxiomVerdict(axiom_id, "holds" if self.all_zero else "fails",
                            self.max_value, self.witness)


def residual_verdict(axiom_id: str, chart, values: E.Values, arr) -> Tuple[AxiomVerdict, list]:
    """The verdict on the residual array ``arr``, expected zero at every
    point of ``values``, and its values per point (``ResidualTracker.track``)."""
    tracker = ResidualTracker()
    arrays = tracker.track(chart, values, arr)
    return tracker.verdict(axiom_id), arrays
