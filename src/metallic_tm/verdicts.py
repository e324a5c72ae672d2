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


def meets_zero(value, tol: float) -> bool:
    """A float meets zero when its magnitude is at most ``tol``, any other
    value only when it is exactly zero: the one zero test of every verdict."""
    return abs(value) <= tol if isinstance(value, float) else is_zero(value)


def vanishes(arr, points, tol: float) -> bool:
    """Whether every component of ``arr`` meets zero at every point; it
    stops at the first one that does not."""
    return all(meets_zero(E.evaluate(e, pt), tol) for pt in points for e in asarray(arr).flat)


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
    the largest one does (``meets_zero`` with ``tol``).
    """

    def __init__(self, tol: float = FLOAT_TOL) -> None:
        self.tol = tol
        self.max_value: Any = 0
        self.witness: Optional[Witness] = None

    def update(self, value, point_coords, frame) -> None:
        if abs_greater(value, self.max_value):
            self.max_value = value
            self.witness = Witness(tuple(point_coords), tuple(frame), scalar_str(value))

    def track(self, chart, points, label: tuple, arr) -> list:
        """Update with every component of ``arr`` (an Expr, or an Array or
        nested list of them) at every point (points outer, components in C
        order, the last index fastest), under the frame ``label + index``.
        Returns, per point, an Array of the component values in the shape
        of ``arr``."""
        arr = asarray(arr)
        indices = list(ndindex(arr.shape))
        out = []
        for pt in points:
            coords = chart.coords(pt)
            values = []
            for idx, e in zip(indices, arr.flat):
                v = E.evaluate(e, pt)
                self.update(v, coords, label + idx)
                values.append(v)
            out.append(Array(arr.shape, values))
        return out

    @property
    def all_zero(self) -> bool:
        return meets_zero(self.max_value, self.tol)

    def verdict(self, axiom_id: str) -> AxiomVerdict:
        return AxiomVerdict(axiom_id, "holds" if self.all_zero else "fails",
                            self.max_value, self.witness)


def residual_verdict(axiom_id: str, chart, points, tol: float, arr) -> Tuple[AxiomVerdict, list]:
    """The verdict on the residual array ``arr``, expected zero at every
    point, and its values per point (``ResidualTracker.track``)."""
    tracker = ResidualTracker(tol)
    values = tracker.track(chart, points, (), arr)
    return tracker.verdict(axiom_id), values
