"""Closed Jordan regions bounded by two curve pieces and a baseline segment.

A region is described by a simple closed polygonal chain: an initial piece of
one curve (basepoint up to a meeting point), the meeting point, the reversed
initial piece of a second curve back down to its basepoint, and the baseline
segment between the two basepoints.  Membership is boundary-inclusive and
decided by exact even-odd ray casting; the horizontal ray is tilted
symbolically upward, realized by the standard half-open crossing rule, so no
degenerate ray ever needs a retry.
"""

from __future__ import annotations

from ..errors import InternalContradiction
from .curves import CurvePoint, GroundedCurve
from .segments import NONE, TOUCH, Point, classify_intersection, on_segment


def _initial_chain(c: GroundedCurve, stop: CurvePoint) -> list[Point]:
    """Vertices of c from its basepoint up to the along-curve position stop."""
    pts = [c.vertices[i] for i in range(stop.segment + 1)]
    if stop.point != pts[-1]:
        pts.append(stop.point)
    return pts


class JordanRegion:
    """The closed bounded region whose boundary is
    ``left chain + meeting point + reversed right chain + baseline segment``.

    ``first`` and ``second`` are the two curves; ``stop_first``/``stop_second``
    are the along-curve positions of their common meeting point.
    """

    def __init__(self, first: GroundedCurve, stop_first: CurvePoint,
                 second: GroundedCurve, stop_second: CurvePoint):
        if stop_first.point != stop_second.point:
            raise ValueError("the two chain ends must be the same geometric point")
        chain_a = _initial_chain(first, stop_first)
        chain_b = _initial_chain(second, stop_second)
        # Close the polygon: up along the first curve, back down the second,
        # then along the baseline to the start.
        self.polygon: list[Point] = chain_a + list(reversed(chain_b))[1:]
        self.meet: Point = stop_first.point
        self._check_simple()

    def _edges(self):
        poly = self.polygon
        m = len(poly)
        return [(poly[i], poly[(i + 1) % m]) for i in range(m)]

    def _check_simple(self):
        edges = self._edges()
        m = len(edges)
        for i in range(m):
            a, b = edges[i]
            if a == b:
                raise InternalContradiction("degenerate zero-length boundary edge")
            for j in range(i + 1, m):
                c, d = edges[j]
                kind, _ = classify_intersection(a, b, c, d)
                if kind == NONE:
                    continue
                adjacent = (j == i + 1) or (i == 0 and j == m - 1)
                if adjacent and kind == TOUCH:
                    continue
                raise InternalContradiction(
                    "region boundary is not a simple closed curve")

    def on_boundary(self, p: Point) -> bool:
        return any(on_segment(p, a, b) for a, b in self._edges())

    def contains(self, p: Point) -> bool:
        """Boundary-inclusive point membership via even-odd counting."""
        if self.on_boundary(p):
            return True
        px, py = p
        crossings = 0
        for a, b in self._edges():
            ay, by = a[1], b[1]
            if (ay > py) == (by > py):
                continue
            # Exact x of the edge at height py; edge is not horizontal here.
            x = a[0] + (b[0] - a[0]) * (py - ay) / (by - ay)
            if x > px:
                crossings += 1
        return crossings % 2 == 1
