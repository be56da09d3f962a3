"""Exterior membership: is a point (or some point of a probe curve) in the
unbounded arc-connected component of the closed upper halfplane minus the
union of a family's curves?

Every curve starts on a baseline segment B under the family, and nothing
lies below B, so the exterior is the outer face of the planar graph formed
by the curves, cut at every contact that ``pair_contacts`` reports (a
curve's contacts with itself included), and B.  That face is walked once,
as in the face traversal of a doubly-connected edge list (de Berg et al.,
*Computational Geometry*, ch. 2), and points are decided by ray parity.

Parity against the bare curves is unsound: they are arcs, not cycles, and a
lone grounded segment encloses nothing, yet a ray may cross it once.
Against the walk it is sound: an edge walked twice has the outer face on
both sides and drops out, every edge left has it on one side only, and an
upward ray ends in the outer face, so it crosses them an even number of
times iff it starts there.  A point of B counts as the points just above it.

Past the contact pass, the build and the queries run on integers.  Points
are numbered by their numerators and denominators, neighbours are sorted
by the integer direction of the segment that carries the edge, and each
walked edge is kept in integers over its own scale w, the lcm of its
coordinates' denominators.  An edge counts for a point on the half-open
x-range [ax, bx), so a ray through a vertex counts it once and a vertical
edge never counts.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import cached_property
from itertools import islice
from math import lcm

from ..errors import DegenerateProbe
from .curves import CurveFamily, GroundedCurve
from .curveops import pair_contacts, piece_representatives, split_points_on
from .segments import TOUCH, Point, on_segment
from .validate import find_violations


def _segment_cuts(curves):
    """Per segment of the curves, the points where it meets itself or any
    of the curves (its own ends included), and its integer direction."""
    cuts = [[[a, b] for a, b in c.segments()] for c in curves]
    for i, c1 in enumerate(curves):
        for j, c2 in enumerate(curves[i:], i):
            crossings, contacts = pair_contacts(c1, c2)
            for p, q in crossings:
                cuts[i][p.segment].append(p.point)
                cuts[j][q.segment].append(q.point)
            for s, t, kind, data in contacts:
                if i == j and s == t:
                    continue  # a segment meets itself only in points it has
                if kind == TOUCH:
                    cuts[i][s].append(data)
                    cuts[j][t].append(data)
                else:  # an overlap: each segment is cut at the other's ends on it
                    a, b = c1.vertices[s], c1.vertices[s + 1]
                    u, v = c2.vertices[t], c2.vertices[t + 1]
                    cuts[i][s].extend(p for p in (u, v) if on_segment(p, a, b))
                    cuts[j][t].extend(p for p in (a, b) if on_segment(p, u, v))
    for c, per_curve in zip(curves, cuts):
        for (a, b, *_), cut in zip(c.scaled_segments()[1], per_curve):
            yield cut, (b[0] - a[0], b[1] - a[1])


def _angle_key(dx, dy):
    """Orders nonzero integer directions counterclockwise from the positive
    x-axis: the quarter turns that bring them into the first quadrant, then
    the slope there."""
    turns = 0
    while not (dx > 0 and dy >= 0):
        dx, dy, turns = dy, -dx, turns + 1
    return (turns, Fraction(dy, dx))


class FreeSpace:
    """The closed walk around the outer face of curves plus a baseline."""

    def __init__(self, curves):
        curves = tuple(curves)
        if any(not c.vertices or c.vertices[0][1] != 0 or any(y < 0 for _, y in c.vertices)
               for c in curves):
            raise ValueError("exterior membership needs curves grounded on the baseline")
        self.segments = [seg for c in curves for seg in c.segments()]
        self._walk, self._floors = [], []
        number: dict[tuple[int, int, int, int], int] = {}  # the graph works on point numbers
        pts, ring, edges = [], [], set()  # per point number, the point and its keyed neighbours

        def link(cut, dx, dy):
            # Points on one segment sort along it, lexicographically, so the
            # piece of a collinear overlap is one edge from either segment.
            if dx < 0 or dx == 0 and dy < 0:
                dx, dy = -dx, -dy
            axis = 0 if dx else 1
            distinct = {(x.numerator, x.denominator, y.numerator, y.denominator): (x, y)
                        for x, y in cut}
            ids = []
            for key, p in sorted(distinct.items(), key=lambda kp: kp[1][axis]):
                v = number.get(key)
                if v is None:
                    v = number[key] = len(pts)
                    pts.append(p)
                    ring.append([])
                ids.append(v)
            if len(ids) > 1:
                forward, backward = _angle_key(dx, dy), _angle_key(-dx, -dy)
                for u, v in zip(ids, ids[1:]):
                    if (u, v) not in edges:
                        edges.add((u, v))
                        ring[u].append((forward, v))
                        ring[v].append((backward, u))
            return ids

        for cut, (dx, dy) in _segment_cuts(curves):
            link(cut, dx, dy)
        self._xs = list({(k[0], k[1]): p[0] for k, p in zip(number, pts)}.values())
        if not pts:
            return
        base = link([(min(self._xs) - 1, Fraction(0)), (max(self._xs) + 1, Fraction(0))]
                    + [p for k, p in zip(number, pts) if k[2] == 0], 1, 0)
        ring = [[w for _, w in sorted(nbrs, key=lambda kw: kw[0])] for nbrs in ring]

        # From the left end of B, keep the outer face on the right: turn to
        # the next neighbour counterclockwise from the one arrived from.
        walked = set()
        start = u, v = base[0], base[1]
        while True:
            walked ^= {(min(u, v), max(u, v))}
            nbrs = ring[v]
            u, v = v, nbrs[(nbrs.index(u) + 1) % len(nbrs)]
            if (u, v) == start:
                break
        ends = [(pts[a], pts[b]) if pts[a][0] < pts[b][0] else (pts[b], pts[a])
                for a, b in walked if pts[a][0] != pts[b][0]]
        for e in ends:
            w = lcm(*(q.denominator for p in e for q in p))
            self._walk.append(tuple(q.numerator * (w // q.denominator) for p in e for q in p) + (w,))
        self._walk.sort(key=lambda e: e[0] // e[4])
        self._floors = [e[0] // e[4] for e in self._walk]

    @cached_property
    def xs(self):
        """The distinct x-coordinates of the graph's points but B's ends, sorted."""
        return sorted(self._xs)

    def on_obstacle(self, p: Point) -> bool:
        return any(on_segment(p, a, b) for a, b in self.segments)

    def in_exterior(self, p: Point) -> bool:
        """True iff p (off the obstacles, y >= 0) can reach infinity.  A
        bisection on floor(ax) keeps the edges that may start left of p."""
        (xn, xd), (yn, yd) = (q.as_integer_ratio() for q in p)
        above = 0
        for ax, ay, bx, by, w in islice(self._walk, bisect_right(self._floors, xn // xd)):
            x = xn * w  # over xd * w, as ax * xd is
            if ax * xd <= x < bx * xd and (by - ay) * (x - ax * xd) * yd > (yn * w - ay * yd) * (bx - ax) * xd:
                above += 1
        return above % 2 == 0


def _free_space_for(curves: tuple[GroundedCurve, ...]) -> FreeSpace:
    """The outer walk for a curve tuple, memoized on its first curve, so it
    is freed with the curves."""
    memo = curves[0]._free_spaces
    fs = memo.get(curves)
    if fs is None:
        fs = memo[curves] = FreeSpace(curves)
    return fs


def exterior_membership(G, probe) -> bool:
    """True iff some point of the probe lies in the exterior of G.

    ``G`` is a CurveFamily or iterable of grounded curves; ``probe`` is a
    point ``(x, y)`` or a GroundedCurve not belonging to G.  A curve probe is
    split at its intersections with the union of G and each open piece is
    tested through one interior representative point, which is off G: a
    probe that touches or overlaps G is rejected, and every crossing is a
    cut.
    """
    curves = G.curves if isinstance(G, CurveFamily) else tuple(G)
    if not curves:
        return True
    fs = _free_space_for(curves)

    if isinstance(probe, GroundedCurve):
        if any(c.id == probe.id for c in curves):
            raise ValueError(f"probe {probe.id!r} is a member of the queried family")
        if find_violations([probe]) or any(pair_contacts(probe, c)[1] for c in curves):
            raise DegenerateProbe(
                f"probe {probe.id!r} violates general position against the family")
        cuts = split_points_on(probe, curves)
        return any(fs.in_exterior(rep) for rep in piece_representatives(probe, cuts))

    x, y = probe
    if y < 0:
        raise ValueError("probe point below the baseline")
    return not fs.on_obstacle((x, y)) and fs.in_exterior((x, y))
