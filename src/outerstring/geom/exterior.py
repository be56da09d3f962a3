"""Exterior membership: is a point (or some point of a probe curve) in the
unbounded arc-connected component of the closed upper halfplane minus the
union of a family's curves?

The decision is made on an exact vertical-slab decomposition of the free
space.  Breakpoints are all x-coordinates where the arrangement of obstacle
segments changes (segment endpoints and pairwise meeting points); between
consecutive breakpoints the obstacle segments crossing the slab are totally
ordered by height, and the gaps between them are the cells.  Cells of
neighbouring slabs are connected exactly when a free point on the shared
vertical line touches both, which is decided by exact interval overlap.  The
exterior is the union-find component of the unbounded left slab.

A single ray-parity test cannot answer this question for curves (they are
arcs, not cycles: a lone grounded segment encloses nothing, yet a ray may
cross it an odd number of times), which is why the full decomposition is
built.  It is exact; each slab and breakpoint line rescans all m obstacle
segments, and build time on random polylines grows about as m^3.3.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction

from ..errors import DegenerateProbe, InternalContradiction
from .curves import CurveFamily, GroundedCurve
from .curveops import pair_contacts, piece_representatives, split_points_on
from .segments import PROPER, Point, classify_intersection, on_segment, segment_point
from .validate import find_violations


class _UnionFind:
    def __init__(self):
        self.parent = {}

    def add(self, x):
        self.parent.setdefault(x, x)

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        self.add(a)
        self.add(b)
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def _seg_y_at(seg, x: Fraction) -> Fraction:
    (x1, y1), (x2, y2) = seg
    return y1 + (y2 - y1) * (x - x1) / (x2 - x1)


class FreeSpace:
    """Connectivity structure of the halfplane minus a set of segments."""

    def __init__(self, segments):
        self.segments = [tuple(s) for s in segments]
        self._build()

    # -- construction ------------------------------------------------------

    def _build(self):
        xs = set()
        for (x1, _), (x2, _) in self.segments:
            xs.add(x1)
            xs.add(x2)
        n = len(self.segments)
        for i in range(n):
            a, b = self.segments[i]
            for j in range(i + 1, n):
                c, d = self.segments[j]
                kind, data = classify_intersection(a, b, c, d)
                # other contacts are at segment endpoints, already present
                if kind == PROPER:
                    xs.add(segment_point(a, b, data[0])[0])
        self.xs = sorted(xs)
        self.uf = _UnionFind()

        if not self.xs:
            return

        # Per-slab sorted crossing segments.  Bounded slab k covers the open
        # interval (xs[k], xs[k+1]); the two unbounded side slabs are
        # obstacle-free (single cell each).
        self.slab_segments = []
        for k in range(len(self.xs) - 1):
            lo, hi = self.xs[k], self.xs[k + 1]
            xm = (lo + hi) / 2
            crossing = []
            for seg in self.segments:
                (x1, _), (x2, _) = seg
                if min(x1, x2) <= lo and max(x1, x2) >= hi and x1 != x2:
                    crossing.append(seg)
            keyed = sorted({_seg_y_at(s, xm): s for s in crossing}.items())
            self.slab_segments.append([s for _, s in keyed])

        # Free intervals on each breakpoint line.  Obstacle points on the
        # line x=b come from vertical segments lying on it (an interval) and
        # from every other segment whose span covers b (a point).
        self.line_free: list[list[tuple[Fraction, Fraction]]] = []
        for b in self.xs:
            blocked = []
            for (x1, y1), (x2, y2) in self.segments:
                if x1 == x2 == b:
                    blocked.append((min(y1, y2), max(y1, y2)))
                elif min(x1, x2) <= b <= max(x1, x2) and x1 != x2:
                    y = _seg_y_at(((x1, y1), (x2, y2)), b)
                    blocked.append((y, y))
            blocked.sort()
            merged = []
            for lo, hi in blocked:
                if merged and lo <= merged[-1][1]:
                    merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
                else:
                    merged.append((lo, hi))
            free = []
            cur = Fraction(0)
            for lo, hi in merged:
                if lo > cur:
                    free.append((cur, lo))
                if hi > cur:
                    cur = hi
            free.append((cur, None))  # unbounded top interval
            self.line_free.append(free)

        self._connect()

    def _cell_limits(self, slab_index: int, x: Fraction):
        """Vertical intervals of each cell of a bounded slab, evaluated at a
        boundary line.  Returns a list of (lo, hi) with hi=None for the top
        cell; the bottom cell starts at 0 (baseline included)."""
        segs = self.slab_segments[slab_index]
        ys = [_seg_y_at(s, x) for s in segs]
        lims = []
        lo = Fraction(0)
        for y in ys:
            lims.append((lo, y))
            lo = y
        lims.append((lo, None))
        return lims

    @staticmethod
    def _overlaps(cell, free) -> bool:
        """Positive-length overlap between a cell limit interval and a free
        interval on the shared line.  Single-point contacts never connect:
        such a point is always an obstacle point (a segment endpoint or a
        crossing on the line)."""
        lo = max(cell[0], free[0])
        hi_candidates = [v for v in (cell[1], free[1]) if v is not None]
        if not hi_candidates:
            return True
        return lo < min(hi_candidates)

    def _connect(self):
        uf = self.uf
        nlines = len(self.xs)
        # Nodes: ("slab", k, gap) for bounded slabs, ("side", 0|1) for the two
        # unbounded slabs, ("line", k, i) for free intervals on lines.
        uf.add(("side", 0))
        uf.add(("side", 1))
        for k in range(nlines - 1):
            for g in range(len(self.slab_segments[k]) + 1):
                uf.add(("slab", k, g))
        for k in range(nlines):
            for i in range(len(self.line_free[k])):
                uf.add(("line", k, i))

        for k in range(nlines):
            b = self.xs[k]
            for i, free in enumerate(self.line_free[k]):
                node = ("line", k, i)
                # left side of the line
                if k == 0:
                    uf.union(node, ("side", 0))
                else:
                    for g, cell in enumerate(self._cell_limits(k - 1, b)):
                        if self._overlaps(cell, free):
                            uf.union(node, ("slab", k - 1, g))
                # right side of the line
                if k == nlines - 1:
                    uf.union(node, ("side", 1))
                else:
                    for g, cell in enumerate(self._cell_limits(k, b)):
                        if self._overlaps(cell, free):
                            uf.union(node, ("slab", k, g))

    # -- queries -----------------------------------------------------------

    def on_obstacle(self, p: Point) -> bool:
        return any(on_segment(p, a, b) for a, b in self.segments)

    def _node_of(self, p: Point):
        x, y = p
        if not self.xs:
            return ("side", 0)
        if x < self.xs[0]:
            return ("side", 0)
        if x > self.xs[-1]:
            return ("side", 1)
        k = bisect_left(self.xs, x)
        if k < len(self.xs) and self.xs[k] == x:
            for i, (lo, hi) in enumerate(self.line_free[k]):
                if lo <= y and (hi is None or y < hi):
                    # half-open bookkeeping: y inside the free interval;
                    # endpoints are obstacle points and were excluded upstream
                    return ("line", k, i)
            raise InternalContradiction(f"free point {p} not located on line x={x}")
        slab = k - 1
        segs = self.slab_segments[slab]
        gap = 0
        for s in segs:
            if _seg_y_at(s, x) < y:
                gap += 1
        return ("slab", slab, gap)

    def in_exterior(self, p: Point) -> bool:
        """True iff p (must be off the obstacles, y >= 0) can reach infinity."""
        if self.on_obstacle(p):
            return False
        return self.uf.find(self._node_of(p)) == self.uf.find(("side", 0))


def _free_space_for(curves: tuple[GroundedCurve, ...]) -> FreeSpace:
    """The decomposition for a curve tuple, memoized on its first curve, so
    it is freed with the curves."""
    memo = curves[0]._free_spaces
    fs = memo.get(curves)
    if fs is None:
        fs = memo[curves] = FreeSpace([seg for c in curves for seg in c.segments()])
    return fs


def _as_curve_tuple(G) -> tuple[GroundedCurve, ...]:
    if isinstance(G, CurveFamily):
        return G.curves
    return tuple(G)


def exterior_membership(G, probe) -> bool:
    """True iff some point of the probe lies in the exterior of G.

    ``G`` is a CurveFamily or iterable of curves; ``probe`` is a point
    ``(x, y)`` or a GroundedCurve not belonging to G.  A curve probe is split
    at its intersections with the union of G and each open piece is tested
    through one interior representative point.
    """
    curves = _as_curve_tuple(G)
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
    return fs.in_exterior((x, y))
