"""Independent oracles for the exact solvers and the curve arrangement.

The solver oracles must stay independent of the library's search code:
omega enumerates subsets, chi enumerates canonical color assignments with
nothing smarter than an early edge check.  The arrangement oracles are the
per-use segment-pair loops that the one memoized pass in
``outerstring.geom.curveops`` replaced; they share only the segment
predicates with the library.  ``reference_classify_intersection`` is the
segment-pair predicate as it was before the integer-scaled kernel, kept to
check the library's predicate against.  ``SlabFreeSpace`` is the exact
vertical-slab decomposition that exterior membership was decided on before
the outer-face walk, and ``reference_FreeSpace`` is that walk as it was in
``Fraction`` arithmetic before it moved to integers, kept verbatim but for
its names.  The ``reference_*`` solvers are the clique, greedy
coloring, k-coloring and chromatic-number code on sets of ids that the
position-mask solvers of ``outerstring.graph`` replaced, kept verbatim but
for their names, so that the new solvers can be required to return the
same witnesses.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import combinations

from outerstring.errors import InternalContradiction
from outerstring.geom.curves import curve_point
from outerstring.geom.curveops import pair_contacts
from outerstring.geom.segments import (NONE, OVERLAP, PROPER, TOUCH, Point, classify_intersection,
                                       on_segment, orient, segment_point)
from outerstring.geom.validate import Violation


def brute_omega(ids, adj):
    """Largest pairwise-adjacent subset, by descending-size enumeration."""
    ids = list(ids)
    for size in range(len(ids), 0, -1):
        for subset in combinations(ids, size):
            if all(v in adj[u] for u, v in combinations(subset, 2)):
                return size
    return 0


def brute_chi(ids, adj):
    """Smallest k admitting a proper k-coloring, by exhaustive assignment.

    Vertices are colored in fixed order; vertex i may use colors
    0..min(i, k-1), which enumerates every partition into at most k classes
    exactly once up to color names.
    """
    ids = list(ids)
    if not ids:
        return 0

    def colorable(k):
        assignment = {}

        def go(i):
            if i == len(ids):
                return True
            v = ids[i]
            limit = min(i + 1, k)
            for c in range(limit):
                if any(assignment.get(u) == c for u in adj[v]):
                    continue
                assignment[v] = c
                if go(i + 1):
                    return True
                del assignment[v]
            return False

        return go(0)

    for k in range(1, len(ids) + 1):
        if colorable(k):
            return k
    raise AssertionError("unreachable: n colors always suffice")


def reference_classify_intersection(a, b, c, d):
    """Classify segments ab and cd: ``(NONE, None)``, ``(PROPER, (t1, t2))``,
    ``(TOUCH, point)`` or ``(OVERLAP, None)``.  Wrong when a segment has
    zero length: it then reports a touch wherever the projections meet."""
    o1 = orient(a, b, c)
    o2 = orient(a, b, d)
    o3 = orient(c, d, a)
    o4 = orient(c, d, b)

    if o1 == 0 and o2 == 0:
        axis = 0 if (a[0] != b[0] or c[0] != d[0]) else 1
        lo1, hi1 = sorted((a[axis], b[axis]))
        lo2, hi2 = sorted((c[axis], d[axis]))
        lo, hi = max(lo1, lo2), min(hi1, hi2)
        if lo > hi:
            return (NONE, None)
        if lo < hi:
            return (OVERLAP, None)
        p = a if a[axis] == lo else b
        return (TOUCH, p)

    if o1 != o2 and o3 != o4 and 0 not in (o1, o2, o3, o4):
        rx, ry = b[0] - a[0], b[1] - a[1]
        sx, sy = d[0] - c[0], d[1] - c[1]
        denom = rx * sy - ry * sx
        qpx, qpy = c[0] - a[0], c[1] - a[1]
        t1 = Fraction(qpx * sy - qpy * sx, 1) / denom
        t2 = Fraction(qpx * ry - qpy * rx, 1) / denom
        return (PROPER, (t1, t2))

    for p, (u, v) in ((c, (a, b)), (d, (a, b)), (a, (c, d)), (b, (c, d))):
        if on_segment(p, u, v):
            return (TOUCH, p)
    return (NONE, None)


def reference_check_pair(c1, c2, out, crossing_points=None):
    """GP checks between two curves, as validation made them: violations in
    segment-pair order, crossing points recorded in the same order."""
    for a, b in c1.segments():
        for c, d in c2.segments():
            kind, data = classify_intersection(a, b, c, d)
            if kind == OVERLAP:
                out.append(Violation("collinear-overlap", (c1.id, c2.id),
                                     f"{c1.id} and {c2.id} overlap along a segment"))
            elif kind == TOUCH:
                out.append(Violation("vertex-touch", (c1.id, c2.id),
                                     f"{c1.id} and {c2.id} touch at vertex point {data}"))
            elif kind == PROPER and crossing_points is not None:
                p = segment_point(a, b, data[0])
                key = (p[0].numerator, p[0].denominator, p[1].numerator, p[1].denominator)
                crossing_points.setdefault(key, set()).update((c1.id, c2.id))


def reference_pair_intersections(c1, c2):
    """Proper crossings of two curves as (point on c1, point on c2), sorted
    along c1 by a stable sort of the segment-pair order."""
    hits = []
    for i, (a, b) in enumerate(c1.segments()):
        for j, (c, d) in enumerate(c2.segments()):
            kind, data = classify_intersection(a, b, c, d)
            if kind == PROPER:
                t1, t2 = data
                hits.append((curve_point(c1, i, t1), curve_point(c2, j, t2)))
    hits.sort(key=lambda h: (h[0].segment, h[0].t))
    return tuple(hits)


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


class SlabFreeSpace:
    """Connectivity structure of the halfplane minus a set of segments, by
    the exact vertical-slab decomposition ``geom.exterior`` used to build."""

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


def _reference_segment_cuts(curves):
    """Per segment of the curves, the points where it meets itself or any
    of the curves (its own ends included)."""
    cuts = [[[a, b] for a, b in c.segments()] for c in curves]
    for i, c1 in enumerate(curves):
        for j, c2 in enumerate(curves[i:], i):
            crossings, contacts = pair_contacts(c1, c2)
            for p, q in crossings:
                cuts[i][p.segment].append(p.point)
                cuts[j][q.segment].append(q.point)
            for s, t, kind, data in contacts:
                if kind == TOUCH:
                    cuts[i][s].append(data)
                    cuts[j][t].append(data)
                else:  # an overlap: each segment is cut at the other's ends on it
                    a, b = c1.vertices[s], c1.vertices[s + 1]
                    u, v = c2.vertices[t], c2.vertices[t + 1]
                    cuts[i][s].extend(p for p in (u, v) if on_segment(p, a, b))
                    cuts[j][t].extend(p for p in (a, b) if on_segment(p, u, v))
    return [cut for per_curve in cuts for cut in per_curve]


def _reference_angle_key(dx, dy):
    """Orders nonzero directions counterclockwise from the positive x-axis:
    the quarter turns that bring them into the first quadrant, then the
    slope there."""
    turns = 0
    while not (dx > 0 and dy >= 0):
        dx, dy, turns = dy, -dx, turns + 1
    return (turns, dy / dx)


def _reference_distinct(values):
    out = []
    for v in sorted(values):
        if not out or v != out[-1]:
            out.append(v)
    return out


class reference_FreeSpace:
    """The closed walk around the outer face of curves plus a baseline."""

    def __init__(self, curves):
        curves = tuple(curves)
        if any(not c.vertices or c.vertices[0][1] != 0 or any(y < 0 for _, y in c.vertices)
               for c in curves):
            raise ValueError("exterior membership needs curves grounded on the baseline")
        self.segments = [seg for c in curves for seg in c.segments()]
        self._walk = []
        number: dict[Point, int] = {}  # the graph works on point numbers
        edges = set()

        def link(cut):
            # Points on one segment sort along it, so the piece of a
            # collinear overlap is one edge from either segment.
            ids = [number.setdefault(p, len(number)) for p in _reference_distinct(cut)]
            edges.update(zip(ids, ids[1:]))
            return ids

        for cut in _reference_segment_cuts(curves):
            link(cut)
        pts = list(number)
        self.xs = _reference_distinct(x for x, _ in pts)
        if not pts:
            return
        base = link([(self.xs[0] - 1, 0), (self.xs[-1] + 1, 0)] + [p for p in pts if p[1] == 0])
        pts = list(number)

        ring = [[] for _ in pts]
        for u, v in edges:
            ring[u].append(v)
            ring[v].append(u)
        for v, nbrs in enumerate(ring):
            x, y = pts[v]
            nbrs.sort(key=lambda w: _reference_angle_key(pts[w][0] - x, pts[w][1] - y))

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
        ends = (sorted((pts[a], pts[b])) for a, b in walked)
        self._walk = [(ax, ay, bx, by) for (ax, ay), (bx, by) in ends if ax != bx]

    def on_obstacle(self, p: Point) -> bool:
        return any(on_segment(p, a, b) for a, b in self.segments)

    def in_exterior(self, p: Point) -> bool:
        """True iff p (off the obstacles, y >= 0) can reach infinity.  An
        edge counts on the half-open x-range [ax, bx), so a ray through a
        vertex counts it once, and a vertical edge never counts."""
        px, py = p
        above = 0
        for ax, ay, bx, by in self._walk:
            if ax <= px < bx and (by - ay) * (px - ax) > (py - ay) * (bx - ax):
                above += 1
        return above % 2 == 0


def reference_clique_number(G):
    """Exact maximum clique via Bron-Kerbosch with pivoting.

    Returns ``(omega, witness)``; the witness is the first maximum clique in
    the deterministic search order.
    """
    if not G.ids:
        return 0, frozenset()
    order = {v: i for i, v in enumerate(G.ids)}
    best: list[str] = []

    def expand(r: list, p: set, x: set):
        nonlocal best
        if not p and not x:
            if len(r) > len(best):
                best = list(r)
            return
        if len(r) + len(p) <= len(best):
            return
        pivot = min(p | x, key=lambda v: (-len(G.adj[v] & p), order[v]))
        for v in sorted(p - G.adj[pivot], key=order.get):
            expand(r + [v], p & G.adj[v], x & G.adj[v])
            p.remove(v)
            x.add(v)

    expand([], set(G.ids), set())
    return len(best), frozenset(best)


def reference_greedy_coloring(G):
    """DSATUR greedy: a proper coloring, used only as an upper bound."""
    order = {v: i for i, v in enumerate(G.ids)}
    colors: dict = {}
    neigh_colors = {v: set() for v in G.ids}
    uncolored = set(G.ids)
    while uncolored:
        v = min(uncolored,
                key=lambda u: (-len(neigh_colors[u]), -len(G.adj[u]), order[u]))
        c = 0
        while c in neigh_colors[v]:
            c += 1
        colors[v] = c
        uncolored.remove(v)
        for u in G.adj[v]:
            if u in uncolored:
                neigh_colors[u].add(c)
    return colors


def reference_k_colorable(G, k: int):
    """Backtracking search for a proper k-coloring, DSATUR vertex selection,
    color symmetry broken by never opening more than one fresh color."""
    order = {v: i for i, v in enumerate(G.ids)}
    colors: dict = {}
    neigh_colors = {v: set() for v in G.ids}

    def pick():
        pending = [v for v in G.ids if v not in colors]
        if not pending:
            return None
        return min(pending,
                   key=lambda u: (-len(neigh_colors[u]), -len(G.adj[u]), order[u]))

    def assign(v, c) -> list:
        colors[v] = c
        touched = []
        for u in G.adj[v]:
            if u not in colors and c not in neigh_colors[u]:
                neigh_colors[u].add(c)
                touched.append(u)
        return touched

    def undo(v, c, touched):
        del colors[v]
        for u in touched:
            neigh_colors[u].discard(c)

    def search(used: int) -> bool:
        v = pick()
        if v is None:
            return True
        limit = min(k, used + 1)
        for c in range(limit):
            if c in neigh_colors[v]:
                continue
            touched = assign(v, c)
            if search(max(used, c + 1)):
                return True
            undo(v, c, touched)
        return False

    if search(0):
        return dict(colors)
    return None


def reference_canonical_colors(G, colors: dict) -> dict:
    """Relabel colors by first appearance in family order."""
    relabel: dict = {}
    for v in G.ids:
        c = colors[v]
        if c not in relabel:
            relabel[c] = len(relabel)
    return {v: relabel[colors[v]] for v in G.ids}


def reference_chromatic_number(G):
    """Exact chromatic number with a proper witness using exactly chi colors.

    Clique number gives the lower bound, DSATUR greedy the upper bound, and a
    branch-and-bound k-colorability search closes the gap from below.
    """
    if not G.ids:
        return 0, {}
    lb, _ = reference_clique_number(G)
    greedy = reference_greedy_coloring(G)
    ub = max(greedy.values()) + 1
    if lb == ub:
        return ub, reference_canonical_colors(G, greedy)
    for k in range(lb, ub):
        witness = reference_k_colorable(G, k)
        if witness is not None:
            return k, reference_canonical_colors(G, witness)
    return ub, reference_canonical_colors(G, greedy)
