"""Independent oracles for the exact solvers and the curve arrangement.

The solver oracles must stay independent of the library's search code:
omega enumerates subsets, chi enumerates canonical color assignments with
nothing smarter than an early edge check.  The arrangement oracles are the
per-use segment-pair loops that the one memoized pass in
``outerstring.geom.curveops`` replaced; they share only the segment
predicates with the library.
"""

from __future__ import annotations

from itertools import combinations

from outerstring.geom.curves import curve_point
from outerstring.geom.segments import (OVERLAP, PROPER, TOUCH, classify_intersection,
                                       segment_point)
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
                crossing_points.setdefault(p, set()).update((c1.id, c2.id))


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
