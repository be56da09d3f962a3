"""Exact predicates on line segments with rational endpoints.

The predicates take points ``(x, y)`` of any exact numbers: ``Fraction``s,
or integers that stand for rationals over one common denominator (the
pairwise contact pass in ``curveops`` scales each curve pair that way, so
its predicates run in integer arithmetic).  Parameters along a segment come
out as the same normalized ``Fraction`` either way.  There is no floating
point and no tolerance anywhere.
"""

from __future__ import annotations

from fractions import Fraction

Point = tuple[Fraction, Fraction]

# Intersection classification results
NONE = "none"
PROPER = "proper"        # transversal crossing interior to both segments
TOUCH = "touch"          # shared point involving a segment endpoint
OVERLAP = "overlap"      # collinear overlap of positive length


def orient(a: Point, b: Point, c: Point) -> int:
    """Sign of the cross product (b-a) x (c-a): +1 left turn, -1 right, 0 collinear."""
    d = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    if d > 0:
        return 1
    if d < 0:
        return -1
    return 0


def on_segment(p: Point, a: Point, b: Point) -> bool:
    """True iff p lies on the closed segment ab (collinear and within the box)."""
    if orient(a, b, p) != 0:
        return False
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def segment_point(a: Point, b: Point, t: Fraction) -> Point:
    return (a[0] + (b[0] - a[0]) * t, a[1] + (b[1] - a[1]) * t)


def classify_intersection(a: Point, b: Point, c: Point, d: Point):
    """Classify the intersection of segments ab and cd.

    Returns a tuple ``(kind, data)``:

    * ``(NONE, None)`` -- disjoint;
    * ``(PROPER, (t1, t2))`` -- one transversal crossing interior to both
      segments, at parameter ``t1`` on ab and ``t2`` on cd, both in (0, 1);
    * ``(TOUCH, point)`` -- they meet only in a point that is an endpoint of
      at least one of the segments (tangential contact included); a
      zero-length segment touches only where it lies on the other one;
    * ``(OVERLAP, None)`` -- collinear with a shared sub-segment of positive
      length.
    """
    o1 = orient(a, b, c)
    o2 = orient(a, b, d)
    o3 = orient(c, d, a)
    o4 = orient(c, d, b)

    if o1 == 0 and o2 == 0:
        if a == b or c == d:
            # A zero-length segment is a point: it touches the other segment
            # exactly when it lies on it.
            p, (u, v) = (a, (c, d)) if a == b else (c, (a, b))
            return (TOUCH, p) if on_segment(p, u, v) else (NONE, None)
        # Collinear. Project on the dominant axis and compare 1D intervals.
        axis = 0 if (a[0] != b[0] or c[0] != d[0]) else 1
        lo1, hi1 = sorted((a[axis], b[axis]))
        lo2, hi2 = sorted((c[axis], d[axis]))
        lo, hi = max(lo1, lo2), min(hi1, hi2)
        if lo > hi:
            return (NONE, None)
        if lo < hi:
            return (OVERLAP, None)
        # Single shared point; reconstruct it.
        p = a if a[axis] == lo else b
        return (TOUCH, p)

    if o1 and o2 and o3 and o4:
        if o1 == o2 or o3 == o4:
            return (NONE, None)
        # Transversal crossing strictly inside both segments.
        # Solve a + t1*(b-a) = c + t2*(d-c) exactly.
        rx, ry = b[0] - a[0], b[1] - a[1]
        sx, sy = d[0] - c[0], d[1] - c[1]
        denom = rx * sy - ry * sx
        qpx, qpy = c[0] - a[0], c[1] - a[1]
        return (PROPER, (Fraction(qpx * sy - qpy * sx, denom),
                         Fraction(qpx * ry - qpy * rx, denom)))

    # Some orientation vanished: a possible endpoint-on-segment contact.  An
    # endpoint with orientation 0 is on the other segment's line, so only
    # the box check is left.
    for o, p, (u, v) in ((o1, c, (a, b)), (o2, d, (a, b)), (o3, a, (c, d)), (o4, b, (c, d))):
        if (o == 0 and min(u[0], v[0]) <= p[0] <= max(u[0], v[0])
                and min(u[1], v[1]) <= p[1] <= max(u[1], v[1])):
            return (TOUCH, p)
    return (NONE, None)
