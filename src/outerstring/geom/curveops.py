"""Operations on whole curves and subcurves: intersections ordered along a
curve, first hits against obstacle sets, subcurve intersection tests.

All functions assume general position between distinct curves (validated
input), which guarantees finitely many transversal crossings, none at
polyline vertices.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from ..errors import InternalContradiction
from .curves import (CurvePoint, GroundedCurve, Subcurve, curve_point)
from .segments import NONE, PROPER, TOUCH, classify_intersection


def _rescaled(segs, k: int):
    return [((a[0] * k, a[1] * k), (b[0] * k, b[1] * k), x0 * k, x1 * k, y0 * k, y1 * k)
            for a, b, x0, x1, y0, y1 in segs]


def _segment_pass(c1: GroundedCurve, c2: GroundedCurve):
    """Classify every segment pair of c1 and c2 whose bounding boxes meet,
    in integers over the two curves' common denominator."""
    den1, segs1 = c1.scaled_segments()
    den2, segs2 = c2.scaled_segments()
    den = lcm(den1, den2)
    if den != den1:
        segs1 = _rescaled(segs1, den // den1)
    if den != den2:
        segs2 = _rescaled(segs2, den // den2)
    crossings, contacts = [], []
    for i, (a, b, x0, x1, y0, y1) in enumerate(segs1):
        for j, (c, d, u0, u1, v0, v1) in enumerate(segs2):
            if x1 < u0 or u1 < x0 or y1 < v0 or v1 < y0:
                continue
            kind, data = classify_intersection(a, b, c, d)
            if kind == PROPER:
                # The crossing a + (b - a) * t1, divided by den, in one step;
                # t1 and t2 lie in (0, 1), so both positions are canonical.
                t1, t2 = data
                p, q = t1.numerator, t1.denominator
                x = Fraction(a[0] * q + (b[0] - a[0]) * p, den * q)
                y = Fraction(a[1] * q + (b[1] - a[1]) * p, den * q)
                crossings.append((CurvePoint(c1.id, i, t1, x, y), CurvePoint(c2.id, j, t2, x, y)))
            elif kind != NONE:
                if kind == TOUCH:
                    data = (Fraction(data[0], den), Fraction(data[1], den))
                contacts.append((i, j, kind, data))
    return crossings, contacts


def pair_contacts(c1: GroundedCurve, c2: GroundedCurve):
    """Proper crossings ``(point on c1, point on c2)`` sorted along c1, and
    the overlaps and touches ``(segment of c1, segment of c2, kind, touch
    point)`` in segment-pair order, from one pass over the segment pairs.

    Memoized on c1 by c2; the pass of (c2, c1) is reused reversed.
    """
    found = c1._contacts.get(c2)
    if found is None:
        back = c2._contacts.get(c1)
        if back is not None:
            crossings = [(q, p) for p, q in back[0]]
            contacts = sorted(((j, i, kind, data) for i, j, kind, data in back[1]),
                              key=lambda k: k[:2])
        else:
            crossings, contacts = _segment_pass(c1, c2)
        # Stable, so crossings at one position stay in segment-pair order.
        crossings.sort(key=lambda h: (h[0].segment, h[0].t))
        found = c1._contacts[c2] = (tuple(crossings), tuple(contacts))
    return found


def curve_intersections(c1: GroundedCurve, c2: GroundedCurve):
    """All intersection points of two distinct curves, sorted along c1.

    Each entry is ``(point on c1, point on c2)`` as CurvePoints.
    """
    if c1.id == c2.id:
        raise ValueError("curve_intersections requires two distinct curves")
    return pair_contacts(c1, c2)[0]


def curves_intersect(c1: GroundedCurve, c2: GroundedCurve) -> bool:
    return bool(pair_contacts(c1, c2)[0])


def _obstacle_parts(obstacle):
    """Normalize an obstacle to (id, underlying curve, subcurve-or-None)."""
    if isinstance(obstacle, Subcurve):
        return obstacle.curve_id, None, obstacle
    return obstacle.id, obstacle, None


def hits_against(c: GroundedCurve, obstacle, resolve):
    """Intersection points of c with an obstacle (curve or subcurve), as
    ``(point on c, obstacle id, point on obstacle)``, respecting open ends.

    ``resolve`` maps a curve id to its GroundedCurve (needed for subcurves).
    """
    oid, ocurve, sub = _obstacle_parts(obstacle)
    if ocurve is None:
        ocurve = resolve(oid)
    out = []
    for p_on_c, p_on_o in curve_intersections(c, ocurve):
        if sub is not None and not sub.contains_param(p_on_o):
            continue
        out.append((p_on_c, oid, p_on_o))
    return out


def first_hit(c: GroundedCurve, obstacles, resolve=None):
    """The earliest intersection of c with any obstacle, walking from the
    basepoint of c; ``None`` if c misses them all.

    Obstacles may be GroundedCurves or Subcurves (open ends excluded).  Under
    general position the minimum is unique; a tie would mean a triple point.
    """
    if resolve is None:
        resolve = {}.get
    best = None
    for ob in obstacles:
        for hit in hits_against(c, ob, resolve):
            if best is None or hit[0] < best[0]:
                best = hit
            elif hit[0] == best[0] and hit[1] != best[1]:
                raise InternalContradiction(
                    f"tie in first_hit at {hit[0].point}: triple point slipped past validation")
    return best


def subcurves_intersect(s1: Subcurve, s2: Subcurve, resolve=None) -> bool:
    """True iff two subcurves share a point, respecting open endpoints.

    For subcurves of the same underlying curve the comparison is parametric:
    ranges overlapping in more than a point intersect regardless of endpoint
    flags; a single shared endpoint counts only if closed on both sides.
    """
    if s1.curve_id == s2.curve_id:
        lo = max((s1.start, s1.start_closed), (s2.start, s2.start_closed),
                 key=lambda e: (e[0].segment, e[0].t))
        hi = min((s1.end, s1.end_closed), (s2.end, s2.end_closed),
                 key=lambda e: (e[0].segment, e[0].t))
        if hi[0] < lo[0]:
            return False
        if lo[0] < hi[0]:
            return True
        return (s1.contains_param(lo[0]) and s2.contains_param(lo[0]))
    if resolve is None:
        raise ValueError("resolve callback required for subcurves of different curves")
    c1, c2 = resolve(s1.curve_id), resolve(s2.curve_id)
    for p1, p2 in curve_intersections(c1, c2):
        if s1.contains_param(p1) and s2.contains_param(p2):
            return True
    return False


def split_points_on(c: GroundedCurve, others) -> list[CurvePoint]:
    """Sorted positions where c meets any of the other curves."""
    pts = []
    for o in others:
        if o.id == c.id:
            continue
        pts.extend(p for p, _ in curve_intersections(c, o))
    pts.sort(key=lambda p: (p.segment, p.t))
    return pts


def piece_representatives(c: GroundedCurve, cuts: list[CurvePoint]):
    """One interior point for each open piece of c between consecutive cuts.

    The cut points are assumed not to sit on polyline vertices (general
    position), so a piece spanning several segments always contains the
    vertex right after its first segment.
    """
    bounds = ([curve_point(c, 0, Fraction(0))] + list(cuts)
              + [curve_point(c, c.num_segments - 1, Fraction(1))])
    reps = []
    for a, b in zip(bounds, bounds[1:]):
        if a == b:
            continue
        if a.segment == b.segment:
            reps.append(c.point_at(a.segment, (a.t + b.t) / 2))
        else:
            reps.append(c.vertices[a.segment + 1])
    return reps
