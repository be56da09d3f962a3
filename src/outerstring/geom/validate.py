"""Family validation: groundedness and general position.

General position (GP) between distinct curves means:

* GP1 -- no collinear overlap and no touching at segment endpoints;
* GP2 -- segments of different curves meet transversally, at most once;
* GP3 -- no point lies on three curves;
* GP4 -- no intersection point coincides with a polyline vertex.

Touching contacts always involve a segment endpoint, and every segment
endpoint is a polyline vertex, so GP1/GP2/GP4 violations all surface here as
``overlap`` or ``vertex-touch`` findings; GP3 shows up as ``triple-point``.
Self-intersections within a single curve are permitted and not checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..errors import (BaselineViolation, DegenerateIntersection,
                      DuplicateBasepoint, FamilyValidationError)
from .curveops import pair_contacts
from .curves import CurveFamily, GroundedCurve
from .segments import OVERLAP


@dataclass(frozen=True)
class Violation:
    kind: str          # duplicate-basepoint | baseline | collinear-overlap | vertex-touch | triple-point
    curves: tuple[str, ...]
    detail: str


_KIND_TO_ERROR = {
    "duplicate-basepoint": DuplicateBasepoint,
    "baseline": BaselineViolation,
    "collinear-overlap": DegenerateIntersection,
    "vertex-touch": DegenerateIntersection,
    "triple-point": DegenerateIntersection,
}


def _check_grounded(c: GroundedCurve, out: list[Violation]):
    v = c.vertices
    if len(v) < 2:
        out.append(Violation("baseline", (c.id,), f"{c.id}: needs at least 2 vertices"))
        return
    if v[0][1] != 0:
        out.append(Violation("baseline", (c.id,),
                             f"{c.id}: basepoint {v[0]} not on the baseline"))
    for i, (x, y) in enumerate(v[1:], start=1):
        if y <= 0:
            out.append(Violation("baseline", (c.id,),
                                 f"{c.id}: vertex {i} at ({x},{y}) not strictly above the baseline"))
    for i in range(len(v) - 1):
        if v[i] == v[i + 1]:
            out.append(Violation("baseline", (c.id,),
                                 f"{c.id}: consecutive vertices {i},{i+1} coincide"))


def check_pair(c1: GroundedCurve, c2: GroundedCurve, out: list[Violation],
               crossing_points=None):
    """GP checks between two distinct curves; appends violations to ``out``.

    If ``crossing_points`` is a dict, proper crossings are recorded in it for
    the triple-point check, in segment-pair order: curve ids keyed by the
    point's numerators and denominators, which hash faster than Fractions.
    """
    crossings, contacts = pair_contacts(c1, c2)
    for _, _, kind, data in contacts:
        if kind == OVERLAP:
            out.append(Violation("collinear-overlap", (c1.id, c2.id),
                                 f"{c1.id} and {c2.id} overlap along a segment"))
        else:
            out.append(Violation("vertex-touch", (c1.id, c2.id),
                                 f"{c1.id} and {c2.id} touch at vertex point {data}"))
    if crossing_points is not None:
        for p, _ in sorted(crossings, key=lambda h: (h[0].segment, h[1].segment)):
            key = (p.x.numerator, p.x.denominator, p.y.numerator, p.y.denominator)
            crossing_points.setdefault(key, set()).update((c1.id, c2.id))


def find_violations(curves) -> list[Violation]:
    """All groundedness and GP violations in a raw curve collection."""
    curves = list(curves)
    out: list[Violation] = []
    for c in curves:
        _check_grounded(c, out)

    seen_ids = {}
    for c in curves:
        if c.id in seen_ids:
            out.append(Violation("duplicate-basepoint", (c.id,),
                                 f"curve id {c.id!r} appears twice"))
        seen_ids[c.id] = c

    by_base = {}
    for c in curves:
        if len(c.vertices) < 2:
            continue
        key = c.base_x
        if key in by_base:
            out.append(Violation("duplicate-basepoint", (by_base[key].id, c.id),
                                 f"{by_base[key].id} and {c.id} share basepoint x={key}"))
        else:
            by_base[key] = c

    crossing_points: dict = {}
    for i in range(len(curves)):
        for j in range(i + 1, len(curves)):
            check_pair(curves[i], curves[j], out, crossing_points)

    for (a, b, c, d), ids in crossing_points.items():
        if len(ids) >= 3:
            p = (Fraction(a, b), Fraction(c, d))
            out.append(Violation("triple-point", tuple(sorted(ids)),
                                 f"point {p} lies on three curves"))
    return out


def validate_family(raw) -> CurveFamily:
    """Validate a raw curve collection and return it sorted by basepoint.

    Raises the exception class named by the first violation (all violations
    are attached to the exception).
    """
    curves = list(raw)
    violations = find_violations(curves)
    if violations:
        first = violations[0]
        err = _KIND_TO_ERROR.get(first.kind, FamilyValidationError)
        raise err(first.detail, violations)
    return CurveFamily(tuple(sorted(curves, key=lambda c: c.base_x)))
