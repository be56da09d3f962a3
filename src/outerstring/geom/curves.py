"""Core value types: grounded curves, ordered families, positions along curves.

All coordinates are exact rationals.  A grounded curve is a polyline whose
first vertex lies on the baseline (y = 0) and whose remaining vertices are
strictly above it.  Families keep their curves sorted by basepoint, which
realizes the left-to-right order used throughout the package.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import total_ordering
from math import lcm

from ..errors import OrderViolation
from .segments import Point, segment_point


def as_rational(value) -> Fraction:
    """Convert an int, Fraction, or exact string ("7/2", "3.25") to Fraction.

    Floats are rejected: the kernel has no rounding anywhere, and a float
    argument is almost always an accident.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"exact coordinate required, got {type(value).__name__}: {value!r}")


def pt(x, y) -> Point:
    return (as_rational(x), as_rational(y))


@dataclass(frozen=True)
class GroundedCurve:
    """A polyline with its first vertex on the baseline.  ``_contacts`` holds
    ``curveops.pair_contacts`` results, keyed by the other curve;
    ``_free_spaces`` holds the ``exterior`` decompositions of curve tuples
    that start with this curve."""

    id: str
    vertices: tuple[Point, ...]
    _contacts: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _free_spaces: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _scaled: tuple = field(default=None, init=False, compare=False, repr=False)
    _hash: int = field(default=0, init=False, compare=False, repr=False)

    def __post_init__(self):
        verts = tuple((as_rational(x), as_rational(y)) for x, y in self.vertices)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "_hash", hash((self.id, verts)))

    def __hash__(self):
        return self._hash

    @property
    def basepoint(self) -> Point:
        return self.vertices[0]

    @property
    def base_x(self) -> Fraction:
        return self.vertices[0][0]

    def segments(self):
        """Consecutive vertex pairs, one per polyline segment."""
        v = self.vertices
        return [(v[i], v[i + 1]) for i in range(len(v) - 1)]

    @property
    def num_segments(self) -> int:
        return len(self.vertices) - 1

    def scaled_segments(self):
        """``(den, segs)``: ``den`` is the least common denominator of the
        coordinates, and ``segs`` holds one ``(a, b, xlo, xhi, ylo, yhi)``
        per segment, its endpoints and bounding box in integers over ``den``.
        Computed once."""
        if self._scaled is None:
            den = lcm(*(q.denominator for p in self.vertices for q in p))
            v = [(x.numerator * (den // x.denominator), y.numerator * (den // y.denominator))
                 for x, y in self.vertices]
            segs = tuple((a, b, min(a[0], b[0]), max(a[0], b[0]), min(a[1], b[1]), max(a[1], b[1]))
                         for a, b in zip(v, v[1:]))
            object.__setattr__(self, "_scaled", (den, segs))
        return self._scaled

    def point_at(self, segment: int, t: Fraction) -> Point:
        a, b = self.vertices[segment], self.vertices[segment + 1]
        return segment_point(a, b, t)

    def __repr__(self):
        return f"GroundedCurve({self.id!r}, {len(self.vertices)} vertices)"


def curve(id: str, *vertices) -> GroundedCurve:
    """Shorthand constructor: curve("a", (0,0), (3,3))."""
    return GroundedCurve(id, tuple(pt(x, y) for x, y in vertices))


@total_ordering
@dataclass(frozen=True)
class CurvePoint:
    """A position along a curve, canonical so each geometric point on the
    curve has exactly one representation: t < 1 except on the final segment.

    Ordering is the along-curve order from the basepoint.
    """

    curve_id: str
    segment: int
    t: Fraction
    x: Fraction
    y: Fraction

    def __lt__(self, other: "CurvePoint") -> bool:
        if self.curve_id != other.curve_id:
            raise ValueError("curve points on different curves are not ordered")
        return (self.segment, self.t) < (other.segment, other.t)

    @property
    def point(self) -> Point:
        return (self.x, self.y)


def curve_point(c: GroundedCurve, segment: int, t) -> CurvePoint:
    """Build a canonical CurvePoint at parameter t of the given segment."""
    t = as_rational(t)
    if not (0 <= t <= 1):
        raise ValueError(f"segment parameter out of range: {t}")
    if t == 1 and segment < c.num_segments - 1:
        segment, t = segment + 1, Fraction(0)
    x, y = c.point_at(segment, t)
    return CurvePoint(c.id, segment, t, x, y)


def curve_start(c: GroundedCurve) -> CurvePoint:
    return curve_point(c, 0, Fraction(0))


def curve_end(c: GroundedCurve) -> CurvePoint:
    return curve_point(c, c.num_segments - 1, Fraction(1))


@dataclass(frozen=True)
class Subcurve:
    """A contiguous piece of a curve with independently open/closed ends.

    Half-open subcurves express exclusions like "up to but not including the
    intersection point".
    """

    curve_id: str
    start: CurvePoint
    end: CurvePoint
    start_closed: bool = True
    end_closed: bool = True

    def __post_init__(self):
        if self.start.curve_id != self.curve_id or self.end.curve_id != self.curve_id:
            raise ValueError("subcurve endpoints must lie on its own curve")
        if self.end < self.start:
            raise ValueError("subcurve start must not come after its end")

    def contains_param(self, p: CurvePoint) -> bool:
        """True iff the along-curve position p belongs to this subcurve."""
        if p.curve_id != self.curve_id:
            return False
        if p < self.start or self.end < p:
            return False
        if p == self.start and not self.start_closed:
            return False
        if p == self.end and not self.end_closed:
            return False
        return True


def whole_subcurve(c: GroundedCurve) -> Subcurve:
    return Subcurve(c.id, curve_start(c), curve_end(c))


def initial_subcurve(c: GroundedCurve, end: CurvePoint, end_closed: bool) -> Subcurve:
    """The piece of c from its basepoint up to ``end``."""
    return Subcurve(c.id, curve_start(c), end, True, end_closed)


@dataclass(frozen=True)
class CurveFamily:
    """An ordered grounded family: curves sorted by strictly increasing
    basepoint x.  Construction assumes validation has already happened; use
    :func:`outerstring.geom.validate.validate_family` for raw input.
    """

    curves: tuple[GroundedCurve, ...]
    _by_id: dict = field(default_factory=dict, repr=False, compare=False)
    _pos: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_by_id", {c.id: c for c in self.curves})
        object.__setattr__(self, "_pos", {c.id: i for i, c in enumerate(self.curves)})

    def __iter__(self):
        return iter(self.curves)

    def __len__(self):
        return len(self.curves)

    def __contains__(self, cid) -> bool:
        return cid in self._by_id

    def __getitem__(self, cid: str) -> GroundedCurve:
        return self._by_id[cid]

    def ids(self) -> tuple[str, ...]:
        return tuple(c.id for c in self.curves)

    def index(self, cid: str) -> int:
        return self._pos[cid]

    def precedes(self, c1: str, c2: str) -> bool:
        """True iff c1 comes before c2 in basepoint order."""
        return self._by_id[c1].base_x < self._by_id[c2].base_x

    def subfamily(self, ids) -> "CurveFamily":
        """The subfamily with the given ids, in family order.

        Subfamilies of a validated family stay valid, so no re-check happens.
        """
        wanted = set(ids)
        missing = wanted - set(self._by_id)
        if missing:
            raise KeyError(f"unknown curve ids: {sorted(missing)}")
        return CurveFamily(tuple(c for c in self.curves if c.id in wanted))

    def between(self, u: str, v: str) -> "CurveFamily":
        """The subfamily strictly between u and v in basepoint order."""
        cu, cv = self._by_id[u], self._by_id[v]
        if u == v or cv.base_x < cu.base_x:
            raise OrderViolation(f"{u!r} must strictly precede {v!r}")
        return CurveFamily(tuple(
            c for c in self.curves if cu.base_x < c.base_x < cv.base_x))

    def bounding_box(self):
        xs = [x for c in self.curves for x, _ in c.vertices]
        ys = [y for c in self.curves for _, y in c.vertices]
        return (min(xs), min(ys), max(xs), max(ys))
