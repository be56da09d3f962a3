"""Geometric kernel: validation, intersections, first hits, exterior
membership, subcurve logic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outerstring.errors import (BaselineViolation, DegenerateIntersection,
                                DuplicateBasepoint)
from outerstring.geom import (FreeSpace, Subcurve, curve,
                              curve_intersections, curve_point, curve_start,
                              exterior_membership, find_violations, first_hit,
                              initial_subcurve, pt, subcurves_intersect,
                              validate_family, whole_subcurve)


class TestValidateFamily:
    def test_valid_family_sorted(self, abc_family):
        assert abc_family.ids() == ("a", "b", "c")

    def test_duplicate_basepoint(self):
        with pytest.raises(DuplicateBasepoint):
            validate_family([curve("a", (0, 0), (3, 3)),
                             curve("b", (0, 0), (1, 2))])

    def test_baseline_violation(self):
        with pytest.raises(BaselineViolation):
            validate_family([curve("a", (0, 0), (2, 2)),
                             curve("b", (1, 0), (1, -1), (1, 2))])

    def test_vertex_touch_rejected(self):
        # b's interior passes through a vertex of a
        with pytest.raises(DegenerateIntersection):
            validate_family([curve("a", (0, 0), (1, 1), (2, 1)),
                             curve("b", (1, 0), (1, 3))])

    def test_collinear_overlap_rejected(self):
        # b's middle segment runs along the same line as a
        with pytest.raises(DegenerateIntersection):
            validate_family([curve("a", (0, 0), (4, 4)),
                             curve("b", (5, 0), (1, 1), (3, 3))])

    def test_triple_point_rejected(self):
        violations = find_violations([
            curve("a", (0, 0), (2, 2)),
            curve("b", (2, 0), (0, 2)),
            curve("c", (1, 0), (1, 3)),
        ])
        assert any(v.kind == "triple-point" for v in violations)

    def test_violation_lists_offenders(self):
        violations = find_violations([curve("a", (0, 0), (3, 3)),
                                      curve("b", (0, 0), (1, 2))])
        assert violations and "a" in violations[0].detail or "b" in violations[0].detail

    def test_coinciding_vertices_only_baseline(self):
        # a's zero-length segment at (0,2) lies above b's horizontal segment,
        # inside its x-range but off it: no contact, in either curve order.
        a = curve("a", (0, 0), (0, 2), (0, 2), (0, 3))
        b = curve("b", (1, 0), (1, 1), (-1, 1))
        for order in ([a, b], [b, a]):
            assert [(v.kind, v.curves) for v in find_violations(order)] == [
                ("baseline", ("a",))]


class TestCurveIntersections:
    def test_single_crossing(self, abc_family):
        hits = curve_intersections(abc_family["a"], abc_family["b"])
        assert len(hits) == 1
        assert hits[0][0].point == (Fraction(3, 4), Fraction(3, 4))
        assert hits[0][1].point == (Fraction(3, 4), Fraction(3, 4))

    def test_disjoint(self, abc_family):
        assert curve_intersections(abc_family["a"], abc_family["c"]) == ()

    def test_polyline_crossing(self, nest_family):
        hits = curve_intersections(nest_family["u"], nest_family["v"])
        assert [h[0].point for h in hits] == [(Fraction(0), Fraction(3))]

    def test_symmetry(self, nest_family):
        for c1 in nest_family:
            for c2 in nest_family:
                if c1.id >= c2.id:
                    continue
                fwd = curve_intersections(c1, c2)
                rev = curve_intersections(c2, c1)
                assert {(a.point, b.point) for a, b in fwd} == \
                    {(b.point, a.point) for a, b in rev}

    def test_rerun_bit_identical(self, abc_family):
        first = curve_intersections(abc_family["a"], abc_family["b"])
        again = curve_intersections(abc_family["a"], abc_family["b"])
        assert first == again


class TestFirstHit:
    def test_earliest_among_two_obstacles(self, nest_family):
        s, u, v = nest_family["s"], nest_family["u"], nest_family["v"]
        hit = first_hit(s, [u, v])
        assert hit[0].point == (Fraction(3), Fraction(3))
        assert hit[1] == "v"

    def test_none_when_disjoint(self, abc_family):
        assert first_hit(abc_family["a"], [abc_family["c"]]) is None

    def test_forced_single(self, abc_family):
        hit = first_hit(abc_family["b"], [abc_family["a"]])
        assert hit[0].segment == 0 and hit[0].t == Fraction(1, 4)

    def test_minimal_among_all_intersections(self, nest_family):
        s = nest_family["s"]
        hit = first_hit(s, [nest_family["u"], nest_family["v"]])
        all_hits = []
        for other in ("u", "v"):
            all_hits += [p for p, _ in curve_intersections(s, nest_family[other])]
        assert hit[0] == min(all_hits)

    def test_open_end_excludes_hit(self, abc_family):
        a, b = abc_family["a"], abc_family["b"]
        on_b = curve_intersections(b, a)[0][0]
        b_prime = initial_subcurve(b, on_b, end_closed=False)
        assert first_hit(a, [b_prime], abc_family.__getitem__) is None


class TestExteriorMembership:
    def test_enclosed_baseline_pocket(self, abc_family):
        G = abc_family.subfamily(["a", "b"])
        assert exterior_membership(G, (Fraction(1, 2), Fraction(1, 20))) is False

    def test_probe_curve_escapes(self, abc_family):
        G = abc_family.subfamily(["a", "b"])
        assert exterior_membership(G, abc_family["c"]) is True

    def test_single_curve_encloses_nothing(self):
        w = curve("w", (0, 0), (0, 1))
        for probe in [(-1, Fraction(1, 2)), (1, Fraction(1, 2)),
                      (Fraction(1, 10), Fraction(9, 10)), (0, 2)]:
            assert exterior_membership([w], pt(*probe)) is True

    def test_point_on_curve_not_exterior(self):
        w = curve("w", (0, 0), (0, 2))
        assert exterior_membership([w], (Fraction(0), Fraction(1))) is False

    def test_empty_family_everything_exterior(self):
        assert exterior_membership([], (Fraction(5), Fraction(5))) is True

    def test_jordan_baseline_between_crossing_pair(self, abc_family):
        # Between the basepoints of an intersecting pair, the open baseline
        # is cut off from infinity.
        G = abc_family.subfamily(["a", "b"])
        for x in (Fraction(1, 10), Fraction(1, 2), Fraction(9, 10)):
            assert exterior_membership(G, (x, Fraction(0))) is False

    def test_degenerate_probe_rejected(self, abc_family):
        from outerstring.errors import DegenerateProbe
        clash = curve("clash", (0, 0), (1, 5))  # shares a's basepoint
        with pytest.raises(DegenerateProbe):
            exterior_membership(abc_family.subfamily(["a", "b"]), clash)

    def test_member_probe_rejected(self, abc_family):
        with pytest.raises(ValueError):
            exterior_membership(abc_family, abc_family["a"])

    def test_monotone_under_shrinking(self, nest_family):
        pts = [pt(x, y) for x in range(-1, 8) for y in ("1/3", "7/3", "9/2")]
        big = nest_family
        small = nest_family.subfamily(["u", "v"])
        fs_big = FreeSpace([s for c in big for s in c.segments()])
        for p in pts:
            if fs_big.on_obstacle(p):
                continue
            if exterior_membership(big, p):
                assert exterior_membership(small, p)


class TestSubcurves:
    def test_open_end_excludes_shared_point(self, abc_family):
        a, b = abc_family["a"], abc_family["b"]
        on_b = curve_intersections(b, a)[0][0]
        b_open = initial_subcurve(b, on_b, end_closed=False)
        assert subcurves_intersect(b_open, whole_subcurve(a),
                                   abc_family.__getitem__) is False

    def test_closed_end_includes_shared_point(self, abc_family):
        a, b = abc_family["a"], abc_family["b"]
        on_b = curve_intersections(b, a)[0][0]
        b_closed = initial_subcurve(b, on_b, end_closed=True)
        assert subcurves_intersect(b_closed, whole_subcurve(a),
                                   abc_family.__getitem__) is True

    def test_disjoint_whole_curves(self, abc_family):
        assert subcurves_intersect(whole_subcurve(abc_family["a"]),
                                   whole_subcurve(abc_family["c"]),
                                   abc_family.__getitem__) is False

    def test_same_curve_interval_overlap(self):
        c = curve("c", (0, 0), (0, 4))
        lo = curve_point(c, 0, Fraction(1, 4))
        mid = curve_point(c, 0, Fraction(1, 2))
        hi = curve_point(c, 0, Fraction(3, 4))
        first = Subcurve("c", curve_start(c), mid, True, False)
        second = Subcurve("c", mid, hi, True, True)
        assert subcurves_intersect(first, second) is False
        second_open = Subcurve("c", mid, hi, False, True)
        assert subcurves_intersect(first, second_open) is False
        first_closed = Subcurve("c", lo, mid, True, True)
        assert subcurves_intersect(first_closed, second) is True


def grid_reachable_points(fam, step):
    """One-sided independent oracle for exterior membership.

    Flood-fills a lattice from outside the bounding box; a move is allowed
    only if the connecting segment crosses no family curve (exact test).
    Every lattice point reached is genuinely connected to infinity, so the
    kernel must agree it is exterior.  Unreached points prove nothing (the
    lattice may just be too coarse for a corridor).
    """
    from outerstring.geom import classify_intersection
    xmin, _, xmax, ymax = fam.bounding_box()
    segs = [s for c in fam for s in c.segments()]

    def blocked(a, b):
        return any(classify_intersection(a, b, c, d)[0] != "none"
                   for c, d in segs)

    x0, x1 = xmin - step, xmax + step
    y1 = ymax + step
    cols = int((x1 - x0) / step) + 1
    rows = int(y1 / step) + 1
    start = (0, rows - 1)  # top-left corner, above everything
    seen = {start}
    stack = [start]
    while stack:
        i, j = stack.pop()
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            ni, nj = i + di, j + dj
            if not (0 <= ni < cols and 0 <= nj < rows) or (ni, nj) in seen:
                continue
            a = (x0 + i * step, j * step)
            b = (x0 + ni * step, nj * step)
            if blocked(a, b):
                continue
            seen.add((ni, nj))
            stack.append((ni, nj))
    return [(x0 + i * step, j * step) for i, j in seen]


class TestExteriorAgainstFloodFill:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    def test_grid_reachable_implies_exterior(self, seed):
        from outerstring.gen import GenSpec, random_grounded_polylines
        fam = random_grounded_polylines(GenSpec(kind="polylines", n=5, seed=seed, grid=8))
        for p in grid_reachable_points(fam, Fraction(1, 2)):
            assert exterior_membership(fam, p) is True, p


class TestExteriorRandomized:
    """Independently known facts about exteriors, checked on random families."""

    @pytest.mark.parametrize("seed", range(20))
    def test_jordan_pocket_for_every_intersecting_pair(self, seed):
        from outerstring.gen import GenSpec, random_grounded_polylines
        from outerstring.geom import curves_intersect
        fam = random_grounded_polylines(GenSpec(kind="polylines", n=6, seed=seed))
        ids = fam.ids()
        for i, u in enumerate(ids):
            for v in ids[i + 1:]:
                if not curves_intersect(fam[u], fam[v]):
                    continue
                pair = fam.subfamily([u, v])
                lo, hi = fam[u].base_x, fam[v].base_x
                for k in (1, 2, 3):
                    x = lo + (hi - lo) * Fraction(k, 4)
                    assert exterior_membership(pair, (x, Fraction(0))) is False

    @pytest.mark.parametrize("seed", range(10))
    def test_far_points_always_exterior(self, seed):
        from outerstring.gen import GenSpec, random_grounded_segments
        fam = random_grounded_segments(GenSpec(kind="segments", n=6, seed=seed))
        xmin, _, xmax, ymax = fam.bounding_box()
        for probe in [(xmin - 5, Fraction(1)), (xmax + 5, Fraction(1)),
                      (Fraction(xmin + xmax, 2), ymax + 7)]:
            assert exterior_membership(fam, pt(*probe)) is True


class TestFamilyJson:
    @pytest.mark.parametrize("seed", range(8))
    def test_roundtrip_is_exact(self, seed):
        from outerstring.gen import GenSpec, random_grounded_polylines
        from outerstring.geom import dumps_family, loads_family
        fam = random_grounded_polylines(GenSpec(kind="polylines", n=6, seed=seed))
        again = loads_family(dumps_family(fam))
        assert [c.vertices for c in again] == [c.vertices for c in fam]
        assert again.ids() == fam.ids()

    def test_decimal_strings_convert_exactly(self):
        from outerstring.geom import loads_family
        fam = loads_family(
            '{"curves": [{"id": "a", "vertices": [[0, 0], ["0.1", "2.5"]]}]}')
        assert fam["a"].vertices[1] == (Fraction(1, 10), Fraction(5, 2))

    def test_float_coordinates_rejected(self):
        from outerstring.geom import loads_family
        with pytest.raises(ValueError):
            loads_family('{"curves": [{"id": "a", "vertices": [[0, 0], [0.1, 2]]}]}')


coords = st.integers(min_value=-6, max_value=6)


class TestCurvePointCanonical:
    @given(st.integers(min_value=0, max_value=2),
           st.fractions(min_value=0, max_value=1))
    @settings(max_examples=200)
    def test_canonical_form(self, seg, t):
        c = curve("c", (0, 0), (1, 1), (2, 1), (3, 2))
        p = curve_point(c, seg, t)
        if p.segment < c.num_segments - 1:
            assert p.t < 1
        q = curve_point(c, p.segment, p.t)
        assert p == q

    @given(st.fractions(min_value=0, max_value=1),
           st.fractions(min_value=0, max_value=1))
    @settings(max_examples=200)
    def test_order_matches_geometry_on_vertical(self, t1, t2):
        c = curve("c", (0, 0), (0, 10))
        p1, p2 = curve_point(c, 0, t1), curve_point(c, 0, t2)
        assert (p1 < p2) == (p1.y < p2.y)


class TestSegmentsProperty:
    @given(coords, coords, coords, coords, coords, coords, coords, coords)
    @settings(max_examples=300)
    def test_classification_symmetric(self, ax, ay, bx, by, cx, cy, dx, dy):
        from outerstring.geom import classify_intersection
        a, b = pt(ax, ay), pt(bx, by)
        c, d = pt(cx, cy), pt(dx, dy)
        kind1, data1 = classify_intersection(a, b, c, d)
        kind2, data2 = classify_intersection(c, d, a, b)
        assert kind1 == kind2
        # A crossing's parameters come back in argument order.
        assert data1 == (data2[::-1] if kind1 == "proper" else data2)
