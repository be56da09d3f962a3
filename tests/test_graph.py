"""Intersection graphs and the exact solvers, cross-checked against brute
force on small random families."""

import pytest
from oracles import brute_chi, brute_omega

from outerstring.errors import OrderViolation, UncoveredCurve
from outerstring.gen import GenSpec, random_grounded_polylines, random_grounded_segments
from outerstring.geom import curve, validate_family
from outerstring.graph import (chromatic_number, clique_number,
                               intersection_graph, is_proper,
                               piercer_cover_coloring)


class TestIntersectionGraph:
    def test_abc_edges(self, abc_family):
        g = intersection_graph(abc_family)
        assert sorted(g.edges()) == [("a", "b")]

    def test_disjoint_verticals_edgeless(self):
        fam = validate_family([curve(f"c{i}", (i, 0), (i, 2)) for i in range(3)])
        assert intersection_graph(fam).edges() == []

    def test_nest_triangle(self, nest_family):
        g = intersection_graph(nest_family)
        assert sorted(g.edges()) == [("s", "v"), ("u", "s"), ("u", "v")]


class TestSolvers:
    def test_edgeless(self):
        fam = validate_family([curve(f"c{i}", (i, 0), (i, 2)) for i in range(5)])
        g = intersection_graph(fam)
        w, witness = clique_number(g)
        assert w == 1 and len(witness) == 1
        chi, coloring = chromatic_number(g)
        assert chi == 1 and set(coloring.values()) == {0}

    def test_triangle(self, nest_family):
        g = intersection_graph(nest_family)
        assert clique_number(g) == (3, frozenset({"u", "s", "v"}))
        chi, coloring = chromatic_number(g)
        assert chi == 3 and is_proper(g, coloring)

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_brute_force(self, seed):
        kind = "segments" if seed % 2 else "polylines"
        spec = GenSpec(kind=kind, n=3 + seed % 6, seed=seed, grid=9)
        fam = (random_grounded_segments if kind == "segments"
               else random_grounded_polylines)(spec)
        g = intersection_graph(fam)
        w, witness = clique_number(g)
        chi, coloring = chromatic_number(g)
        assert w == brute_omega(g.ids, g.adj)
        assert chi == brute_chi(g.ids, g.adj)
        assert all(v in g.adj[u] for u in witness for v in witness if u != v)
        assert is_proper(g, coloring)
        assert max(coloring.values()) + 1 == chi
        assert chi >= w

    @pytest.mark.parametrize("seed", range(8))
    def test_vertex_deletion_monotone(self, seed):
        spec = GenSpec(kind="segments", n=6, seed=seed, grid=9)
        fam = random_grounded_segments(spec)
        g = intersection_graph(fam)
        chi, _ = chromatic_number(g)
        w, _ = clique_number(g)
        for drop in fam.ids():
            sub = g.subgraph([c for c in fam.ids() if c != drop])
            assert chromatic_number(sub)[0] <= chi
            assert clique_number(sub)[0] <= w


class TestBetween:
    """CurveFamily.between, the subfamily strictly between two curves."""

    def test_strictly_between(self, abc_family):
        assert abc_family.between("a", "c").ids() == ("b",)
        assert abc_family.between("a", "b").ids() == ()

    def test_order_violation(self, abc_family):
        with pytest.raises(OrderViolation):
            abc_family.between("c", "a")
        with pytest.raises(OrderViolation):
            abc_family.between("a", "a")

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_direct_filter(self, seed):
        fam = random_grounded_segments(GenSpec(kind="segments", n=7, seed=seed, grid=11))
        ids = fam.ids()
        u, v = ids[1], ids[-2]
        lo, hi = fam[u].base_x, fam[v].base_x
        expect = tuple(c.id for c in fam if lo < c.base_x < hi)
        assert fam.between(u, v).ids() == expect


class TestPiercerCover:
    def test_single_piercer_one_color(self):
        fam = validate_family([
            curve("g1", (1, 0), (1, 3), (4, 3)),
            curve("g2", (2, 0), (2, 2), (4, 2)),
            curve("piercer", (3, 0), (3, 6)),
        ])
        G = fam.subfamily(["g1", "g2"])
        combined = piercer_cover_coloring(G, [fam["piercer"]], [{"g1": 0, "g2": 0}])
        assert combined == {"g1": 0, "g2": 0}

    def test_nest_single(self, nest_family):
        G = nest_family.subfamily(["s"])
        combined = piercer_cover_coloring(G, [nest_family["u"]], [{"s": 0}])
        assert len(set(combined.values())) == 1

    def test_uncovered_curve(self, abc_family):
        G = abc_family.subfamily(["c"])
        with pytest.raises(UncoveredCurve):
            piercer_cover_coloring(G, [abc_family["a"]], [{}])

    def test_two_piercers_properness(self):
        curves = [
            curve("x1", (1, 0), (1, 4), (3, 4)),
            curve("x2", (2, 0), (2, 6), (3, 6)),
            curve("y1", (6, 0), (6, 3), ("31/4", 3)),
            curve("y2", (7, 0), (7, 5), (9, 5)),
            curve("y3", (8, 0), (8, "7/2"), ("29/4", "7/2")),
            curve("pierce_l", ("5/2", 0), ("5/2", 7)),
            curve("pierce_r", ("15/2", 0), ("15/2", 7)),
        ]
        fam = validate_family(curves)
        G = fam.subfamily(["x1", "x2", "y1", "y2", "y3"])
        left = {"x1": 0, "x2": 1}
        right = {"y1": 0, "y2": 1, "y3": 0}
        # y3 and y1 are disjoint, y2 crosses both
        combined = piercer_cover_coloring(
            G, [fam["pierce_l"], fam["pierce_r"]], [left, right])
        assert is_proper(intersection_graph(G), combined)
        assert len(set(combined.values())) <= 2 * 2

    def test_two_piercers_exact_group_colorings(self):
        # Same layout, but the per-group colorings come from the exact solver.
        curves = [
            curve("x1", (1, 0), (1, 4), (3, 4)),
            curve("x2", (2, 0), (2, 6), (3, 6)),
            curve("y1", (6, 0), (6, 3), ("31/4", 3)),
            curve("y2", (7, 0), (7, 5), (9, 5)),
            curve("y3", (8, 0), (8, "7/2"), ("29/4", "7/2")),
            curve("pierce_l", ("5/2", 0), ("5/2", 7)),
            curve("pierce_r", ("15/2", 0), ("15/2", 7)),
        ]
        fam = validate_family(curves)
        G = fam.subfamily(["x1", "x2", "y1", "y2", "y3"])
        graph = intersection_graph(G)
        groups = []
        max_colors = 0
        for piercer in ("pierce_l", "pierce_r"):
            member_ids = [c.id for c in G
                          if intersection_graph(
                              fam.subfamily([c.id, piercer])).edges()]
            _, witness = chromatic_number(graph.subgraph(member_ids))
            groups.append(witness)
            if witness:
                max_colors = max(max_colors, max(witness.values()) + 1)
        combined = piercer_cover_coloring(
            G, [fam["pierce_l"], fam["pierce_r"]], groups)
        assert is_proper(graph, combined)
        assert len(set(combined.values())) <= 2 * max_colors
