"""Extraction procedures: block partition, BFS support, skeleton search, and
the bracket/clique pipelines."""

from fractions import Fraction

import pytest
from conftest import nest_with

from outerstring.errors import PreconditionFailure
from outerstring.extract import (BoundParams, attempt_bracket_system,
                                 attempt_clique_system, bfs_supported,
                                 find_skeleton_supported, intersecting_gap_pair,
                                 mcguinness)
from outerstring.gen import (GenSpec, figure_fixture, random_grounded_polylines,
                             random_grounded_segments)
from outerstring.geom import (curve, curves_intersect, exterior_membership,
                              validate_family)
from outerstring.graph import chromatic_number, clique_number, intersection_graph
from outerstring.structures import is_supported, validate_clique_system


def chi_of(F):
    return chromatic_number(intersection_graph(F))[0]


def corpus(seed):
    kind = "segments" if seed % 2 else "polylines"
    spec = GenSpec(kind=kind, n=4 + seed % 9, seed=seed, grid=11)
    return (random_grounded_segments if kind == "segments"
            else random_grounded_polylines)(spec)


def check_mcguinness_post(F, H, alpha, beta):
    assert chi_of(H) > alpha
    ids = list(H.ids())
    for i, u in enumerate(ids):
        for v in ids[i + 1:]:
            if curves_intersect(F[u], F[v]):
                assert chi_of(F.between(u, v)) > beta


class TestMcGuinness:
    def test_zero_parameters_on_triangle(self, nest_family):
        F = nest_with(curve("t", (2, 0), (2, "1/2")))
        H, report = mcguinness(F, 0, 0)
        check_mcguinness_post(F, H, 0, 0)
        assert any(s.name == "blocks" for s in report.steps)

    def test_precondition_threshold(self):
        # chi = 2 equals 2*alpha*(beta+1) for alpha=1, beta=0: rejected.
        F = validate_family([curve("a", (0, 0), (3, 3)), curve("b", (1, 0), (0, 3))])
        with pytest.raises(PreconditionFailure):
            mcguinness(F, 1, 0)

    @pytest.mark.parametrize("alpha,beta", [(-1, 0), (0, -1)])
    def test_negative_parameters_rejected(self, nest_family, alpha, beta):
        # On the empty family alpha = -1 used to pass the precondition and
        # fail on an empty block list.
        for F in (nest_family, validate_family([])):
            with pytest.raises(ValueError):
                mcguinness(F, alpha, beta)

    @pytest.mark.parametrize("seed", range(25))
    def test_random_suite(self, seed):
        F = corpus(seed)
        for alpha in (0, 1):
            for beta in (0, 1):
                if chi_of(F) > 2 * alpha * (beta + 1):
                    H, _ = mcguinness(F, alpha, beta)
                    check_mcguinness_post(F, H, alpha, beta)


class TestIntersectingGapPair:
    def test_triangle_with_filler(self, nest_family):
        F = nest_with(curve("t", (2, 0), (2, "1/2")))
        u, v = intersecting_gap_pair(F, 0)
        assert curves_intersect(F[u], F[v])
        assert chi_of(F.between(u, v)) > 0

    def test_precondition(self):
        F = validate_family([curve("a", (0, 0), (3, 3)), curve("b", (1, 0), (0, 3))])
        with pytest.raises(PreconditionFailure):
            intersecting_gap_pair(F, 0)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_suite(self, seed):
        F = corpus(seed)
        beta = 0
        if chi_of(F) > 2 * (beta + 1):
            u, v = intersecting_gap_pair(F, beta)
            assert curves_intersect(F[u], F[v])
            assert chi_of(F.between(u, v)) > beta


class TestBfsSupported:
    def test_path_of_three(self):
        F = validate_family([
            curve("a", (0, 0), (2, 2)),
            curve("b", (1, 0), (1, 3), (4, 3)),
            curve("c", (3, 0), (3, 4), (5, 4)),
        ])
        G, d, report = bfs_supported(F)
        assert d >= 1
        assert chi_of(G) >= Fraction(chi_of(F), 2)

    def test_figure1_direct_external_support(self):
        fam, rel = figure_fixture(1)
        G = fam.subfamily(rel["supported_family"])
        for p, supporters in rel["supported_by"].items():
            assert supporters, p
            for s in supporters:
                assert curves_intersect(fam[p], fam[s])
                assert exterior_membership(G, fam[s]) is True

    def test_edgeless_precondition(self):
        F = validate_family([curve(f"c{i}", (i, 0), (i, 1)) for i in range(3)])
        with pytest.raises(PreconditionFailure):
            bfs_supported(F)

    @pytest.mark.parametrize("seed", range(25))
    def test_random_suite(self, seed):
        F = corpus(seed)
        if clique_number(intersection_graph(F))[0] < 2:
            return
        G, d, _ = bfs_supported(F)
        assert Fraction(chi_of(G), 1) >= Fraction(chi_of(F), 2)
        gset = set(G.ids())
        for p in G.ids():
            assert any(
                s not in gset and curves_intersect(F[s], F[p])
                and exterior_membership(G, F[s])
                for s in F.ids())


class TestFindSkeletonSupported:
    def test_nest_with_probe(self):
        F = nest_with(curve("p", (2, 0), (2, 2), ("7/2", 2)))
        found = find_skeleton_supported(F, 0)
        assert found is not None
        sk, P = found
        assert chi_of(P) > 0
        for p in P:
            assert is_supported(p.id, sk, F)

    def test_alpha_too_large(self, nest_family):
        assert find_skeleton_supported(nest_family, len(nest_family)) is None

    @pytest.mark.parametrize("seed", range(12))
    def test_revalidation(self, seed):
        F = corpus(seed)
        found = find_skeleton_supported(F, 0)
        if found is None:
            return
        sk, P = found
        for p in P:
            assert is_supported(p.id, sk, F)


def rainbow(n, ids=None):
    """n pairwise-crossing segments (base order reverses top order)."""
    return validate_family([
        curve(ids[i] if ids else f"r{i}", (i, 0), (2 * n - i, n + i))
        for i in range(n)])


class TestAttemptBracketSystem:
    def test_tiny_family_fails_at_first_threshold(self, nest_family):
        report = attempt_bracket_system(nest_family, BoundParams(k=2, xi=1))
        assert report.outcome == "step-failure"
        assert report.failure["step"] == "chi(F) > gamma"
        assert report.failure["measured"] == 3

    def test_steps_one_two_succeed_on_rainbow(self):
        F = rainbow(10)
        report = attempt_bracket_system(F, BoundParams(k=2, xi=1, beta=0, gamma=1))
        names = [s.name for s in report.steps]
        assert "bfs level 1" in names and "bfs level 3" in names
        assert "gap pair" in names
        # On a clique every curve between the pair meets it: G is empty.
        assert report.outcome == "step-failure"
        assert report.failure["step"] == "chi(G) > beta_{k+1}"

    def test_deterministic_report(self):
        F = rainbow(8)
        p = BoundParams(k=2, xi=1, beta=0, gamma=1)
        r1 = attempt_bracket_system(F, p)
        r2 = attempt_bracket_system(F, p)
        assert r1.to_json() == r2.to_json()

    def test_raising_gamma_moves_failure_no_later(self):
        F = rainbow(10)
        steps_small = attempt_bracket_system(F, BoundParams(k=2, xi=1, gamma=1))
        steps_large = attempt_bracket_system(F, BoundParams(k=2, xi=1, gamma=50))
        # gamma=50 still passes chi(F)=10? no: 10 > 50 fails immediately,
        # strictly earlier than the gamma=1 run's failure.
        assert steps_large.failure["step"] == "chi(F) > gamma"
        assert len(steps_large.steps) <= len(steps_small.steps)


def nested_combs_family():
    """Sixteen curves arranged so the full clique-system machinery runs end
    to end: three nested skeleton levels (poles A1/A2, B, C hooked under the
    crossing pairs U/V, U2/V2, U3/V3), and low horizontal runners whose
    support maps drive the signature pigeonhole and window narrowing."""
    return validate_family([
        curve("U", (0, 0), (0, 100), (200, 100)),
        curve("U2", (20, 0), (20, 60), (70, 60)),
        curve("U3", (30, 0), (30, 40), (55, 40)),
        curve("ell", (35, 0), (35, 30), (52, 30)),
        curve("pL", (37, 0), (37, 25), (52, 25)),
        curve("A1", (38, 0), (38, "199/2")),
        curve("pM", (39, 0), (39, 22), (52, 22)),
        curve("B", (40, 0), (40, "121/2"), (51, "121/2")),
        curve("C", (45, 0), (45, "81/2"), ("101/2", "81/2"), ("101/2", 41), (39, 41)),
        curve("A2", (50, 0), (50, "199/2")),
        curve("pR1", (51, 0), (51, 20), (34, 20)),
        curve("pR2", (53, 0), (53, 18), (34, 18)),
        curve("r", (55, 0), (55, 29), (34, 29)),
        curve("V3", (60, 0), (60, 39), (29, 39)),
        curve("V2", (80, 0), (80, 59), (19, 59)),
        curve("V", (100, 0), (100, 99), (-1, 99)),
    ])


class TestAttemptCliqueSystem:
    def test_t2_n0_nest(self, nest_family):
        report = attempt_clique_system(nest_family, 2, 0, BoundParams())
        assert report.outcome == "structure-found"
        cliques = report.result["system"]["cliques"]
        assert len(cliques) == 1 and len(cliques[0]) == 2
        u, v = cliques[0]
        assert curves_intersect(nest_family[u], nest_family[v])

    def test_t2_n0_edgeless_fails(self):
        F = validate_family([curve(f"c{i}", (i, 0), (i, 1)) for i in range(3)])
        report = attempt_clique_system(F, 2, 0, BoundParams())
        assert report.outcome == "step-failure"
        assert report.failure["measured"] == 1

    def test_success_reports_validate(self, nest_family):
        report = attempt_clique_system(nest_family, 2, 0, BoundParams())
        validate_clique_system(report.result["system"]["cliques"], nest_family)

    def test_t2_n1_full_machinery(self):
        F = nested_combs_family()
        report = attempt_clique_system(F, 2, 1, BoundParams(alpha=0, beta=0))
        assert report.outcome == "structure-found"
        cliques = report.result["system"]["cliques"]
        assert [len(K) for K in cliques] == [2, 2]
        validate_clique_system(cliques, F)
        names = [s.name for s in report.steps]
        assert any("skeleton 3" in n for n in names)
        assert any("pigeonhole" in n for n in names)

    def test_t3_n0_merge(self):
        F = nested_combs_family()
        report = attempt_clique_system(F, 3, 0, BoundParams(alpha=0, beta=0))
        assert report.outcome == "structure-found"
        cliques = report.result["system"]["cliques"]
        assert len(cliques) == 1 and len(cliques[0]) == 3
        for i, x in enumerate(cliques[0]):
            for y in cliques[0][i + 1:]:
                assert curves_intersect(F[x], F[y])
        validate_clique_system(cliques, F)

    def test_deterministic(self):
        F = nested_combs_family()
        r1 = attempt_clique_system(F, 3, 0, BoundParams(alpha=0, beta=0))
        r2 = attempt_clique_system(F, 3, 0, BoundParams(alpha=0, beta=0))
        assert r1.to_json() == r2.to_json()
