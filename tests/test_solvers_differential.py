"""The position-mask solvers of ``outerstring.graph`` against the set-based
solvers they replaced (``oracles.reference_*``): the same omega and clique
witness, chi and coloring, greedy coloring, and k-coloring for every k from
omega to the greedy bound, on random G(n, p) graphs, generated intersection
graphs and the gap subgraphs of the frozen benchmark coloring families."""

import json
import random
from pathlib import Path

import pytest
from oracles import (brute_omega, reference_chromatic_number, reference_clique_number,
                     reference_greedy_coloring, reference_k_colorable)

from outerstring.gen import GenSpec, generate
from outerstring.geom import family_from_dict
from outerstring.graph import (IntersectionGraph, _greedy_coloring, _k_colorable, _masks,
                               _max_clique, chromatic_number, clique_number,
                               intersection_graph)

FROZEN = Path(__file__).resolve().parent.parent / "perfbench" / "coloring_frozen.json"
# n50-seed25 is left out: the chi search does not finish on it.
FROZEN_LABELS = ("n50-seed30", "n50-seed0", "n50-seed23", "n60-seed15")

RANDOM_GRAPHS = 400
CHUNK = 50


def random_graph(seed: int) -> IntersectionGraph:
    """G(n, p) with n <= 40 on string ids in shuffled order."""
    rng = random.Random(seed)
    n = rng.randint(0, 40)
    p = rng.choice((0.1, 0.25, 0.5, 0.75, 0.9))
    ids = [f"v{i}" for i in range(n)]
    rng.shuffle(ids)
    adj = {v: set() for v in ids}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                adj[ids[i]].add(ids[j])
                adj[ids[j]].add(ids[i])
    return IntersectionGraph(tuple(ids), {v: frozenset(a) for v, a in adj.items()})


def assert_same_as_reference(G: IntersectionGraph) -> None:
    """Every solver answer of G equals the reference's, dict order included."""
    assert clique_number(G) == reference_clique_number(G)
    chi, coloring = chromatic_number(G)
    ref_chi, ref_coloring = reference_chromatic_number(G)
    assert chi == ref_chi
    assert list(coloring.items()) == list(ref_coloring.items())
    greedy = _greedy_coloring(G)
    assert list(greedy.items()) == list(reference_greedy_coloring(G).items())
    if not G.ids:
        return
    omega, ub = clique_number(G)[0], max(greedy.values()) + 1
    for k in range(omega, ub + 1):
        found, ref = _k_colorable(G, k), reference_k_colorable(G, k)
        assert (found is None) == (ref is None), k
        if ref is not None:
            assert list(found.items()) == list(ref.items()), k


@pytest.mark.parametrize("chunk", range(RANDOM_GRAPHS // CHUNK))
def test_random_graphs(chunk):
    for seed in range(chunk * CHUNK, (chunk + 1) * CHUNK):
        assert_same_as_reference(random_graph(seed))


def test_random_graphs_reach_both_branches():
    """The corpus exercises the clique-first exit (omega = greedy bound) and
    the k-colorability loop (omega < greedy bound)."""
    graphs = [random_graph(seed) for seed in range(RANDOM_GRAPHS)]
    settled = [clique_number(G)[0] == max(_greedy_coloring(G).values()) + 1
               for G in graphs if G.ids]
    assert any(settled) and not all(settled)


@pytest.mark.parametrize("kind,sizes", [("segments", range(6, 36)),
                                        ("polylines", range(4, 24))])
def test_generated_families(kind, sizes):
    for n in sizes:
        grid = 20 if kind == "segments" else 3 * n
        fam = generate(GenSpec(kind=kind, n=n, bends=4, grid=grid, seed=1000 + n))
        assert_same_as_reference(intersection_graph(fam))


@pytest.mark.parametrize("label", FROZEN_LABELS)
def test_frozen_gap_subgraphs(label):
    """The whole frozen family and the gap subgraph F(u, v) of every edge,
    as the coloring benchmark asks them."""
    F = family_from_dict(json.loads(FROZEN.read_text(encoding="utf-8"))[label])
    G = intersection_graph(F)
    assert_same_as_reference(G)
    seen = set()
    for u, v in G.edges():
        sub = G.subgraph(F.between(u, v).ids())
        if sub.ids not in seen:
            seen.add(sub.ids)
            assert_same_as_reference(sub)
    assert len(seen) > 100


@pytest.mark.parametrize("seed", range(60))
def test_floor_search_finds_a_clique_iff_omega_reaches_floor(seed):
    G = random_graph(10_000 + seed)
    G = G.subgraph(G.ids[:10])
    omega = brute_omega(G.ids, G.adj)
    adj = _masks(G)
    assert len(_max_clique(adj)) == omega
    for floor in range(1, len(G.ids) + 2):
        found = _max_clique(adj, floor)
        assert bool(found) == (omega >= floor), floor
        assert not found or len(found) >= floor
        assert all(adj[a] >> b & 1 for a in found for b in found if a != b)


def test_floor_search_stops_at_first_hit():
    """An edge at positions 0, 1 and a triangle at 2, 3, 4: with floor 2
    the search returns the edge, found first, not the larger triangle."""
    edges = [("a", "b"), ("c", "d"), ("c", "e"), ("d", "e")]
    adj = {v: {u for e in edges if v in e for u in e if u != v} for v in "abcde"}
    G = IntersectionGraph(tuple("abcde"), {v: frozenset(a) for v, a in adj.items()})
    assert _max_clique(_masks(G), 2) == [0, 1]
    assert _max_clique(_masks(G)) == [2, 3, 4]
