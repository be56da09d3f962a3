"""The one memoized contact pass per curve pair, checked against the per-use
loops it replaced, and the lifetime of its memo."""

import gc
import random
import weakref

import pytest
from oracles import reference_check_pair, reference_pair_intersections

from outerstring.gen import GenSpec, generate
from outerstring.geom import (GroundedCurve, curve, curve_intersections, exterior_membership,
                              validate_family)
from outerstring.geom import validate as validate_module
from outerstring.geom.exterior import _free_space_for
from outerstring.geom.validate import find_violations
from outerstring.graph import intersection_graph


def grid_curves(seed: int):
    """An unperturbed family on a small integer grid.  Overlaps, vertex
    touches, triple points, shared basepoints and zero-length segments all
    occur often."""
    rng = random.Random(seed)
    curves = []
    for i in range(rng.randrange(3, 7)):
        verts = [(rng.randrange(6), 0)]
        verts += [(rng.randrange(6), rng.randrange(1, 5))
                  for _ in range(rng.randrange(1, 4))]
        curves.append(curve(f"g{i}", *verts))
    return curves


def generated_curves(seed: int):
    spec = GenSpec(kind="polylines" if seed % 2 else "segments", n=3 + seed % 6,
                   bends=4, seed=seed, grid=8)
    # Fresh curve objects, so that no memo from the generator's own
    # validation is reused.
    return [GroundedCurve(c.id, c.vertices) for c in generate(spec)]


def reference_violations(curves, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(validate_module, "check_pair", reference_check_pair)
        return find_violations(curves)


FAMILIES = ([("generated", seed) for seed in range(100)]
            + [("grid", seed) for seed in range(100)])


@pytest.mark.parametrize("kind,seed", FAMILIES)
def test_matches_reference_loops(kind, seed, monkeypatch):
    curves = (generated_curves if kind == "generated" else grid_curves)(seed)
    # Both orders: the second one reads the memo filled by the first in the
    # opposite orientation.
    for order in (curves, curves[::-1]):
        assert find_violations(order) == reference_violations(order, monkeypatch)
    for c1 in curves:
        for c2 in curves:
            if c1.id != c2.id:
                assert curve_intersections(c1, c2) == reference_pair_intersections(c1, c2)


def test_grid_families_are_degenerate():
    """The grid families do exercise every kind of violation."""
    kinds = {v.kind for seed in range(100) for v in find_violations(grid_curves(seed))}
    assert {"collinear-overlap", "vertex-touch", "triple-point",
            "duplicate-basepoint", "baseline"} <= kinds


def test_memo_freed_with_family():
    """The contact memo lives on the curves, so a family and its graph are
    freed together once nothing refers to them."""
    # Ids no other test uses, so no equal curve is held elsewhere.
    fam = validate_family([GroundedCurve("memo-" + c.id, c.vertices)
                           for c in generated_curves(3)])
    graph = intersection_graph(fam)
    assert graph.edges()
    refs = [weakref.ref(c) for c in fam]
    del fam, graph
    gc.collect()
    assert all(r() is None for r in refs)


def test_free_space_memo_freed_with_family():
    """The exterior decomposition is memoized on the queried curves, so it
    does not keep them, or the family they came from, alive."""
    fam = validate_family([GroundedCurve("fs-" + c.id, c.vertices)
                           for c in generated_curves(5)])
    ids = fam.ids()
    sub = fam.subfamily(ids[:-1])
    exterior_membership(sub, fam[ids[-1]])
    # An equal tuple of the same curves reads the memo.
    assert _free_space_for(fam.subfamily(ids[:-1]).curves) is _free_space_for(sub.curves)
    refs = [weakref.ref(c) for c in fam]
    del fam, sub
    gc.collect()
    assert all(r() is None for r in refs)
