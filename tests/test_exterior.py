"""Exterior membership by the outer-face walk, checked against the slab
decomposition it replaced, on point probes and on curve probes, and against
the same walk in ``Fraction`` arithmetic, edge for edge."""

import random
from fractions import Fraction

import pytest
from oracles import SlabFreeSpace, reference_FreeSpace
from test_contacts import generated_curves, grid_curves

from outerstring.gen import GenSpec, generate
from outerstring.geom import GroundedCurve, curve, exterior_membership, pt
from outerstring.geom.curveops import piece_representatives, split_points_on
from outerstring.geom.exterior import FreeSpace
from outerstring.geom.validate import find_violations

# About this many point probes per family: the larger families take a
# spread-out subset of their probe grid.
PROBES = 60


def polyline_curves(n: int):
    spec = GenSpec(kind="polylines", n=n, bends=4, grid=3 * n, seed=n)
    return [GroundedCurve(c.id, c.vertices) for c in generate(spec)]


FAMILIES = ([("generated", seed) for seed in range(100)]
            + [("grid", seed) for seed in range(100)]
            + [("polylines", n) for n in (10, 11, 12)])
MAKERS = {"generated": generated_curves, "grid": grid_curves, "polylines": polyline_curves}


def _steps(values, lo, hi):
    """The distinct values, the midpoints between neighbours, and lo, hi."""
    values = sorted(set(values))
    return values + [(a + b) / 2 for a, b in zip(values, values[1:])] + [lo, hi]


def probe_points(curves):
    """Points at every vertex x, between vertex xs and outside the x-range,
    crossed with y = 0, every vertex y, the midpoints and a height above
    all curves; every x and every y is kept when the grid is thinned."""
    xs = [x for c in curves for x, _ in c.vertices]
    ys = [y for c in curves for _, y in c.vertices]
    px = _steps(xs, min(xs) - 1, max(xs) + 1)
    py = _steps(ys + [Fraction(0)], Fraction(0), max(ys) + 1)
    k = max(1, min(len(px), len(py), len(px) * len(py) // PROBES))
    return [(x, y) for i, x in enumerate(px) for j, y in enumerate(py) if (i + j) % k == 0]


def reference(curves):
    return SlabFreeSpace([s for c in curves for s in c.segments()])


def curve_probe_answers(curves):
    """For a valid family, each curve as a probe against the others:
    ``(probe id, answer, answer of the reference)``."""
    out = []
    for probe in curves:
        rest = tuple(c for c in curves if c.id != probe.id)
        fs, ref = FreeSpace(rest), reference(rest)
        reps = piece_representatives(probe, split_points_on(probe, rest))
        # The representatives are off the family, which is why the walk
        # needs no obstacle test for curve probes.
        assert not any(fs.on_obstacle(q) for q in reps), probe.id
        answer = exterior_membership(rest, probe)
        assert answer == any(fs.in_exterior(q) for q in reps)
        out.append((probe.id, answer, any(ref.in_exterior(q) for q in reps)))
    return out


@pytest.mark.parametrize("kind,seed", FAMILIES)
def test_matches_slab_decomposition(kind, seed):
    curves = MAKERS[kind](seed)
    fs, ref = FreeSpace(curves), reference(curves)
    assert fs.xs == ref.xs
    for p in probe_points(curves):
        assert (not fs.on_obstacle(p) and fs.in_exterior(p)) == ref.in_exterior(p), p
    # Each curve probe rebuilds the slab reference for the other curves,
    # about 2 s a family at n = 10-12, so those get point probes only.
    if len(curves) <= 8 and not find_violations(curves):
        for cid, answer, want in curve_probe_answers(curves):
            assert answer == want, cid


def mixed_curves(seed: int):
    """Grid curves whose coordinates have denominators 3, 7 and 11, mixed
    within one curve, so that the walk's edges carry different scales."""
    rng = random.Random(seed)

    def q(lo, hi):
        d = rng.choice((3, 7, 11))
        return Fraction(rng.randrange(lo * d, hi * d), d)

    return [curve(f"m{i}", (q(0, 6), 0), *((q(0, 6), q(1, 5)) for _ in range(rng.randrange(1, 4))))
            for i in range(rng.randrange(3, 7))]


# Hand-made families: folds back along one segment, so that a curve's pass
# with itself has an overlap of two different segments, with the fold's end
# dangling ("fold", "fold-crossed") or joined ("fold-inside"); and
# zero-length segments at a basepoint, on a crossing and at a curve's end.
SPECIAL = {
    "fold": [curve("f", (0, 0), (4, 4), (2, 2))],
    "fold-crossed": [curve("f", (0, 0), (4, 4), (2, 2)), curve("g", (3, 0), (3, 5))],
    "fold-inside": [curve("f", (0, 0), (1, 3), (5, 3), (2, 3), (2, 1), (4, 1)),
                    curve("g", (6, 0), (6, 4), (3, 4), (3, 2))],
    "zero-length": [curve("z", (1, 0), (1, 0), (1, 2)), curve("y", (0, 0), (2, 2), (2, 2), (3, 1)),
                    curve("x", (3, 0), (0, 3), (0, 3)), curve("w", (2, 0), (1, 1), (1, 1), (1, 3))],
}
WALK_FAMILIES = FAMILIES + [("mixed", seed) for seed in range(40)] + [(name, 0) for name in SPECIAL]


def make_family(kind, seed):
    if kind in SPECIAL:
        return SPECIAL[kind]
    return mixed_curves(seed) if kind == "mixed" else MAKERS[kind](seed)


def walked_edges(fs):
    """The walk's edges that are not vertical, as ``(ax, ay, bx, by)``."""
    return {tuple(Fraction(v, e[4]) for v in e[:4]) for e in fs._walk}


def vertex_probes(walk):
    """Points straight above and below the walk's vertices, at their exact
    x, where the half-open rule decides, and points a tiny step of large
    denominator beside them; thinned like ``probe_points``."""
    xs = sorted({x for ax, _, bx, _ in walk for x in (ax, bx)})
    ys = sorted({y for _, ay, _, by in walk for y in (ay, by)})
    heights = ys + [(a + b) / 2 for a, b in zip(ys, ys[1:])] + [ys[-1] + 1] if ys else []
    k = max(1, len(xs) * len(heights) // PROBES)
    tiny = Fraction(1, 10 ** 30 + 57)
    return [(x + dx, y + dy) for i, x in enumerate(xs) for j, y in enumerate(heights) if (i + j) % k == 0
            for dx, dy in ((0, 0), (0, tiny), (tiny, 0), (-tiny, tiny)) if y + dy >= 0]


@pytest.mark.parametrize("kind,seed", WALK_FAMILIES)
def test_matches_fraction_walk(kind, seed):
    """The integer walk walks the same edges as the ``Fraction`` one, has the
    same breakpoints, and answers every point the same, on the obstacles
    too, where both count the same edges."""
    curves = make_family(kind, seed)
    fs, ref = FreeSpace(curves), reference_FreeSpace(curves)
    assert walked_edges(fs) == set(ref._walk)
    assert fs.xs == ref.xs
    points = probe_points(curves) + vertex_probes(ref._walk)
    assert [fs.in_exterior(p) for p in points] == [ref.in_exterior(p) for p in points]


def test_fold_back_is_cut():
    """Only the overlap of f's two segments cuts the first one at the fold's
    dangling end (2, 2); the walk round the triangle under f and left of g
    must turn there."""
    fs = FreeSpace(SPECIAL["fold-crossed"])
    assert walked_edges(fs) == {(0, 0, 2, 2), (2, 2, 3, 3), (0, 0, 3, 0)}
    assert fs.in_exterior(pt(2, 1)) is False and fs.in_exterior(pt(1, 2)) is True


def test_probes_see_both_answers():
    """The comparison above is two-sided: off the curves, members and
    non-members of the exterior both occur, for point and curve probes."""
    points, probes = set(), set()
    for kind, seed in FAMILIES[:20] + FAMILIES[100:120]:
        curves = MAKERS[kind](seed)
        fs = FreeSpace(curves)
        points.update((kind, fs.in_exterior(p)) for p in probe_points(curves)
                      if not fs.on_obstacle(p))
        if not find_violations(curves):
            probes.update(exterior_membership([c for c in curves if c is not probe], probe)
                          for probe in curves)
    assert points == {(kind, answer) for kind in ("generated", "grid") for answer in (False, True)}
    assert probes == {False, True}


def test_overlap_closes_a_region():
    """Two collinear segments that overlap between free curve ends close a
    rectangle; each must be cut at the other's end for the walk to see it.
    In the random families a neighbouring segment of the same curve usually
    touches there and cuts it anyway."""
    curves = [curve("a", (0, 0), (0, 2), (6, 2)), curve("b", (8, 0), (8, 2), (3, 2))]
    ref = reference(curves)
    assert exterior_membership(curves, pt(4, 1)) is False
    for x in range(-1, 10):
        for y in (0, 1, 2, 3):
            p = pt(x, y)
            assert exterior_membership(curves, p) == ref.in_exterior(p), p


def test_ungrounded_curve_rejected():
    floating = GroundedCurve("f", ((Fraction(0), Fraction(1)), (Fraction(2), Fraction(1))))
    with pytest.raises(ValueError):
        FreeSpace([floating])
