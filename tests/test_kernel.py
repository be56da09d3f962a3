"""The segment-pair predicate against the reference copy of its earlier
version, in Fractions and in integers over a common denominator, and the
bounding-box pruning of the contact pass."""

import random
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest
from oracles import reference_classify_intersection

from outerstring.geom import GroundedCurve, curve_point
from outerstring.geom import curveops
from outerstring.geom.curveops import _segment_pass
from outerstring.geom.segments import NONE, OVERLAP, PROPER, TOUCH, classify_intersection


def _rational(rng):
    return Fraction(rng.randrange(-12, 13), rng.choice((1, 1, 2, 3, 4, 6)))


def _point(rng):
    return (_rational(rng), _rational(rng))


def _along(a, b, s):
    return (a[0] + (b[0] - a[0]) * s, a[1] + (b[1] - a[1]) * s)


def _param(rng):
    return Fraction(rng.randrange(-6, 13), rng.choice((1, 2, 3, 4, 6)))


def _pair(rng, shape):
    a, b, c, d = (_point(rng) for _ in range(4))
    if shape == "collinear":
        c, d = _along(a, b, _param(rng)), _along(a, b, _param(rng))
    elif shape == "overlap":
        c, d = _along(a, b, Fraction(rng.randrange(1, 6), 6)), _along(a, b, _param(rng))
    elif shape == "vertical":
        b = (a[0], b[1])
        if rng.random() < 0.5:
            c, d = (a[0], c[1]), (a[0], d[1])
    elif shape == "shared-endpoint":
        c = rng.choice((a, b))
    elif shape == "crossing":
        m, w = _along(a, b, Fraction(rng.randrange(1, 6), 6)), _point(rng)
        r = Fraction(rng.randrange(1, 4), rng.randrange(1, 4))
        c, d = (m[0] + w[0], m[1] + w[1]), (m[0] - w[0] * r, m[1] - w[1] * r)
    elif shape == "t-touch":
        c = _along(a, b, Fraction(rng.randrange(0, 7), 6))
    elif shape == "zero-length":
        if rng.random() < 0.5:
            b = a
        else:
            d = rng.choice((c, a, _along(a, b, Fraction(rng.randrange(-3, 9), 6))))
    return a, b, c, d


SHAPES = ("random", "crossing", "collinear", "overlap", "vertical", "shared-endpoint",
          "t-touch", "zero-length")
SEEDS = range(10)
PAIRS_PER_SEED = 560     # 5600 pairs, each checked in both argument orders


def segment_pairs(seed):
    rng = random.Random(seed)
    for k in range(PAIRS_PER_SEED):
        a, b, c, d = _pair(rng, SHAPES[k % len(SHAPES)])
        yield a, b, c, d
        yield c, d, a, b


def _scaled_classify(a, b, c, d):
    """The predicate on integers over the common denominator, the touch
    point mapped back."""
    den = lcm(*(q.denominator for p in (a, b, c, d) for q in p))
    a, b, c, d = ((p[0].numerator * (den // p[0].denominator),
                   p[1].numerator * (den // p[1].denominator)) for p in (a, b, c, d))
    kind, data = classify_intersection(a, b, c, d)
    if kind == TOUCH:
        data = (Fraction(data[0], den), Fraction(data[1], den))
    return kind, data


def _pass_result(a, b, c, d):
    """What the pruned, scaled contact pass reports for two one-segment
    curves, in the predicate's own terms."""
    p, q = GroundedCurve("p", (a, b)), GroundedCurve("q", (c, d))
    crossings, contacts = _segment_pass(p, q)
    if crossings:
        (on_p, on_q), = crossings
        assert not contacts
        return PROPER, (on_p, on_q)
    if contacts:
        (i, j, kind, data), = contacts
        assert (i, j) == (0, 0)
        return kind, data
    return NONE, None


@pytest.mark.parametrize("seed", SEEDS)
def test_kernel_matches_reference(seed):
    kinds = Counter()
    for a, b, c, d in segment_pairs(seed):
        kind, data = classify_intersection(a, b, c, d)
        kinds[kind] += 1
        if a != b and c != d:
            assert (kind, data) == reference_classify_intersection(a, b, c, d)
        assert _scaled_classify(a, b, c, d) == (kind, data)
        expected = (kind, data)
        if kind == PROPER:
            p, q = GroundedCurve("p", (a, b)), GroundedCurve("q", (c, d))
            expected = (PROPER, (curve_point(p, 0, data[0]), curve_point(q, 0, data[1])))
        assert _pass_result(a, b, c, d) == expected
    # Every outcome is exercised.
    assert min(kinds[k] for k in (NONE, PROPER, TOUCH, OVERLAP)) >= 100


def test_zero_length_touches_only_on_segment():
    o, p, q = (Fraction(0), Fraction(0)), (Fraction(-1), Fraction(1)), (Fraction(1), Fraction(1))
    for args in ((o, o, p, q), (p, q, o, o)):
        assert classify_intersection(*args) == (NONE, None)
    m = (Fraction(0), Fraction(1))
    for args in ((m, m, p, q), (p, q, m, m)):
        assert classify_intersection(*args) == (TOUCH, m)
    assert classify_intersection(o, o, m, m) == (NONE, None)
    assert classify_intersection(o, o, o, o) == (TOUCH, o)


def test_separated_boxes_are_not_classified(monkeypatch):
    def refuse(*args):
        raise AssertionError("a pair with separated boxes was classified")

    monkeypatch.setattr(curveops, "classify_intersection", refuse)
    c1 = GroundedCurve("p", ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1, 3))))
    c2 = GroundedCurve("q", ((Fraction(2), Fraction(0)), (Fraction(3), Fraction(1, 2))))
    c3 = GroundedCurve("r", ((Fraction(0), Fraction(2)), (Fraction(1), Fraction(3))))
    for u, v in ((c1, c2), (c2, c1), (c1, c3), (c3, c1)):
        assert _segment_pass(u, v) == ([], [])
