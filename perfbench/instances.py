"""Structured inputs for the extraction workload.

Random families stop at the first threshold of the pipelines, so the
workload also runs families built to carry the structures of the paper:

* the sixteen-curve nested-combs family, on which the clique-system
  machinery runs end to end;
* seeded "pole and hook" constructions: a bracket with a probe meeting its
  interior and exterior, a two-bracket system, and a one-clique system with
  three disjoint crossing curves of equal outer signature.

Each function returns raw curves plus the curve ids of the structure, so the
benchmark can rename the ids and time the structure calls itself.  Every
output is a deterministic function of the seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

from outerstring.geom import GroundedCurve


def _jit(i: int) -> Fraction:
    """Tiny index-keyed offset that keeps general position."""
    return Fraction(i + 1, 1000)


def _curve(cid, *verts) -> GroundedCurve:
    return GroundedCurve(cid, tuple((Fraction(x), Fraction(y)) for x, y in verts))


def nested_combs():
    """Three nested skeleton levels (poles A1/A2, B, C hooked under the
    crossing pairs U/V, U2/V2, U3/V3) and low horizontal runners whose
    support maps drive the signature pigeonhole and window narrowing."""
    return [
        _curve("U", (0, 0), (0, 100), (200, 100)),
        _curve("U2", (20, 0), (20, 60), (70, 60)),
        _curve("U3", (30, 0), (30, 40), (55, 40)),
        _curve("ell", (35, 0), (35, 30), (52, 30)),
        _curve("pL", (37, 0), (37, 25), (52, 25)),
        _curve("A1", (38, 0), (38, "199/2")),
        _curve("pM", (39, 0), (39, 22), (52, 22)),
        _curve("B", (40, 0), (40, "121/2"), (51, "121/2")),
        _curve("C", (45, 0), (45, "81/2"), ("101/2", "81/2"), ("101/2", 41), (39, 41)),
        _curve("A2", (50, 0), (50, "199/2")),
        _curve("pR1", (51, 0), (51, 20), (34, 20)),
        _curve("pR2", (53, 0), (53, 18), (34, 18)),
        _curve("r", (55, 0), (55, 29), (34, 29)),
        _curve("V3", (60, 0), (60, 39), (29, 39)),
        _curve("V2", (80, 0), (80, 59), (19, 59)),
        _curve("V", (100, 0), (100, 99), (-1, 99)),
    ]


def bracket_with_probe(seed: int):
    """Hooks P first-hitting poles S, plus a probe meeting both the bracket
    interior and its exterior.  Returns (curves, P, S, probe id)."""
    rng = random.Random(seed)
    nhooks = rng.randint(2, 4)
    npoles = rng.randint(1, min(3, nhooks))

    # Poles get shorter to the right, so a hook at height y first-hits the
    # rightmost pole taller than y.
    pole_x = [2 * (i + 1) for i in range(npoles)]
    heights = []
    top = 20
    for i in range(npoles):
        top -= rng.randint(1, 3)
        heights.append(top + _jit(i))
    curves = [_curve(f"s{i}", (pole_x[i], 0), (pole_x[i], heights[i]))
              for i in range(npoles)]

    # Every pole is some hook's first hit: a hook aimed at pole t runs just
    # under heights[t] and above heights[t+1].
    base0 = pole_x[-1] + 4
    levels = []
    targets = [j % npoles for j in range(nhooks)]
    rng.shuffle(targets)
    for j, t in enumerate(targets):
        hi = heights[t]
        lo = heights[t + 1] if t + 1 < npoles else Fraction(1)
        level = lo + (hi - lo) * Fraction(rng.randint(1, 7), 8) + _jit(npoles + j) / 7
        levels.append(level)
        stop = pole_x[t] - 1 + _jit(j) / 3
        bx = base0 + 2 * j
        curves.append(_curve(f"p{j}", (bx, 0), (bx, level), (stop, level)))

    # The probe starts inside the bracket window and either rises straight
    # through the hooks or ducks under every hook and pole before climbing.
    wx = pole_x[-1] + 1 + Fraction(rng.randint(1, 9), 10) + Fraction(1, 157)
    if rng.randint(0, 1) == 0:
        probe = _curve("probe", (wx, 0), (wx, 25))
    else:
        duck = min(min(levels), min(heights)) - Fraction(1, 2) - _jit(nhooks) / 5
        probe = _curve("probe", (wx, 0), (wx, duck), (-2, duck), (-2, 25))
    P = [f"p{j}" for j in range(nhooks)]
    S = [f"s{i}" for i in range(npoles)]
    return curves + [probe], P, S, "probe"


def two_bracket_system(seed: int):
    """A two-bracket system: an outer pole with hooks high up, and an inner
    bracket inside the outer interior whose support escapes to the outer
    exterior below the hooks.  Returns (curves, [(P1, S1), (P2, S2)])."""
    rng = random.Random(seed)
    H = 20 + rng.randint(0, 6)
    outer_pole = _curve("S2", (0, 0), (0, H))
    h1 = H - 2 - _jit(0)
    h2 = h1 - Fraction(1, 2) - _jit(1)
    q_base = 10 + rng.randint(0, 3)
    q1 = _curve("q1", (q_base, 0), (q_base, h1), (-1, h1))
    q2 = _curve("q2", (q_base + 1, 0), (q_base + 1, h2), (-1 + _jit(2), h2))

    exit_y = h2 - 2 - _jit(3)
    s1_x = 3 + Fraction(rng.randint(0, 4), 8) + Fraction(1, 139)
    inner = _curve("S1", (s1_x, 0), (s1_x, exit_y), (-5, exit_y))

    # p2 hooks below p1's level and reaches left of p1's base, so they cross.
    lvl1 = exit_y - 1 - _jit(4)
    lvl2 = lvl1 - 1 - _jit(5)
    p_base = s1_x + 2 + Fraction(rng.randint(0, 3), 4)
    p1 = _curve("p1", (p_base, 0), (p_base, lvl1), (s1_x - 1, lvl1))
    p2 = _curve("p2", (p_base + 1, 0), (p_base + 1, lvl2), (s1_x - Fraction(1, 2), lvl2))
    curves = [outer_pole, q1, q2, inner, p1, p2]
    return curves, [(["p1", "p2"], ["S1"]), (["q1", "q2"], ["S2"])]


def signature_triple(seed: int):
    """A one-clique system {L, R} plus three pairwise disjoint curves that
    cross it with equal outer signatures.
    Returns (curves, cliques, (s1, s2, s3))."""
    rng = random.Random(seed)
    H = 12 + rng.randint(0, 4)
    W = 10 + rng.randint(0, 3)
    # L rises at x=0 and roofs right; R rises at x=W and roofs left past
    # x=0, crossing L's vertical at (0, H-1).
    ell = _curve("L", (0, 0), (0, H), (W + 1, H))
    r = _curve("R", (W, 0), (W, H - 1), (-1, H - 1))

    side = rng.choice(("left", "right"))
    xs = sorted(rng.sample(range(1, W), 3))
    names = ("sa", "sb", "sc")
    curves = [ell, r]
    levels = []
    if side == "left":
        # Nested left hooks with levels rising in x stay disjoint.  The deep
        # variant climbs between x=-1 and x=0 and re-crosses R's roof beyond
        # the anchor subcurve, which must not change the side.
        deep = rng.random() < 0.5
        lv = Fraction(2)
        for i in range(3):
            lv = lv + 1 + Fraction(rng.randint(1, 5), 7) + _jit(i) / 3
            levels.append(lv)
        for i, (x, lv) in enumerate(zip(xs, levels)):
            up_x = (Fraction(-6, 7) if deep else Fraction(-3)) + Fraction(i + 1, 5)
            curves.append(_curve(names[i], (x, 0), (x, lv), (up_x, lv), (up_x, H + 2)))
    else:
        lv = Fraction(H - 2)
        for i in range(3):
            lv = lv - 1 - Fraction(rng.randint(1, 5), 7) - _jit(i) / 3
            levels.append(lv)
        for i, (x, lv) in enumerate(zip(xs, levels)):
            out_x = W + 2 + _jit(i)
            curves.append(_curve(names[i], (x, 0), (x, lv), (out_x, lv), (out_x, H + 2)))
    return curves, [["L", "R"]], names
