"""Structural objects on grounded families: skeletons with supported
subfamilies, brackets with interior/exterior regions, clique anchors and
clique systems with left/right signatures.

Every constructor validates the defining properties of its object and the
verification oracles (``verify_bracket_crossing``,
``check_signature_betweenness``) recompute their claims from the geometry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (InconsistentSide, InternalContradiction, NotAClique,
                     NotCrossing, OrderViolation, PreconditionFailure,
                     SideOrderViolation, UnhitCurve, UnusedSupport)
from .geom import (CurveFamily, CurvePoint, GroundedCurve, JordanRegion,
                   Subcurve, curve_intersections, curves_intersect,
                   exterior_membership, first_hit, hits_against,
                   initial_subcurve, piece_representatives, whole_subcurve)
from .graph import chromatic_number, intersection_graph

CONTAINED = "contained"
CROSSES_BOUNDARY = "crosses_boundary_off_baseline"
OUTSIDE = "outside"


# ---------------------------------------------------------------------------
# Skeletons


@dataclass(frozen=True)
class Skeleton:
    """An intersecting pair (u, v) plus pairwise disjoint supports between them."""

    u: str
    v: str
    supports: tuple[str, ...]

    def validate(self, F: CurveFamily):
        cu, cv = F[self.u], F[self.v]
        if not cu.base_x < cv.base_x:
            raise OrderViolation(f"skeleton needs {self.u!r} left of {self.v!r}")
        if not curves_intersect(cu, cv):
            raise ValueError(f"skeleton pair {self.u!r},{self.v!r} does not intersect")
        for s in self.supports:
            if not (cu.base_x < F[s].base_x < cv.base_x):
                raise ValueError(f"support {s!r} not strictly between {self.u!r} and {self.v!r}")
        sup = list(self.supports)
        for i in range(len(sup)):
            for j in range(i + 1, len(sup)):
                if curves_intersect(F[sup[i]], F[sup[j]]):
                    raise ValueError(
                        f"supports {sup[i]!r} and {sup[j]!r} intersect; they must be pairwise disjoint")
        return self


def support_window(s: GroundedCurve, u: GroundedCurve, v: GroundedCurve) -> Subcurve:
    """The usable initial part of a support: from its basepoint up to (but
    excluding) its first meeting with u or v; the whole curve, end closed,
    when it never meets them."""
    hit = first_hit(s, [u, v])
    if hit is None:
        return whole_subcurve(s)
    return initial_subcurve(s, hit[0], end_closed=False)


def is_supported(p: str, sk: Skeleton, F: CurveFamily) -> bool:
    """True iff curve p avoids both skeleton ends and meets the usable
    initial part of some support.  Supports never count as supported (they
    are pairwise disjoint, and a curve does not support itself)."""
    if p == sk.u or p == sk.v or p in sk.supports:
        return False
    pc, cu, cv = F[p], F[sk.u], F[sk.v]
    if curves_intersect(pc, cu) or curves_intersect(pc, cv):
        return False
    for s in sk.supports:
        sc = F[s]
        window = support_window(sc, cu, cv)
        if any(window.contains_param(on_s) for _, on_s in curve_intersections(pc, sc)):
            return True
    return False


def supported_subfamily(F: CurveFamily, sk: Skeleton) -> CurveFamily:
    """The maximal subfamily of F(u, v) supported by the skeleton."""
    mid = F.between(sk.u, sk.v)
    return F.subfamily([c.id for c in mid if is_supported(c.id, sk, F)])


# ---------------------------------------------------------------------------
# Brackets


@dataclass(frozen=True)
class Bracket:
    """A pair (P, S) where each p in P first-hits s(p) in S; carries the
    derived pieces: p' (the initial part of p before that hit, end open) and
    the closed region I(p) bounded by p', the initial part of s(p), and the
    baseline between their basepoints."""

    P: tuple[str, ...]
    S: tuple[str, ...]
    s_of: dict
    hit_on_p: dict
    hit_on_s: dict
    p_prime: dict
    regions: dict = field(repr=False)
    family: CurveFamily = field(repr=False, compare=False)

    def curves(self):
        return tuple(self.family[c] for c in self.P + self.S)

    def interior_contains(self, point) -> bool:
        """Boundary-inclusive membership in I, the intersection of all I(p)."""
        return all(self.regions[p].contains(point) for p in self.P)


def build_bracket(P, S, F: CurveFamily) -> Bracket:
    """Validate the bracket definition for curve id sets P and S and compute
    all derived data.  Raises SideOrderViolation, UnhitCurve, or
    UnusedSupport when a defining property fails."""
    P = tuple(sorted(P, key=lambda c: F[c].base_x))
    S = tuple(sorted(S, key=lambda c: F[c].base_x))
    if not P or not S:
        raise ValueError("bracket needs nonempty P and S")
    if set(P) & set(S):
        raise ValueError("P and S must be disjoint")
    p_max, p_min = F[P[-1]].base_x, F[P[0]].base_x
    s_max, s_min = F[S[-1]].base_x, F[S[0]].base_x
    if not (p_max < s_min or s_max < p_min):
        raise SideOrderViolation("neither P < S nor S < P in basepoint order")

    s_curves = [F[s] for s in S]
    s_of, hit_on_p, hit_on_s, p_prime, regions = {}, {}, {}, {}, {}
    for p in P:
        pc = F[p]
        hit = first_hit(pc, s_curves)
        if hit is None:
            raise UnhitCurve(f"curve {p!r} intersects no curve of S")
        on_p, sid, on_s = hit
        s_of[p] = sid
        hit_on_p[p] = on_p
        hit_on_s[p] = on_s
        p_prime[p] = initial_subcurve(pc, on_p, end_closed=False)
        regions[p] = JordanRegion(pc, on_p, F[sid], on_s)

    unused = set(S) - set(s_of.values())
    if unused:
        raise UnusedSupport(f"curves {sorted(unused)} in S are nobody's first hit")

    br = Bracket(P, S, s_of, hit_on_p, hit_on_s, p_prime, regions, F)
    # Definitional consequence: every p' avoids every curve of S entirely.
    for p in P:
        for sc in s_curves:
            for on_pp, _ in curve_intersections(F[p], sc):
                if p_prime[p].contains_param(on_pp):
                    raise InternalContradiction(
                        f"p' of {p!r} meets {sc.id!r}; first-hit computation is wrong")
    return br


def _boundary_cuts(br: Bracket, c: GroundedCurve):
    """Positions along c where it crosses the off-baseline boundary of some
    I(p), with the set of p whose boundary is crossed at each position."""
    cuts: dict[CurvePoint, set] = {}
    for p in br.P:
        pc, sc = br.family[p], br.family[br.s_of[p]]
        for on_c, on_p in curve_intersections(c, pc):
            if (on_p.segment, on_p.t) <= (br.hit_on_p[p].segment, br.hit_on_p[p].t):
                cuts.setdefault(on_c, set()).add(p)
        for on_c, on_s in curve_intersections(c, sc):
            if (on_s.segment, on_s.t) <= (br.hit_on_s[p].segment, br.hit_on_s[p].t):
                cuts.setdefault(on_c, set()).add(p)
    return dict(sorted(cuts.items(), key=lambda kv: (kv[0].segment, kv[0].t)))


def interior_classify(br: Bracket, c: GroundedCurve) -> str:
    """Classify a curve against the bracket interior I.

    ``contained``: every point of c lies in the closed region I.
    ``crosses_boundary_off_baseline``: c meets the boundary of I at y > 0.
    ``outside`` otherwise.
    """
    if c.id in br.P or c.id in br.S:
        raise ValueError(f"{c.id!r} belongs to the bracket itself")
    cuts = _boundary_cuts(br, c)
    reps = piece_representatives(c, list(cuts))
    if all(br.interior_contains(rep) for rep in reps):
        return CONTAINED
    # A cut point is on the boundary of I iff it also lies inside every other
    # region; all cuts are off the baseline (curves only touch y=0 at their
    # basepoints, which are never crossing points).
    for cut in cuts:
        if br.interior_contains(cut.point):
            return CROSSES_BOUNDARY
    return OUTSIDE


def meets_interior(br: Bracket, c: GroundedCurve) -> bool:
    """True iff some point of c lies in I (boundary included)."""
    cuts = _boundary_cuts(br, c)
    candidates = list(piece_representatives(c, list(cuts)))
    candidates.extend(cut.point for cut in cuts)
    candidates.append(c.vertices[0])
    candidates.append(c.vertices[-1])
    return any(br.interior_contains(q) for q in candidates)


def meets_exterior(br: Bracket, c: GroundedCurve) -> bool:
    """True iff some point of c lies in E = ext(P union S)."""
    return exterior_membership(br.curves(), c)


def verify_bracket_crossing(br: Bracket, c: GroundedCurve) -> bool:
    """Verification oracle: if c meets both I and E then c intersects p or
    s(p) for every p in P.  Returns the truth of that implication; it is a
    theorem that the result is always True, so False signals a defect."""
    if c.id in br.P or c.id in br.S:
        raise ValueError(f"{c.id!r} belongs to the bracket itself")
    if not (meets_interior(br, c) and meets_exterior(br, c)):
        return True
    for p in br.P:
        if curves_intersect(c, br.family[p]):
            continue
        if curves_intersect(c, br.family[br.s_of[p]]):
            continue
        return False
    return True


def validate_bracket_system(brackets, F: CurveFamily):
    """Check the bracket-system conditions: every curve of P_i is contained
    in each later interior, every curve of S_i meets each later exterior."""
    brackets = list(brackets)
    for i, br in enumerate(brackets):
        for later in brackets[i + 1:]:
            for p in br.P:
                verdict = interior_classify(later, F[p])
                if verdict != CONTAINED:
                    raise PreconditionFailure(
                        f"P[{i}] curve {p!r} not contained in a later interior "
                        f"(classified {verdict})", index=i)
            for s in br.S:
                if not meets_exterior(later, F[s]):
                    raise PreconditionFailure(
                        f"S[{i}] curve {s!r} misses a later exterior", index=i)
    return brackets


def _leftmost(ids, F: CurveFamily) -> str:
    return min(ids, key=lambda c: F[c].base_x)


def extract_clique(brackets, xi: int, validate: bool = True):
    """Extract one support per bracket so that they pairwise intersect.

    The recursion: pick the support of the first bracket with leftmost
    basepoint, drop from each later P the curves meeting it, rebuild the
    supports, and recurse.  Preconditions (system conditions and
    chi(P_i) > (n-1) * xi) are re-checked at every level; violations raise
    PreconditionFailure naming the index and measured value.
    """
    brackets = list(brackets)
    if not brackets:
        return []
    F = brackets[0].family
    if validate:
        validate_bracket_system(brackets, F)

    def chi_of(ids) -> int:
        return chromatic_number(intersection_graph(F.subfamily(ids)))[0]

    def recurse(brs, offset):
        n = len(brs)
        for i, br in enumerate(brs):
            measured = chi_of(br.P)
            if not measured > (n - 1) * xi:
                raise PreconditionFailure(
                    "chi(P_i) > (n-1)*xi", measured=measured,
                    threshold=(n - 1) * xi, index=offset + i)
        s1 = _leftmost(brs[0].S, F)
        if n == 1:
            return [s1]
        rest = []
        s1_curve = F[s1]
        for i, br in enumerate(brs[1:], start=1):
            kept = [p for p in br.P if not curves_intersect(F[p], s1_curve)]
            if not kept:
                raise PreconditionFailure(
                    "P_i empty after discarding curves meeting s1",
                    measured=0, threshold=0, index=offset + i)
            new_s = {br.s_of[p] for p in kept}
            rebuilt = build_bracket(kept, new_s, F)
            for p in kept:
                if rebuilt.s_of[p] != br.s_of[p]:
                    raise InternalContradiction(
                        "first hit changed after restriction to a subset of S")
            rest.append(rebuilt)
        return [s1] + recurse(rest, offset + 1)

    chosen = recurse(brackets, 0)
    for i in range(len(chosen)):
        for j in range(i + 1, len(chosen)):
            if not curves_intersect(F[chosen[i]], F[chosen[j]]):
                raise InternalContradiction(
                    f"extracted supports {chosen[i]!r},{chosen[j]!r} do not intersect")
    return chosen


# ---------------------------------------------------------------------------
# Clique anchors and clique systems


@dataclass(frozen=True)
class CliqueAnchors:
    """The two leftmost members of a clique and their connecting arcs:
    ell' runs from the basepoint of ell to its first meeting with r (end
    closed); r' runs from the basepoint of r up to that same point (end
    open).  Their union joins the two basepoints."""

    K: frozenset
    ell: str
    r: str
    ell_prime: Subcurve
    r_prime: Subcurve
    meet_on_ell: CurvePoint
    meet_on_r: CurvePoint


def clique_anchors(K, F: CurveFamily) -> CliqueAnchors:
    ids = sorted(K, key=lambda c: F[c].base_x)
    if len(ids) < 2:
        raise NotAClique("a clique of size >= 2 is required")
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            if not curves_intersect(F[ids[i]], F[ids[j]]):
                raise NotAClique(f"{ids[i]!r} and {ids[j]!r} do not intersect")
    ell, r = ids[0], ids[1]
    hit = first_hit(F[ell], [F[r]])
    on_ell, _, on_r = hit
    ell_prime = initial_subcurve(F[ell], on_ell, end_closed=True)
    r_prime = initial_subcurve(F[r], on_r, end_closed=False)
    # The defining intersection point of r' is unique by construction of
    # ell'; verified rather than assumed.
    count = sum(1 for _, on in curve_intersections(F[r], F[ell])
                if ell_prime.contains_param(on))
    if count != 1:
        raise InternalContradiction(
            f"ell' of {ell!r} meets {r!r} {count} times; expected exactly its endpoint")
    return CliqueAnchors(frozenset(ids), ell, r, ell_prime, r_prime, on_ell, on_r)


def _first_hit_on_subcurve(s: GroundedCurve, sub: Subcurve, F: CurveFamily):
    hits = hits_against(s, sub, F.__getitem__)
    if not hits:
        return None
    return min(hits, key=lambda h: (h[0].segment, h[0].t))[0]


def side_for_clique(s: str, anchors: CliqueAnchors, F: CurveFamily) -> str:
    """Classify s as left, right, or neither for the clique.

    Left: s meets ell' and its initial part before that first meeting avoids
    r'.  Right is symmetric.  For a curve meeting ell' or r' exactly one of
    the two holds; both holding signals a kernel defect.
    """
    base = F[s].base_x
    if not (F[anchors.ell].base_x < base < F[anchors.r].base_x):
        raise OrderViolation(
            f"{s!r} must lie strictly between {anchors.ell!r} and {anchors.r!r}")
    h_ell = _first_hit_on_subcurve(F[s], anchors.ell_prime, F)
    h_r = _first_hit_on_subcurve(F[s], anchors.r_prime, F)
    if h_ell is None and h_r is None:
        return "neither"
    if h_ell is not None and (h_r is None or h_ell < h_r):
        return "left"
    if h_r is not None and (h_ell is None or h_r < h_ell):
        return "right"
    raise InconsistentSide(f"{s!r} hits ell' and r' at the same position")


@dataclass(frozen=True)
class Signature:
    """Left/right bits of a crossing curve, one per clique of a system."""

    bits: tuple[int, ...]

    def __len__(self):
        return len(self.bits)

    def __iter__(self):
        return iter(self.bits)


@dataclass(frozen=True)
class CliqueSystem:
    """A sequence of nested cliques; each later clique sits strictly between
    the anchors of every earlier one and lies consistently on one side of it."""

    anchors: tuple[CliqueAnchors, ...]
    sides: dict = field(default_factory=dict)  # (i, j) -> "left"/"right", i < j

    def __len__(self):
        return len(self.anchors)

    def cliques(self):
        return [sorted(a.K) for a in self.anchors]

    def all_ids(self):
        out = set()
        for a in self.anchors:
            out |= a.K
        return out


def validate_clique_system(cliques, F: CurveFamily) -> CliqueSystem:
    """Build and check a clique system from a sequence of curve-id cliques."""
    anchors = tuple(clique_anchors(K, F) for K in cliques)
    sides = {}
    for i in range(len(anchors)):
        for j in range(i + 1, len(anchors)):
            ai = anchors[i]
            lo, hi = F[ai.ell].base_x, F[ai.r].base_x
            labels = set()
            for c in sorted(anchors[j].K):
                if not (lo < F[c].base_x < hi):
                    raise ValueError(
                        f"clique {j} member {c!r} not strictly between the anchors of clique {i}")
                labels.add(side_for_clique(c, ai, F))
            if "neither" in labels or len(labels) != 1:
                raise ValueError(
                    f"clique {j} not consistently one-sided for clique {i}: {sorted(labels)}")
            sides[(i, j)] = labels.pop()
    cs = CliqueSystem(anchors, sides)
    _check_order_consequence(cs, F)
    return cs


def _check_order_consequence(cs: CliqueSystem, F: CurveFamily):
    """ell(K_1) < ... < ell(K_n) < r(K_n) < ... < r(K_1) in basepoint order."""
    chain = [F[a.ell].base_x for a in cs.anchors]
    chain += [F[a.r].base_x for a in reversed(cs.anchors)]
    for a, b in zip(chain, chain[1:]):
        if not a < b:
            raise InternalContradiction(
                "anchor order consequence fails; system validation is inconsistent")


def crosses_system(s: str, cs: CliqueSystem, F: CurveFamily) -> bool:
    """True iff s meets the exterior of the union of all system cliques.
    The empty system encloses nothing, so every curve crosses it."""
    if len(cs) == 0:
        return True
    last = cs.anchors[-1]
    if not (F[last.ell].base_x < F[s].base_x < F[last.r].base_x):
        raise OrderViolation(
            f"{s!r} must lie strictly between the innermost anchors")
    union = [F[c] for c in sorted(cs.all_ids())]
    return exterior_membership(union, F[s])


def signature(s: str, cs: CliqueSystem, F: CurveFamily) -> Signature:
    """The left/right bit sequence of a crossing curve (0 left, 1 right)."""
    bits = []
    for anchors in cs.anchors:
        side = side_for_clique(s, anchors, F)
        if side == "neither":
            raise NotCrossing(
                f"{s!r} misses the anchor curves of a clique; it does not cross the system")
        bits.append(0 if side == "left" else 1)
    return Signature(tuple(bits))


def check_signature_betweenness(cs: CliqueSystem, s1: str, s2: str, s3: str,
                                F: CurveFamily) -> bool:
    """Verification oracle: three pairwise disjoint crossing curves in
    left-to-right order with equal outer signatures must give the middle one
    the same signature.  Preconditions are enforced; the result is a theorem,
    so False signals a defect."""
    if not (F[s1].base_x < F[s2].base_x < F[s3].base_x):
        raise PreconditionFailure("s1 < s2 < s3 in basepoint order required")
    for a, b in ((s1, s2), (s1, s3), (s2, s3)):
        if curves_intersect(F[a], F[b]):
            raise PreconditionFailure(f"curves {a!r},{b!r} must be disjoint")
    for s in (s1, s2, s3):
        if not crosses_system(s, cs, F):
            raise PreconditionFailure(f"curve {s!r} does not cross the system")
    sig1, sig3 = signature(s1, cs, F), signature(s3, cs, F)
    if sig1 != sig3:
        raise PreconditionFailure("outer signatures differ")
    return signature(s2, cs, F) == sig1


# ---------------------------------------------------------------------------
# Serialization (ids only; geometry lives in the family file)


def skeleton_to_dict(sk: Skeleton) -> dict:
    return {"u": sk.u, "v": sk.v, "supports": list(sk.supports)}


def skeleton_from_dict(data, F: CurveFamily) -> Skeleton:
    return Skeleton(data["u"], data["v"], tuple(data["supports"])).validate(F)


def bracket_to_dict(br: Bracket) -> dict:
    return {"P": list(br.P), "S": list(br.S),
            "s_of": {p: br.s_of[p] for p in br.P}}


def bracket_from_dict(data, F: CurveFamily) -> Bracket:
    return build_bracket(data["P"], data["S"], F)


def clique_system_to_dict(cs: CliqueSystem) -> dict:
    return {"cliques": cs.cliques(),
            "sides": [[i, j, side] for (i, j), side in sorted(cs.sides.items())]}
