"""Intersection graphs of curve families and exact clique/chromatic solvers.

Both solvers return witnesses and are fully deterministic: ties break by
position in the family order, so identical inputs give identical outputs.

The solvers work on one int adjacency mask per vertex (``_masks``), with
``int.bit_count`` for set sizes (the bitset style of San Segundo et al.,
BBMC).  Bron-Kerbosch ties break by position.  The DSATUR greedy coloring
and the k-coloring search number the vertices by higher degree first, then
position, and keep the uncolored vertices in one mask per saturation
level, so the vertex they color next is the lowest bit of the highest
non-empty level.

``chromatic_number`` colors greedily first, with ub colors, then looks for
a clique of ub vertices and stops at the first it finds: such a clique
proves chi = ub.  Only when there is none does it compute the clique
number omega and try k = omega .. ub - 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import UncoveredCurve
from .geom import CurveFamily, curves_intersect


@dataclass(frozen=True)
class IntersectionGraph:
    """Vertices are curve ids; an edge joins two curves iff they intersect."""

    ids: tuple[str, ...]
    adj: dict
    family: CurveFamily = field(compare=False, repr=False, default=None)

    def __len__(self):
        return len(self.ids)

    def edges(self):
        return [(u, v) for i, u in enumerate(self.ids)
                for v in self.ids[i + 1:] if v in self.adj[u]]

    def subgraph(self, ids) -> "IntersectionGraph":
        wanted = set(ids)
        keep = tuple(v for v in self.ids if v in wanted)
        return IntersectionGraph(
            keep, {v: self.adj[v] & wanted for v in keep}, self.family)


def intersection_graph(F: CurveFamily) -> IntersectionGraph:
    ids = F.ids()
    adj = {cid: set() for cid in ids}
    curves = F.curves
    for i in range(len(curves)):
        for j in range(i + 1, len(curves)):
            if curves_intersect(curves[i], curves[j]):
                adj[curves[i].id].add(curves[j].id)
                adj[curves[j].id].add(curves[i].id)
    return IntersectionGraph(ids, {v: frozenset(a) for v, a in adj.items()}, F)


def _masks(G: IntersectionGraph, order=None) -> list:
    """Adjacency as one int per vertex: bit j of ``adj[i]`` is set iff the
    i-th and j-th vertices of ``order`` (default ``G.ids``) are adjacent."""
    order = G.ids if order is None else order
    pos = {v: i for i, v in enumerate(order)}
    return [sum(1 << pos[u] for u in G.adj[v]) for v in order]


def _bits(mask: int):
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _max_clique(adj: list, floor: int = 0) -> list:
    """Bron-Kerbosch with the Tomita pivot on adjacency masks.

    The pivot maximises ``|N(u) & P|`` over ``P | X``, ties to the lowest
    position; candidates are visited in ascending position.  With
    ``floor == 0`` the result is the first maximum clique in that order.
    With ``floor > 0`` every branch that cannot reach ``floor`` vertices is
    pruned and the first clique that does is returned, or ``[]``.
    """
    best: list = []
    need = max(floor - 1, 0)            # a clique is kept if it is larger
    r: list = []

    def expand(p: int, x: int) -> bool:
        nonlocal best, need
        if not p and not x:
            if len(r) > need:
                best, need = list(r), len(r)
                return floor > 0
            return False
        size = p.bit_count()
        if len(r) + size <= need:
            return False
        top = pivot = -1
        for u in _bits(p | x):
            c = (adj[u] & p).bit_count()
            if c > top:
                top, pivot = c, u
                if c == size:           # no vertex has more: later ones tie
                    break
        for v in _bits(p & ~adj[pivot]):
            r.append(v)
            if expand(p & adj[v], x & adj[v]):
                return True
            r.pop()
            p ^= 1 << v
            x |= 1 << v
        return False

    expand((1 << len(adj)) - 1, 0)
    return best


def clique_number(G: IntersectionGraph):
    """Exact maximum clique via Bron-Kerbosch with pivoting.

    Returns ``(omega, witness)``; the witness is the first maximum clique in
    the deterministic search order.
    """
    if not G.ids:
        return 0, frozenset()
    best = _max_clique(_masks(G))
    return len(best), frozenset(G.ids[i] for i in best)


def _dsatur_order(G: IntersectionGraph) -> list:
    """The ids by DSATUR's static tie-break: higher degree first, then
    family position."""
    return sorted(G.ids, key=lambda v: -len(G.adj[v]))


def _pick(level: list, top: int):
    """Take the vertex DSATUR colors next out of ``level``: the lowest one
    (in ``_dsatur_order``) on the highest non-empty level at or below
    ``top``.  Returns its level and its bit."""
    while not level[top]:
        top -= 1
    low = level[top] & -level[top]
    level[top] ^= low
    return top, low


def _raise(level: list, moved: int, top: int) -> None:
    """Move the vertices of ``moved`` one level up; none is above ``top``."""
    while moved:
        m = level[top] & moved
        if m:
            level[top] ^= m
            level[top + 1] |= m
            moved ^= m
        top -= 1


def _lower(level: list, moved: int) -> None:
    """Undo ``_raise``: move the vertices of ``moved`` one level down."""
    s = 1
    while moved:
        m = level[s] & moved
        if m:
            level[s] ^= m
            level[s - 1] |= m
            moved ^= m
        s += 1


def _dsatur(adj: list) -> list:
    """DSATUR greedy on masks in ``_dsatur_order``: ``(vertex, color)`` in
    the order colored.

    ``level[s]`` holds the uncolored vertices with s distinct colors on
    their neighbours, ``near[c]`` the vertices with a neighbour colored c.
    """
    level = [0] * (len(adj) + 1)
    level[0] = pending = (1 << len(adj)) - 1
    near: list = []
    out = []
    while pending:
        _, bit = _pick(level, len(near))
        pending ^= bit
        c = 0
        while c < len(near) and near[c] & bit:
            c += 1
        if c == len(near):
            near.append(0)
        v = bit.bit_length() - 1
        moved = adj[v] & pending & ~near[c]
        near[c] |= moved
        _raise(level, moved, len(near) - 1)
        out.append((v, c))
    return out


def _k_coloring(adj: list, k: int):
    """Backtracking search for a proper k-coloring on masks in
    ``_dsatur_order``, DSATUR vertex selection, color symmetry broken by
    never opening more than one fresh color.  ``(vertex, color)`` in the
    order colored, or None.  ``level`` and ``near`` are as in ``_dsatur``."""
    level = [0] * (k + 1)
    level[0] = (1 << len(adj)) - 1
    near = [0] * k
    path = []

    def search(pending: int, used: int) -> bool:
        if not pending:
            return True
        s, bit = _pick(level, used)
        v = bit.bit_length() - 1
        pending ^= bit
        for c in range(min(k, used + 1)):
            if near[c] & bit:
                continue
            moved = adj[v] & pending & ~near[c]
            near[c] |= moved
            _raise(level, moved, used)
            path.append((v, c))
            if search(pending, max(used, c + 1)):
                return True
            path.pop()
            _lower(level, moved)
            near[c] ^= moved
        level[s] |= bit
        return False

    return path if search((1 << len(adj)) - 1, 0) else None


def _by_id(order: list, colored: list) -> dict:
    """``(vertex, color)`` pairs as a dict keyed by id, in the same order."""
    return {order[v]: c for v, c in colored}


def _greedy_coloring(G: IntersectionGraph):
    """DSATUR greedy: a proper coloring, used only as an upper bound."""
    order = _dsatur_order(G)
    return _by_id(order, _dsatur(_masks(G, order)))


def _k_colorable(G: IntersectionGraph, k: int):
    """A proper k-coloring keyed by id, or None (see ``_k_coloring``)."""
    order = _dsatur_order(G)
    found = _k_coloring(_masks(G, order), k)
    return None if found is None else _by_id(order, found)


def _canonical_colors(G: IntersectionGraph, colors: dict) -> dict:
    """Relabel colors by first appearance in family order."""
    relabel: dict = {}
    for v in G.ids:
        c = colors[v]
        if c not in relabel:
            relabel[c] = len(relabel)
    return {v: relabel[colors[v]] for v in G.ids}


def chromatic_number(G: IntersectionGraph):
    """Exact chromatic number with a proper witness using exactly chi colors.

    DSATUR greedy gives the upper bound ub.  A clique of ub vertices proves
    chi = ub, and the search for one stops at the first it finds; otherwise
    the clique number is the lower bound and a branch-and-bound
    k-colorability search closes the gap from below.
    """
    if not G.ids:
        return 0, {}
    order = _dsatur_order(G)
    adj = _masks(G, order)
    greedy = _dsatur(adj)
    ub = max(c for _, c in greedy) + 1
    # Only clique sizes are used here, so the clique searches run on the
    # coloring's masks: vertex order changes their speed, not the sizes.
    if not _max_clique(adj, ub):
        for k in range(len(_max_clique(adj)), ub):
            found = _k_coloring(adj, k)
            if found is not None:
                return k, _canonical_colors(G, _by_id(order, found))
    return ub, _canonical_colors(G, _by_id(order, greedy))


def chi(F: CurveFamily) -> int:
    return chromatic_number(intersection_graph(F))[0]


def omega(F: CurveFamily) -> int:
    return clique_number(intersection_graph(F))[0]


def is_proper(G: IntersectionGraph, coloring: dict) -> bool:
    return all(coloring[u] != coloring[v] for u, v in G.edges())


class ChiCache:
    """Memoized chromatic numbers of subfamilies of one root family.

    Extraction procedures recompute chi of many overlapping subsets (greedy
    block constructions grow prefixes one curve at a time); keying by the
    vertex set makes those loops cheap.  Idempotent inserts only.
    """

    def __init__(self, F: CurveFamily):
        self.graph = intersection_graph(F)
        self._chi: dict = {}
        self._omega: dict = {}

    def chi(self, ids) -> int:
        key = frozenset(ids)
        if key not in self._chi:
            self._chi[key] = chromatic_number(self.graph.subgraph(key))[0]
        return self._chi[key]

    def omega(self, ids) -> int:
        key = frozenset(ids)
        if key not in self._omega:
            self._omega[key] = clique_number(self.graph.subgraph(key))[0]
        return self._omega[key]

    def chi_witness(self, ids):
        return chromatic_number(self.graph.subgraph(frozenset(ids)))


def piercer_cover_coloring(G: CurveFamily, piercers, per_group_colorings) -> dict:
    """Combine per-piercer-group colorings into one proper coloring of G.

    Every curve of G must intersect some piercer; a curve meeting several is
    assigned to the lowest-indexed one.  The combined color of a curve in
    group i with group color c is the pair (i, c), flattened to an integer;
    at most ``len(piercers) * max_group_colors`` colors are used.
    """
    piercers = list(piercers)
    group_of: dict = {}
    for c in G:
        if any(c.id == p.id for p in piercers):
            raise ValueError(f"{c.id!r} is both a member of G and a piercer")
        for i, p in enumerate(piercers):
            if curves_intersect(c, p):
                group_of[c.id] = i
                break
        else:
            raise UncoveredCurve(f"curve {c.id!r} intersects no piercer")

    width = 1
    for coloring in per_group_colorings:
        if coloring:
            width = max(width, max(coloring.values()) + 1)

    combined = {}
    for c in G:
        i = group_of[c.id]
        coloring = per_group_colorings[i]
        if c.id not in coloring:
            raise ValueError(f"group {i} coloring misses curve {c.id!r}")
        combined[c.id] = i * width + coloring[c.id]

    graph = intersection_graph(G)
    if not is_proper(graph, combined):
        raise ValueError("per-group colorings were not proper on their groups")
    return combined
