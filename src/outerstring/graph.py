"""Intersection graphs of curve families and exact clique/chromatic solvers.

Both solvers return witnesses and are fully deterministic: ties break by
position in the family order, so identical inputs give identical outputs.
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
        keep = [v for v in self.ids if v in set(ids)]
        kset = set(keep)
        return IntersectionGraph(
            tuple(keep), {v: self.adj[v] & kset for v in keep}, self.family)


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


def clique_number(G: IntersectionGraph):
    """Exact maximum clique via Bron-Kerbosch with pivoting.

    Returns ``(omega, witness)``; the witness is the first maximum clique in
    the deterministic search order.
    """
    if not G.ids:
        return 0, frozenset()
    order = {v: i for i, v in enumerate(G.ids)}
    best: list[str] = []

    def expand(r: list, p: set, x: set):
        nonlocal best
        if not p and not x:
            if len(r) > len(best):
                best = list(r)
            return
        if len(r) + len(p) <= len(best):
            return
        pivot = min(p | x, key=lambda v: (-len(G.adj[v] & p), order[v]))
        for v in sorted(p - G.adj[pivot], key=order.get):
            expand(r + [v], p & G.adj[v], x & G.adj[v])
            p.remove(v)
            x.add(v)

    expand([], set(G.ids), set())
    return len(best), frozenset(best)


def _greedy_coloring(G: IntersectionGraph):
    """DSATUR greedy: a proper coloring, used only as an upper bound."""
    order = {v: i for i, v in enumerate(G.ids)}
    colors: dict = {}
    neigh_colors = {v: set() for v in G.ids}
    uncolored = set(G.ids)
    while uncolored:
        v = min(uncolored,
                key=lambda u: (-len(neigh_colors[u]), -len(G.adj[u]), order[u]))
        c = 0
        while c in neigh_colors[v]:
            c += 1
        colors[v] = c
        uncolored.remove(v)
        for u in G.adj[v]:
            if u in uncolored:
                neigh_colors[u].add(c)
    return colors


def _k_colorable(G: IntersectionGraph, k: int):
    """Backtracking search for a proper k-coloring, DSATUR vertex selection,
    color symmetry broken by never opening more than one fresh color."""
    order = {v: i for i, v in enumerate(G.ids)}
    colors: dict = {}
    neigh_colors = {v: set() for v in G.ids}

    def pick():
        pending = [v for v in G.ids if v not in colors]
        if not pending:
            return None
        return min(pending,
                   key=lambda u: (-len(neigh_colors[u]), -len(G.adj[u]), order[u]))

    def assign(v, c) -> list:
        colors[v] = c
        touched = []
        for u in G.adj[v]:
            if u not in colors and c not in neigh_colors[u]:
                neigh_colors[u].add(c)
                touched.append(u)
        return touched

    def undo(v, c, touched):
        del colors[v]
        for u in touched:
            neigh_colors[u].discard(c)

    def search(used: int) -> bool:
        v = pick()
        if v is None:
            return True
        limit = min(k, used + 1)
        for c in range(limit):
            if c in neigh_colors[v]:
                continue
            touched = assign(v, c)
            if search(max(used, c + 1)):
                return True
            undo(v, c, touched)
        return False

    if search(0):
        return dict(colors)
    return None


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

    Clique number gives the lower bound, DSATUR greedy the upper bound, and a
    branch-and-bound k-colorability search closes the gap from below.
    """
    if not G.ids:
        return 0, {}
    lb, _ = clique_number(G)
    greedy = _greedy_coloring(G)
    ub = max(greedy.values()) + 1
    if lb == ub:
        return ub, _canonical_colors(G, greedy)
    for k in range(lb, ub):
        witness = _k_colorable(G, k)
        if witness is not None:
            return k, _canonical_colors(G, witness)
    return ub, _canonical_colors(G, greedy)


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
