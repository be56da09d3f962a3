"""Executable partition and support arguments.

Each procedure is a constructive argument run step by step; every
intermediate claim it relies on is recomputed on the actual input and
asserted.  A failed postcondition raises InternalContradiction (a defect
signal), a failed hypothesis raises PreconditionFailure.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import InternalContradiction, PreconditionFailure
from ..geom import CurveFamily, curves_intersect, exterior_membership
from ..graph import ChiCache, _greedy_coloring, clique_number
from ..structures import Skeleton, is_supported, supported_subfamily
from .report import ExtractionReport, StepRecord


def _components(graph):
    """Connected components of the graph, each listed in graph order."""
    order = {v: i for i, v in enumerate(graph.ids)}
    seen, comps = set(), []
    for v in graph.ids:
        if v in seen:
            continue
        comp, stack = [], [v]
        seen.add(v)
        while stack:
            u = stack.pop()
            comp.append(u)
            for w in sorted(graph.adj[u]):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        comps.append(sorted(comp, key=order.get))
    return comps


def mcguinness(F: CurveFamily, alpha: int, beta: int, cache: ChiCache | None = None):
    """Partition F into left-to-right blocks of chromatic number beta+1, take
    the heavier parity class, color its blocks with beta+1 shared colors, and
    return the color class H of maximum chromatic number.

    Guarantees chi(H) > alpha and chi(F(u,v)) > beta for every intersecting
    pair u, v in H; both are recomputed before returning.
    """
    if alpha < 0 or beta < 0:
        raise ValueError("alpha, beta must be nonnegative")
    cache = cache or ChiCache(F)
    chi_F = cache.chi(F.ids())
    if not chi_F > 2 * alpha * (beta + 1):
        raise PreconditionFailure("chi(F) > 2*alpha*(beta+1)",
                                  measured=chi_F, threshold=2 * alpha * (beta + 1))

    report = ExtractionReport("structure-found")
    blocks, current = [], []
    for c in F:
        current.append(c.id)
        if cache.chi(current) == beta + 1:
            blocks.append(current)
            current = []
    if current:
        blocks.append(current)
    for b in blocks[:-1]:
        if cache.chi(b) != beta + 1:
            raise InternalContradiction("non-final block with chi != beta+1")
    if not cache.chi(blocks[-1]) <= beta + 1:
        raise InternalContradiction("final block with chi > beta+1")

    parity_class = [
        [cid for i in range(p, len(blocks), 2) for cid in blocks[i]]
        for p in (0, 1)]
    chis = [cache.chi(cls) if cls else 0 for cls in parity_class]
    p = 0 if chis[0] > alpha * (beta + 1) else 1
    if not chis[p] > alpha * (beta + 1):
        raise InternalContradiction("neither parity class exceeds alpha*(beta+1)")

    report.steps.append(StepRecord(
        "blocks", {"chi(F)": chi_F, "block_count": len(blocks),
                   "parity": p, "chi(parity_class)": chis[p]},
        {"blocks": [b for b in blocks]}))

    # Proper coloring of each chosen-parity block with a shared palette of
    # beta+1 colors; H_j collects color j across those blocks.
    classes = [[] for _ in range(beta + 1)]
    for i in range(p, len(blocks), 2):
        _, witness = cache.chi_witness(blocks[i])
        for cid, color in witness.items():
            classes[color].append(cid)
    class_chis = [cache.chi(cls) if cls else 0 for cls in classes]
    j = max(range(beta + 1), key=lambda idx: (class_chis[idx], -idx))
    H_ids = sorted(classes[j], key=F.index)
    H = F.subfamily(H_ids)

    chi_H = cache.chi(H_ids)
    if not chi_H > alpha:
        raise InternalContradiction(f"chi(H)={chi_H} fails to exceed alpha={alpha}")
    for a in H_ids:
        for b in H_ids:
            if F.precedes(a, b) and curves_intersect(F[a], F[b]):
                gap = cache.chi(F.between(a, b).ids())
                if not gap > beta:
                    raise InternalContradiction(
                        f"chi(F({a},{b}))={gap} fails to exceed beta={beta}")

    report.steps.append(StepRecord(
        "color-class", {"chi(H)": chi_H, "class_index": j}, {"H": H_ids}))
    report.result = {"H": H_ids}
    return H, report


def intersecting_gap_pair(F: CurveFamily, beta: int, cache: ChiCache | None = None):
    """Two intersecting curves u, v with chi(F(u,v)) > beta, found by the
    alpha=1 specialization: the first intersecting pair of H in family order.
    Both the intersection and the gap bound are re-verified before returning."""
    cache = cache or ChiCache(F)
    chi_F = cache.chi(F.ids())
    if not chi_F > 2 * (beta + 1):
        raise PreconditionFailure("chi(F) > 2*(beta+1)",
                                  measured=chi_F, threshold=2 * (beta + 1))
    H, _ = mcguinness(F, 1, beta, cache)
    ids = [c.id for c in H]
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            u, v = ids[i], ids[j]
            if curves_intersect(F[u], F[v]):
                gap = cache.chi(F.between(u, v).ids())
                if not (gap > beta):
                    raise InternalContradiction(
                        f"returned pair has chi(F(u,v))={gap} <= beta={beta}")
                return u, v
    raise InternalContradiction("H returned by mcguinness(alpha=1) has no edge")


def bfs_supported(F: CurveFamily, cache: ChiCache | None = None):
    """A layer of the breadth-first search from the leftmost curve of the
    heaviest component: externally supported in F with chi at least chi(F)/2.

    Returns (G, d, report) where d is the layer depth chosen.  External
    support is verified curve by curve before returning.
    """
    cache = cache or ChiCache(F)
    graph = cache.graph.subgraph(F.ids())
    w, _ = clique_number(graph)
    if w < 2:
        raise PreconditionFailure("omega(F) >= 2", measured=w, threshold=2)

    chi_F = cache.chi(F.ids())
    comps = _components(graph)
    comp = max(comps, key=lambda c: (cache.chi(c), -F.index(c[0])))

    start = min(comp, key=lambda cid: F[cid].base_x)
    dist = {start: 0}
    frontier = [start]
    layers = [[start]]
    while frontier:
        nxt = []
        for u in frontier:
            for wid in sorted(graph.adj[u]):
                if wid not in dist:
                    dist[wid] = dist[u] + 1
                    nxt.append(wid)
        if nxt:
            layers.append(sorted(nxt, key=F.index))
        frontier = nxt

    # Non-adjacent layers are pairwise disjoint curves; assert it.
    for i in range(len(layers)):
        for j in range(i + 2, len(layers)):
            for a in layers[i]:
                for b in layers[j]:
                    if curves_intersect(F[a], F[b]):
                        raise InternalContradiction(
                            f"layers {i},{j} contain intersecting curves {a!r},{b!r}")

    half = Fraction(chi_F, 2)
    d = None
    for i in range(1, len(layers)):
        if cache.chi(layers[i]) >= half:
            d = i
            break
    if d is None:
        raise InternalContradiction("no BFS layer at depth >= 1 reaches chi(F)/2")

    G = F.subfamily(layers[d])
    layer = set(layers[d])
    support_map = {}
    for p in layers[d]:
        found = None
        for s in F.ids():
            if s in layer:
                continue
            if not curves_intersect(F[s], F[p]):
                continue
            if exterior_membership(G, F[s]):
                found = s
                break
        if found is None:
            raise InternalContradiction(
                f"curve {p!r} of the BFS layer has no external support")
        support_map[p] = found

    report = ExtractionReport("structure-found")
    report.steps.append(StepRecord(
        "bfs-layers",
        {"chi(F)": chi_F, "layer_chis": [cache.chi(l) for l in layers], "d": d},
        {"component": comp, "G": layers[d]}))
    report.steps.append(StepRecord("external-support", {}, {"supports": support_map}))
    report.result = {"G": layers[d], "d": d, "supports": support_map}
    return G, d, report


def find_skeleton_supported(F: CurveFamily, alpha: int, cache: ChiCache | None = None):
    """Search for a skeleton whose supported subfamily has chi > alpha.

    Candidates are enumerated the way the bracket pipeline builds them: for
    each intersecting pair (u, v) in family order, greedily color the curves
    of F(u, v) meeting u or v; each color class is a pairwise disjoint
    support set.  Returns the first (Skeleton, P) with chi(P) > alpha, or
    None.
    """
    cache = cache or ChiCache(F)
    ids = F.ids()
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            u, v = ids[i], ids[j]
            if not curves_intersect(F[u], F[v]):
                continue
            mid = F.between(u, v)
            hitters = [c.id for c in mid
                       if curves_intersect(F[c.id], F[u]) or curves_intersect(F[c.id], F[v])]
            if not hitters:
                continue
            coloring = _greedy_coloring(cache.graph.subgraph(hitters))
            ncolors = max(coloring.values()) + 1
            for color in range(ncolors):
                supports = sorted((cid for cid in hitters if coloring[cid] == color),
                                  key=F.index)
                sk = Skeleton(u, v, tuple(supports)).validate(F)
                P = supported_subfamily(F, sk)
                if cache.chi(P.ids()) > alpha:
                    for p in P:
                        if not is_supported(p.id, sk, F):
                            raise InternalContradiction(
                                "supported_subfamily returned an unsupported curve")
                    return sk, P
    return None
