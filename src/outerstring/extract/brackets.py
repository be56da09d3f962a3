"""The bracket-system pipeline: from a family of large chromatic number to a
(k+1)-bracket system whose extracted supports form a (k+1)-clique.

The procedure runs the construction step by step and measures every
inequality the argument relies on.  The real thresholds are reachable only
at astronomical chromatic numbers, so ``BoundParams`` supplies surrogate
values for beta_i and gamma; the first measured inequality that fails ends
the run with a step-failure report naming it.  Facts that are forced by the
construction itself (as opposed to threshold inequalities) raise
InternalContradiction when violated: those would be kernel bugs.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import InternalContradiction, PreconditionFailure
from ..geom import CurveFamily, curves_intersect, exterior_membership, first_hit
from ..graph import ChiCache, _greedy_coloring
from ..structures import (CONTAINED, CROSSES_BOUNDARY, Skeleton, bracket_to_dict,
                          build_bracket, extract_clique, interior_classify,
                          is_supported, validate_bracket_system)
from .core import _components, bfs_supported, intersecting_gap_pair
from .report import BoundParams, ExtractionReport, StepFailure, StepRecord


def _beta_sequence(params: BoundParams):
    """Surrogate beta_0..beta_{k+1}: the constant params.beta at every level.
    The real recurrence is available in the bounds module; it is far out of
    reach of any constructible input, so pipelines take the surrogate."""
    return [params.beta] * (params.k + 2)


def _gamma(params: BoundParams, betas) -> int:
    if params.gamma is not None:
        return params.gamma
    return 2 ** (params.k + 2) * (betas[-1] + 2 * params.xi + 1)


def attempt_bracket_system(F: CurveFamily, params: BoundParams) -> ExtractionReport:
    """Run the bracket-system construction, returning a full trace report.

    On success the result carries the validated (k+1)-bracket system and the
    clique extracted from it; on a missed threshold the report names the step
    and the measured value.  The report is deterministic in (F, params).
    """
    report = ExtractionReport("structure-found")
    try:
        _run_bracket_pipeline(F, params, report)
    except StepFailure as fail:
        report.outcome = "step-failure"
        report.failure = fail.as_failure_dict()
        report.result = None
    return report


def _run_bracket_pipeline(F: CurveFamily, params: BoundParams,
                          report: ExtractionReport):
    k, xi = params.k, params.xi
    cache = ChiCache(F)
    betas = _beta_sequence(params)
    gamma = _gamma(params, betas)
    report.steps.append(StepRecord(
        "parameters",
        {"k": k, "xi": xi, "alpha": params.alpha, "beta_i": betas[0], "gamma": gamma}))

    chi_F = cache.chi(F.ids())
    if not chi_F > gamma:
        raise StepFailure("chi(F) > gamma", measured=chi_F, threshold=gamma)

    # Step 1: nested externally supported families F_0 .. F_{k+1} with
    # chi(F_i) > gamma / 2^i.
    chain = [F]
    for i in range(1, k + 2):
        try:
            G, d, _ = bfs_supported(chain[-1], cache)
        except PreconditionFailure as exc:
            raise StepFailure(f"bfs level {i}: omega >= 2",
                              measured=exc.measured, threshold=exc.threshold)
        chi_G = cache.chi(G.ids())
        threshold = Fraction(gamma, 2 ** i)
        report.steps.append(StepRecord(
            f"bfs level {i}", {"chi": chi_G, "threshold": threshold, "d": d},
            {"F_i": list(G.ids())}))
        if not chi_G > threshold:
            raise StepFailure(f"chi(F_{i}) > gamma/2^{i}",
                              measured=chi_G, threshold=threshold)
        chain.append(G)

    # Step 2: an intersecting pair with a heavy gap in F_{k+1}.
    beta_uv = betas[k + 1] + 2 * xi
    try:
        u, v = intersecting_gap_pair(chain[k + 1], beta_uv, cache)
    except PreconditionFailure as exc:
        raise StepFailure("gap pair: chi(F_{k+1}) > 2*(beta_{k+1}+2*xi+1)",
                          measured=exc.measured, threshold=exc.threshold)
    report.steps.append(StepRecord(
        "gap pair", {"chi(gap)": cache.chi(chain[k + 1].between(u, v).ids())},
        {"u": [u], "v": [v]}))

    # Step 3: drop the curves meeting u or v.
    mid = chain[k + 1].between(u, v)
    G_ids = [c.id for c in mid
             if not curves_intersect(F[c.id], F[u]) and not curves_intersect(F[c.id], F[v])]
    chi_G = cache.chi(G_ids)
    report.steps.append(StepRecord(
        "avoiders of u,v", {"chi(G)": chi_G, "threshold": betas[k + 1]},
        {"G": G_ids}))
    if not chi_G > betas[k + 1]:
        raise StepFailure("chi(G) > beta_{k+1}", measured=chi_G, threshold=betas[k + 1])

    # Step 4: reverse loop building brackets (P_i, S_i) and families G_i.
    current_G = G_ids
    brackets = {}
    for i in range(k, -1, -1):
        current_G, bracket = _bracket_level(
            F, chain, i, u, v, current_G, params, betas, cache, report)
        brackets[i] = bracket

    system = [brackets[i] for i in range(k + 1)]
    validate_bracket_system(system, F)
    clique = extract_clique(system, xi, validate=False)
    report.steps.append(StepRecord(
        "bracket system validated + clique extracted", {"clique_size": len(clique)},
        {"clique": clique}))
    report.result = {
        "brackets": [bracket_to_dict(br) for br in system],
        "clique": clique,
    }


def _bracket_level(F, chain, i, u, v, G_next, params, betas, cache, report):
    """One reverse-induction level: build (P_i, S_i) and the next G_i."""
    k, xi, alpha = params.k, params.xi, params.alpha
    F_i, F_next = chain[i], chain[i + 1]

    # Q_i: curves of F_i(u,v) meeting u or v, split into disjoint support
    # classes by greedy coloring; each class is a skeleton on (u, v).
    Q = [c.id for c in F_i.between(u, v)
         if curves_intersect(F[c.id], F[u]) or curves_intersect(F[c.id], F[v])]
    chi_Q = cache.chi(Q)
    if not chi_Q <= 2 * xi:
        raise StepFailure(f"level {i}: chi(Q_i) <= 2*xi",
                          measured=chi_Q, threshold=2 * xi)
    skeletons = []
    if Q:
        coloring = _greedy_coloring(cache.graph.subgraph(Q))
        for color in range(max(coloring.values()) + 1):
            sup = tuple(sorted((c for c in Q if coloring[c] == color), key=F.index))
            skeletons.append(Skeleton(u, v, sup).validate(F))

    # The contraposition hypothesis: every skeleton-supported family has
    # chi <= alpha.  Measure it on each candidate skeleton.
    supported_union = set()
    max_supported_chi = 0
    for sk in skeletons:
        sup_ids = [c for c in G_next if is_supported(c, sk, F)]
        max_supported_chi = max(max_supported_chi, cache.chi(sup_ids))
        supported_union.update(sup_ids)
    if not max_supported_chi <= alpha:
        raise StepFailure(f"level {i}: chi(skeleton-supported family) <= alpha",
                          measured=max_supported_chi, threshold=alpha)

    H = [c for c in G_next if c not in supported_union]
    chi_H = cache.chi(H)
    threshold_H = 2 * betas[i] + 6 * k * xi + 2
    if not chi_H > threshold_H:
        raise StepFailure(f"level {i}: chi(H_i) > 2*beta_i + 6*k*xi + 2",
                          measured=chi_H, threshold=threshold_H)

    # External-support map: s(p) is the first curve of F_i met along p that
    # reaches the exterior of F_{i+1}.
    s_of = {}
    next_ids = set(F_next.ids())
    for p in H:
        candidates = [F[s] for s in F_i.ids()
                      if s != p and s not in next_ids
                      and curves_intersect(F[s], F[p])
                      and exterior_membership(F_next, F[s])]
        hit = first_hit(F[p], candidates)
        if hit is None:
            raise InternalContradiction(
                f"level {i}: {p!r} lacks external support despite the bfs guarantee")
        s_of[p] = hit[1]

    left = [p for p in H if F[s_of[p]].base_x < F[p].base_x]
    right = [p for p in H if F[s_of[p]].base_x > F[p].base_x]
    chi_L, chi_R = cache.chi(left), cache.chi(right)
    if Fraction(chi_H, 2) <= chi_L:
        side, side_name = left, "L"
    else:
        side, side_name = right, "R"
    chi_side = cache.chi(side)
    threshold_side = betas[i] + 3 * k * xi + 1
    if not chi_side > threshold_side:
        raise StepFailure(f"level {i}: chi(H_i^{side_name}) > beta_i + 3*k*xi + 1",
                          measured=chi_side, threshold=threshold_side)

    # Connected subfamily achieving the maximum, then the claim that every
    # support basepoint clears it on the chosen side.
    comps = _components(cache.graph.subgraph(side))
    C = max(comps, key=lambda c: (cache.chi(c), -F.index(c[0])))
    C = sorted(C, key=F.index)
    base_lo = min(F[p].base_x for p in C)
    base_hi = max(F[p].base_x for p in C)
    for p in C:
        sb = F[s_of[p]].base_x
        ok = sb < base_lo if side_name == "L" else sb > base_hi
        if not ok:
            raise InternalContradiction(
                f"level {i}: support base of {p!r} falls inside the connected family")

    # Rightmost (leftmost for the R case) part of C with chi exactly k*xi+1.
    take_order = list(reversed(C)) if side_name == "L" else list(C)
    P, chi_P = [], 0
    for p in take_order:
        P.append(p)
        chi_P = cache.chi(P)
        if chi_P == k * xi + 1:
            break
    if chi_P != k * xi + 1:
        raise InternalContradiction(
            f"level {i}: chi(C_i) too small to carve P_i with chi = k*xi+1")
    P = sorted(P, key=F.index)
    S = sorted({s_of[p] for p in P}, key=F.index)

    bracket = build_bracket(P, S, F)
    for p in P:
        if bracket.s_of[p] != s_of[p]:
            raise InternalContradiction(
                f"level {i}: first hit within S_i differs from the chosen support")

    rest = [c for c in C if c not in set(P)]
    verdicts = {c: interior_classify(bracket, F[c]) for c in rest}
    crossers = [c for c in rest if verdicts[c] == CROSSES_BOUNDARY]
    chi_B = cache.chi(crossers)
    if not chi_B <= 2 * k * xi:
        raise StepFailure(f"level {i}: chi(boundary crossers) <= 2*k*xi",
                          measured=chi_B, threshold=2 * k * xi)

    G_i = [c for c in rest if verdicts[c] == CONTAINED]
    chi_Gi = cache.chi(G_i)
    report.steps.append(StepRecord(
        f"bracket level {i}",
        {"chi(Q_i)": chi_Q, "max chi(supported)": max_supported_chi,
         "chi(H_i)": chi_H, "side": side_name, "chi(side)": chi_side,
         "chi(P_i)": chi_P, "chi(boundary)": chi_B, "chi(G_i)": chi_Gi,
         "threshold(G_i)": betas[i]},
        {"P_i": P, "S_i": S, "C_i": C, "G_i": G_i}))
    if not chi_Gi > betas[i]:
        raise StepFailure(f"level {i}: chi(G_i) > beta_i",
                          measured=chi_Gi, threshold=betas[i])
    return G_i, bracket

