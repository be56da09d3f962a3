"""The four workloads: inputs made from the seed, requests, and checks.

Every workload is a closed loop with one client: requests run one at a time,
in a fixed order, grouped in cycles of fixed composition.  A workload has

* ``setup_run()``: one-time set-up (files, frozen instances);
* ``inputs(k)``: the inputs of cycle ``k``, made from the seed;
* ``requests(base, k, tag)``: the requests of cycle ``k``, with every curve id
  prefixed by ``tag``.  The library caches key on curve values, so a fresh
  tag gives fresh cache keys: the traced replay of a cycle does exactly the
  work of the untraced pass, and frozen families repeated across cycles do
  not turn into dictionary lookups.

A request's ``check`` verifies its output from the witnesses and returns the
answer that is compared with the frozen digests, plus size counters.  It
raises ``WrongAnswer`` for a wrong output and ``RequestFailed`` for the other
failures (a traceback, a wrong exit code).
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from outerstring.bounds import explicit_chi_bound
from outerstring.extract import (BoundParams, attempt_bracket_system,
                                 attempt_clique_system, bfs_supported,
                                 find_skeleton_supported, mcguinness)
from outerstring.gen import GenSpec, figure_fixture, generate
from outerstring.geom import (GroundedCurve, curve_intersections, curves_intersect,
                              dumps_family, family_from_dict, loads_family,
                              validate_family)
from outerstring.graph import (ChiCache, chromatic_number, clique_number,
                               intersection_graph)
from outerstring.structures import (bracket_to_dict, build_bracket,
                                    check_signature_betweenness, extract_clique,
                                    signature, skeleton_from_dict,
                                    skeleton_to_dict,
                                    validate_bracket_system,
                                    validate_clique_system,
                                    verify_bracket_crossing)

import instances

HERE = Path(__file__).resolve().parent


class WrongAnswer(Exception):
    """An output failed its correctness check."""


class RequestFailed(Exception):
    """A request ended in a failure other than a wrong answer."""


@dataclass
class Request:
    key: str                      # same in every pass: "<cycle>/<slot>/<op>"
    op: str                       # operation, for per-operation figures
    run: Callable[[], object]
    check: Callable[[object], tuple]
    tag: str = ""                 # id prefix stripped before digesting


def sub_seed(seed: int, *parts) -> int:
    """A family seed derived from the workload seed and a position."""
    return random.Random("/".join(map(str, (seed,) + parts))).randrange(2 ** 31)


def renamed(curves, tag: str) -> list:
    return [GroundedCurve(tag + c.id, c.vertices) for c in curves]


def retagged(ids, tag: str):
    """Curve ids, in nested lists, with the prefix ``tag``."""
    if isinstance(ids, str):
        return tag + ids
    return [retagged(x, tag) for x in ids]


def require(cond: bool, what: str) -> None:
    if not cond:
        raise WrongAnswer(what)


def check_clique(graph, omega, clique) -> None:
    members = sorted(clique)
    require(len(members) == omega, f"clique witness has {len(members)} != omega={omega}")
    for i, u in enumerate(members):
        for v in members[i + 1:]:
            require(v in graph.adj[u], f"clique witness {u},{v} not adjacent")


def check_coloring(graph, chi, coloring) -> None:
    require(set(coloring) == set(graph.ids), "coloring misses vertices")
    require(len(set(coloring.values())) == chi, f"coloring does not use chi={chi} colours")
    for u, v in graph.edges():
        require(coloring[u] != coloring[v], f"coloring not proper on {u},{v}")


def solver_answer(graph, omega, clique, chi, coloring) -> dict:
    check_clique(graph, omega, clique)
    check_coloring(graph, chi, coloring)
    require(omega <= chi, "omega > chi")
    return {"omega": omega, "clique": sorted(clique), "chi": chi,
            "coloring": [coloring[v] for v in graph.ids]}


# Checks of the serialized results of the extraction procedures, shared by
# the in-process and the command line workloads.


def check_pairwise_crossing(F, ids, what: str) -> None:
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            require(curves_intersect(F[a], F[b]), f"{what}: {a},{b} disjoint")


def check_mcguinness_result(F, result) -> None:
    """H is a non-empty subfamily, and (beta = 0) every crossing pair of H
    has a non-empty gap family."""
    H = result["H"]
    require(len(H) > 0 and set(H) <= set(F.ids()), "H not a subfamily")
    for i, a in enumerate(H):
        for b in H[i + 1:]:
            if curves_intersect(F[a], F[b]):
                u, v = (a, b) if F.precedes(a, b) else (b, a)
                require(len(F.between(u, v)) > 0, f"empty gap family F({u},{v}) in H")


def check_bfs_result(F, result) -> None:
    G, supports = result["G"], result["supports"]
    require(result["d"] >= 1 and len(G) > 0 and set(G) <= set(F.ids()),
            "bfs layer not a subfamily")
    require(set(supports) == set(G), "bfs supports do not cover the layer")
    for p, s in supports.items():
        require(s not in G and curves_intersect(F[p], F[s]), f"support {s} of {p} invalid")


def check_bracket_result(F, result) -> None:
    brackets = [build_bracket(b["P"], b["S"], F) for b in result["brackets"]]
    validate_bracket_system(brackets, F)
    check_pairwise_crossing(F, result["clique"], "bracket clique")


def check_clique_result(F, result) -> None:
    validate_clique_system(result["system"]["cliques"], F)


def check_skeleton_result(F, skeleton: dict, supported) -> None:
    sk = skeleton_from_dict(skeleton, F)          # validates the skeleton
    require(set(supported) <= set(F.between(sk.u, sk.v).ids()),
            "supported curves outside the skeleton")


class Workload:
    """A run is a fixed number of cycles: ``--seconds`` divided by
    ``nominal_cycle_s``, which comes from the busy time of one cycle, in
    reference seconds, when the benchmark was defined (2-core x86 machine).
    Faster code then measures the same work in less time, and every count
    repeats exactly for a given seed.  ``timeout_s`` is in reference
    seconds too."""

    in_process = True             # requests run in this process
    tracer = None                 # the Tracer during a traced pass
    env = None                    # environment for child processes
    wall_timeout_s = None         # timeout_s at the machine's current speed

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir

    def setup_run(self) -> None:
        pass


# ---------------------------------------------------------------------------
# arrangement


class Arrangement(Workload):
    """Cold one-shot analysis: validate + stats on a fresh random family."""

    name = "arrangement"
    # Below the 1.7-2 s a cycle takes, so that a 12 s run makes 8 cycles:
    # 24 requests, 16 of them n=40, the fewest that put both the median and
    # the tail (the eleventh largest) inside the n=40 group.
    nominal_cycle_s = 1.5
    # A few n=40 families send the chi search into its exponential tail
    # although omega = chi (about one in eighty; one took 28 reference
    # seconds), so the timeout is well above the 0.5-1.3 s of the others.
    timeout_s = 4.0
    # Two of three requests are n=40, so the median and the tail both fall
    # inside the n=40 group, away from its edge.  n=80 is left out: one
    # request there costs 4-5 s plus as much again to generate, too few per
    # run to give steady figures.
    sizes = (20, 40, 40)

    def inputs(self, k: int):
        return [generate(GenSpec(kind="polylines", n=n, bends=4, grid=3 * n,
                                 seed=sub_seed(self.seed, "arrangement", k, slot)))
                for slot, n in enumerate(self.sizes)]

    def requests(self, base, k: int, tag: str) -> list:
        out = []
        for slot, fam in enumerate(base):
            raw = renamed(fam.curves, tag)
            out.append(Request(f"{k}/{slot}/analyze", f"analyze-n{len(raw)}",
                               lambda raw=raw: self._analyze(raw), self._check, tag))
        return out

    @staticmethod
    def _analyze(raw):
        fam = validate_family(raw)
        graph = intersection_graph(fam)
        omega, clique = clique_number(graph)
        chi, coloring = chromatic_number(graph)
        crossings = [curve_intersections(fam[u], fam[v]) for u, v in graph.edges()]
        return fam, graph, omega, clique, chi, coloring, crossings

    @staticmethod
    def _check(result):
        fam, graph, omega, clique, chi, coloring, crossings = result
        answer = solver_answer(graph, omega, clique, chi, coloring)
        for (u, v), hits in zip(graph.edges(), crossings):
            require(len(hits) > 0, f"edge at {u} without a crossing")
            require(all(p.curve_id == u and q.curve_id == v and p.point == q.point
                        for p, q in hits), f"crossing of {u},{v} off one of the curves")
            require(len(set(hits)) == len(hits), f"crossing of {u},{v} listed twice")
            # Sorted along the first curve, not strictly: a curve may pass
            # one point twice (self-intersections are allowed, e.g. two
            # overlapping collinear segments), and another curve that
            # crosses it there gets two crossings at one position.
            require(all(a[0] <= b[0] for a, b in zip(hits, hits[1:])),
                    "crossings not sorted along the first curve")
        answer["crossings"] = [len(h) for h in crossings]
        sizes = {"curves": len(fam), "segments": sum(c.num_segments for c in fam),
                 "crossings": sum(answer["crossings"]), "edges": len(crossings),
                 "omega": omega, "chi": chi}
        return answer, sizes


# ---------------------------------------------------------------------------
# extraction


BRACKET_PARAMS = BoundParams(k=2, xi=1, gamma=1)
CLIQUE_PARAMS = BoundParams(k=2, xi=1, n=1, t=2)
MERGE_PARAMS = BoundParams(k=2, xi=1, n=0, t=3)


class Extraction(Workload):
    """Pipeline sessions: the five procedures on one family, in order, with
    the family's graph prebuilt and the caches warm within the session."""

    name = "extraction"
    # Below the 1.1 s a cycle takes, so that a 12 s run makes 12 cycles: the
    # twelve attempt_bracket_system requests on the nested-combs family are
    # the slowest group, and the tail (the eleventh largest) falls inside it
    # however many of the random families' few slow sessions lie above it.
    # Seven cycles put it at the edge of that group, where it moved with
    # the seed.
    nominal_cycle_s = 1.0
    timeout_s = 20.0
    # n=24 is left out: one session there costs 0.3-4.9 s, so the few a run
    # can hold make its figures swing with the seed.
    random_sizes = (12, 12)

    def setup_run(self) -> None:
        self.fixtures = [list(figure_fixture(i)[0].curves) for i in (1, 2, 3, 4)]
        self.combs = instances.nested_combs()

    def inputs(self, k: int):
        s = sub_seed(self.seed, "extraction", k)
        families = [(f"figure{i + 1}", curves, None)
                    for i, curves in enumerate(self.fixtures)]
        families.append(("combs", self.combs, None))
        curves, P, S, probe = instances.bracket_with_probe(s)
        families.append(("bracket-probe", curves, ("bracket", (P, S, probe))))
        curves, pairs = instances.two_bracket_system(s)
        families.append(("two-bracket", curves, ("system", (pairs,))))
        curves, cliques, names = instances.signature_triple(s)
        families.append(("signature-triple", curves, ("signature", (cliques, names))))
        for slot, n in enumerate(self.random_sizes):
            fam = generate(GenSpec(kind="polylines", n=n, bends=4, grid=3 * n,
                                   seed=sub_seed(self.seed, "extraction", k, slot)))
            families.append((f"random-n{n}", list(fam.curves), None))
        return families

    def requests(self, base, k: int, tag: str) -> list:
        out = []
        for slot, (label, curves, structure) in enumerate(base):
            F = validate_family(renamed(curves, tag))
            cache = ChiCache(F)
            key = f"{k}/{slot}"

            def req(op, run, check, variant=""):
                out.append(Request(f"{key}/{op}{variant}", op, run, check, tag))

            req("bfs_supported", lambda F=F, c=cache: bfs_supported(F, c),
                lambda r, F=F: self._check_bfs(F, r))
            req("attempt_bracket_system",
                lambda F=F: attempt_bracket_system(F, BRACKET_PARAMS),
                lambda r, F=F: self._check_brackets(F, r))
            req("attempt_clique_system",
                lambda F=F: attempt_clique_system(F, 2, 1, CLIQUE_PARAMS),
                lambda r, F=F: self._check_cliques(F, r))
            if label == "combs":
                req("attempt_clique_system",
                    lambda F=F: attempt_clique_system(F, 3, 0, MERGE_PARAMS),
                    lambda r, F=F: self._check_cliques(F, r), "-t3")
            req("mcguinness", lambda F=F, c=cache: mcguinness(F, 0, 0, c),
                lambda r, F=F: self._check_mcguinness(F, r))
            req("find_skeleton_supported",
                lambda F=F, c=cache: find_skeleton_supported(F, 0, c),
                lambda r, F=F: self._check_skeleton(F, r))
            if structure is not None:
                kind, ids = structure
                run, check = getattr(self, f"_{kind}")(F, *retagged(ids, tag))
                req(f"structure-{kind}", run, check)
        return out

    @staticmethod
    def _bracket(F, P, S, probe):
        def run():
            br = build_bracket(P, S, F)
            return br, verify_bracket_crossing(br, F[probe])

        def check(result):
            br, holds = result
            require(holds is True, "bracket crossing lemma failed on the probe")
            require(set(br.s_of) == set(P), "first-hit map misses hooks")
            return {"bracket": bracket_to_dict(br), "crossing": holds}, {"curves": len(F)}
        return run, check

    @staticmethod
    def _system(F, pairs):
        def run():
            brackets = [build_bracket(P, S, F) for P, S in pairs]
            validate_bracket_system(brackets, F)
            return extract_clique(brackets, 1)

        def check(clique):
            require(len(clique) == len(pairs), "extracted clique has the wrong size")
            for i, a in enumerate(clique):
                for b in clique[i + 1:]:
                    require(curves_intersect(F[a], F[b]), f"extracted {a},{b} disjoint")
            return {"clique": clique}, {"curves": len(F)}
        return run, check

    @staticmethod
    def _signature(F, cliques, names):
        def run():
            cs = validate_clique_system(cliques, F)
            sigs = [signature(s, cs, F).bits for s in names]
            return sigs, check_signature_betweenness(cs, *names, F)

        def check(result):
            sigs, holds = result
            require(holds is True, "signature betweenness failed")
            require(sigs[0] == sigs[1] == sigs[2], "signatures of the triple differ")
            return {"signatures": [list(s) for s in sigs]}, {"curves": len(F)}
        return run, check

    @staticmethod
    def _sizes(F, report=None, outcome=None):
        sizes = {"curves": len(F), "segments": sum(c.num_segments for c in F),
                 "outcome": outcome or report.outcome}
        if report is not None:
            sizes["steps"] = len(report.steps)
        return sizes

    @classmethod
    def _check_bfs(cls, F, result):
        G, d, report = result
        require(report.outcome == "structure-found", "bfs_supported report not found")
        require(list(G.ids()) == report.result["G"] and d == report.result["d"],
                "bfs_supported returned a layer other than its report's")
        check_bfs_result(F, report.result)
        return report.to_dict(), cls._sizes(F, report)

    @classmethod
    def _check_brackets(cls, F, report):
        require(report.outcome in ("structure-found", "step-failure"), "bad outcome")
        if report.outcome == "structure-found":
            check_bracket_result(F, report.result)
        return report.to_dict(), cls._sizes(F, report)

    @classmethod
    def _check_cliques(cls, F, report):
        require(report.outcome in ("structure-found", "step-failure"), "bad outcome")
        if report.outcome == "structure-found":
            check_clique_result(F, report.result)
        return report.to_dict(), cls._sizes(F, report)

    @classmethod
    def _check_mcguinness(cls, F, result):
        H, report = result
        require(list(H.ids()) == report.result["H"], "mcguinness H differs from its report")
        check_mcguinness_result(F, report.result)
        return {"H": list(H.ids()), "report": report.to_dict()}, cls._sizes(F, report)

    @classmethod
    def _check_skeleton(cls, F, result):
        if result is None:
            return {"found": False}, cls._sizes(F, outcome="step-failure")
        sk, P = result
        check_skeleton_result(F, skeleton_to_dict(sk), list(P.ids()))
        return ({"skeleton": skeleton_to_dict(sk), "P": list(P.ids())},
                cls._sizes(F, outcome="structure-found"))


# ---------------------------------------------------------------------------
# coloring


class Coloring(Workload):
    """Solver-bound requests on graphs built in set-up: omega and chi of the
    whole graph, then chi of the gap subgraph F(u,v) of every edge."""

    name = "coloring"
    nominal_cycle_s = 1.5
    timeout_s = 2.0
    random_sizes = (40,)
    # Random families with n=50 or 60 send the chi search into its
    # exponential tail about one time in eight (n=50 seeds 19, 22, 25, 31
    # and 33 of the first 40), so how many a run draws would swing its
    # figures with the seed.  Their sizes run instead as frozen families
    # (coloring_frozen.json: GenSpec(segments, n, grid=20, seed) as generated
    # when the benchmark was defined) on which chi > omega, so
    # branch-and-bound runs in every cycle, and the first cycle adds the
    # n=50 seed=25 family, which hangs, so the hang shows on every seed.
    # Per cycle, two requests cost less than the n=50 seed 0 and 23
    # families (0.25 s), two more (the n=60 family, run twice) cost more, so
    # the median falls in the middle of those two, and the tail (the
    # eleventh largest) inside the n=60 group, not at the edge of a group.
    frozen = ("n50-seed30", "n50-seed0", "n50-seed23", "n60-seed15", "n60-seed15")
    hard = "n50-seed25"

    def setup_run(self) -> None:
        # The solvers keep no cache, so frozen graphs can serve every cycle.
        data = json.loads((HERE / "coloring_frozen.json").read_text(encoding="utf-8"))
        self.shared = {}
        for label in set(self.frozen) | {self.hard}:
            F = family_from_dict(data[label])
            self.shared[label] = (F, intersection_graph(F))

    def inputs(self, k: int):
        return [generate(GenSpec(kind="segments", n=n, grid=20,
                                 seed=sub_seed(self.seed, "coloring", k, slot)))
                for slot, n in enumerate(self.random_sizes)]

    def requests(self, base, k: int, tag: str) -> list:
        cases = [(f"n{len(F)}", F, intersection_graph(F)) for F in base]
        labels = self.frozen + ((self.hard,) if k == 0 else ())
        cases += [(label, *self.shared[label]) for label in labels]
        return [Request(f"{k}/{slot}/color", f"color-{label}",
                        lambda F=F, G=G: self._color(F, G), self._check)
                for slot, (label, F, G) in enumerate(cases)]

    @staticmethod
    def _color(F, G):
        omega, clique = clique_number(G)
        chi, coloring = chromatic_number(G)
        gaps = []
        for u, v in G.edges():
            sub = G.subgraph(F.between(u, v).ids())
            gaps.append((sub, chromatic_number(sub)))
        return G, omega, clique, chi, coloring, gaps

    @staticmethod
    def _check(result):
        G, omega, clique, chi, coloring, gaps = result
        answer = solver_answer(G, omega, clique, chi, coloring)
        for sub, (gchi, gcol) in gaps:
            check_coloring(sub, gchi, gcol)
        answer["gap_chi"] = [g[1][0] for g in gaps]
        sizes = {"curves": len(G), "edges": len(gaps), "omega": omega, "chi": chi,
                 "gap_vertices": sum(len(sub) for sub, _ in gaps)}
        return answer, sizes


# ---------------------------------------------------------------------------
# cli


MALFORMED = {
    "array.json": json.dumps([{"id": "u", "vertices": [[0, 0], [1, 1]]}]),
    "three-coords.json": json.dumps(
        {"curves": [{"id": "u", "vertices": [[0, 0, 0], [1, 1, 1]]}]}),
    "zero-denominator.json": json.dumps(
        {"curves": [{"id": "u", "vertices": [[0, 0], ["1/0", 1]]}]}),
    "mixed-ids.json": json.dumps({"curves": [
        {"id": 1, "vertices": [[0, 0], [0, 1]]},
        {"id": "1", "vertices": [[2, 0], [2, 1]]}]}),
    "broken.json": '{"curves": [,]}',
}

# (subcommand arguments, expectation).  "ok": exit 0 with checked output;
# "reject": bad input, so exit 1 with one line on stderr; "either": exit 0,
# or exit 1 with one line when a stated precondition fails.
CLI_CALLS = [
    (["validate", "{fam}"], "ok"),
    (["stats", "{fam}"], "ok"),
    (["extract", "mcguinness", "{fam}"], "either"),
    (["extract", "bfs", "{fam}"], "either"),
    (["extract", "bracket-system", "{fam}", "--gamma", "1"], "either"),
    (["extract", "clique-system", "{fam}", "--t", "2", "--n", "1"], "either"),
    (["skeleton", "{fam}"], "ok"),
    (["generate", "--kind", "polylines", "--n", "8", "--grid", "24", "--seed", "{gen_seed}"], "ok"),
    (["render", "{fam}", "--out", "{svg}"], "ok"),
    (["bounds", "--k", "3"], "ok"),
    (["bounds", "--k", "4"], "ok"),
    (["stats", "array.json"], "reject"),
    (["extract", "bfs", "array.json"], "reject"),
    (["stats", "three-coords.json"], "reject"),
    (["validate", "three-coords.json"], "reject"),
    (["validate", "zero-denominator.json"], "reject"),
    (["stats", "zero-denominator.json"], "reject"),
    (["validate", "missing.json"], "reject"),
    (["stats", "missing.json"], "reject"),
    (["stats", "mixed-ids.json"], "reject"),
    (["validate", "broken.json"], "reject"),
]


class Cli(Workload):
    """Every subcommand as its own process, one at a time."""

    name = "cli"
    in_process = False
    nominal_cycle_s = 6.0
    timeout_s = 60.0

    def setup_run(self) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        for name, text in MALFORMED.items():
            (self.dir / name).write_text(text, encoding="utf-8")
        (self.dir / "missing.json").unlink(missing_ok=True)
        self.bound_k3 = str(explicit_chi_bound(3)) + "\n"

    def inputs(self, k: int):
        fam = generate(GenSpec(kind="polylines", n=10, bends=4, grid=30,
                               seed=sub_seed(self.seed, "cli", k)))
        return fam, sub_seed(self.seed, "cli-generate", k)

    def requests(self, base, k: int, tag: str) -> list:
        fam, gen_seed = base
        path = self.dir / f"{tag}family.json"
        path.write_text(dumps_family(fam), encoding="utf-8")
        graph = intersection_graph(fam)
        fields = {"fam": path.name, "gen_seed": str(gen_seed), "svg": f"{tag}render.svg"}
        out = []
        for slot, (template, expect) in enumerate(CLI_CALLS):
            argv = [a.format(**fields) for a in template]
            out.append(Request(f"{k}/{slot}/{template[0]}", template[0],
                               lambda argv=argv: self._call(argv),
                               lambda r, argv=argv, expect=expect:
                               self._check(r, argv, expect, fam, graph), tag))
        return out

    def _call(self, argv):
        if self.tracer is None:
            cmd = [sys.executable, "-m", "outerstring.cli", *argv]
            summary = None
        else:
            summary = self.dir / "child-trace.json"
            summary.unlink(missing_ok=True)
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(summary), *argv]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=self.dir,
                                  env=self.env, timeout=self.wall_timeout_s)
        except subprocess.TimeoutExpired:
            raise RequestFailed("timeout") from None
        finally:
            if summary is not None and summary.exists():
                data = json.loads(summary.read_text(encoding="utf-8"))
                self.tracer.add_external(data)
        return proc

    def _check(self, proc, argv, expect, fam, graph):
        err_lines = proc.stderr.splitlines()
        if "Traceback" in proc.stderr:
            raise RequestFailed(f"traceback: {err_lines[-1] if err_lines else ''}")
        if expect == "reject" or (expect == "either" and proc.returncode == 1):
            if proc.returncode != 1 or len(err_lines) != 1:
                raise RequestFailed(
                    f"bad input not refused (exit {proc.returncode}, "
                    f"{len(err_lines)} stderr lines)")
            return {"refused": True}, {}
        if proc.returncode != 0:
            raise RequestFailed(f"exit {proc.returncode}")
        sub = argv[0]
        if sub == "bounds":
            if argv[-1] == "3":
                require(proc.stdout == self.bound_k3, "bounds --k 3 value differs")
            else:
                data = json.loads(proc.stdout)
                require(data.get("k") == int(argv[-1]) and data.get("digits", 0) > 0,
                        "bounds summary malformed")
            return {"stdout": proc.stdout}, {}
        if sub == "render":
            svg = (self.dir / argv[argv.index("--out") + 1]).read_text(encoding="utf-8")
            require("<svg" in svg and svg.rstrip().endswith("</svg>"), "render output")
            for cid in fam.ids():
                require(f'id="{cid}"' in svg, f"render misses curve {cid}")
            return {"stdout": proc.stdout, "svg": svg}, {"curves": len(fam)}
        data = json.loads(proc.stdout)
        if sub == "validate":
            require(data == {"valid": True, "violations": []}, "validate verdict")
        elif sub == "stats":
            require(data["n"] == len(fam), "stats n")
            coloring = {c: data["coloring"][c] for c in graph.ids}
            solver_answer(graph, data["omega"], data["clique"], data["chi"], coloring)
        elif sub == "generate":
            require(len(loads_family(proc.stdout)) == 8, "generated family size")
        elif sub == "extract":
            self._check_extract(argv[1], data, fam)
        elif sub == "skeleton" and data["found"]:
            check_skeleton_result(fam, data["skeleton"], data["supported"])
            chi, _ = chromatic_number(intersection_graph(fam.subfamily(data["supported"])))
            require(data["chi"] == chi, f"skeleton chi {data['chi']} != {chi}")
        return {"stdout": proc.stdout}, {"curves": len(fam)}

    @staticmethod
    def _check_extract(procedure, report, fam):
        """The report of ``extract PROCEDURE`` that exited 0, checked as the
        in-process workload checks it."""
        outcome = report["outcome"]
        if procedure in ("mcguinness", "bfs"):
            require(outcome == "structure-found", f"extract {procedure}: {outcome}")
        else:
            require(outcome in ("structure-found", "step-failure"),
                    f"extract {procedure}: bad outcome {outcome}")
        if outcome == "step-failure":
            require(report["failure"] is not None and report["result"] is None,
                    "step-failure report without its failure")
            return
        {"mcguinness": check_mcguinness_result, "bfs": check_bfs_result,
         "bracket-system": check_bracket_result,
         "clique-system": check_clique_result}[procedure](fam, report["result"])


WORKLOADS = {w.name: w for w in (Arrangement, Extraction, Coloring, Cli)}
