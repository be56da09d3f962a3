"""Benchmark of the outerstring toolkit.

Usage (from the repository root, no install needed):

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads: arrangement, extraction, coloring, cli (see perfbench/README.md).
Each is a closed loop with one client and no think time: requests run one at
a time, in cycles of fixed composition.  A run is ``--seconds`` worth of
cycles at the speed the benchmark was defined at, so a given seed always
runs the same requests.  Input set-up happens between cycles and is not part
of any request's time.  Times are reported in reference seconds (see
``speed.py``): wall time scaled by the machine's speed measured around it.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every
request of half as many cycles (at least two) twice, back to back: once as
it is and once, on a copy under fresh curve ids, with span recording on; it
prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Per-request records
(and, when traced, the spans) are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 0
IMPORT_SAMPLES = 7
# A traced run checks that the layers' self times, less the estimated cost
# of the spans, match the untraced request time within this share of it.
ACCOUNTING_TOLERANCE = 0.15
CLI_SUBCOMMANDS = ("validate", "stats", "extract", "skeleton", "generate", "render", "bounds")
EXTRACT_PROCEDURES = ("mcguinness", "bfs_supported", "find_skeleton_supported",
                      "attempt_bracket_system", "attempt_clique_system")


class RequestTimeout(BaseException):
    """Raised by the alarm in a request that ran past its timeout.  Derived
    from BaseException so that no handler in the library swallows it."""


def _on_alarm(signum, frame):
    raise RequestTimeout()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_import(module: str, env: dict, clock) -> list:
    """(import ``module``) minus (start a bare interpreter), in fresh
    interpreters, as ``(start, wall)`` timings; report their median."""
    def wall(code):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        return time.perf_counter() - t

    diffs = []
    for _ in range(IMPORT_SAMPLES):
        clock.sample()
        t = time.perf_counter()
        diffs.append((t, wall(f"import {module}") - wall("pass")))
    clock.sample()
    return diffs


def digest_of(answer, tag: str) -> str:
    text = json.dumps(answer, sort_keys=True, default=str)
    if tag:
        text = text.replace('"' + tag, '"')
    return hashlib.sha256(text.encode()).hexdigest()[:20]


class Runner:
    """Runs requests one at a time, checks them and keeps their records;
    ``correct`` turns false at the first wrong answer.  The reference task
    runs between requests, at most every ``clock.every`` seconds;
    ``finish`` gives each record its time in reference seconds."""

    def __init__(self, wl, frozen: dict, seed: int):
        self.wl = wl
        self.frozen = frozen
        self.seed = seed
        self.tracer = None
        self.correct = True
        self.clock = speed.Clock(in_process=wl.in_process)

    def execute(self, req) -> dict:
        from outerstring.errors import PreconditionFailure
        from workloads import RequestFailed, WrongAnswer

        tracer = self.tracer
        status, detail, answer, info, result = "ok", "", None, {}, None
        if tracer is not None:
            before = (dict(tracer.calls), dict(tracer.counters), dict(tracer.self_s),
                      tracer.external_overhead_s)
            tracer.request_id = req.key
            tracer.active = True
            tracer.open("request")
        # Timeouts are in reference seconds, like every reported time.
        self.wl.wall_timeout_s = self.wl.timeout_s / self.clock.recent_factor()
        if self.wl.in_process:
            signal.setitimer(signal.ITIMER_REAL, self.wl.wall_timeout_s)
        t0 = time.perf_counter()
        try:
            result = req.run()
        except RequestTimeout:
            status = "timeout"
        except PreconditionFailure as exc:
            status, answer = "precondition", {"precondition": str(exc)}
            info = {"outcome": "precondition"}
        except RequestFailed as exc:
            status, detail = "failed", str(exc)
        except Exception as exc:  # an unexpected exception is a failed request
            status, detail = "error", f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - t0
            if tracer is not None:
                tracer.close_all()
                tracer.active = False
        if status == "ok":
            try:
                answer, info = req.check(result)
            except RequestFailed as exc:
                status, detail = "failed", str(exc)
            except WrongAnswer as exc:
                status, detail = "wrong", str(exc)
            except Exception as exc:  # a check that cannot rebuild the answer
                status, detail = "wrong", f"{type(exc).__name__}: {exc}"
        digest = digest_of(answer, req.tag) if answer is not None else None
        expected = self.frozen.get(req.key)
        if digest is not None and expected is not None and digest != expected:
            status, detail = "wrong", f"digest {digest} != frozen {expected}"
        if status == "wrong":
            self.correct = False
        rec = {"key": req.key, "op": req.op, "t0": t0, "wall_s": wall, "status": status,
               "ok": status in ("ok", "precondition"), "detail": detail,
               "digest": digest, "info": info}
        if tracer is not None:
            calls, counters, self_s, external = before
            rec["traced"] = {
                "classify_calls": tracer.calls["geom.segments.classify_intersection"]
                - calls.get("geom.segments.classify_intersection", 0),
                **{k: tracer.counters[k] - counters.get(k, 0)
                   for k in ("crossings", "freespace_breakpoints", "edges", "omega", "chi")}}
            rec["self_wall_s"] = {n: v - self_s.get(n, 0.0) for n, v in tracer.self_s.items()
                                  if v != self_s.get(n, 0.0)}
            rec["spans"] = sum(v - calls.get(n, 0) for n, v in tracer.calls.items()
                               if n != "request")
            rec["child_setup_wall_s"] = tracer.external_overhead_s - external
        return rec

    def run(self, reqs) -> list:
        records = []
        for req in reqs:
            self.clock.maybe_sample()
            records.append(self.execute(req))
        return records

    def finish(self, records) -> None:
        """Set each record's ``scale`` (reference seconds per wall second)
        and ``ref_s`` (its time in reference seconds)."""
        self.clock.sample()
        for rec in records:
            rec["scale"] = self.clock.factor(rec["t0"] + rec["wall_s"] / 2)
            rec["ref_s"] = rec["wall_s"] * rec["scale"]


def tail_latency(times):
    """The highest percentile with at least ten samples beyond it."""
    xs = sorted(times)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def metric(value, unit):
    return {"value": value, "unit": unit}


def cycles_for(wl, seconds: float) -> int:
    return max(1, round(seconds / wl.nominal_cycle_s))


def timed_run(runner, wl, seconds, env, fixed_setup):
    clock = runner.clock
    imports = measure_import("outerstring", env, clock)
    records, cycle_setup = [], []
    k = cycles_for(wl, seconds)
    for cycle in range(k):
        reqs, span = clock.timed(lambda: wl.requests(wl.inputs(cycle), cycle, f"r{cycle}_"))
        cycle_setup.append(span)
        records.extend(runner.run(reqs))
    runner.finish(records)
    import_s = statistics.median(clock.ref_s(d) for d in imports)
    fixed_setup_s = clock.ref_s(fixed_setup)
    cycle_setup = [clock.ref_s(span) for span in cycle_setup]

    times = [r["ref_s"] for r in records]
    busy = sum(times)
    wall_busy = sum(r["wall_s"] for r in records)
    ok = sum(r["ok"] for r in records)
    tail, pct = tail_latency(times)
    setup_s = import_s + fixed_setup_s + statistics.median(cycle_setup)
    metrics = {
        "throughput_rps": metric(ok / busy, "1/s"),
        "latency_p50_s": metric(statistics.median(times), "s"),
        "latency_tail_s": metric(tail, "s"),
        "success_share": metric(ok / len(records), "ratio"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(peak_rss_mb(children=not wl.in_process), "MB"),
    }
    print(f"{wl.name}: {k} cycles, {len(records)} requests, {busy:.3f} reference s busy "
          f"({wall_busy:.3f} wall s; machine speed {busy / wall_busy:.3f} of the reference)")
    print(f"latency_p50_s over {len(records)} samples; latency_tail_s is p{pct:.1f} "
          f"of {len(records)} samples")
    wall_times = [r["wall_s"] for r in records]
    print(f"in wall seconds: p50 {statistics.median(wall_times):.4f}, "
          f"tail {tail_latency(wall_times)[0]:.4f}, "
          f"throughput {ok / wall_busy:.4f}/s")
    print(f"failed {len(records) - ok} of {len(records)} "
          f"(failed_share {(len(records) - ok) / len(records):.4f})")
    print(f"setup_s = import {import_s:.4f} + run set-up {fixed_setup_s:.4f} "
          f"+ median cycle set-up {statistics.median(cycle_setup):.4f} "
          f"over {len(cycle_setup)} cycles")
    return records, metrics


def traced_run(runner, wl, seconds, env):
    import spans

    clock = runner.clock
    gen, plain, traced = [], [], []
    # At least two cycles, so that every request runs traced first once and
    # untraced first once: a process that runs second on the same input
    # can be faster (bounds --k 4 by a fifth).
    ncycles = max(2, cycles_for(wl, seconds) // 2)
    for k in range(ncycles):
        base, span = clock.timed(lambda: wl.inputs(k))
        gen.append(span)
        plain.append(wl.requests(base, k, f"r{k}_"))
        traced.append(wl.requests(base, k, f"t{k}_"))

    span_cost = spans.span_cost(clock)
    tracer = spans.Tracer()
    plan = spans.install(tracer, callers=("workloads",))
    spans.uninstall(plan)
    # Each request runs untraced and traced back to back, alternating which
    # goes first, so that both see the machine at the same speed.
    untraced_records, records = [], []
    for k in range(ncycles):
        for i, pair in enumerate(zip(plain[k], traced[k])):
            for traced_pass in ((False, True) if (k + i) % 2 == 0 else (True, False)):
                if not traced_pass:
                    untraced_records += runner.run([pair[0]])
                    continue
                spans.reinstall(plan)
                runner.tracer = wl.tracer = tracer
                try:
                    records += runner.run([pair[1]])
                finally:
                    runner.tracer = wl.tracer = None
                    spans.uninstall(plan)
    imports = measure_import("outerstring.cli", env, clock)
    runner.finish(untraced_records + records)
    span_cost_s = statistics.median(clock.ref_s(c) for c in span_cost)

    def self_times(recs):
        """Self time per span name in reference seconds: each request's
        share scaled by the machine's speed around that request."""
        out = {}
        for r in recs:
            for name, value in r["self_wall_s"].items():
                out[name] = out.get(name, 0.0) + value * r["scale"]
        return out

    def by_layer(self_s):
        layers = {}
        for name, value in self_s.items():
            layer = spans.layer_of(name)
            if layer == "request" and not wl.in_process:
                # A cli request is one process: its time outside the
                # library's layers (start-up, import, argument parsing, JSON,
                # output) is the cli layer's own.
                layer = "cli"
            layers[layer] = layers.get(layer, 0.0) + value
        return layers

    S = self_times(records)
    C, K = tracer.calls, tracer.counters
    # The accounting leaves out requests that hit their timeout in either
    # pass: their time is the timeout, not work.
    timed_out = {r["key"] for r in untraced_records + records if r["status"] == "timeout"}
    U = [r for r in untraced_records if r["key"] not in timed_out]
    T = [r for r in records if r["key"] not in timed_out]
    untraced_s = sum(r["ref_s"] for r in U)
    traced_s = sum(r["ref_s"] for r in T)
    layer_self = by_layer(self_times(T))
    unattributed = layer_self.pop("request", 0.0)
    n_spans = sum(r["spans"] for r in T)
    overhead_est = n_spans * span_cost_s + sum(r["child_setup_wall_s"] * r["scale"] for r in T)
    layers_s = sum(layer_self.values())
    gap = layers_s - overhead_est - untraced_s
    accounted = abs(gap) <= ACCOUNTING_TOLERANCE * untraced_s

    def self_of(prefix):
        return sum(v for n, v in S.items() if n.startswith(prefix))

    def calls_of(prefix):
        return sum(v for n, v in C.items() if n.startswith(prefix))

    def ratio(a, b):
        return a / b if b else 0.0

    classify = C["geom.segments.classify_intersection"]
    membership = C["geom.exterior.exterior_membership"]
    builds = C["geom.exterior.FreeSpace"]
    hits, misses = K["chicache_hits"], K["chicache_misses"]
    m = {
        "geom.segments.classify_calls": metric(classify, "count"),
        "geom.segments.proper_ratio": metric(ratio(K["proper"], classify), "ratio"),
        "geom.segments.self_s": metric(self_of("geom.segments."), "s"),
        "geom.validate.calls": metric(calls_of("geom.validate."), "count"),
        "geom.validate.self_s": metric(self_of("geom.validate."), "s"),
        "geom.curveops.calls": metric(calls_of("geom.curveops."), "count"),
        "geom.curveops.self_s": metric(self_of("geom.curveops."), "s"),
        "geom.curveops.crossings": metric(K["crossings"], "count"),
        "geom.exterior.membership_calls": metric(membership, "count"),
        "geom.exterior.membership_self_s": metric(
            S.get("geom.exterior.exterior_membership", 0.0), "s"),
        "geom.exterior.freespace_builds": metric(builds, "count"),
        "geom.exterior.freespace_build_s": metric(S.get("geom.exterior.FreeSpace", 0.0), "s"),
        "geom.exterior.freespace_segments": metric(K["freespace_segments"], "count"),
        "geom.exterior.freespace_breakpoints": metric(K["freespace_breakpoints"], "count"),
        "geom.exterior.builds_per_membership": metric(ratio(builds, membership), "ratio"),
        "graph.intersection_graph.self_s": metric(S.get("graph.intersection_graph", 0.0), "s"),
        "graph.clique_number.calls": metric(C["graph.clique_number"], "count"),
        "graph.clique_number.self_s": metric(S.get("graph.clique_number", 0.0), "s"),
        "graph.chromatic_number.calls": metric(C["graph.chromatic_number"], "count"),
        "graph.chromatic_number.self_s": metric(S.get("graph.chromatic_number", 0.0), "s"),
        "graph.subgraph.self_s": metric(S.get("graph.subgraph", 0.0), "s"),
        "graph.chicache.self_s": metric(self_of("graph.chicache."), "s"),
        "graph.chicache.hit_ratio": metric(ratio(hits, hits + misses), "ratio"),
        "graph.edges": metric(K["edges"], "count"),
        "graph.omega": metric(K["omega"], "count"),
        "graph.chi": metric(K["chi"], "count"),
        "geom.curves.calls": metric(calls_of("geom.curves."), "count"),
        "geom.curves.self_s": metric(self_of("geom.curves."), "s"),
        "structures.calls": metric(calls_of("structures."), "count"),
        "structures.self_s": metric(self_of("structures."), "s"),
    }
    for proc in EXTRACT_PROCEDURES:
        m[f"extract.{proc}.self_s"] = metric(S.get(f"extract.{proc}", 0.0), "s")
    outcomes = [r["info"].get("outcome") for r in records]
    for outcome in ("structure-found", "step-failure", "precondition"):
        m[f"extract.outcome.{outcome}"] = metric(outcomes.count(outcome), "count")
    m["geom.io.loads_family.self_s"] = metric(S.get("geom.io.loads_family", 0.0), "s")
    m["bounds.explicit_chi_bound.self_s"] = metric(
        S.get("bounds.explicit_chi_bound", 0.0), "s")
    m["gen.generate_s"] = metric(sum(clock.ref_s(span) for span in gen), "s")
    m["cli.import_s"] = metric(statistics.median(clock.ref_s(d) for d in imports), "s")
    for sub in CLI_SUBCOMMANDS:
        m[f"cli.{sub}.wall_s"] = metric(
            sum(r["ref_s"] for r in untraced_records if r["op"] == sub), "s")
    m["trace.untraced_s"] = metric(untraced_s, "s")
    m["trace.traced_s"] = metric(traced_s, "s")
    m["trace.overhead_s"] = metric(traced_s - untraced_s, "s")
    m["trace.overhead_est_s"] = metric(overhead_est, "s")
    m["trace.layers_self_s"] = metric(layers_s, "s")
    m["trace.unattributed_s"] = metric(unattributed, "s")

    print(f"{wl.name}: traced {len(records)} requests over {ncycles} cycles "
          f"(times in reference seconds)")
    print(f"self time by layer (traced pass, {len(T)} requests that ended before "
          f"their timeout in both passes):")
    for layer, value in sorted(layer_self.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:16s} {value:10.4f} s")
    print(f"  {'(outside layers)':16s} {unattributed:10.4f} s")
    print(f"tracing overhead: traced {traced_s:.4f} s - untraced {untraced_s:.4f} s "
          f"= {traced_s - untraced_s:.4f} s measured; {n_spans} spans x "
          f"{span_cost_s * 1e6:.2f} us + child set-up = {overhead_est:.4f} s estimated")
    print(f"accounting: layers {layers_s:.4f} s - estimated overhead {overhead_est:.4f} s "
          f"- untraced {untraced_s:.4f} s = {gap:+.4f} s; "
          f"{'within' if accounted else 'OUTSIDE'} the tolerance of "
          f"{ACCOUNTING_TOLERANCE:.0%} of untraced ({ACCOUNTING_TOLERANCE * untraced_s:.4f} s)")
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"{wl.name}-seed{runner.seed}-spans.json")
    return untraced_records + records, records, m, accounted


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="store the answers of this run as the frozen digests "
                             "(default seed only)")
    args = parser.parse_args(argv)

    if not (SRC / "outerstring" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no outerstring package under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    env = child_env()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}\n")
        return 2
    if args.record_digests and (args.seed != DEFAULT_SEED or args.trace):
        sys.stderr.write("perfbench: --record-digests needs the default seed, untraced\n")
        return 2

    import spans
    workdir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    wl = WORKLOADS[args.workload](args.seed, workdir)
    wl.env = env
    frozen_all = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    frozen = frozen_all.get(args.workload, {}) if args.seed == DEFAULT_SEED else {}
    if args.record_digests:
        frozen = {}
    runner = Runner(wl, frozen, args.seed)
    signal.signal(signal.SIGALRM, _on_alarm)
    accounted = True
    try:
        _, fixed_setup = runner.clock.timed(wl.setup_run)
        if args.trace:
            all_records, counted, metrics, accounted = traced_run(
                runner, wl, args.seconds, env)
        else:
            all_records, metrics = timed_run(runner, wl, args.seconds, env, fixed_setup)
            counted = all_records
    except spans.TraceError as exc:
        sys.stderr.write(f"perfbench: tracing failed: {exc}\n")
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}-requests.jsonl",
              "w", encoding="utf-8") as fh:
        for rec in all_records:
            fh.write(json.dumps(rec) + "\n")
    clock = runner.clock
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}-reference.json").write_text(
        json.dumps({"times": clock.times, "refs": clock.refs}), encoding="utf-8")
    if args.record_digests:
        frozen_all[wl.name] = {r["key"]: r["digest"] for r in all_records
                               if r["ok"] and r["digest"] is not None}
        DIGESTS.write_text(json.dumps(frozen_all, indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")
    bad = [r for r in all_records if not r["ok"]]
    for r in bad:
        print(f"failed request {r['key']} ({r['op']}): {r['status']} {r['detail']}")
    failed = sum(not r["ok"] for r in counted)
    print(json.dumps({"correct": runner.correct and accounted, "attempted": len(counted),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
