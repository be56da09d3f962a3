"""The benchmark's workloads reproduce the frozen answer digests of
``perfbench/digests.json``: the first cycle of ``coloring`` and
``arrangement``, and every cycle of ``extraction`` that has digests.

The digests cover every witness (cliques, colorings, crossings) and every
extraction report, so a solver change that alters a tie-break, or an
exterior-membership change that flips one verdict, fails here, not only in
a benchmark run.  Cycle 1 is used for the first two because cycle 0 of
``coloring`` adds a family on which the chi search does not finish.  The
benchmark modules are imported read-only.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
CYCLE = 1


def _bench_modules():
    """``workloads`` and ``run`` from ``perfbench/``.  Both directories hold
    an ``instances`` module; the test suite keeps its own under that name."""
    ours = sys.modules.pop("instances", None)
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("workloads"), importlib.import_module("run")
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.modules.pop("instances", None)
        if ours is not None:
            sys.modules["instances"] = ours


workloads, run = _bench_modules()
FROZEN = json.loads((PERFBENCH / "digests.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name,count", [("coloring", 6), ("arrangement", 3)])
def test_cycle_matches_frozen_digests(name, count, tmp_path):
    wl = workloads.WORKLOADS[name](0, tmp_path)
    wl.setup_run()
    requests = wl.requests(wl.inputs(CYCLE), CYCLE, f"r{CYCLE}_")
    assert len(requests) == count
    for req in requests:
        answer, _ = req.check(req.run())
        assert run.digest_of(answer, req.tag) == FROZEN[name][req.key], req.key


def test_extraction_cycles_match_frozen_digests(tmp_path):
    """Cycles 0-9 of ``extraction`` at seed 0, in one session as the
    benchmark runs them, so that the curve caches are warm as there."""
    wl = workloads.WORKLOADS["extraction"](0, tmp_path)
    wl.setup_run()
    keys = set()
    for cycle in range(10):
        for req in wl.requests(wl.inputs(cycle), cycle, f"r{cycle}_"):
            answer, _ = req.check(req.run())
            assert run.digest_of(answer, req.tag) == FROZEN["extraction"][req.key], req.key
            keys.add(req.key)
    assert keys == set(FROZEN["extraction"])
