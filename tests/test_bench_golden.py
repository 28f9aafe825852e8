"""Golden replay of the benchmark's smallest in-process ops.

The benchmark (perfbench/) checks every op's output against a recorded
digest of its exact values, reports and witnesses (perfbench/golden.json).
This replays every variant of the smallest finite slot and of the smallest
discounted slot of the solve-large, battery-split and battery-refute
workloads through perfbench/ops.py, so a change of representation that
alters any exact value fails the unit suite and not only the benchmark.
Both perfbench files are read, never written.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
IN_PROCESS = ["solve-large", "battery-split", "battery-refute"]


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import gen
        import ops
        yield gen, ops, json.loads((PERFBENCH / "golden.json").read_text())
    finally:
        sys.path.remove(str(PERFBENCH))


def _replay_smallest(perfbench, workload, kind):
    """Every variant of the workload's smallest slot with a horizon of this
    kind ("finite" or "discounted") reproduces its golden digest."""
    gen, ops, golden = perfbench
    slots = gen.WORKLOAD_SLOTS[workload]
    slot = min((k for k in range(len(slots)) if slots[k][1]["horizon"][0] == kind),
               key=lambda k: gen.descriptor(workload, k)["states"])
    name = slots[slot][0]
    for variant in range(gen.VARIANTS):
        op = ops.Op(workload, slot, variant, golden[workload][name][variant], str(ROOT), "")
        assert op.digest(op.call()) == op.golden["digest"], f"{workload} {name} v{variant}"


@pytest.mark.parametrize("workload", IN_PROCESS)
def test_smallest_slot_matches_golden_digests(perfbench, workload):
    _replay_smallest(perfbench, workload, "finite")


@pytest.mark.parametrize("workload", IN_PROCESS)
def test_smallest_discounted_slot_matches_golden_digests(perfbench, workload):
    _replay_smallest(perfbench, workload, "discounted")
