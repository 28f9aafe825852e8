"""Golden replay of the benchmark's smallest in-process ops.

The benchmark (perfbench/) checks every op's output against a recorded
digest of its exact values, reports and witnesses (perfbench/golden.json).
This replays every variant of the smallest slot of the solve-large,
battery-split and battery-refute workloads through perfbench/ops.py, so a
change of representation that alters any exact value fails the unit suite
and not only the benchmark.  Both perfbench files are read, never written.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import gen
        import ops
        yield gen, ops, json.loads((PERFBENCH / "golden.json").read_text())
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("workload", ["solve-large", "battery-split", "battery-refute"])
def test_smallest_slot_matches_golden_digests(perfbench, workload):
    gen, ops, golden = perfbench
    slots = gen.WORKLOAD_SLOTS[workload]
    slot = min(range(len(slots)), key=lambda k: gen.descriptor(workload, k)["states"])
    name = slots[slot][0]
    for variant in range(gen.VARIANTS):
        op = ops.Op(workload, slot, variant, golden[workload][name][variant], str(ROOT), "")
        assert op.digest(op.call()) == op.golden["digest"], f"{workload} {name} v{variant}"
