"""Golden replay of the benchmark's smallest in-process ops.

The benchmark (perfbench/) checks every op's output against a recorded
digest of its exact values, reports and witnesses (perfbench/golden.json).
This replays every variant of the smallest finite slot and of the smallest
discounted slot of the solve-large, battery-split and battery-refute
workloads through perfbench/ops.py, so a change of representation that
alters any exact value fails the unit suite and not only the benchmark.
It also replays every variant of the cli-files check and verify slots in
this process, so a change to the report or its printing fails here too.
Both perfbench files are read, never written; the instance files the CLI
ops read are written to a temporary directory.
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


@pytest.mark.parametrize("command", ["check", "verify"])
def test_cli_slots_replay_golden_digests(perfbench, command, tmp_path, monkeypatch):
    """Every variant of the cli-files check (or verify) slots, run through
    cli.main in this process, exits and prints exactly what the CLI process
    recorded in the golden digests."""
    gen, ops, golden = perfbench
    monkeypatch.chdir(tmp_path)  # the ops name their files relative to the root
    slots = [k for k, (_, spec) in enumerate(gen.CLI_SLOTS) if spec["command"] == command]
    assert slots
    for slot in slots:
        name = gen.CLI_SLOTS[slot][0]
        for variant in range(gen.VARIANTS):
            op = ops.Op("cli-files", slot, variant, golden["cli-files"][name][variant],
                        str(tmp_path), "")
            _, code, stdout = op.replay()
            assert ops.digest_process(code, stdout) == op.golden["digest"], \
                f"cli-files {name} v{variant}"
