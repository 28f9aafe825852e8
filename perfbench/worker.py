"""Benchmark worker: sets up one workload, then runs its ops on command.

run.py starts it and talks JSON lines with it: one command per line on
stdin, one reply per line on the original stdout (fd 1 is pointed at stderr
so that nothing else can reach the reply channel).  run.py enforces each
op's deadline by killing the worker's process group from outside.

    python3 perfbench/worker.py --workload W --seed N --files DIR [--setup-only]
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
import traceback

import gen
import speed
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()


def _reply(channel, obj) -> None:
    channel.write(json.dumps(obj) + "\n")
    channel.flush()


def run_op(op, k: int, traced: bool, tracer: Tracer) -> dict:
    reply: dict = {"k": k, "ok": False}
    start = len(tracer.spans)
    gc.collect()  # every op starts from the same collector state
    if traced:
        tracer.op = k
        tracer.install()
    try:
        before = speed.probe()
        t0 = time.perf_counter()
        out = op.call()
        reply["wall"] = time.perf_counter() - t0
        reply["probe_s"] = (before + speed.probe()) / 2
        replay = op.replay() if traced and op.workload == "cli-files" else None
    except Exception:
        reply["error"] = traceback.format_exc(limit=3)
        return reply
    finally:
        if traced:
            tracer.uninstall()
    digest = op.digest(out)
    if digest != op.golden["digest"]:
        reply["error"] = "output differs from the golden digest"
        return reply
    reply["ok"] = True
    if traced:
        reply["layers"] = tracer.layer_seconds(start)
        reply["counts"] = tracer.counts(start)
        reply["facts"] = op.facts(out)
        if replay is not None:
            seconds, code, stdout = replay
            reply["replay_s"] = seconds
            if (code, stdout) != out:
                reply["ok"] = False
                reply["error"] = "in-process replay differs from the CLI process"
    return reply


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--files", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    channel = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    sys.stdout = sys.stderr

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import ops  # imports dpdecomp

    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)[args.workload]
    os.makedirs(os.path.join(ROOT, args.files), exist_ok=True)
    slots = gen.WORKLOAD_SLOTS[args.workload]
    order = gen.plan(args.workload, args.seed)
    built: dict = {}  # slot -> its Op in use; one per slot bounds memory

    def op_at(k: int, shift: int):
        """Op k of the round, with its variant moved on by ``shift``."""
        slot, base = order[k]
        variant = (base + shift) % gen.VARIANTS
        if slot not in built or built[slot].variant != variant:
            built.pop(slot, None)
            built[slot] = ops.Op(args.workload, slot, variant,
                                 golden[slots[slot][0]][variant], ROOT, args.files)
            # Inputs outlive many ops; freezing them keeps the collector from
            # rescanning them during every op, as it would not in a process
            # serving one op.
            gc.collect()
            gc.freeze()
        return built[slot]

    first = [op_at(k, 0) for k in range(len(order))]
    _reply(channel, {"ready": True, "ops": [op.desc for op in first]})
    if args.setup_only:
        return 0

    tracer = Tracer()
    for line in sys.stdin:
        cmd = json.loads(line)
        if cmd["cmd"] == "op":
            op = op_at(cmd["k"], cmd["shift"])
            reply = run_op(op, cmd["k"], cmd["traced"], tracer)
            reply["variant"] = op.variant
            _reply(channel, reply)
        elif cmd["cmd"] == "finish":
            who = (resource.RUSAGE_CHILDREN if args.workload == "cli-files"
                   else resource.RUSAGE_SELF)
            if args.spans and tracer.spans:
                with open(os.path.join(ROOT, args.spans), "w", encoding="utf-8") as fh:
                    json.dump({"fields": ["name", "start", "end", "parent", "op"],
                               "spans": tracer.dump()}, fh)
            _reply(channel, {"peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024})
            return 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
