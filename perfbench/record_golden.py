"""Record golden.json: the digest of every op any seed can produce.

Run once, from the root of a checkout of the commit whose outputs are the
reference, with ``python3 perfbench/record_golden.py``.  It runs every
variant of every slot of every workload once (a few minutes).  For the
``verify`` ops of cli-files it first records the ``check --json`` report the
op re-verifies, since that report is part of the op's input.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import ops  # noqa: E402

FILES = os.path.join(".perfbench_out", "golden-files")


def main() -> int:
    os.makedirs(os.path.join(ROOT, FILES), exist_ok=True)
    golden: dict = {}
    for workload, slots in gen.WORKLOAD_SLOTS.items():
        golden[workload] = {}
        for slot, (name, spec) in enumerate(slots):
            entries = []
            for variant in range(gen.VARIANTS):
                entry: dict = {}
                if spec.get("command") == "verify":
                    check = ops.Op(workload, slot, variant, {"report": {}}, ROOT, FILES)
                    check.argv = ["check", check.argv[1], "--json"]
                    code, stdout = check.call()
                    if code != 0:
                        raise SystemExit(f"{name} v{variant}: check exited {code}")
                    entry["report"] = json.loads(stdout)
                op = ops.Op(workload, slot, variant, entry, ROOT, FILES)
                out = op.call()
                entry["digest"] = op.digest(out)
                if workload == "cli-files":
                    entry["exit"] = out[0]
                entries.append(entry)
                print(workload, name, variant, entry.get("exit", ""), flush=True)
            golden[workload][name] = entries
    with open(os.path.join(HERE, "golden.json"), "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
