"""The dpdecomp benchmark: one seeded workload, end-to-end or traced.

    python3 perfbench/run.py --workload solve-large --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout.  Workloads (see BENCHMARK.json and
gen.py): solve-large, battery-split, battery-refute, cli-files.

Each op is one closed-loop call by a single client: an in-process library
call in a worker process, or for cli-files one ``python -m dpdecomp.cli``
child of the worker.  The worker runs whole passes (rounds) over the seed's
op list until --seconds have gone by, so every run weighs the slots alike.
Without tracing, round r runs variant (v + r) mod VARIANTS of a slot whose
seeded variant is v, so a run averages over inputs of the same sizes; a
traced run repeats the seeded round, so its exact counts repeat per round.
Every op's output is checked against golden.json; this process enforces a
deadline per op by killing the worker, which counts the op as failed.

Every time metric is in seconds at nominal machine speed: each op's wall
time is scaled by speed.NOMINAL_S over the time of a fixed probe task run
right before and after it (see speed.py); raw times stay in the run record.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced rounds and prints the per-layer metrics.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  Spans, the
per-op record and the environment go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
OUT = ".perfbench_out"

WORKLOADS = ("solve-large", "battery-split", "battery-refute", "cli-files")
SETUPS = 5               # set-ups per run; setup_s is their median
OP_DEADLINE_S = 30.0     # an op still running after this is killed and fails
SETUP_DEADLINE_S = 60.0
STOP_FACTOR = 2.5        # start no op after STOP_FACTOR * --seconds ...
STOP_MIN_S = 40.0        # ... or after this, whichever is later
TAIL_MIN_BEYOND = 10     # a tail percentile keeps at least this many samples above it
IMPORT_PROBES = 5


class WorkerDied(Exception):
    pass


class Worker:
    """One worker process and its JSON-line channel."""

    def __init__(self, workload: str, seed: int, files: str, log, *, setup_only=False,
                 spans: str | None = None):
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
               "--seed", str(seed), "--files", files]
        if spans:
            cmd += ["--spans", spans]
        if setup_only:
            cmd.append("--setup-only")
        before = speed.probe()
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=log,
                                     start_new_session=True)
        self._buf = b""
        self.ready = self.read(SETUP_DEADLINE_S)
        raw = time.perf_counter() - start
        self.setup_s = raw * speed.NOMINAL_S / ((before + speed.probe()) / 2)

    def read(self, timeout: float) -> dict:
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            left = deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError
            ready, _, _ = select.select([fd], [], [], left)
            if ready:
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    raise WorkerDied(f"worker exited with code {self.proc.wait()}")
                self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return json.loads(line)

    def ask(self, cmd: dict, timeout: float) -> dict:
        self.proc.stdin.write((json.dumps(cmd) + "\n").encode())
        self.proc.stdin.flush()
        return self.read(timeout)

    def kill(self) -> None:
        if self.proc.poll() is None:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.close()

    def close(self) -> None:
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass
        self.proc.wait()


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def tail_percentile(n: int) -> int:
    """p75 when at least TAIL_MIN_BEYOND samples lie beyond it, else p50.

    The ladder stops at p75 so that a faster program, which fits more
    samples into a run, is still compared at the same percentile."""
    return 75 if n * 0.25 >= TAIL_MIN_BEYOND else 50


def tree_sha256(*dirs: str) -> str:
    h = hashlib.sha256()
    for d in dirs:
        for base, subdirs, files in os.walk(os.path.join(ROOT, d)):
            subdirs[:] = sorted(s for s in subdirs if s != "__pycache__")
            for name in sorted(files):
                if name.endswith((".py", ".json")):
                    path = os.path.join(base, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()


def environment() -> dict:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "absent"
    commit = "unknown (not a git checkout)"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            path = os.path.join(ROOT, ".git", ref[5:])
            commit = open(path, encoding="utf-8").read().strip() if os.path.exists(path) else ref
        else:
            commit = ref
    return {"commit": commit, "src_sha256": tree_sha256("src"),
            "python": platform.python_version(), "numpy": numpy,
            "nproc": os.cpu_count(), "machine": platform.machine()}


def import_seconds() -> float:
    """Median wall time of a fresh interpreter running ``import dpdecomp.cli``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    times = []
    for _ in range(IMPORT_PROBES):
        before = speed.probe()
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import dpdecomp.cli"], cwd=ROOT, env=env,
                       check=True, stdin=subprocess.DEVNULL)
        raw = time.perf_counter() - start
        times.append(raw * speed.NOMINAL_S / ((before + speed.probe()) / 2))
    return statistics.median(times)


def run_rounds(args, worker_args: dict, log, n_ops: int, worker: Worker,
               setups: list[float]):
    """Closed loop over whole rounds.  Returns (rounds, failures, workers' RSS).

    Without tracing, one more set-up is timed after each round until there
    are SETUPS of them, so that setup_s samples the whole run."""
    rounds: list[dict] = []
    failures: list[dict] = []
    rss: list[float] = []
    start = time.perf_counter()
    stop_at = start + max(STOP_FACTOR * args.seconds, STOP_MIN_S)
    traced = False
    while True:
        results = []
        for k in range(n_ops):
            if time.perf_counter() > stop_at:
                break
            try:
                reply = worker.ask({"cmd": "op", "k": k, "traced": traced,
                                    "shift": 0 if args.trace else len(rounds)}, OP_DEADLINE_S)
            except (TimeoutError, WorkerDied) as exc:
                worker.kill()
                reply = {"k": k, "ok": False,
                         "error": f"missed the {OP_DEADLINE_S:.0f} s deadline"
                         if isinstance(exc, TimeoutError) else str(exc)}
                worker = Worker(**worker_args, log=log)
            if "probe_s" in reply:
                reply["scale"] = speed.NOMINAL_S / reply["probe_s"]
            results.append(reply)
            if not reply["ok"]:
                failures.append(reply)
        rounds.append({"traced": traced, "results": results, "complete": len(results) == n_ops})
        if not args.trace and len(setups) < SETUPS:
            setups.append(time_setup(worker_args, log))
        elapsed = time.perf_counter() - start
        kinds = {r["traced"] for r in rounds if r["complete"]}
        enough = kinds == ({False, True} if args.trace else {False})
        if (elapsed >= args.seconds and enough) or time.perf_counter() > stop_at:
            break
        if args.trace:
            traced = not traced
    rss.append(worker.ask({"cmd": "finish"}, SETUP_DEADLINE_S)["peak_rss_mb"])
    worker.close()
    while not args.trace and len(setups) < SETUPS:
        setups.append(time_setup(worker_args, log))
    return rounds, failures, rss


def time_setup(worker_args: dict, log) -> float:
    """Seconds from starting a worker to its set-up being done."""
    worker = Worker(**worker_args, log=log, setup_only=True)
    worker.close()
    return worker.setup_s


def end_to_end(rounds: list[dict], setups: list[float], rss: list[float], ops: list[dict],
               attempted: int, failed: int) -> tuple[dict, str]:
    done = [r for rnd in rounds for r in rnd["results"] if r["ok"]]
    walls = sorted(r["wall"] * r["scale"] for r in done)
    states = sum(ops[r["k"]]["states"] for r in done)
    q = tail_percentile(len(walls))
    metrics = {
        "op_s.p50": (percentile(walls, 0.5), "s"),
        "op_s.tail": (percentile(walls, q / 100), "s"),
        "states_per_s": (states / sum(walls), "1/s"),
        "peak_rss_mb": (max(rss), "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "setup_s": (statistics.median(setups), "s"),
    }
    note = (f"op_s.tail is p{q} over {len(walls)} samples "
            f"({len(walls) - math.ceil(q / 100 * len(walls))} beyond it); "
            f"fail_ratio = {failed}/{attempted}")
    return metrics, note


def per_layer(rounds: list[dict], ops: list[dict], import_s: float | None
              ) -> tuple[dict, dict, list[str]]:
    """Per-round per-layer metrics from the traced rounds.

    Returns (metrics, report-only layer times, count mismatches)."""
    traced = [r for r in rounds if r["traced"] and r["complete"]]
    plain = [r for r in rounds if not r["traced"] and r["complete"]]
    n = len(traced)
    layers: dict[str, float] = {}   # self seconds per round
    totals: dict[str, float] = {}   # inclusive seconds per round
    for rnd in traced:
        for r in rnd["results"]:
            for name, (own, total) in r.get("layers", {}).items():
                layers[name] = layers.get(name, 0.0) + own * r["scale"] / n
                totals[name] = totals.get(name, 0.0) + total * r["scale"] / n

    # exact counts of one round, which every traced round must repeat
    per_op = [{r["k"]: (r["counts"], r["facts"]) for r in rnd["results"] if r["ok"]}
              for rnd in traced]
    exact = lambda counts: {key: v for key, v in counts.items() if isinstance(v, int)}
    mismatches = []
    for other in per_op[1:]:
        for k, (counts, facts) in other.items():
            base_counts, base_facts = per_op[0].get(k, (counts, facts))
            if exact(counts) != exact(base_counts) or facts != base_facts:
                mismatches.append(f"op {k} ({ops[k]['slot']}) counts changed between rounds")
    first = per_op[0]
    c = [first[k][0] for k in sorted(first)]
    f = [first[k][1] for k in sorted(first)]
    solve_s = sum(r["counts"]["solve_s"] * r["scale"] for rnd in traced
                  for r in rnd["results"] if r["ok"]) / n
    fits = [x["int64_fit"] for x in f if "int64_fit" in x]
    batteries = [x for x in f if "additive" in x]

    def share(values):
        return sum(values) / len(values) if values else 0.0

    wall = lambda rnd: sum(r["wall"] * r["scale"] for r in rnd["results"] if r["ok"])
    metrics = {
        "dp.transitions.s": (layers.get("dp.transitions", 0.0), "s"),
        "dp.transitions.mb": (max((x["transitions_mb"] for x in c), default=0.0), "MB"),
        "dp.solve_finite.s": (layers.get("dp.solve_finite", 0.0), "s"),
        "dp.solve_discounted_pi.s": (layers.get("dp.solve_discounted_pi", 0.0), "s"),
        "dp.pairs": (sum(x["pairs"] for x in c), "count"),
        "dp.stages": (sum(x["stages"] for x in c), "count"),
        "dp.pair_stages_per_s": (sum(x["pair_stages"] for x in c) / solve_s if solve_s else 0.0,
                                 "1/s"),
        "dp.value_den_bits.max": (max((x["den_bits"] for x in c), default=0), "count"),
        "dp.int64_fit_share": (share(fits), "ratio"),
        "subproblems.sub_pairs": (sum(x["sub_pairs"] for x in c), "count"),
        "checks.additive_share": (share([x["additive"] for x in batteries]), "ratio"),
        "checks.witness_share": (share([x["witness"] for x in batteries]), "ratio"),
        "instancefile.doc_bytes": (sum(x.get("doc_bytes", 0) for x in f), "count"),
        "cli.stdout_bytes": (sum(x.get("stdout_bytes", 0) for x in f), "count"),
        "trace.overhead_s": (statistics.fmean(wall(r) for r in traced)
                             - statistics.fmean(wall(r) for r in plain), "s"),
    }
    report = {f"{name}.s": (layers[name], totals[name]) for name in sorted(layers)}
    if "checks.run_battery" in layers:
        # run_battery's self time: its private _assert_* theorem checks and glue
        report["checks.asserts_s"] = (layers["checks.run_battery"], None)
    if import_s is not None:
        report["cli.import_s"] = (import_s, None)
        report["cli.process_s"] = (None, statistics.fmean(wall(r) for r in traced))
        report["cli.overhead_s"] = (statistics.fmean(
            sum((r["wall"] - r["replay_s"]) * r["scale"] for r in rnd["results"] if r["ok"])
            for rnd in traced), None)
    return metrics, report, mismatches


def check_counts_repeat(workload: str, seed: int, metrics: dict) -> str | None:
    """Compare this run's exact counts with an earlier run of the same seed
    and the same code (program and benchmark), kept in .perfbench_out/counts/."""
    counts = {k: v for k, (v, unit) in metrics.items() if unit in ("count", "ratio")}
    code = tree_sha256("src", os.path.relpath(HERE, ROOT))[:16]
    path = os.path.join(ROOT, OUT, "counts", f"{workload}-seed{seed}-{code}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            before = json.load(fh)
        if before != counts:
            return f"exact counts differ from an earlier run of this seed: {before} vs {counts}"
        return None
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(counts, fh, sort_keys=True)
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "dpdecomp", "__init__.py")):
        print("error: run from the root of a dpdecomp checkout (src/dpdecomp missing)",
              file=sys.stderr)
        return 2
    # One CPU for this process and everything it starts, so that the speed
    # probe and the op it scales (an in-process call or a CLI child) run on
    # the same CPU; the two CPUs of a shared host can run at different speeds.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    os.makedirs(os.path.join(ROOT, OUT), exist_ok=True)
    files = os.path.join(OUT, f"files-{args.workload}-seed{args.seed}")
    env = environment()

    with open(os.path.join(ROOT, OUT, f"worker-{tag}.log"), "w") as log:
        worker_args = {"workload": args.workload, "seed": args.seed, "files": files,
                       "spans": os.path.join(OUT, f"spans-{tag}.json") if args.trace else None}
        try:
            worker = Worker(**worker_args, log=log)
            setups = [worker.setup_s]
            ops = worker.ready["ops"]
            rounds, failures, rss = run_rounds(args, worker_args, log, len(ops), worker,
                                               setups)
        except (TimeoutError, WorkerDied) as exc:
            print(f"error: worker failed outside an op ({exc}); see {log.name}",
                  file=sys.stderr)
            return 1

    attempted = sum(len(r["results"]) for r in rounds)
    failed = len(failures)
    problems = [f"op {r['k']} ({ops[r['k']]['slot']}): {r['error'].strip()}" for r in failures]
    measured = ({r["traced"] for r in rounds if r["complete"]} == {False, True} if args.trace
                else failed < attempted)
    if not measured:
        print(f"error: no complete measurement before the stop time; first problems: "
              f"{problems[:3]}", file=sys.stderr)
        return 1
    if args.trace:
        import_s = import_seconds() if args.workload == "cli-files" else None
        metrics, report, mismatches = per_layer(rounds, ops, import_s)
        problems += mismatches
        repeat = check_counts_repeat(args.workload, args.seed, metrics)
        if repeat:
            problems.append(repeat)
        note = "per-layer seconds and counts are per round (one pass over the op list)"
    else:
        metrics, note = end_to_end(rounds, setups, rss, ops, attempted, failed)
        report = {}
    correct = not problems

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, "ops": ops, "setups_s": setups, "rounds": rounds,
              "metrics": {k: v for k, (v, _) in metrics.items()}, "layers": report,
              "problems": problems}
    with open(os.path.join(ROOT, OUT, f"run-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"{args.workload} seed {args.seed}: {len(ops)} ops per round, "
          f"{len(rounds)} rounds, {attempted} ops attempted, {failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    if report:
        print(f"  {'per-layer seconds per round':40s} {'self':>10s} {'total':>10s}")
    for name, pair in report.items():
        own, total = (f"{v:10.4f}" if v is not None else f"{'':10s}" for v in pair)
        print(f"  {name:40s} {own} {total}")
    print(f"  ({note})")
    for problem in problems:
        print(f"FAILED: {problem}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
