"""The ops of each workload: building program inputs, the timed call, the
golden digest of its output, and the per-op facts the traced run reports.

Import this module only after ``<checkout>/src`` is on sys.path.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import dpdecomp.checks
import dpdecomp.cli
import dpdecomp.dp as dp
from dpdecomp.fields import PrimeField
from dpdecomp.linalg import DirectSumDecomposition, MatrixFp, Subspace

import gen

INT64_LIMIT = 2**62


def _horizon(doc: dict):
    h = doc["horizon"]
    if "finite" in h:
        return dp.FiniteHorizon(h["finite"]["T"])
    return dp.DiscountedHorizon(Fraction(h["discounted"]["alpha"]))


class Inputs:
    """Program objects for one instance document, built once at set-up.

    Each op makes a fresh DPInstance from them, so the transitions table is
    built inside the op's time.
    """

    def __init__(self, doc: dict):
        p, n, m = doc["field"]["prime"], doc["dims"]["n"], doc["dims"]["m"]
        field = PrimeField(p)
        self.A = MatrixFp.from_rows(field, doc["A"], ncols=n)
        self.B = MatrixFp.from_rows(field, doc["B"], ncols=m)
        self.decomp = None
        if "decomposition" in doc:
            self.decomp = DirectSumDecomposition(
                [Subspace(field, n, [list(c) for c in zip(*part)])
                 for part in doc["decomposition"]])
        cost = doc["cost"]
        if "table" in cost:
            self.cost = dp.CostFunction(field, n, [Fraction(v) for v in cost["table"]])
        elif "separable" in cost:
            self.cost = dp.CostFunction.separable(
                self.decomp, [[Fraction(v) for v in t] for t in cost["separable"]["tables"]])
        else:
            self.cost = dp.CostFunction.indicator(
                self.decomp, [Fraction(w) for w in cost["indicator"]["weights"]])
        self.horizon = _horizon(doc)

    def instance(self):
        return dp.DPInstance(self.A, self.B, self.cost, self.horizon,
                             max_states=None, max_inputs=None)

    def int64_fit(self) -> bool | None:
        """max(g) * LCD(g) * (T+1) < 2^62 for a finite horizon, else None."""
        if not isinstance(self.horizon, dp.FiniteHorizon):
            return None
        top = max(self.cost.table) * (self.horizon.T + 1)
        lcd = 1
        for v in self.cost.table:
            lcd = math.lcm(lcd, v.denominator)
            if top * lcd >= INT64_LIMIT:
                return False
        return True


def digest_solution(solution) -> str:
    """Exact value tables at every t and the sorted argmin sets."""
    values, argmin = solution
    h = hashlib.sha256()
    for table in values.per_time:
        h.update(repr([v.numerator for v in table]).encode())
        h.update(repr([v.denominator for v in table]).encode())
    for row in argmin.per_time:
        h.update(repr([sorted(s) for s in row]).encode())
    return h.hexdigest()


def digest_json(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def digest_process(code: int, stdout: bytes) -> str:
    return hashlib.sha256(b"exit %d\n" % code + stdout).hexdigest()


class Op:
    """One (slot, variant) of a workload, ready to run."""

    def __init__(self, workload: str, slot: int, variant: int, golden: dict,
                 root: str, files: str):
        self.workload = workload
        self.slot = slot
        self.variant = variant
        self.desc = gen.descriptor(workload, slot)
        self.desc["variant"] = variant
        self.states = self.desc["states"]
        self.golden = golden
        self.root = root
        self.doc = gen.make_doc(workload, slot, variant)
        if workload == "cli-files":
            self.inputs = None
            self.argv = self._write_files(files)
        else:
            self.inputs = Inputs(self.doc)

    def _write_files(self, files: str) -> list[str]:
        base = os.path.join(files, f"{self.desc['slot']}-v{self.variant}")
        path = base + ".json"
        with open(os.path.join(self.root, path), "w", encoding="utf-8") as fh:
            json.dump(self.doc, fh)
        command = self.desc["command"]
        if command == "solve":
            return ["solve", path, "--json", "--argmin"]
        if command == "check":
            return ["check", path, "--json"]
        report = base + ".report.json"
        with open(os.path.join(self.root, report), "w", encoding="utf-8") as fh:
            json.dump(self.golden["report"], fh)
        return ["check", path, "--verify-witness", report, "--json"]

    # -- the timed call

    def call(self):
        if self.workload == "solve-large":
            inst = self.inputs.instance()
            if isinstance(inst.horizon, dp.FiniteHorizon):
                return dp.solve_finite(inst)
            return dp.solve_discounted_pi(inst)
        if self.workload == "battery-split":
            return dpdecomp.checks.run_battery(self.inputs.instance(), self.inputs.decomp,
                                               family="both")
        if self.workload == "battery-refute":
            report = dpdecomp.checks.run_battery(self.inputs.instance(), self.inputs.decomp,
                                                 family="both")
            witnesses = dpdecomp.checks.verify_witnesses(
                self.inputs.instance(), self.inputs.decomp, report)
            return report, witnesses
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        proc = subprocess.run([sys.executable, "-m", "dpdecomp.cli", *self.argv],
                              cwd=self.root, env=env, stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        return proc.returncode, proc.stdout

    def digest(self, out) -> str:
        if self.workload == "solve-large":
            return digest_solution(out)
        if self.workload == "battery-split":
            return digest_json(out.to_dict())
        if self.workload == "battery-refute":
            report, witnesses = out
            return digest_json({"report": report.to_dict(), "witnesses": witnesses})
        return digest_process(*out)

    def replay(self) -> tuple[float, int, bytes]:
        """The CLI op run in this process: (seconds, exit code, stdout)."""
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            code = dpdecomp.cli.main(self.argv)
        return time.perf_counter() - start, code, out.getvalue().encode()

    # -- facts for the traced run

    def facts(self, out) -> dict:
        facts: dict = {"states": self.states}
        inputs = self.inputs or Inputs(self.doc)
        fit = inputs.int64_fit()
        if fit is not None:
            facts["int64_fit"] = int(fit)
        if self.workload.startswith("battery-"):
            report = out[0] if self.workload == "battery-refute" else out
            facts["additive"] = int(report.additive_holds is True)
            facts["witness"] = int(any(
                getattr(report, k) is not None for k in
                ("additive_witness", "componentwise_witness", "minimizer_witness",
                 "stationary_selector_witness")))
        if self.workload == "cli-files":
            facts["doc_bytes"] = os.path.getsize(os.path.join(self.root, self.argv[1]))
            facts["stdout_bytes"] = len(out[1])
        return facts
