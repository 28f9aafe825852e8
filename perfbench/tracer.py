"""Spans around calls into dpdecomp's public functions, recorded from outside.

The tracer replaces module attributes (and two methods) with wrappers that
record a span per call: name, start, end, parent span and op id.  Every
module that imported the function under its own name is patched too, so a
call made inside the library (run_battery calling build_bundle, say) opens a
child span of the caller's span.  Spans stay in memory until the run writes
them out.  Nothing under src/ changes; uninstall() restores every attribute.
"""

from __future__ import annotations

import functools
import sys
import time
from types import ModuleType

# (defining module, function name); spans are named "<module>.<function>".
FUNCTIONS = [
    ("dp", "solve_finite"),
    ("dp", "solve_discounted_pi"),
    ("dp", "solve_discounted_vi"),
    ("dp", "evaluate_stationary_policy"),
    ("dp", "is_in_Gs"),
    ("subproblems", "build_bundle"),
    ("subproblems", "solve_bundle"),
    ("subproblems", "lift_policy"),
    ("checks", "run_battery"),
    ("checks", "verify_witnesses"),
    ("checks", "check_range_condition"),
    ("checks", "check_minimizer_condition"),
    ("checks", "check_stationary_selector"),
    ("checks", "check_additive"),
    ("checks", "check_componentwise"),
    ("checks", "check_horizon_monotone"),
    ("invariant_decomp", "primary_decomposition"),
    ("invariant_decomp", "verify_decomposition"),
    ("instancefile", "load_instance"),
    ("cli", "main"),
]

# (defining module, class name, method name); spans are "<module>.<method>".
METHODS = [
    ("dp", "DPInstance", "transitions"),
    ("subproblems", "SubproblemBundle", "component_state_tables"),
]


def _table_mb(table: list[list[int]]) -> float:
    """Memory held by a transitions table: the lists and their int objects
    (ints below 257 are shared singletons and cost nothing extra)."""
    size = sys.getsizeof(table)
    for row in table:
        size += sys.getsizeof(row)
        size += sum(28 for v in row if v > 256)
    return size / 2**20


def _den_bits(values) -> int:
    """Largest denominator bit length over every table of a ValueTable."""
    return max((v.denominator.bit_length() for table in values.per_time for v in table),
               default=0)


def _stages(tracer: "Tracer", name: str, idx: int, inst, result) -> int:
    """Bellman stages of one solve: T backward steps, the policy-iteration
    evaluations, or the value-iteration sweeps."""
    if name == "dp.solve_finite":
        return inst.horizon.T
    if name == "dp.solve_discounted_pi":
        return tracer.extra[idx].get("evaluations", 0)
    return result.iterations


class Tracer:
    """Records spans while installed; ``op`` tags every span with an op id."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.extra: list[dict] = []  # per-span facts, index-aligned with spans
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span named ``name``; returns (result, span index)."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent, self.op))
        self.extra.append({})
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op)
        return result, idx

    def note(self, idx: int, facts) -> None:
        """Attach the facts ``facts()`` computes to span ``idx``.  The work
        runs in a "trace.bookkeeping" span, so it counts as tracing cost and
        not as the enclosing layer's self time."""
        self.extra[idx].update(self.span("trace.bookkeeping", facts)[0])

    def _wrap(self, name: str, fn):
        tracer = self

        if name == "subproblems.solve_bundle":
            @functools.wraps(fn)
            def solve_bundle(bundle, family):
                result, idx = tracer.span(f"{name}.{family}", fn, bundle, family)
                p = bundle.parent.field.p
                tracer.note(idx, lambda: {"sub_pairs": sum(
                    p**sub.n * p**sub.m for sub in bundle.family(family))})
                return result
            return solve_bundle

        if name == "dp.evaluate_stationary_policy":
            # counted, not timed: policy iteration's evaluations are its stages
            @functools.wraps(fn)
            def evaluate(*args, **kwargs):
                if tracer._stack:
                    facts = tracer.extra[tracer._stack[-1]]
                    facts["evaluations"] = facts.get("evaluations", 0) + 1
                return fn(*args, **kwargs)
            return evaluate

        if name == "dp.transitions":
            @functools.wraps(fn)
            def transitions(inst):
                if inst._trans is not None:
                    return fn(inst)
                result, idx = tracer.span(name, fn, inst)
                tracer.note(idx, lambda: {"mb": _table_mb(result)})
                return result
            return transitions

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result, idx = tracer.span(name, fn, *args, **kwargs)
            if name.startswith("dp.solve_"):
                inst = args[0]
                p = inst.field.p
                values = result.values if name == "dp.solve_discounted_vi" else result[0]
                tracer.note(idx, lambda: {
                    "pairs": p**inst.n * p**inst.m,
                    "stages": _stages(tracer, name, idx, inst, result),
                    "den_bits": _den_bits(values)})
            return result
        return wrapper

    # -- installation

    def install(self) -> None:
        mods = {name: mod for name, mod in sys.modules.items()
                if name.startswith("dpdecomp") and isinstance(mod, ModuleType)}
        for modname, fname in FUNCTIONS:
            original = getattr(mods[f"dpdecomp.{modname}"], fname)
            wrapped = self._wrap(f"{modname}.{fname}", original)
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, value))
                        setattr(mod, attr, wrapped)
        for modname, cls, meth in METHODS:
            klass = getattr(mods[f"dpdecomp.{modname}"], cls)
            original = klass.__dict__[meth]
            self._saved.append((klass, meth, original))
            setattr(klass, meth, self._wrap(f"{modname}.{meth}", original))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    # -- analysis

    def layer_seconds(self, start: int = 0) -> dict[str, list[float]]:
        """[self, total] seconds per span name over spans[start:]; self time
        is a span's duration minus that of its direct children."""
        child: dict[int, float] = {}
        for _, t0, t1, parent, _ in self.spans[start:]:
            if parent >= start:
                child[parent] = child.get(parent, 0.0) + t1 - t0
        out: dict[str, list[float]] = {}
        for i, (name, t0, t1, _, _) in enumerate(self.spans[start:], start):
            acc = out.setdefault(name, [0.0, 0.0])
            acc[0] += (t1 - t0) - child.get(i, 0.0)
            acc[1] += t1 - t0
        return out

    def counts(self, start: int = 0) -> dict:
        """Exact counts (and solve seconds) over spans[start:]."""
        counts = {"pairs": 0, "stages": 0, "pair_stages": 0, "den_bits": 0,
                  "sub_pairs": 0, "solve_s": 0.0, "transitions_mb": 0.0}
        for (_, t0, t1, _, _), extra in zip(self.spans[start:], self.extra[start:]):
            if "pairs" in extra:
                counts["pairs"] += extra["pairs"]
                counts["stages"] += extra["stages"]
                counts["pair_stages"] += extra["pairs"] * extra["stages"]
                counts["den_bits"] = max(counts["den_bits"], extra["den_bits"])
                counts["solve_s"] += t1 - t0
            counts["sub_pairs"] += extra.get("sub_pairs", 0)
            counts["transitions_mb"] = max(counts["transitions_mb"], extra.get("mb", 0.0))
        return counts

    def dump(self) -> list[list]:
        return [list(s) for s in self.spans]
