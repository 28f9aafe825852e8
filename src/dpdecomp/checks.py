"""Decomposition verification for the two subproblem families.

Two notions of "the subproblems solve the parent problem" are decided
exhaustively and exactly:

* additive (restricted family): the parent optimal value splits as the sum
  of the restricted subproblem values, and any selection of subproblem
  optimizers sums to a parent optimizer.  Because closed-loop components
  decouple (B maps each feasible input subspace into its part), the value
  equality alone decides this; a sampled selector is still lifted and
  evaluated as a belt-and-braces oracle.
* componentwise (projected family): the parent value splits as the sum of
  projected subproblem values AND every tuple of projected optimizers is
  matched, state by state and time by time, by a parent optimizer whose
  input image has exactly those components.

Alongside the two verdicts the battery decides the cheap algebraic
sufficient conditions (the input-range splitting and its restatement on the
input space), the per-time minimizer-set condition that characterizes the
additive notion, and a set of internal consistency implications that hold
by theorem; a violated implication raises TheoremViolation because it can
only mean an implementation bug.

Verdict conventions: True / False are decisions; None means "not checked
under the requested family/horizon"; the componentwise tuple check can also
report the string "inconclusive" when the tuple count exceeds the cap,
which is never converted into a decision.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Any, Sequence

from .dp import (
    ArgminTable,
    DiscountedHorizon,
    DPInstance,
    FiniteHorizon,
    ValueTable,
    _part_sum,
    evaluate_stationary_policy,
    evaluate_time_varying,
    index_state,
    solve,
    state_index,
    value_split_defect,
)
from .errors import TheoremViolation
from .linalg import (DirectSumDecomposition, Subspace, column_space, index_map, subspace_intersect,
                     subspace_sum)
from .subproblems import SubproblemBundle, build_bundle, lift_policy, solve_bundle

DEFAULT_TUPLE_CAP = 10**6

SCHEMA_VERSION = "1.0"


@dataclass
class DecompositionReport:
    """Machine-readable outcome of the verification battery."""

    prime: int
    n: int
    m: int
    horizon: dict[str, Any]
    family: str
    range_condition: bool
    input_space_is_sum_of_parts: bool
    A_invertible: bool
    additive_holds: bool | None = None
    additive_witness: dict[str, Any] | None = None
    componentwise_holds: bool | str | None = None
    componentwise_witness: dict[str, Any] | None = None
    minimizer_condition: bool | None = None
    minimizer_witness: dict[str, Any] | None = None
    stationary_selector: bool | None = None
    stationary_selector_witness: dict[str, Any] | None = None
    hierarchy_consistent: bool | None = None
    invertible_equivalence: bool | None = None
    horizon_monotone: bool | None = None
    notes: list[str] = field(default_factory=list)
    schema_version: str = SCHEMA_VERSION

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


def report_from_dict(data: dict[str, Any]) -> DecompositionReport:
    """Rebuild a report from its dict form; a missing required field is a
    ValueError."""
    if not isinstance(data, dict):
        raise ValueError("a report must be a JSON object")
    try:
        return DecompositionReport(
            **{k: data[k] for k in data if k in DecompositionReport.__dataclass_fields__})
    except TypeError as exc:  # a required field is missing
        raise ValueError(f"malformed report: {exc}") from None


def _horizon_descriptor(inst: DPInstance) -> dict[str, Any]:
    if isinstance(inst.horizon, FiniteHorizon):
        return {"finite": {"T": inst.horizon.T}}
    return {"discounted": {"alpha": str(inst.horizon.alpha)}}


def _input_span_flags(bundle: SubproblemBundle) -> list[bool]:
    """Whether each parent input lies in the span of the feasible input
    subspaces."""
    flags = [False] * bundle.parent.num_inputs
    for u in index_map(bundle.input_span.basis_matrix()):
        flags[u] = True
    return flags


def _outside_span(flags: Sequence[bool], actions: frozenset[int]) -> bool:
    """No optimal input in `actions` lies in the span of the feasible input
    subspaces (flags from _input_span_flags)."""
    return not any(flags[u] for u in actions)


def _input_images(bundle: SubproblemBundle) -> tuple[list[list[int]], list[int]]:
    """Images in adapted coordinates (the parts' local coordinates,
    concatenated): for each part, every input through B and that part's
    projection; and every input through B itself.  Each part owns its own
    digits there, so the image of a tuple of inputs, one per part, is the
    integer sum of their images and compares directly with B u."""
    projected = []
    weight = 1
    for part, sub in zip(bundle.decomp.parts, bundle.projected):
        projected.append([weight * y for y in index_map(sub.B)])
        weight *= bundle.parent.field.p**part.dim
    return projected, index_map(bundle.decomp.change_of_basis_inv @ bundle.parent.B)


def _value_witness(bundle: SubproblemBundle, x: int, parent_table: Sequence[Fraction],
                   solutions: Sequence[tuple[ValueTable, ArgminTable]]) -> dict[str, Any]:
    """The value witness at state x: the parent value there and the sum of
    the subproblem values (time 0) at the state's components."""
    sub_tables = [sol[0].per_time[0] for sol in solutions]
    return {
        "kind": "value",
        "state": list(index_state(x, bundle.parent.field.p, bundle.parent.n)),
        "parent_value": str(parent_table[x]),
        "subproblem_sum": str(_part_sum(sub_tables, bundle.component_state_tables(), x)),
    }


def _tuple_witness(bundle: SubproblemBundle, x: int, t: int | None,
                   actions: Sequence[int], target: int) -> dict[str, Any]:
    """The tuple witness at state x and time t: one projected-optimal action
    per part whose summed image (an adapted-coordinate index, recorded as
    the ambient vector) no parent optimizer reaches."""
    inst = bundle.parent
    p = inst.field.p
    return {
        "kind": "tuple",
        "state": list(index_state(x, p, inst.n)),
        "t": t,
        "actions": [list(index_state(a, p, inst.m)) for a in actions],
        "target": list(bundle.decomp.change_of_basis.matvec(index_state(target, p, inst.n))),
    }


def _value_splits(bundle: SubproblemBundle, parent_values: ValueTable,
                  solutions: Sequence[tuple[ValueTable, ArgminTable]],
                  times: int) -> list[int | None]:
    """For t = 0..times-1: the first state where the parent value at time t
    is not the sum of the subproblem values at time t, or None when it
    splits everywhere."""
    return [value_split_defect(parent_values.per_time[t],
                               [sol[0].per_time[t] for sol in solutions],
                               bundle.component_state_tables()) for t in range(times)]


def check_range_condition(bundle: SubproblemBundle) -> tuple[bool, bool]:
    """Does the input image split part by part?  Returns that verdict and
    its input-space restatement (the feasible input subspaces sum to the
    whole input space); the two are a theorem apart, so disagreement is a
    hard error."""
    B = bundle.parent.B
    image = column_space(B)
    total = Subspace.zero(B.field, B.nrows)
    for part in bundle.decomp.parts:
        total = subspace_sum(total, subspace_intersect(image, part))
    range_condition = total == image
    input_space_is_sum = bundle.input_span.dim == bundle.parent.m
    if range_condition != input_space_is_sum:
        raise TheoremViolation(
            "range splitting and its input-space restatement disagree "
            f"({range_condition} vs {input_space_is_sum})")
    return range_condition, input_space_is_sum


def check_minimizer_condition(bundle: SubproblemBundle, argmin: ArgminTable
                              ) -> tuple[bool, dict[str, Any] | None]:
    """Finite horizon: every state and time must have some optimal input
    inside the span of the feasible input subspaces."""
    if not isinstance(bundle.parent.horizon, FiniteHorizon):
        raise ValueError("minimizer condition applies to finite horizons")
    flags = _input_span_flags(bundle)
    p = bundle.parent.field.p
    for t, row in enumerate(argmin.per_time):
        for x, actions in enumerate(row):
            if _outside_span(flags, actions):
                return False, {"state": list(index_state(x, p, bundle.parent.n)), "t": t}
    return True, None


def check_stationary_selector(bundle: SubproblemBundle, argmin: ArgminTable
                              ) -> tuple[bool, dict[str, Any] | None]:
    """Discounted: per-state search for a stationary optimal selector inside
    the span of the feasible input subspaces.  True certifies the policy
    condition; False only reports that no stationary witness exists."""
    if not isinstance(bundle.parent.horizon, DiscountedHorizon):
        raise ValueError("stationary selector applies to discounted horizons")
    flags = _input_span_flags(bundle)
    p = bundle.parent.field.p
    for x, actions in enumerate(argmin.stationary):
        if _outside_span(flags, actions):
            return False, {"state": list(index_state(x, p, bundle.parent.n))}
    return True, None


def check_additive(bundle: SubproblemBundle,
                   parent_solution: tuple[ValueTable, ArgminTable],
                   restricted_solutions: Sequence[tuple[ValueTable, ArgminTable]],
                   defect: int | None, rng: random.Random | None = None
                   ) -> tuple[bool, dict[str, Any] | None]:
    """Additive decomposition verdict: parent value equals the sum of the
    restricted subproblem values at the state's components, every state.
    `defect` is the time-0 entry of _value_splits on these tables.

    On a True verdict one random selection of subproblem optimizers is also
    lifted and evaluated exactly as a cross-check; disagreement there is an
    implementation bug, not a property of the instance.
    """
    parent_values, _ = parent_solution
    if defect is not None:
        return False, _value_witness(bundle, defect, parent_values.per_time[0],
                                     restricted_solutions)
    _spot_check_lift(bundle, parent_values, restricted_solutions,
                     rng or random.Random(0))
    return True, None


def _spot_check_lift(bundle: SubproblemBundle, parent_values: ValueTable,
                     restricted_solutions: Sequence[tuple[ValueTable, ArgminTable]],
                     rng: random.Random) -> None:
    """Lift one random tuple of subproblem-optimal selectors and evaluate it."""
    finite = isinstance(bundle.parent.horizon, FiniteHorizon)
    selections = []
    for _, sub_argmin in restricted_solutions:
        if finite:
            selections.append([
                [rng.choice(sorted(actions)) for actions in row]
                for row in sub_argmin.per_time])
        else:
            selections.append(
                [rng.choice(sorted(actions)) for actions in sub_argmin.stationary])
    law = lift_policy(bundle, "restricted", selections)
    if finite:
        achieved = evaluate_time_varying(bundle.parent, law)
        expected = parent_values.per_time[0]
    else:
        achieved = evaluate_stationary_policy(bundle.parent, law).stationary
        expected = parent_values.stationary
    if tuple(achieved) != tuple(expected):
        raise TheoremViolation(
            "a summed selection of subproblem optimizers failed to achieve "
            "the parent optimal value despite value additivity")


def check_componentwise(bundle: SubproblemBundle,
                        parent_solution: tuple[ValueTable, ArgminTable],
                        projected_solutions: Sequence[tuple[ValueTable, ArgminTable]],
                        cap: int = DEFAULT_TUPLE_CAP
                        ) -> tuple[bool | str | None, dict[str, Any] | None]:
    """Componentwise decomposition verdict for the projected family.

    Two exhaustive sub-checks: (a) the parent value must equal the sum of
    projected subproblem values at the state's components; (b) for every
    state, time, and every tuple of projected-subproblem optimal actions,
    some parent optimal input must reproduce the tuple's input image
    componentwise.  Tuples are deduplicated by their component images; if a
    single (state, time) still exceeds the cap the check returns
    "inconclusive" rather than a verdict (a concrete counterexample found
    elsewhere still decides False).
    """
    parent_values, parent_argmin = parent_solution
    defect, = _value_splits(bundle, parent_values, projected_solutions, 1)
    if defect is not None:
        return False, _value_witness(bundle, defect, parent_values.per_time[0],
                                     projected_solutions)

    comp = bundle.component_state_tables()
    images, bu_adapted = _input_images(bundle)
    finite = isinstance(bundle.parent.horizon, FiniteHorizon)
    times = range(bundle.parent.horizon.T) if finite else (None,)
    inconclusive = False
    for t in times:
        t_idx = t if t is not None else 0
        parent_row = parent_argmin.per_time[t_idx]
        # per part and local state: each distinct image, with the first
        # (smallest) optimal action that reaches it
        local: list[list[dict[int, int]]] = []
        for i, sol in enumerate(projected_solutions):
            local.append([])
            for actions in sol[1].per_time[t_idx]:
                seen: dict[int, int] = {}
                for a in sorted(actions):
                    seen.setdefault(images[i][a], a)
                local[i].append(seen)
        for x in range(bundle.parent.num_states):
            distinct = [table[c[x]] for table, c in zip(local, comp)]
            count = 1
            for seen in distinct:
                count *= len(seen)
            if count > cap:
                inconclusive = True
                continue
            achievable = {bu_adapted[u] for u in parent_row[x]}
            for combo in itertools.product(*(d.items() for d in distinct)):
                target = sum(image for image, _ in combo)
                if target not in achievable:
                    return False, _tuple_witness(bundle, x, t, [a for _, a in combo], target)
    if inconclusive:
        return "inconclusive", None
    return True, None


def check_hierarchy(additive: bool | None,
                    componentwise: bool | str | None,
                    strict: bool) -> bool | None:
    """The componentwise notion implies the additive one.  With a strictly
    positive cost that implication is a theorem, so a counterexample is an
    implementation bug; with a vanishing cost it is merely recorded."""
    if componentwise is True and additive is False:
        if strict:
            raise TheoremViolation(
                "componentwise decomposition verified but additive "
                "decomposition failed; this implication holds by theorem")
        return False
    if componentwise in (True, False) and additive in (True, False):
        return True
    return None


def check_invertible_equivalence(a_invertible: bool, range_condition: bool,
                                 additive: bool | None,
                                 strict: bool) -> bool | None:
    """With invertible dynamics and a strictly positive cost the range
    splitting is equivalent to the additive verdict (any horizon);
    disagreement is a hard error.  Vanishing costs fall outside the
    equivalence (the worked three-state example is exactly such a case:
    invertible dynamics, range splitting fails, additivity still holds), so
    no verdict is reported for them."""
    if not a_invertible or additive is None or not strict:
        return None
    if additive != range_condition:
        raise TheoremViolation(
            f"A is invertible but range condition ({range_condition}) and "
            f"additive verdict ({additive}) disagree")
    return True


def check_horizon_monotone(verdicts: Sequence[bool], strict: bool) -> bool:
    """If the additive decomposition holds at horizon T it should hold at
    every shorter horizon.  Time invariance makes the time-s tables of the
    one horizon-T solve the optimal values of the horizon T-s problem, so
    verdicts[s], the restricted value split at time s, is the horizon T-s
    verdict: once True it must stay True.  For strictly positive costs a
    violation is a hard error; for vanishing costs the downward closure is
    only reported."""
    T = len(verdicts)
    for s in range(T - 1):
        if verdicts[s] and not verdicts[s + 1]:
            if strict:
                raise TheoremViolation(
                    f"additive decomposition holds at horizon {T - s} but "
                    f"fails at shorter horizon {T - s - 1}")
            return False
    return True


def _assert_value_separability(bundle: SubproblemBundle,
                               parent_values: ValueTable,
                               restricted_solutions: Sequence[tuple[ValueTable, ArgminTable]],
                               defects: Sequence[int | None]) -> None:
    """Under the minimizer/selector condition the optimal value function
    must itself be additive across parts, and its restriction to each part
    must agree with that part's restricted subproblem value.  Both hold by
    theorem once the condition does.  Given the per-part agreement, the
    split is the restricted split already decided in `defects`; at time T
    it is the cost's own separability, which build_bundle enforces."""
    for t, parent_t in enumerate(parent_values.per_time):
        if any(list(sol[0].per_time[t]) != [parent_t[e] for e in emb]
               for sol, emb in zip(restricted_solutions, bundle.embedding_tables)):
            raise TheoremViolation(
                "restricted subproblem value disagrees with the parent value "
                "on its part although the minimizer condition holds")
    if any(x is not None for x in defects):
        raise TheoremViolation(
            "optimal value function is not additive across parts although "
            "the minimizer condition holds")


def _assert_necessity(bundle: SubproblemBundle, additive: bool | None) -> None:
    """For strictly positive costs, an additive decomposition forces the
    image of the complement input directions to meet the image of the
    dynamics only at zero.  (False for vanishing costs: the worked
    three-state example is additive with invertible dynamics and a
    nontrivial complement.)"""
    if additive is not True or not bundle.parent.cost.is_strict:
        return
    bv = column_space(bundle.parent.B @ bundle.complement.basis_matrix())
    ax = column_space(bundle.parent.A)
    if subspace_intersect(ax, bv).dim != 0:
        raise TheoremViolation(
            "additive decomposition holds but the dynamics image meets the "
            "complement input image nontrivially")


def _assert_min_over_parts(bundle: SubproblemBundle) -> None:
    """Minimizing the one-step cost from a part state over that part's
    feasible inputs already achieves the minimum over the sum of all
    feasible input subspaces: the other parts' contributions are separable,
    nonnegative, and killed by the zero input.  Needs only nonnegativity,
    a vanishing cost at zero, and separability, so it is asserted
    unconditionally."""
    inst = bundle.parent
    g = inst.cost.table
    span_inputs = inst.B @ bundle.input_span.basis_matrix()
    for part, feasible in zip(bundle.decomp.parts, bundle.input_parts):
        # entry xi + p^d eta of the map of [A E | B F] is the successor of the
        # part state E xi under the input F eta
        a_part = inst.A @ part.basis_matrix()
        under_part = index_map(a_part.hstack(inst.B @ feasible.basis_matrix()))
        under_span = index_map(a_part.hstack(span_inputs))
        step = inst.field.p**part.dim
        for xi in range(step):
            if (min(g[y] for y in under_part[xi::step])
                    != min(g[y] for y in under_span[xi::step])):
                raise TheoremViolation(
                    "one-step minimum over a part's feasible inputs differs "
                    "from the minimum over the summed feasible inputs")


def _assert_positivity_props(inst: DPInstance,
                             solution: tuple[ValueTable, ArgminTable]) -> None:
    """For strictly positive costs: the optimal value vanishes exactly at
    the zero state, and every optimizer at the zero state is a null input."""
    if not inst.cost.is_strict:
        return
    values, argmin = solution
    for table in values.per_time:
        for x, v in enumerate(table):
            if (v == 0) != (x == 0):
                raise TheoremViolation(
                    "optimal value zero set differs from the zero state "
                    "for a strictly positive cost")
    bu = index_map(inst.B)
    for row in argmin.per_time:
        for u in row[0]:
            if bu[u] != 0:
                raise TheoremViolation(
                    "an optimizer at the zero state moves the state off zero "
                    "for a strictly positive cost")


def run_battery(inst: DPInstance, decomp: DirectSumDecomposition,
                family: str = "both", cap: int = DEFAULT_TUPLE_CAP,
                seed: int = 0) -> DecompositionReport:
    """Build the subproblem bundle, solve everything the requested family
    needs, and fill a report.  family is "restricted", "projected", or
    "both"; the hierarchy implication needs both."""
    if family not in ("restricted", "projected", "both"):
        raise ValueError(f"unknown family {family!r}")
    bundle = build_bundle(inst, decomp)
    rng = random.Random(seed)
    range_condition, input_sum = check_range_condition(bundle)
    report = DecompositionReport(
        prime=inst.field.p, n=inst.n, m=inst.m,
        horizon=_horizon_descriptor(inst), family=family,
        range_condition=range_condition,
        input_space_is_sum_of_parts=input_sum,
        A_invertible=inst.A.is_invertible())

    parent_solution = solve(inst)
    finite = isinstance(inst.horizon, FiniteHorizon)
    strict = inst.cost.is_strict
    if not strict:
        report.notes.append(
            "stage cost vanishes off the zero state; assertions whose proofs "
            "need strict positivity are skipped")
    else:
        _assert_positivity_props(inst, parent_solution)
    _assert_min_over_parts(bundle)

    if family in ("restricted", "both"):
        restricted_solutions = solve_bundle(bundle, "restricted")
        if strict:
            for sub, sol in zip(bundle.restricted, restricted_solutions):
                _assert_positivity_props(sub, sol)
        if finite:
            cond, witness = check_minimizer_condition(bundle, parent_solution[1])
            report.minimizer_condition = cond
            report.minimizer_witness = witness
        else:
            cond, witness = check_stationary_selector(bundle, parent_solution[1])
            report.stationary_selector = cond
            report.stationary_selector_witness = witness
        defects = _value_splits(bundle, parent_solution[0], restricted_solutions,
                                inst.horizon.T if finite else 1)
        additive, witness = check_additive(
            bundle, parent_solution, restricted_solutions, defects[0], rng)
        report.additive_holds = additive
        report.additive_witness = witness
        if cond:
            # the condition forces value separability regardless of strictness
            _assert_value_separability(bundle, parent_solution[0], restricted_solutions,
                                       defects)
            if not additive:
                raise TheoremViolation(
                    "minimizer/selector condition holds but the additive "
                    "verdict failed")
        elif additive:
            if not finite:
                # for discounted problems the selector characterizes
                # additivity with no positivity hypothesis
                raise TheoremViolation(
                    "additive decomposition holds but no stationary selector "
                    "exists inside the summed feasible inputs")
            if strict:
                raise TheoremViolation(
                    "additive decomposition holds on a finite horizon but "
                    "the minimizer condition failed")
            report.notes.append(
                "additive holds while the minimizer condition fails; the "
                "equivalence is only guaranteed for strictly positive costs")
        _assert_necessity(bundle, additive)
        if finite:
            report.horizon_monotone = check_horizon_monotone(
                [x is None for x in defects], strict)
            if report.horizon_monotone is False:
                report.notes.append(
                    "additivity is not downward closed in the horizon here; "
                    "closure is only guaranteed for strictly positive costs")
        report.invertible_equivalence = check_invertible_equivalence(
            report.A_invertible, range_condition, additive, strict)

    if family in ("projected", "both"):
        projected_solutions = solve_bundle(bundle, "projected")
        if strict:
            for sub, sol in zip(bundle.projected, projected_solutions):
                _assert_positivity_props(sub, sol)
        componentwise, witness = check_componentwise(
            bundle, parent_solution, projected_solutions, cap)
        report.componentwise_holds = componentwise
        report.componentwise_witness = witness
        if componentwise == "inconclusive":
            report.notes.append(
                f"componentwise tuple check exceeded the cap of {cap} at some "
                "state; verdict withheld")

    if family == "both":
        report.hierarchy_consistent = check_hierarchy(
            report.additive_holds,
            report.componentwise_holds if report.componentwise_holds != "inconclusive" else None,
            strict)
        if report.hierarchy_consistent is False:
            report.notes.append(
                "componentwise holds without additive; the implication is "
                "only guaranteed for strictly positive costs")
    return report


def _witness_index(value: Any, length: int, p: int, what: str) -> int:
    """Index of a witness digit vector; anything but `length` integers in
    [0, p) is a ValueError."""
    if not (isinstance(value, (list, tuple)) and len(value) == length
            and all(type(d) is int and 0 <= d < p for d in value)):
        raise ValueError(f"witness {what} must be {length} integers in [0, {p})")
    return state_index(value, p)


def _witness_state(w: Any, inst: DPInstance) -> int:
    if not isinstance(w, dict):
        raise ValueError("a witness must be a JSON object")
    return _witness_index(w.get("state"), inst.n, inst.field.p, "state")


def _witness_time(w: dict[str, Any], inst: DPInstance) -> int:
    """Time index of a witness: an integer in [0, T) for a finite horizon,
    absent (or null) for a discounted one."""
    t = w.get("t")
    if isinstance(inst.horizon, FiniteHorizon):
        if type(t) is not int or not 0 <= t < inst.horizon.T:
            raise ValueError(f"witness t must be an integer in [0, {inst.horizon.T})")
        return t
    if t is not None:
        raise ValueError("witness t must be null for a discounted horizon")
    return 0


def _value_witness_confirmed(bundle: SubproblemBundle, w: Any,
                             parent_table: Sequence[Fraction],
                             solutions: Sequence[tuple[ValueTable, ArgminTable]]) -> bool:
    """The recorded values are the current ones at the recorded state, and
    they differ."""
    got = _value_witness(bundle, _witness_state(w, bundle.parent), parent_table, solutions)
    return (got["parent_value"] != got["subproblem_sum"]
            and got["parent_value"] == w.get("parent_value")
            and got["subproblem_sum"] == w.get("subproblem_sum"))


def _tuple_witness_confirmed(bundle: SubproblemBundle, w: dict[str, Any],
                             parent_argmin: ArgminTable) -> bool:
    """The recorded actions are optimal for their projected subproblems at
    the state's components, and no parent optimizer reaches the sum of their
    images (which must be the recorded target, when one is recorded)."""
    inst = bundle.parent
    p = inst.field.p
    x = _witness_state(w, inst)
    t_idx = _witness_time(w, inst)
    actions = w.get("actions")
    if not isinstance(actions, list) or len(actions) != bundle.r:
        raise ValueError(f"witness actions must list one input per part ({bundle.r})")
    chosen = [_witness_index(a, inst.m, p, "action") for a in actions]
    recorded = w.get("target")
    if recorded is not None:
        _witness_index(recorded, inst.n, p, "target")
    subs = solve_bundle(bundle, "projected")
    comp = bundle.component_state_tables()
    if any(a not in subs[i][1].per_time[t_idx][comp[i][x]] for i, a in enumerate(chosen)):
        return False
    images, bu_adapted = _input_images(bundle)
    target = sum(images[i][a] for i, a in enumerate(chosen))
    if target in {bu_adapted[u] for u in parent_argmin.per_time[t_idx][x]}:
        return False
    got = _tuple_witness(bundle, x, t_idx, chosen, target)
    return recorded is None or got["target"] == list(recorded)


def verify_witnesses(inst: DPInstance, decomp: DirectSumDecomposition,
                     report: DecompositionReport | dict[str, Any]) -> dict[str, bool]:
    """Re-derive every witness recorded in a report from scratch.

    Returns a map from witness field name to whether it still certifies the
    recorded failure.  An empty map means the report carries no witnesses.
    A report for another prime or other dimensions, or a malformed witness,
    raises ValueError.
    """
    if isinstance(report, dict):
        report = report_from_dict(report)
    p = inst.field.p
    if (report.prime, report.n, report.m) != (p, inst.n, inst.m):
        raise ValueError(
            f"report is for prime {report.prime!r}, n={report.n!r}, m={report.m!r}; "
            f"the instance has prime {p}, n={inst.n}, m={inst.m}")
    bundle = build_bundle(inst, decomp)
    out: dict[str, bool] = {}
    parent_values, parent_argmin = solve(inst)
    flags = _input_span_flags(bundle)

    if report.minimizer_witness is not None:
        w = report.minimizer_witness
        x = _witness_state(w, inst)
        out["minimizer_witness"] = _outside_span(
            flags, parent_argmin.per_time[_witness_time(w, inst)][x])
    if report.stationary_selector_witness is not None:
        x = _witness_state(report.stationary_selector_witness, inst)
        out["stationary_selector_witness"] = _outside_span(flags, parent_argmin.stationary[x])
    if report.additive_witness is not None:
        out["additive_witness"] = _value_witness_confirmed(
            bundle, report.additive_witness, parent_values.per_time[0],
            solve_bundle(bundle, "restricted"))
    if report.componentwise_witness is not None:
        w = report.componentwise_witness
        if not isinstance(w, dict) or w.get("kind") not in ("value", "tuple"):
            raise ValueError("componentwise witness kind must be 'value' or 'tuple'")
        if w["kind"] == "value":
            out["componentwise_witness"] = _value_witness_confirmed(
                bundle, w, parent_values.per_time[0], solve_bundle(bundle, "projected"))
        else:
            out["componentwise_witness"] = _tuple_witness_confirmed(bundle, w, parent_argmin)
    return out
