"""Verification battery for decomposition properties.

Three fixed instances with hand-derived verdicts:

* the worked three-state instance (vanishing cost, skewed middle line):
  additive holds, the componentwise notion fails with a tuple witness;
* the same dynamics on coordinate axes with a shared input and a strict
  cost: additive holds, componentwise fails on the value level;
* a discounted instance whose only route to the origin couples both
  coordinates: everything fails, with frozen witnesses.

The componentwise tuple check counts instead of listing tuples; a
differential test holds it to the enumerating oracle kept here.
"""

import dataclasses
import itertools
import json
import random
from fractions import Fraction

import pytest

from dpdecomp import checks, cli, cosets, dp, linalg, subproblems
from dpdecomp.checks import (DecompositionReport, check_componentwise, check_hierarchy,
                             check_horizon_monotone, check_invertible_equivalence,
                             report_from_dict, run_battery, verify_witnesses)
from dpdecomp.dp import (CostFunction, DiscountedHorizon, DPInstance,
                         FiniteHorizon, solve)
from dpdecomp.errors import TheoremViolation
from dpdecomp.fields import PrimeField
from dpdecomp.linalg import DirectSumDecomposition, MatrixFp, Subspace
from dpdecomp.subproblems import build_bundle, solve_bundle

from test_acceptance import (rand_B, rand_forced_B, rand_invertible, rand_matrix,
                             rand_split_system)
from test_cli import worked_doc
from test_subproblems import make_axes_parent, make_parent

F3 = PrimeField(3)
HALF = Fraction(1, 2)


def make_coupled_discounted():
    """x' = x + u (1,1) over GF(3)^2: the input moves both coordinates in
    lockstep, so zeroing one coordinate at a time is impossible."""
    A = MatrixFp.identity(F3, 2)
    B = MatrixFp.from_rows(F3, [[1], [1]])
    parts = [Subspace(F3, 2, [(1, 0)]), Subspace(F3, 2, [(0, 1)])]
    decomp = DirectSumDecomposition(parts)
    cost = CostFunction.indicator(decomp, [Fraction(1), Fraction(1)])
    inst = DPInstance(A, B, cost, DiscountedHorizon(HALF))
    return inst, decomp


# === worked instance, vanishing cost ===

def test_worked_instance_report():
    inst, decomp = make_parent(FiniteHorizon(1))
    report = run_battery(inst, decomp)
    assert report.prime == 3 and report.n == 3 and report.m == 2
    assert report.horizon == {"finite": {"T": 1}}
    assert report.range_condition is False
    assert report.input_space_is_sum_of_parts is False
    assert report.A_invertible is True
    assert report.additive_holds is True
    assert report.additive_witness is None
    assert report.minimizer_condition is True
    assert report.minimizer_witness is None
    assert report.stationary_selector is None
    assert report.componentwise_holds is False
    assert report.componentwise_witness == {
        "kind": "tuple",
        "state": [0, 0, 0],
        "t": 0,
        "actions": [[0, 0], [0, 0], [0, 1]],
        "target": [0, 0, 1],
    }
    assert report.hierarchy_consistent is True
    assert report.invertible_equivalence is None  # cost is not strict
    assert report.horizon_monotone is True
    assert any("strict positivity" in note for note in report.notes)


def test_worked_instance_discounted_report():
    inst, decomp = make_parent(DiscountedHorizon(HALF))
    report = run_battery(inst, decomp)
    assert report.horizon == {"discounted": {"alpha": "1/2"}}
    assert report.stationary_selector is True
    assert report.minimizer_condition is None
    assert report.additive_holds is True
    assert report.componentwise_holds is False
    assert report.componentwise_witness["kind"] == "tuple"
    assert report.componentwise_witness["t"] is None
    assert report.horizon_monotone is None


# === axes instance, strict cost ===

def test_axes_instance_report():
    inst, decomp = make_axes_parent(FiniteHorizon(1))
    report = run_battery(inst, decomp)
    assert report.range_condition is False
    assert report.A_invertible is False
    assert report.minimizer_condition is True
    assert report.additive_holds is True
    assert report.componentwise_holds is False
    # the first scanned state with a nonzero middle coordinate splits the
    # values: parent pays the unavoidable spillover, the parts do not
    assert report.componentwise_witness == {
        "kind": "value",
        "state": [0, 1, 0],
        "parent_value": "2",
        "subproblem_sum": "1",
    }
    assert report.hierarchy_consistent is True
    assert report.invertible_equivalence is None  # A is singular
    assert report.notes == []


# === coupled discounted instance, everything fails ===

def test_coupled_discounted_report():
    inst, decomp = make_coupled_discounted()
    report = run_battery(inst, decomp)
    assert report.range_condition is False
    assert report.input_space_is_sum_of_parts is False
    assert report.A_invertible is True
    assert report.stationary_selector is False
    assert report.stationary_selector_witness == {"state": [1, 1]}
    assert report.additive_holds is False
    assert report.additive_witness == {
        "kind": "value",
        "state": [1, 1],
        "parent_value": "2",
        "subproblem_sum": "4",
    }
    assert report.componentwise_holds is False
    assert report.componentwise_witness == {
        "kind": "value",
        "state": [1, 0],
        "parent_value": "2",
        "subproblem_sum": "1",
    }
    assert report.hierarchy_consistent is True
    assert report.invertible_equivalence is True
    assert report.horizon_monotone is None


def test_discounted_selector_matches_additive():
    # for discounted problems the selector condition characterizes
    # additivity outright, so the two verdicts must always agree
    for inst, decomp in (make_parent(DiscountedHorizon(HALF)),
                         make_coupled_discounted()):
        report = run_battery(inst, decomp, family="restricted")
        assert report.stationary_selector == report.additive_holds


# === witnesses round-trip ===

def test_verify_witnesses_confirms():
    for maker in (lambda: make_parent(FiniteHorizon(1)),
                  lambda: make_axes_parent(FiniteHorizon(1)),
                  make_coupled_discounted):
        inst, decomp = maker()
        report = run_battery(inst, decomp)
        results = verify_witnesses(inst, decomp, report)
        assert results
        assert all(results.values())


def test_verify_witnesses_rejects_tampering():
    inst, decomp = make_coupled_discounted()
    report = run_battery(inst, decomp)
    data = report.to_dict()
    data["additive_witness"]["parent_value"] = "3"
    results = verify_witnesses(inst, decomp, report_from_dict(data))
    assert results["additive_witness"] is False
    data2 = run_battery(inst, decomp).to_dict()
    data2["stationary_selector_witness"]["state"] = [0, 0]
    results = verify_witnesses(inst, decomp, report_from_dict(data2))
    assert results["stationary_selector_witness"] is False


def make_decoupled(horizon=FiniteHorizon(2)):
    """x' = x + u over GF(3)^2 with a strict indicator cost on the axes:
    every check passes."""
    parts = [Subspace(F3, 2, [(1, 0)]), Subspace(F3, 2, [(0, 1)])]
    decomp = DirectSumDecomposition(parts)
    cost = CostFunction.indicator(decomp, [Fraction(1), Fraction(1)])
    eye = MatrixFp.identity(F3, 2)
    return DPInstance(eye, eye, cost, horizon), decomp


def test_verify_witnesses_empty_without_failures():
    # strict, decoupled, everything passes: no witnesses recorded
    inst, decomp = make_decoupled()
    report = run_battery(inst, decomp)
    assert report.additive_holds is True
    assert report.componentwise_holds is True
    assert report.range_condition is True
    assert report.invertible_equivalence is True
    assert verify_witnesses(inst, decomp, report) == {}


def test_verify_witnesses_refuses_a_time_its_horizon_lacks():
    """A stationary-selector witness carries no time, and a minimizer
    witness's time lies in [0, T): a report that breaks either is refused."""
    inst, decomp = make_coupled_discounted()
    report = run_battery(inst, decomp)
    report.stationary_selector_witness["t"] = 0
    with pytest.raises(ValueError, match="null for a discounted horizon"):
        verify_witnesses(inst, decomp, report)
    inst, decomp = make_parent(FiniteHorizon(1))
    for t in (1, -1, None):
        report = DecompositionReport(
            prime=3, n=3, m=2, horizon=dp.horizon_json(inst.horizon), family="restricted",
            range_condition=False, input_space_is_sum_of_parts=False, A_invertible=False,
            minimizer_witness={"state": [0, 1, 0], "t": t})
        with pytest.raises(ValueError, match=r"witness t must be an integer in \[0, 1\)"):
            verify_witnesses(inst, decomp, report)


def test_verify_witnesses_refuses_a_report_for_another_horizon():
    """A report holds for its own horizon: one written at T = 2 and checked
    against the same dynamics and cost at T = 4, or discounted, is refused
    as invalid input naming both horizons (at T = 4 its additive witness,
    true at T = 2, would otherwise read as stale)."""
    inst, decomp = make_generic_refuted()
    report = run_battery(inst, decomp)
    assert all(verify_witnesses(inst, decomp, report).values())
    for horizon in (FiniteHorizon(4), DiscountedHorizon(HALF)):
        other = DPInstance(inst.A, inst.B, inst.cost, horizon)
        with pytest.raises(ValueError) as refused:
            verify_witnesses(other, decomp, report)
        assert str(refused.value) == ("report is for horizon {'finite': {'T': 2}}; the "
                                      f"instance has horizon {dp.horizon_json(horizon)!r}")


def test_cli_refuses_a_witness_report_for_another_horizon(tmp_path, capsys):
    """check --json --T 2 on a file whose horizon is T = 4, then
    check --verify-witness on the file: exit 2 with an error naming both
    horizons and no witness line; checked with --T 2 every witness is
    confirmed."""
    inst, decomp = make_generic_refuted()
    path, saved = tmp_path / "instance.json", tmp_path / "report.json"
    path.write_text(json.dumps(_instance_document(
        DPInstance(inst.A, inst.B, inst.cost, FiniteHorizon(4)), decomp)))
    assert cli.main(["check", str(path), "--json", "--T", "2"]) == 0
    saved.write_text(capsys.readouterr().out)
    assert cli.main(["check", str(path), "--verify-witness", str(saved)]) == 2
    assert capsys.readouterr() == ("", "error: report is for horizon {'finite': {'T': 2}}; "
                                       "the instance has horizon {'finite': {'T': 4}}\n")
    assert cli.main(["check", str(path), "--T", "2", "--verify-witness", str(saved)]) == 0
    assert capsys.readouterr().out.count("confirmed") == 3


def test_horizon_checks_refuse_the_other_horizon():
    for horizon, check in ((DiscountedHorizon(HALF), checks.check_minimizer_condition),
                           (FiniteHorizon(1), checks.check_stationary_selector)):
        inst, decomp = make_parent(horizon)
        with pytest.raises(ValueError, match="applies to"):
            check(build_bundle(inst, decomp), solve(inst)[1])


def _instance_document(inst, decomp):
    def rows(M):
        return [list(M.row(i)) for i in range(M.nrows)]
    return {"field": {"prime": inst.field.p}, "dims": {"n": inst.n, "m": inst.m},
            "A": rows(inst.A), "B": rows(inst.B),
            "decomposition": [rows(part.basis_matrix()) for part in decomp.parts],
            "cost": {"table": [str(v) for v in inst.cost.table], "allow_vanishing": True},
            "horizon": dp.horizon_json(inst.horizon)}


def test_cli_witness_round_trip_on_seeded_batteries(tmp_path, capsys):
    """check --json, then check --verify-witness on the saved report: every
    witness is confirmed.  A copy with one witness changed exits 2 and names
    that witness FAILED: a value witness's parent value, a tuple witness's
    target, or a minimizer or selector witness's state, moved to the zero
    state, where the zero input is optimal and inside every span."""
    path, saved = tmp_path / "instance.json", tmp_path / "report.json"
    tampered = set()
    rng = random.Random(2020)
    for _ in range(40):
        inst, decomp = random_battery(rng)
        path.write_text(json.dumps(_instance_document(inst, decomp)))
        assert cli.main(["check", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        names = [name for name in report if name.endswith("_witness") and report[name]]
        saved.write_text(json.dumps(report))
        assert cli.main(["check", str(path), "--verify-witness", str(saved)]) == 0
        out = capsys.readouterr().out
        assert all(f"witness {name}: confirmed" in out for name in names)
        for name in names:
            changed = json.loads(json.dumps(report))
            w = changed[name]
            if w.get("kind") == "value":
                w["parent_value"] = str(Fraction(w["parent_value"]) + 1)
            elif w.get("kind") == "tuple":
                w["target"][0] = (w["target"][0] + 1) % inst.field.p
            else:
                w["state"] = [0] * inst.n
            saved.write_text(json.dumps(changed))
            assert cli.main(["check", str(path), "--verify-witness", str(saved)]) == 2
            out = capsys.readouterr().out
            assert f"witness {name}: FAILED" in out
            assert out.count("FAILED") == 1
            tampered.add((next(iter(report["horizon"])), w.get("kind", name)))
    assert {("finite", "tuple"), ("finite", "minimizer_witness"),
            ("discounted", "stationary_selector_witness")} <= tampered
    assert "value" in {kind for _, kind in tampered}


# === report plumbing ===

def test_report_round_trip_and_determinism():
    inst, decomp = make_parent(FiniteHorizon(1))
    r1 = run_battery(inst, decomp)
    r2 = run_battery(inst, decomp)
    assert r1.to_dict() == r2.to_dict()
    assert report_from_dict(r1.to_dict()) == r1
    extra = dict(r1.to_dict(), unknown_key=1)
    assert report_from_dict(extra) == r1


def test_run_battery_rejects_unknown_family():
    inst, decomp = make_parent(FiniteHorizon(1))
    with pytest.raises(ValueError):
        run_battery(inst, decomp, family="exact")


def test_family_restricted_skips_projected_fields():
    inst, decomp = make_parent(FiniteHorizon(1))
    report = run_battery(inst, decomp, family="restricted")
    assert report.componentwise_holds is None
    assert report.hierarchy_consistent is None
    assert report.additive_holds is True
    report_p = run_battery(inst, decomp, family="projected")
    assert report_p.additive_holds is None
    assert report_p.componentwise_holds is False


def test_componentwise_always_decides_and_check_has_no_cap(tmp_path, capsys):
    """The worked instance, which a tuple cap of 1 used to leave without a
    componentwise verdict, decides False with a confirmed tuple witness;
    the cap option is gone from the command line."""
    inst, decomp = make_parent(FiniteHorizon(1))
    report = run_battery(inst, decomp)
    assert report.componentwise_holds is False
    assert report.componentwise_witness["kind"] == "tuple"
    assert report.hierarchy_consistent is True
    assert verify_witnesses(inst, decomp, report) == {"componentwise_witness": True}
    path = tmp_path / "worked.json"
    path.write_text(json.dumps(worked_doc()))
    assert cli.main(["check", str(path), "--cap", "1"]) == 2
    assert "--cap" in capsys.readouterr().err


def _projected_optima(inst, decomp, x, t):
    """Per part, the optimal projected actions at state x's component, time t."""
    bundle = build_bundle(inst, decomp)
    return [sol[1].per_time[t][comp[x]] for sol, comp in
            zip(solve_bundle(bundle, "projected"), bundle.component_state_tables())]


def test_tuple_witness_with_a_non_optimal_action_is_refused():
    """A real tuple witness with one action traded for an input that is not
    optimal for its projected subproblem there no longer verifies, whatever
    its summed image (the target is dropped, so only optimality decides)."""
    inst, decomp = make_parent(FiniteHorizon(1))
    w = run_battery(inst, decomp).componentwise_witness
    w.pop("target")
    optima = _projected_optima(inst, decomp, dp.state_index(w["state"], 3), w["t"])
    swaps = [(i, a) for i, opt in enumerate(optima) for a in range(inst.num_inputs)
             if a not in opt]
    assert swaps
    for i, a in swaps:
        actions = list(w["actions"])
        actions[i] = list(dp.index_state(a, 3, inst.m))
        report = DecompositionReport(
            prime=3, n=inst.n, m=inst.m, horizon=dp.horizon_json(inst.horizon),
            family="projected", range_condition=False, input_space_is_sum_of_parts=False,
            A_invertible=False, componentwise_holds=False,
            componentwise_witness=dict(w, actions=actions))
        assert verify_witnesses(inst, decomp, report) == {"componentwise_witness": False}


def test_tuple_of_optimal_actions_reached_by_the_parent_is_refused():
    """Where the componentwise check holds, some parent optimizer reaches the
    summed image of every tuple of optimal actions, so such a tuple grafted
    onto the report as a witness does not verify."""
    inst, decomp = make_decoupled()
    report = run_battery(inst, decomp)
    assert report.componentwise_holds is True
    for x, t in ((1, 0), (4, 0), (8, 1)):
        actions = [list(dp.index_state(min(opt), 3, inst.m))
                   for opt in _projected_optima(inst, decomp, x, t)]
        grafted = dataclasses.replace(report, componentwise_witness={
            "kind": "tuple", "state": list(dp.index_state(x, 3, inst.n)), "t": t,
            "actions": actions})
        assert verify_witnesses(inst, decomp, grafted) == {"componentwise_witness": False}


def test_vanishing_cost_notes_on_additive_without_the_minimizer_condition(tmp_path, capsys):
    """A vanishing cost on which the additive split holds although the
    minimizer condition fails, and holds at T = 2 but not at T = 1: check
    reports both and says why neither is a theorem violation."""
    path = tmp_path / "vanishing.json"
    path.write_text(json.dumps({
        "field": {"prime": 3}, "dims": {"n": 3, "m": 1},
        "A": [[2, 1, 1], [1, 2, 2], [1, 2, 2]], "B": [[0], [0], [2]],
        "decomposition": [[[1, 0], [0, 1], [2, 0]], [[1], [0], [1]]],
        "cost": {"separable": {"tables": [[0, 0, 2, 0, 0, 2, 0, 2, 2], [0, 1, 2]]},
                 "allow_vanishing": True},
        "horizon": {"finite": {"T": 2}}}))
    assert cli.main(["check", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["additive_holds"] is True
    assert report["minimizer_condition"] is False
    assert report["minimizer_witness"] == {"state": [1, 0, 0], "t": 1}
    assert report["horizon_monotone"] is False
    assert ("additive holds while the minimizer condition fails; the equivalence is only "
            "guaranteed for strictly positive costs") in report["notes"]
    assert ("additivity is not downward closed in the horizon here; closure is only "
            "guaranteed for strictly positive costs") in report["notes"]


@pytest.mark.parametrize("horizon, t", [(FiniteHorizon(3), 1), (FiniteHorizon(3), 2),
                                         (DiscountedHorizon(HALF), 0)])
def test_value_separability_assertion_catches_a_perturbed_subproblem_value(
        monkeypatch, horizon, t):
    """The minimizer/selector condition holds on the worked instance, so
    the restricted values must be the parent values on each part; raising
    one of them at time t must trip the separability assertion."""
    solve_bundle = checks.solve_bundle

    def perturbed(bundle, family):
        sols = solve_bundle(bundle, family)
        if family != "restricted":
            return sols
        values, argmin = sols[1]
        tables = [list(table) for table in values.nums]
        tables[t][1] += 1
        bumped = dataclasses.replace(values, nums=tuple(map(tuple, tables)))
        return [sols[0], (bumped, argmin)] + sols[2:]

    inst, decomp = make_parent(horizon)
    report = run_battery(inst, decomp)
    assert report.minimizer_condition or report.stationary_selector
    monkeypatch.setattr(checks, "solve_bundle", perturbed)
    with pytest.raises(TheoremViolation):
        run_battery(inst, decomp)


def test_battery_decides_each_restricted_value_split_once(monkeypatch):
    """One split of the cost (build_bundle), one restricted split per time,
    one projected split: T + 2 full-table scans when the condition holds."""
    calls = []
    value_split_defect = dp.value_split_defect

    def counting(*args):
        calls.append(1)
        return value_split_defect(*args)

    monkeypatch.setattr(checks, "value_split_defect", counting)
    monkeypatch.setattr(dp, "value_split_defect", counting)
    T = 4
    inst, decomp = make_parent(FiniteHorizon(T))
    report = run_battery(inst, decomp)
    assert report.minimizer_condition is True and report.horizon_monotone is True
    assert len(calls) == T + 2


def make_generic_refuted():
    """GF(2)^4 split 2 + 2 in a skewed basis, with an input map that no
    part contains: the battery refutes with three witnesses."""
    F2 = PrimeField(2)
    S = MatrixFp.from_rows(F2, [[1, 0, 1, 0], [1, 1, 0, 0], [0, 1, 1, 1], [0, 0, 1, 1]])
    decomp = DirectSumDecomposition([Subspace(F2, 4, S.cols()[:2]),
                                     Subspace(F2, 4, S.cols()[2:])])
    A = MatrixFp.from_rows(F2, [[1, 0, 1, 0], [0, 1, 1, 1], [1, 1, 0, 0], [1, 1, 1, 1]])
    B = MatrixFp.from_rows(F2, [[0, 1], [1, 0], [0, 0], [0, 1]])
    cost = CostFunction.separable(decomp, [[0, 1, 2, 1], [0, 2, 1, 3]])
    return DPInstance(A, B, cost, FiniteHorizon(2)), decomp


def test_battery_small_matrix_work_stays_bounded(monkeypatch):
    """run_battery, then verify_witnesses, on one fixed generic-B instance:
    the eliminations, MatrixFp products and MatrixFp constructions repeat
    exactly from run to run, so each is held at the count the row-level
    algebra reaches (35, 24 and 149 while eliminations, products and
    subspaces went through MatrixFp round trips; 31 eliminations while
    every restricted input map was rank-checked).  Of the argmin rows the
    solvers could build, only the parent's time-0 row, the minimizer
    witness's, is read in full (20 were built while the solvers built
    every row)."""
    counts = {"elimination": 0, "product": 0, "MatrixFp": 0, "argmin row": 0}

    def counting(name, f):
        def counted(*args):
            counts[name] += 1
            return f(*args)
        return counted

    elimination = counting("elimination", linalg.rref_rows)
    for module in (linalg, cosets, subproblems):
        monkeypatch.setattr(module, "rref_rows", elimination)
    monkeypatch.setattr(MatrixFp, "__matmul__", counting("product", MatrixFp.__matmul__))
    monkeypatch.setattr(MatrixFp, "__post_init__", counting("MatrixFp", MatrixFp.__post_init__))
    monkeypatch.setattr(cosets.CosetFrame, "argmin_sets",
                        counting("argmin row", cosets.CosetFrame.argmin_sets))
    inst, decomp = make_generic_refuted()
    counts.update(dict.fromkeys(counts, 0))
    report = run_battery(inst, decomp)
    assert verify_witnesses(inst, decomp, report) == {
        "minimizer_witness": True, "additive_witness": True, "componentwise_witness": True}
    assert counts["elimination"] <= 27
    assert counts["product"] == 0
    assert counts["MatrixFp"] <= 62
    assert counts["argmin row"] <= 1


def test_argmin_rows_are_built_once_and_only_when_read(monkeypatch):
    """A solver's argmin row is built on its first full read and kept, so a
    second read builds nothing; one-state reads build no row; a negative
    time reads from the last one, as for a ValueTable; and verify_witnesses
    on a report whose witnesses are value witnesses reads no minimizer set,
    so it builds no row."""
    built = []
    original = cosets.CosetFrame.argmin_sets

    def counting(frame, Jk, mins):
        built.append(Jk)
        return original(frame, Jk, mins)

    monkeypatch.setattr(cosets.CosetFrame, "argmin_sets", counting)
    inst, decomp = make_generic_refuted()
    _, argmin = solve(inst)
    singles = [argmin.inputs(x, 1) for x in range(inst.num_states)]
    assert [argmin.inputs(x, -1) for x in range(inst.num_states)] == singles
    assert built == [] and len(argmin) == 2
    row = argmin.table(1)
    assert len(built) == 1 and argmin.table(1) is row and list(row) == singles
    assert argmin.table(-1) is row and argmin.inputs(0, -1) == row[0] and len(built) == 1
    assert argmin.per_time[1] is row and len(built) == 2  # per_time built row 0 alone
    assert argmin.per_time == (argmin.table(0), row) and len(built) == 2
    report = run_battery(inst, decomp)
    value_only = dataclasses.replace(report, minimizer_witness=None)
    built.clear()
    assert verify_witnesses(inst, decomp, value_only) == {
        "additive_witness": True, "componentwise_witness": True}
    assert built == []


@pytest.mark.parametrize("horizon", [FiniteHorizon(2), DiscountedHorizon(HALF)],
                         ids=["finite", "discounted"])
def test_positivity_reads_only_rows_the_checks_built(monkeypatch, horizon):
    """A strict cost and a B that respects the parts: every check passes and
    reads every minimizer row of the parent and of both families once, so
    the positivity assertions, run last, make no one-state read."""
    counts = {"row": 0, "state": 0}

    def counting(name, f):
        def counted(*args):
            counts[name] += 1
            return f(*args)
        return counted

    monkeypatch.setattr(cosets.CosetFrame, "argmin_sets",
                        counting("row", cosets.CosetFrame.argmin_sets))
    monkeypatch.setattr(cosets.CosetFrame, "argmin_set",
                        counting("state", cosets.CosetFrame.argmin_set))
    inst, decomp = make_decoupled(horizon)
    assert inst.cost.is_strict
    report = run_battery(inst, decomp)
    assert report.additive_holds and report.componentwise_holds
    times = horizon.T if isinstance(horizon, FiniteHorizon) else 1
    assert counts == {"row": (1 + 2 * decomp.r) * times, "state": 0}


# === consistency-layer units ===

def test_check_horizon_monotone_rules():
    assert check_horizon_monotone([True, True, True], True) is True
    assert check_horizon_monotone([False, False, True], True) is True
    assert check_horizon_monotone([True, False], False) is False
    with pytest.raises(TheoremViolation):
        check_horizon_monotone([True, False], True)


def test_check_hierarchy_rules():
    assert check_hierarchy(True, True, True) is True
    assert check_hierarchy(False, False, True) is True
    assert check_hierarchy(True, False, True) is True
    assert check_hierarchy(None, True, True) is None
    assert check_hierarchy(True, None, True) is None
    assert check_hierarchy(False, True, False) is False
    with pytest.raises(TheoremViolation):
        check_hierarchy(False, True, True)


def test_check_invertible_equivalence_rules():
    assert check_invertible_equivalence(False, True, True, True) is None
    assert check_invertible_equivalence(True, True, None, True) is None
    assert check_invertible_equivalence(True, False, True, False) is None
    assert check_invertible_equivalence(True, True, True, True) is True
    assert check_invertible_equivalence(True, False, False, True) is True
    with pytest.raises(TheoremViolation):
        check_invertible_equivalence(True, False, True, True)


# === componentwise tuple check against the enumerating oracle ===

def oracle_check_componentwise(bundle, parent_solution, projected_solutions):
    """The componentwise check by listing, at every state and time, every
    tuple of projected-optimal actions (one per distinct image, smallest
    action first) until one has an image no parent optimizer reaches."""
    parent_values, parent_argmin = parent_solution
    defect, = checks._value_splits(bundle, parent_values, projected_solutions, 1)
    if defect is not None:
        return False, checks._value_witness(bundle, defect, parent_values, projected_solutions)
    comp = bundle.component_state_tables()
    images, bu_adapted, _ = checks._input_images(bundle)
    finite = isinstance(bundle.parent.horizon, FiniteHorizon)
    for t in range(bundle.parent.horizon.T) if finite else (None,):
        for x in range(bundle.parent.num_states):
            distinct = []
            for image, sol, c in zip(images, projected_solutions, comp):
                seen = {}
                for a in sorted(sol[1].per_time[t or 0][c[x]]):
                    seen.setdefault(image[a], a)
                distinct.append(seen)
            reached = {bu_adapted[u] for u in parent_argmin.per_time[t or 0][x]}
            for combo in itertools.product(*(d.items() for d in distinct)):
                target = sum(image for image, _ in combo)
                if target not in reached:
                    return False, checks._tuple_witness(
                        bundle, x, t, [a for _, a in combo], target)
    return True, None


MAX_N = {2: 6, 3: 4, 5: 3}  # at most 125 states


def random_battery(rng):
    """Block-diagonal dynamics conjugated by a random change of basis, split
    into 2 or 3 parts of dimension 1 or 2 (the parts are the conjugated
    blocks); B respects the parts or is generic; the separable cost may
    vanish off zero, which leaves large argmin sets; the horizon is finite
    or discounted."""
    p = rng.choice((2, 3, 5))
    F = PrimeField(p)
    r = rng.choice((2, 3))
    dims = [rng.randint(1, 2) for _ in range(r)]
    while sum(dims) > MAX_N[p]:
        dims = [rng.randint(1, 2) for _ in range(r)]
    n = sum(dims)
    S = rand_invertible(rng, F, n)
    entries = [[0] * n for _ in range(n)]
    parts, off = [], 0
    for d in dims:
        block = rand_matrix(rng, F, d, d)
        for i, j in itertools.product(range(d), repeat=2):
            entries[off + i][off + j] = block[i, j]
        parts.append(Subspace(F, n, [S.col(off + k) for k in range(d)]))
        off += d
    A = S @ MatrixFp.from_rows(F, entries) @ S.inverse()
    decomp = DirectSumDecomposition(parts)
    B = rand_forced_B(rng, F, decomp) if rng.random() < 0.5 else rand_B(rng, F, n)
    tables = [[0] + [rng.randint(0, 2) for _ in range(p**d - 2)] + [1] for d in dims]
    cost = CostFunction.separable(decomp, tables, allow_vanishing=True)
    horizon = (FiniteHorizon(rng.randint(1, 3)) if rng.random() < 0.5
               else DiscountedHorizon(rng.choice((HALF, Fraction(2, 3)))))
    return DPInstance(A, B, cost, horizon, max_inputs=None), decomp


def _swap_one(rng, actions, num_inputs):
    """The set with one member traded for a random input."""
    return frozenset(rng.sample(sorted(actions), len(actions) - 1)) | {rng.randrange(num_inputs)}


def test_componentwise_count_matches_enumerating_oracle():
    """300 seeded batteries: the counting check gives the oracle's verdict
    and witness, and every tuple witness is confirmed from scratch.  Each
    battery is also checked with one member of every parent argmin set
    traded for a random input, so parent images outside every tuple's
    image turn up, which optimal sets that split in value rarely have."""
    rng = random.Random(8)
    kinds = {}
    for _ in range(300):
        inst, decomp = random_battery(rng)
        bundle = build_bundle(inst, decomp)
        parent = solve(inst)
        projected = solve_bundle(bundle, "projected")
        traded = dp.ArgminTable(parent[1].horizon, [
            tuple(_swap_one(rng, actions, inst.num_inputs) for actions in row)
            for row in parent[1].per_time])
        assert (check_componentwise(bundle, (parent[0], traded), projected)
                == oracle_check_componentwise(bundle, (parent[0], traded), projected))
        got = check_componentwise(bundle, parent, projected)
        assert got == oracle_check_componentwise(bundle, parent, projected)
        kind = got[1]["kind"] if got[1] else None
        kinds[kind] = kinds.get(kind, 0) + 1
        if kind == "tuple":
            report = DecompositionReport(
                prime=inst.field.p, n=inst.n, m=inst.m, horizon=dp.horizon_json(inst.horizon),
                family="projected", range_condition=False, input_space_is_sum_of_parts=False,
                A_invertible=False, componentwise_holds=False, componentwise_witness=got[1])
            assert verify_witnesses(inst, decomp, report) == {"componentwise_witness": True}
    # the corpus exercises every outcome
    assert min(kinds.get(k, 0) for k in (None, "value", "tuple")) >= 20


def test_restricted_input_maps_keep_full_column_rank(monkeypatch):
    """build_bundle runs no rank elimination for the restricted input maps
    of a parent whose B is known injective: on 300 seeded batteries every
    restricted B has full column rank all the same."""
    rng = random.Random("restricted-rank")
    ranks = []
    rank = MatrixFp.rank
    for _ in range(300):
        inst, decomp = random_battery(rng)
        with monkeypatch.context() as patched:
            patched.setattr(MatrixFp, "rank", lambda self: ranks.append(self) or rank(self))
            bundle = build_bundle(inst, decomp)
        assert ranks == []
        assert all(sub.B.rank() == sub.m for sub in bundle.restricted)


class _CountingSpan(frozenset):
    """A span that counts the sets it is asked about."""

    def isdisjoint(self, other):
        self.asked.append(other)
        return super().isdisjoint(other)


def test_outside_span_scan_decides_each_distinct_set_once():
    """The minimizer and selector checks find the same first state as a
    state-by-state scan, asking the span about each distinct argmin set
    once, whether the sets are shared objects or equal copies."""
    rng = random.Random("outside-span")
    for _ in range(200):
        span = _CountingSpan(rng.sample(range(8), rng.randint(0, 4)))
        span.asked = []
        shared = [frozenset(rng.sample(range(8), rng.randint(1, 3))) for _ in range(4)]
        row = [rng.choice(shared) if rng.random() < 0.8 else frozenset(rng.choice(shared))
               for _ in range(30)]
        want = next((x for x, chosen in enumerate(row) if not span & chosen), None)
        assert checks._first_outside(span, row) == want
        assert sorted(map(sorted, span.asked)) == sorted(map(sorted, set(row)))


def _battery_results(seed, p):
    """run_battery's report and verify_witnesses' verdicts on one seeded
    split system over GF(p) with a separable cost over denominators 1..3."""
    rng = random.Random(f"battery-forms-{seed}")
    F, A, decomp = rand_split_system(rng, primes=(p,), n_max={2: 4, 3: 3, 5: 2}[p])
    B = rand_forced_B(rng, F, decomp) if seed % 2 else rand_B(rng, F, decomp.ambient_dim)
    tables = [[0] + [Fraction(rng.randint(1, 5), rng.randint(1, 3))
                     for _ in range(p**part.dim - 1)] for part in decomp.parts]
    horizon = FiniteHorizon(2) if seed % 4 < 2 else DiscountedHorizon(HALF)
    inst = DPInstance(A, B, CostFunction.separable(decomp, tables), horizon)
    report = run_battery(inst, decomp)
    return report, verify_witnesses(inst, decomp, report), inst.cost.den is None


def test_battery_reports_match_on_wide_and_narrow_values(monkeypatch):
    """With dp.WIDE_SCALE_BITS = 0 every cost and value table is wide; the
    battery's reports and witness verdicts on 20 seeded systems over
    GF(2), GF(3) and GF(5) equal those of the narrow run."""
    refuted = 0
    for seed in range(20):
        p = (2, 3, 5)[seed % 3]
        narrow = _battery_results(seed, p)
        with monkeypatch.context() as patched:
            patched.setattr(dp, "WIDE_SCALE_BITS", 0)
            wide = _battery_results(seed, p)
        assert narrow[2] and not wide[2]  # the narrow cost, and the wide one
        assert wide[:2] == narrow[:2]
        refuted += bool(narrow[1])
    assert 0 < refuted < 20  # some batteries split, some are refuted
