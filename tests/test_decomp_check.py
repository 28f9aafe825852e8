"""Verification battery for decomposition properties.

Three fixed instances with hand-derived verdicts:

* the worked three-state instance (vanishing cost, skewed middle line):
  additive holds, the componentwise notion fails with a tuple witness;
* the same dynamics on coordinate axes with a shared input and a strict
  cost: additive holds, componentwise fails on the value level;
* a discounted instance whose only route to the origin couples both
  coordinates: everything fails, with frozen witnesses.
"""

import dataclasses
from fractions import Fraction

import pytest

from dpdecomp import checks, dp
from dpdecomp.checks import (DecompositionReport, check_hierarchy,
                             check_horizon_monotone, check_invertible_equivalence,
                             report_from_dict, run_battery, verify_witnesses)
from dpdecomp.dp import (CostFunction, DiscountedHorizon, DPInstance,
                         FiniteHorizon)
from dpdecomp.errors import TheoremViolation
from dpdecomp.fields import PrimeField
from dpdecomp.linalg import DirectSumDecomposition, MatrixFp, Subspace

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
    results = verify_witnesses(inst, decomp, data)
    assert results["additive_witness"] is False
    data2 = run_battery(inst, decomp).to_dict()
    data2["stationary_selector_witness"]["state"] = [0, 0]
    assert verify_witnesses(inst, decomp, data2)["stationary_selector_witness"] is False


def test_verify_witnesses_empty_without_failures():
    # strict, decoupled, everything passes: no witnesses recorded
    A = MatrixFp.identity(F3, 2)
    B = MatrixFp.identity(F3, 2)
    parts = [Subspace(F3, 2, [(1, 0)]), Subspace(F3, 2, [(0, 1)])]
    decomp = DirectSumDecomposition(parts)
    cost = CostFunction.indicator(decomp, [Fraction(1), Fraction(1)])
    inst = DPInstance(A, B, cost, FiniteHorizon(2))
    report = run_battery(inst, decomp)
    assert report.additive_holds is True
    assert report.componentwise_holds is True
    assert report.range_condition is True
    assert report.invertible_equivalence is True
    assert verify_witnesses(inst, decomp, report) == {}


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


def test_componentwise_cap_yields_inconclusive():
    inst, decomp = make_parent(FiniteHorizon(1))
    report = run_battery(inst, decomp, cap=1)
    assert report.componentwise_holds == "inconclusive"
    assert report.componentwise_witness is None
    assert any("cap" in note for note in report.notes)
    assert report.hierarchy_consistent is None


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
