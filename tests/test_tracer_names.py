"""The benchmark's tracer patches dpdecomp functions and methods by name;
every name it lists must still resolve, or a traced run breaks.  It also
reads a structural fact these tests pin down: the exact solvers and the
battery never build the per-(state, input) transitions table."""

import importlib
import importlib.util
from pathlib import Path

from fractions import Fraction

import dpdecomp
from dpdecomp import dp
from dpdecomp.checks import run_battery
from dpdecomp.dp import CostFunction, DiscountedHorizon, DPInstance, FiniteHorizon
from dpdecomp.fields import PrimeField
from dpdecomp.linalg import DirectSumDecomposition, MatrixFp, Subspace

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracer = _tracer()
    for modname, fname in tracer.FUNCTIONS:
        module = importlib.import_module(f"dpdecomp.{modname}")
        assert callable(getattr(module, fname, None)), f"{modname}.{fname}"
    for modname, cls, meth in tracer.METHODS:
        klass = getattr(importlib.import_module(f"dpdecomp.{modname}"), cls)
        # the tracer reads the method from the class body, not from a base
        assert callable(klass.__dict__.get(meth)), f"{modname}.{cls}.{meth}"


def test_transitions_cache_starts_empty():
    # the tracer times transitions() only while inst._trans is still None
    F2 = PrimeField(2)
    eye = MatrixFp.identity(F2, 1)
    inst = DPInstance(eye, eye, CostFunction(F2, 1, [0, 1]), FiniteHorizon(1))
    assert inst._trans is None
    table = inst.transitions()
    assert inst._trans is table == [[0, 1], [1, 0]]


def test_exported_names_resolve():
    for name in dpdecomp.__all__:
        assert hasattr(dpdecomp, name), name


def _split_instance(horizon):
    # GF(3)^2 split along the axes, one input per axis, A diagonal
    F3 = PrimeField(3)
    decomp = DirectSumDecomposition([Subspace(F3, 2, [(1, 0)]), Subspace(F3, 2, [(0, 1)])])
    cost = CostFunction.indicator(decomp, [Fraction(1), Fraction(2)])
    inst = DPInstance(MatrixFp.from_rows(F3, [[2, 0], [0, 1]]), MatrixFp.identity(F3, 2),
                      cost, horizon)
    return inst, decomp


def test_solvers_and_battery_leave_transitions_unbuilt():
    finite = FiniteHorizon(3)
    discounted = DiscountedHorizon(Fraction(1, 2))
    runs = [(finite, dp.solve_finite), (discounted, dp.solve_discounted_pi),
            (discounted, lambda inst: dp.solve_discounted_vi(inst, Fraction(1, 10)))]
    for horizon, solve in runs:
        inst, _ = _split_instance(horizon)
        solve(inst)
        assert inst._trans is None
    for horizon in (finite, discounted):
        inst, decomp = _split_instance(horizon)
        run_battery(inst, decomp, family="both")
        assert inst._trans is None

