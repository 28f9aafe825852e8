"""The benchmark's tracer patches dpdecomp functions and methods by name;
every name it lists must still resolve, or a traced run breaks."""

import importlib
import importlib.util
from pathlib import Path

import dpdecomp
from dpdecomp.dp import CostFunction, DPInstance, FiniteHorizon
from dpdecomp.fields import PrimeField
from dpdecomp.linalg import MatrixFp

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
