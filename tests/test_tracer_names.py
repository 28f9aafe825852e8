"""The benchmark's tracer patches dpdecomp functions and methods by name;
every name it lists must still resolve, or a traced run breaks."""

import importlib
import importlib.util
from pathlib import Path

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
