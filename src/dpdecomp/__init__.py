"""Exact dynamic programming over prime fields with invariant splittings,
subproblems, decomposition checks and a real-field regulator.  Each export
is loaded from its module on first use (PEP 562): ``import dpdecomp`` loads no module."""

import importlib

_EXPORTS = {name: module for module, names in {
    "checks": "DecompositionReport report_from_dict run_battery verify_witnesses",
    "dp": "ArgminTable CostFunction DiscountedHorizon DPInstance FiniteHorizon ValueIterationResult "
          "ValueTable evaluate_stationary_policy evaluate_time_varying index_state is_in_Gs "
          "solve_discounted_pi solve_discounted_vi solve_finite state_index",
    "errors": "IllConditioned NotDecomposable NotDirectSum NotInvariant NotSeparableCost "
              "PreconditionFailed ShapeError TheoremViolation",
    "fields": "Poly PrimeField",
    "invariant_decomp": "char_poly factor_poly primary_decomposition verify_decomposition",
    "linalg": "DirectSumDecomposition MatrixFp Subspace column_space null_space preimage "
              "subspace_intersect subspace_sum",
    "subproblems": "SubproblemBundle build_bundle lift_policy solve_bundle",
}.items() for name in names.split()}
__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
