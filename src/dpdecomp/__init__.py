"""Exact dynamic programming over prime fields with invariant state-space
splittings, subproblem construction, decomposition checking, and a real-field
regulator counterpart.
"""

from .checks import (DecompositionReport, report_from_dict, run_battery,
                     verify_witnesses)
from .dp import (ArgminTable, CostFunction, DiscountedHorizon, DPInstance,
                 FiniteHorizon, ValueIterationResult, ValueTable,
                 evaluate_stationary_policy, evaluate_time_varying,
                 index_state, is_in_Gs, solve_discounted_pi,
                 solve_discounted_vi, solve_finite, state_index)
from .errors import (IllConditioned, NotDecomposable, NotDirectSum,
                     NotInvariant, NotSeparableCost, PreconditionFailed,
                     ShapeError, TheoremViolation)
from .fields import Poly, PrimeField
from .invariant_decomp import (CharPolyFactorization, char_poly, factor_poly,
                               primary_decomposition, verify_decomposition)
from .linalg import (DirectSumDecomposition, MatrixFp, Subspace, column_space,
                     null_space, preimage, subspace_intersect, subspace_sum)
from .subproblems import SubproblemBundle, build_bundle, lift_policy, solve_bundle

__all__ = [
    "ArgminTable", "CharPolyFactorization", "CostFunction",
    "DecompositionReport", "DirectSumDecomposition", "DiscountedHorizon",
    "DPInstance", "FiniteHorizon", "IllConditioned", "MatrixFp",
    "NotDecomposable", "NotDirectSum", "NotInvariant", "NotSeparableCost",
    "Poly", "PreconditionFailed", "PrimeField", "ShapeError",
    "Subspace", "SubproblemBundle", "TheoremViolation", "ValueIterationResult",
    "ValueTable", "build_bundle", "char_poly",
    "column_space", "evaluate_stationary_policy", "evaluate_time_varying", "factor_poly",
    "index_state", "is_in_Gs", "lift_policy", "null_space",
    "preimage", "primary_decomposition", "report_from_dict", "run_battery",
    "solve_bundle", "solve_discounted_pi", "solve_discounted_vi",
    "solve_finite", "state_index", "subspace_intersect", "subspace_sum",
    "verify_decomposition", "verify_witnesses",
]

__version__ = "0.1.0"
