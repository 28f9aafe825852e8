"""Every mismatch the public entry points of dp, linalg, fields,
instancefile and lqr refuse: each case pins the exception's exact class and
a fragment of its message."""

import sys
from fractions import Fraction

import pytest

from dpdecomp.dp import (CostFunction, DiscountedHorizon, DPInstance, FiniteHorizon,
                         evaluate_stationary_policy, evaluate_time_varying, is_in_Gs)
from dpdecomp.errors import ShapeError
from dpdecomp.fields import Poly, PrimeField
from dpdecomp.instancefile import parse_rational
from dpdecomp.linalg import (DirectSumDecomposition, MatrixFp, Subspace, is_invariant,
                             poly_eval_matrix, preimage, subspace_intersect, subspace_sum)
from dpdecomp.lqr import _as_matrix

F2, F3 = PrimeField(2), PrimeField(3)
I2 = MatrixFp.identity(F2, 2)
B2 = MatrixFp.from_rows(F2, [[1], [0]])
COST2 = CostFunction(F2, 2, [0, 1, 1, 1])
LINE2 = Subspace(F2, 2, [(1, 0)])
AXES2 = DirectSumDecomposition([LINE2, Subspace(F2, 2, [(0, 1)])])


def instance(horizon):
    return DPInstance(I2, B2, COST2, horizon)


CASES = [
    # DPInstance.__init__
    ("A-not-square", lambda: DPInstance(MatrixFp.zeros(F2, 2, 3), B2, COST2, FiniteHorizon(1)),
     ShapeError, "A must be square"),
    ("B-row-count", lambda: DPInstance(I2, MatrixFp.zeros(F2, 3, 1), COST2, FiniteHorizon(1)),
     ShapeError, "B must have as many rows as A"),
    ("fields-differ", lambda: DPInstance(I2, MatrixFp.from_rows(F3, [[1], [0]]), COST2,
                                         FiniteHorizon(1)),
     ValueError, "A and B must share a field"),
    ("cost-mismatch", lambda: DPInstance(I2, B2, CostFunction(F3, 2, [0] + [1] * 8),
                                         FiniteHorizon(1)),
     ValueError, "cost function does not match the state space"),
    ("unsupported-horizon", lambda: DPInstance(I2, B2, COST2, "forever"),
     ValueError, "unsupported horizon 'forever'"),
    ("finite-horizon-bool", lambda: FiniteHorizon(True),
     ValueError, "finite horizon requires an integer T >= 1"),
    # the evaluators' horizons and laws
    ("stationary-policy-horizon", lambda: evaluate_stationary_policy(
        instance(FiniteHorizon(1)), [0] * 4),
     ValueError, "stationary-policy evaluation needs a discounted horizon"),
    ("time-varying-horizon", lambda: evaluate_time_varying(
        instance(DiscountedHorizon(Fraction(1, 2))), [[0] * 4]),
     ValueError, "closed-loop evaluation needs a finite horizon"),
    ("time-varying-law-length", lambda: evaluate_time_varying(
        instance(FiniteHorizon(2)), [[0] * 4]),
     ValueError, "law must cover times 0..T-1"),
    ("is-in-Gs-splitting", lambda: is_in_Gs(CostFunction(F2, 3, [0] + [1] * 7), AXES2),
     ValueError, "decomposition does not match the cost's state space"),
    # MatrixFp
    ("negative-dimension", lambda: MatrixFp(F2, -1, 2, []),
     ShapeError, "matrix dimensions must be nonnegative"),
    ("entry-count", lambda: MatrixFp(F2, 2, 2, [1, 0, 1]),
     ShapeError, "expected 4 entries, got 3"),
    ("getitem-out-of-range", lambda: I2[2, 0], IndexError, "(2, 0)"),
    ("add-fields", lambda: I2 + MatrixFp.identity(F3, 2), ValueError, "matrices must share a field"),
    ("sub-fields", lambda: I2 - MatrixFp.identity(F3, 2), ValueError, "matrices must share a field"),
    ("matmul-fields", lambda: I2 @ MatrixFp.identity(F3, 2),
     ValueError, "matrices must share a field"),
    ("matvec-length", lambda: I2.matvec((1, 0, 1)), ShapeError, "vector length 3 vs 2 columns"),
    ("inverse-not-square", lambda: B2.inverse(), ShapeError, "only square matrices invert"),
    # subspaces and splittings
    ("subspace-vector-length", lambda: Subspace(F2, 2, [(1, 0, 1)]),
     ShapeError, "spanning vector of wrong length"),
    ("contains-length", lambda: LINE2.contains((1, 0, 0)), ShapeError, "vector length mismatch"),
    ("sum-ambient", lambda: subspace_sum(LINE2, Subspace(F2, 3)),
     ShapeError, "subspaces live in different ambient spaces"),
    ("sum-fields", lambda: subspace_sum(LINE2, Subspace(F3, 2)),
     ShapeError, "subspaces live in different ambient spaces"),
    ("intersect-ambient", lambda: subspace_intersect(LINE2, Subspace(F2, 3)),
     ShapeError, "subspaces live in different ambient spaces"),
    ("intersect-fields", lambda: subspace_intersect(LINE2, Subspace(F3, 2)),
     ShapeError, "subspaces live in different ambient spaces"),
    ("is-invariant-ambient", lambda: is_invariant(MatrixFp.identity(F2, 3), LINE2),
     ShapeError, "A must be square over the ambient space of S"),
    ("poly-eval-not-square", lambda: poly_eval_matrix(Poly(F2, (1, 1)), B2),
     ShapeError, "polynomial evaluation needs a square matrix"),
    ("poly-eval-fields", lambda: poly_eval_matrix(Poly(F3, (1, 1)), I2),
     ValueError, "polynomial and matrix must share a field"),
    ("splitting-ambient", lambda: DirectSumDecomposition([LINE2, Subspace(F2, 3, [(0, 0, 1)])]),
     ShapeError, "parts live in different ambient spaces"),
    ("splitting-fields", lambda: DirectSumDecomposition([LINE2, Subspace(F3, 2, [(0, 1)])]),
     ShapeError, "parts live in different ambient spaces"),
    ("preimage-codomain", lambda: preimage(B2, Subspace(F2, 1)),
     ShapeError, "subspace must live in the codomain of M"),
    # fields
    ("modulus-type", lambda: PrimeField(2.0), ValueError, "modulus must be an int, got 2.0"),
    ("poly-fields", lambda: Poly(F2, (1, 1)) * Poly(F3, (1, 1)),
     ValueError, "polynomials must share a field"),
    ("poly-negative-power", lambda: Poly(F2, (1, 1)) ** -1,
     ValueError, "negative polynomial powers are not defined"),
    # input parsing
    ("rational-past-int-limit", lambda: parse_rational("1" * (sys.get_int_max_str_digits() + 1)),
     ValueError, "not a rational: '111"),
    ("lqr-not-2d", lambda: _as_matrix([1.0, 2.0], "A"), ValueError, "A must be a 2-d array"),
]


@pytest.mark.parametrize("call, error, fragment", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_boundary_refusal(call, error, fragment):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert fragment in str(info.value)
