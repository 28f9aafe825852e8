"""Characteristic polynomials, factorization, primary decomposition.

char_poly is checked against an independent cofactor-expansion determinant
of xI - A computed over the polynomial ring.  Factorization is checked by
multiplying back and by irreducibility of each factor (no roots for degree
<= 3 test cases is not enough, so divisibility by all lower-degree monics
is tested directly at small sizes).
"""

from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from dpdecomp import invariant_decomp
from dpdecomp.errors import NotDecomposable, NotInvariant, ShapeError
from dpdecomp.fields import Poly, PrimeField
from dpdecomp.invariant_decomp import (char_poly, factor_poly,
                                       primary_decomposition,
                                       verify_decomposition)
from dpdecomp.linalg import (DirectSumDecomposition, MatrixFp, Subspace,
                             is_invariant, poly_eval_matrix)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


@st.composite
def square_matrices(draw, max_dim=4, primes=(2, 3, 5)):
    F = PrimeField(draw(st.sampled_from(primes)))
    n = draw(st.integers(1, max_dim))
    entries = draw(st.lists(st.integers(0, F.p - 1), min_size=n * n,
                            max_size=n * n))
    return MatrixFp(F, n, n, entries)


def all_polys(field, degree):
    """Every polynomial of exactly the given degree (the zero polynomial for
    degree -1): the brute-force divisor list for irreducibility checks."""
    if degree < 0:
        yield Poly.zero(field)
        return
    p = field.p
    for code in range(p**degree, p ** (degree + 1)):
        yield Poly(field, [code // p**k % p for k in range(degree + 1)])


def det_poly_matrix(field, entries):
    """Cofactor-expansion determinant of a square matrix of polynomials."""
    n = len(entries)
    if n == 1:
        return entries[0][0]
    total = Poly(field, [])
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in entries[1:]]
        term = entries[0][j] * det_poly_matrix(field, minor)
        total = total - term if j % 2 == 1 else total + term
    return total


def char_poly_oracle(A):
    F = A.field
    x = Poly(F, [0, 1])
    entries = [[x - Poly(F, [A[i, j]]) if i == j else Poly(F, [-A[i, j]])
                for j in range(A.ncols)] for i in range(A.nrows)]
    return det_poly_matrix(F, entries)


# === characteristic polynomial ===

@given(square_matrices())
@settings(max_examples=80)
def test_char_poly_matches_determinant(A):
    assert char_poly(A) == char_poly_oracle(A)


@given(square_matrices(max_dim=3))
def test_cayley_hamilton(A):
    chi = char_poly(A)
    assert poly_eval_matrix(chi, A) == MatrixFp.zeros(A.field, A.nrows, A.nrows)


def test_char_poly_hand_examples():
    # diag(1,2) over GF(3): (x-1)(x-2) = x^2 + 2 (since -3x = 0 mod 3)
    A = MatrixFp.from_rows(F3, [[1, 0], [0, 2]])
    assert char_poly(A) == Poly(F3, [2, 0, 1])
    # companion of x^2 + x + 1 over GF(2)
    C = MatrixFp.from_rows(F2, [[0, 1], [1, 1]])
    assert char_poly(C) == Poly(F2, [1, 1, 1])


def test_char_poly_requires_square():
    with pytest.raises(ShapeError):
        char_poly(MatrixFp.from_rows(F2, [[1, 0]]))


# === factorization ===

@st.composite
def nonzero_polys(draw, max_deg=5, primes=(2, 3, 5)):
    F = PrimeField(draw(st.sampled_from(primes)))
    deg = draw(st.integers(0, max_deg))
    coeffs = draw(st.lists(st.integers(0, F.p - 1), min_size=deg + 1,
                           max_size=deg + 1))
    coeffs[-1] = draw(st.integers(1, F.p - 1))
    return Poly(F, coeffs)


@given(nonzero_polys())
@settings(max_examples=80)
def test_factorization_reconstructs(f):
    fact = factor_poly(f)
    assert fact.product() == f.monic()
    for q, m in fact:
        assert q.is_monic and m >= 1


@given(nonzero_polys(max_deg=4, primes=(2, 3)))
@settings(max_examples=60)
def test_factors_are_irreducible(f):
    for q, _ in factor_poly(f):
        if q.degree <= 1:
            continue
        for d in range(1, q.degree):
            for g in all_polys(q.field, d):
                if g.is_monic:
                    _, rem = divmod(q, g)
                    assert not rem.is_zero


@given(st.sampled_from([11, 67, 2**61 - 1]), st.data())
@settings(max_examples=40, deadline=None)
def test_residue_splitting_matches_the_constant_sweep(p, data):
    # above SWEEP_MAX_PRIME the factors come from random kernel elements;
    # a product of small monic polynomials factors exactly as the sweep of
    # every constant finds (which is only affordable for the small primes)
    F = PrimeField(p)
    f = Poly.one(F)
    for _ in range(data.draw(st.integers(2, 4))):
        deg = data.draw(st.integers(1, 3))
        f = f * Poly(F, data.draw(st.lists(st.integers(0, p - 1), min_size=deg,
                                           max_size=deg)) + [1])
    fact = factor_poly(f)
    assert fact.product() == f
    if p < 1000:
        with patch.object(invariant_decomp, "SWEEP_MAX_PRIME", p):
            assert factor_poly(f) == fact


def test_factor_poly_known():
    # x^4 + x^2 over GF(2) = x^2 (x+1)^2, sorted by coefficient tuple
    f = Poly(F2, [0, 0, 1, 0, 1])
    fact = factor_poly(f)
    assert [(q.coeffs, m) for q, m in fact] == [((0, 1), 2), ((1, 1), 2)]


def test_factor_zero_rejected():
    with pytest.raises(ValueError):
        factor_poly(Poly(F2, []))


# === primary decomposition ===

def test_primary_parts_example():
    # the worked 3x3 over GF(3): chi = (x+1)(x+2)^2
    A = MatrixFp.from_rows(F3, [[1, 1, 0], [0, 2, 0], [0, 0, 1]])
    decomp, fact = primary_decomposition(A)
    assert [(q.coeffs, m) for q, m in fact] == [((1, 1), 1), ((2, 1), 2)]
    assert decomp.parts[0] == Subspace(F3, 3, [(1, 1, 0)])
    assert decomp.parts[1] == Subspace(F3, 3, [(1, 0, 0), (0, 0, 1)])
    assert verify_decomposition(A, decomp)


def test_primary_parts_diagonal():
    A = MatrixFp.from_rows(F3, [[1, 0], [0, 2]])
    decomp, fact = primary_decomposition(A)
    assert decomp.r == 2
    assert {decomp.parts[0], decomp.parts[1]} == {
        Subspace(F3, 2, [(1, 0)]), Subspace(F3, 2, [(0, 1)])}


def test_not_decomposable_irreducible():
    # companion matrix of the irreducible x^2 + x + 1 over GF(2)
    C = MatrixFp.from_rows(F2, [[0, 1], [1, 1]])
    with pytest.raises(NotDecomposable) as exc:
        primary_decomposition(C)
    assert exc.value.factor == Poly(F2, [1, 1, 1])
    assert exc.value.multiplicity == 1


def test_not_decomposable_nilpotent():
    # single Jordan-like block: chi = x^2, one factor with multiplicity 2
    N = MatrixFp.from_rows(F2, [[0, 1], [0, 0]])
    with pytest.raises(NotDecomposable) as exc:
        primary_decomposition(N)
    assert exc.value.factor == Poly(F2, [0, 1])
    assert exc.value.multiplicity == 2
    assert "no nontrivial invariant splitting" in str(exc.value)


@given(square_matrices(max_dim=4, primes=(2, 3)))
@settings(max_examples=60)
def test_primary_decomposition_properties(A):
    try:
        decomp, fact = primary_decomposition(A)
    except NotDecomposable:
        assert len(factor_poly(char_poly(A))) == 1
        return
    assert decomp.r == len(fact) >= 2
    assert sum(part.dim for part in decomp.parts) == A.nrows
    for (q, m), part in zip(fact, decomp.parts):
        assert part.dim == q.degree * m
        assert is_invariant(A, part)
        # the factor annihilates its own part
        qm = poly_eval_matrix(q ** m, A)
        for v in part.basis_vectors():
            assert qm.matvec(v) == (0,) * A.nrows
    assert verify_decomposition(A, decomp)


# === verification error paths ===

def test_verify_rejects_non_invariant():
    A = MatrixFp.from_rows(F3, [[1, 1, 0], [0, 2, 0], [0, 0, 1]])
    parts = [Subspace(F3, 3, [(0, 1, 0)]),
             Subspace(F3, 3, [(1, 0, 0), (0, 0, 1)])]
    with pytest.raises(NotInvariant) as exc:
        verify_decomposition(A, parts)
    assert exc.value.part_index == 0


def test_verify_rejects_shape_mismatch():
    A = MatrixFp.from_rows(F3, [[1, 0], [0, 1]])
    parts = DirectSumDecomposition([Subspace(F3, 3, [(1, 0, 0)]),
                                    Subspace(F3, 3, [(0, 1, 0), (0, 0, 1)])])
    with pytest.raises(ShapeError):
        verify_decomposition(A, parts)


def test_verify_accepts_finer_splitting():
    A = MatrixFp.identity(F3, 2)
    parts = [Subspace(F3, 2, [(1, 0)]), Subspace(F3, 2, [(0, 1)])]
    assert verify_decomposition(A, parts)
