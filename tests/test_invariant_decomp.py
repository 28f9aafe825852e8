"""Characteristic polynomials, factorization, primary decomposition.

char_poly is checked against an independent cofactor-expansion determinant
of xI - A computed over the polynomial ring.  Factorization is checked by
multiplying back and by irreducibility of each factor: divisibility by all
lower-degree monics at small sizes, and at any prime, for products of
factors of degree <= 3, the absence of a root (which is irreducibility only
up to degree 3).  primary_decomposition is also held to outputs recorded
from an independent splitting routine.
"""

import hashlib
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

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


def product(field, fact):
    """The product of a factorization's factors with their multiplicities."""
    return math.prod((q**m for q, m in fact), start=Poly.one(field))


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
    assert product(f.field, fact) == f.monic()
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


@given(st.sampled_from([2, 3, 5, 7, 11, 67, 2**61 - 1]), st.data())
@settings(max_examples=80, deadline=None)
def test_residue_splitting_yields_rootless_factors(p, data):
    # a product of small monic polynomials has irreducible factors of
    # degree at most 3, and such a factor q is irreducible exactly when it
    # has no root in GF(p): gcd(x^p - x, q) = 1, computed without forming
    # the degree-p power
    F = PrimeField(p)
    x = Poly.monomial(F, 1)
    f = Poly.one(F)
    for _ in range(data.draw(st.integers(2, 4))):
        deg = data.draw(st.integers(1, 3))
        f = f * Poly(F, data.draw(st.lists(st.integers(0, p - 1), min_size=deg,
                                           max_size=deg)) + [1])
    fact = factor_poly(f)
    assert product(F, fact) == f
    for q, m in fact:
        assert q.is_monic and m >= 1 and 1 <= q.degree <= 3
        if q.degree > 1:
            assert (pow(x, p, q) - x).gcd(q) == Poly.one(F)


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


def companion_rows(field, coeffs):
    """Rows of the companion matrix of x^d + sum coeffs[i] x^i."""
    d = len(coeffs)
    rows = [[0] * d for _ in range(d)]
    for i in range(1, d):
        rows[i][i - 1] = 1
    for i in range(d):
        rows[i][d - 1] = -coeffs[i] % field.p
    return rows


def seeded_matrices(p, count=36):
    """Random matrices, companion matrices of random monic polynomials
    (often irreducible or a prime power: NotDecomposable) and random
    conjugates of block-diagonal companions with repeated blocks."""
    F = PrimeField(p)
    rng = random.Random(f"primary/{p}")
    for k in range(count):
        n = rng.randint(1, 10)
        if k % 3 == 0:
            rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        elif k % 3 == 1:
            rows = companion_rows(F, [rng.randrange(p) for _ in range(n)])
        else:
            degs = [rng.randint(1, 3) for _ in range(rng.randint(2, 6))]
            polys = [[rng.randrange(p) for _ in range(d)] for d in degs]
            blocks = [companion_rows(F, polys[rng.randrange(len(polys))]) for _ in degs]
            n = sum(map(len, blocks))
            rows, at = [[0] * n for _ in range(n)], 0
            for block in blocks:
                for i, row in enumerate(block):
                    rows[at + i][at:at + len(row)] = row
                at += len(block)
            while True:
                S = MatrixFp(F, n, n, [rng.randrange(p) for _ in range(n * n)])
                if S.is_invertible():
                    break
            conj = S @ MatrixFp.from_rows(F, rows) @ S.inverse()
            rows = [conj.row(i) for i in range(n)]
        yield MatrixFp.from_rows(F, rows)


# sha256 of repr() of the list of records below for seeded_matrices(p),
# recorded with the exhaustive constant sweep that split Berlekamp kernels
# for p <= 7 before every prime took random kernel elements
PRIMARY_DIGESTS = {
    2: "6c8149fed2669e12d76d7fcec883f3ac156763e1a48fa42301738316be6d61a5",
    3: "8d08ca555d5a8657f3a6e59ffa164c78fda380d7811322b94484073a07bf6f51",
    5: "fac049d2aa9073cbb48ca9b451b960969b231bfdec2521ec9d4c9a19b8b5ad4c",
    7: "b549daeb742412b5d0b9621ee33490089eb8d5a7963284a41e8d22e6e4f9318c",
    11: "b74216c8723f94a6a13d22c39f72bb2b8764312b053ef41c9a2c2c2caf9a9915",
    13: "ac34394439619b45de1ccb960c31eec0be6f37a6c185709af46aaf0bd8061ccf",
}


@pytest.mark.parametrize("p", sorted(PRIMARY_DIGESTS))
def test_primary_decomposition_matches_recorded_outputs(p):
    records = []
    for A in seeded_matrices(p):
        try:
            decomp, fact = primary_decomposition(A)
        except NotDecomposable as exc:
            records.append(("not decomposable", exc.factor.coeffs, exc.multiplicity))
        else:
            records.append((tuple((q.coeffs, m) for q, m in fact),
                            tuple(tuple(part.basis_vectors()) for part in decomp.parts)))
    assert sum(r[0] == "not decomposable" for r in records) >= 8
    assert hashlib.sha256(repr(records).encode()).hexdigest() == PRIMARY_DIGESTS[p]


# === verification error paths ===

def test_verify_rejects_non_invariant():
    A = MatrixFp.from_rows(F3, [[1, 1, 0], [0, 2, 0], [0, 0, 1]])
    parts = DirectSumDecomposition([Subspace(F3, 3, [(0, 1, 0)]),
                                    Subspace(F3, 3, [(1, 0, 0), (0, 0, 1)])])
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
    parts = DirectSumDecomposition([Subspace(F3, 2, [(1, 0)]), Subspace(F3, 2, [(0, 1)])])
    assert verify_decomposition(A, parts)
