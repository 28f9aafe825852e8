"""Invariant splitting of the state space of a linear map over GF(p).

The characteristic polynomial comes from the division-free Samuelson-
Berkowitz recurrence, so it is valid in any characteristic.  Factorization
is square-free decomposition followed by Berlekamp splitting: for small p
exhaustive over the p shift constants, for large p gcd splitting on kernel
elements drawn from a fixed-seed random.Random (Cantor-Zassenhaus), so the
result never varies.  Factors are ordered lexicographically by coefficient
tuple.  The primary parts ker f_i(A)^{m_i} then give the canonical
invariant direct sum; a single irreducible power means no splitting of this
kind exists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import NotDecomposable, NotInvariant, ShapeError
from .fields import Poly, PrimeField
from .linalg import (
    DirectSumDecomposition,
    MatrixFp,
    Subspace,
    is_invariant,
    null_space,
    poly_eval_matrix,
)

# Up to this prime, splitting tries every constant of GF(p), which costs p
# gcds per factor; above it, random kernel elements raised to (p-1)/2 split
# in O(log p) products each, which measured faster from p = 11 on (and
# p = 2 has no such power).
SWEEP_MAX_PRIME = 7


def char_poly(A: MatrixFp) -> Poly:
    """Monic characteristic polynomial det(xI - A) by Samuelson-Berkowitz."""
    if A.nrows != A.ncols:
        raise ShapeError("characteristic polynomial needs a square matrix")
    field = A.field
    p = field.p
    n = A.nrows
    c = [1]
    for r in range(1, n + 1):
        # principal r x r block, partitioned around its last row and column
        a_rr = A[r - 1, r - 1]
        R = [A[r - 1, j] for j in range(r - 1)]
        S = [A[i, r - 1] for i in range(r - 1)]
        t = [1, (-a_rr) % p]
        v = list(S)
        for k in range(r - 1):
            if k:
                v = [sum(A[i, j] * v[j] for j in range(r - 1)) % p for i in range(r - 1)]
            t.append((-sum(a * b for a, b in zip(R, v))) % p)
        # multiply by the (r+1) x r lower Toeplitz matrix built from t
        c_new = [0] * (r + 1)
        for i in range(r + 1):
            acc = 0
            for j in range(max(0, i - r), min(i, r - 1) + 1):
                acc += t[i - j] * c[j]
            c_new[i] = acc % p
        c = c_new
    return Poly(field, list(reversed(c)))


@dataclass(frozen=True)
class CharPolyFactorization:
    """Irreducible factors with multiplicities, in deterministic order."""

    field: PrimeField
    factors: tuple[tuple[Poly, int], ...]

    def __iter__(self):
        return iter(self.factors)

    def __len__(self) -> int:
        return len(self.factors)

    def product(self) -> Poly:
        out = Poly.one(self.field)
        for q, m in self.factors:
            out = out * q**m
        return out


def _berlekamp_split(f: Poly) -> list[Poly]:
    """All monic irreducible factors of a monic square-free polynomial."""
    field = f.field
    p = field.p
    d = f.degree
    if d == 1:
        return [f]
    # columns of Q are x^{jp} mod f on the monomial basis
    x_p = pow(Poly.monomial(field, 1), p, f)
    power = Poly.one(field)
    cols = []
    for _ in range(d):
        cols.append([power[i] for i in range(d)])
        power = power * x_p % f
    Q = MatrixFp.from_cols(field, cols, nrows=d)
    kernel = null_space(Q - MatrixFp.identity(field, d))
    count = kernel.dim
    if count == 1:
        return [f]
    # every kernel element v is a constant s_i modulo each irreducible factor
    basis = kernel.basis_vectors()
    if p <= SWEEP_MAX_PRIME:
        factors = _split_by_constants(f, [Poly(field, vec) for vec in basis], count)
    else:
        factors = _split_by_residues(f, basis, count)
    assert len(factors) == count, "Berlekamp basis failed to separate factors"
    return sorted(factors, key=lambda q: q.coeffs)


def _split_by_constants(f: Poly, kernel: list[Poly], count: int) -> set[Poly]:
    """Split f by gcd(v - s, g) for every kernel basis element v and every
    constant s of GF(p): p gcds per factor and element."""
    field = f.field
    factors = {f}
    for v in kernel:
        if v.degree < 1:
            continue
        refined: set[Poly] = set()
        for g in factors:
            if g.degree == 1:
                refined.add(g)
                continue
            pieces = [h.monic() for h in (g.gcd(v - Poly.constant(field, s))
                                          for s in range(field.p))
                      if h.degree >= 1]
            refined.update(pieces if pieces else {g})
        factors = refined
        if len(factors) == count:
            break
    return factors


def _split_by_residues(f: Poly, basis: list[list[int]], count: int) -> set[Poly]:
    """Split f, for odd p, by gcd(v^((p-1)/2) - 1, g) on random kernel
    elements v (Cantor-Zassenhaus): that gcd keeps the factors where v's
    constant is a nonzero square, so each try splits a reducible g with
    probability about 1/2, at O(log p) products modulo g.  The seed is
    fixed, so the factors found are the same on every run."""
    field = f.field
    p = field.p
    rng = random.Random(0)
    one = Poly.one(field)
    factors = {f}
    while len(factors) < count:
        weights = [rng.randrange(p) for _ in basis]
        v = Poly(field, [sum(w * vec[i] for w, vec in zip(weights, basis))
                         for i in range(f.degree)])
        refined: set[Poly] = set()
        for g in factors:
            h = (pow(v, (p - 1) // 2, g) - one).gcd(g) if g.degree > 1 else g
            refined.update({h, g // h} if 0 < h.degree < g.degree else {g})
        factors = refined
    return factors


def _factor_monic(f: Poly, out: dict[Poly, int]) -> None:
    field = f.field
    p = field.p
    if f.degree <= 0:
        return
    df = f.derivative()
    if df.is_zero:
        # every multiplicity is divisible by p; recurse on the p-th root
        sub: dict[Poly, int] = {}
        _factor_monic(f.pth_root(), sub)
        for q, m in sub.items():
            out[q] = out.get(q, 0) + p * m
        return
    squarefree = f // f.gcd(df)
    rem = f
    for q in _berlekamp_split(squarefree):
        m = 0
        while (rem % q).is_zero:
            rem = rem // q
            m += 1
        out[q] = out.get(q, 0) + m
    _factor_monic(rem, out)


def factor_poly(f: Poly) -> CharPolyFactorization:
    """Full factorization of a nonzero polynomial into monic irreducibles.

    Deterministic: factors are sorted by their coefficient tuples (constant
    term first).  The unit content is dropped, so the product of the result
    reconstructs f.monic().
    """
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    acc: dict[Poly, int] = {}
    _factor_monic(f.monic(), acc)
    ordered = tuple(sorted(acc.items(), key=lambda item: (item[0].coeffs, item[1])))
    return CharPolyFactorization(f.field, ordered)


def primary_decomposition(A: MatrixFp) -> tuple[DirectSumDecomposition, CharPolyFactorization]:
    """Split the state space into the kernels of the primary factors of A.

    Raises NotDecomposable (carrying the single irreducible factor and its
    multiplicity) when the characteristic polynomial has only one distinct
    irreducible factor, since then no splitting of this kind exists.
    """
    chi = char_poly(A)
    fact = factor_poly(chi)
    if len(fact) == 1:
        q, m = fact.factors[0]
        raise NotDecomposable(q, m)
    parts = []
    for q, m in fact:
        part = null_space(poly_eval_matrix(q**m, A))
        assert part.dim == q.degree * m, "primary part has unexpected dimension"
        assert is_invariant(A, part)
        parts.append(part)
    return DirectSumDecomposition(parts), fact


def verify_decomposition(A: MatrixFp, parts: list[Subspace] | DirectSumDecomposition) -> bool:
    """Certify that the parts form an A-invariant direct sum of the whole space.

    Accepts any invariant splitting, including ones finer than the primary
    decomposition.  Raises NotDirectSum or NotInvariant (with the offending
    part index) on failure; returns True on success.
    """
    if isinstance(parts, DirectSumDecomposition):
        decomp = parts
    else:
        decomp = DirectSumDecomposition(parts)  # raises NotDirectSum if not direct
    if A.nrows != A.ncols or A.nrows != decomp.ambient_dim:
        raise ShapeError("A must be square over the ambient space of the parts")
    for i, part in enumerate(decomp.parts):
        if not is_invariant(A, part):
            raise NotInvariant(i)
    return True
