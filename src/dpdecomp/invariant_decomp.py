"""Invariant splitting of the state space of a linear map over GF(p).

The characteristic polynomial comes from the division-free Samuelson-
Berkowitz recurrence, so it is valid in any characteristic.  Factorization
is square-free decomposition followed by Berlekamp splitting, the same at
every prime: gcds with kernel elements drawn from a fixed-seed
random.Random (Cantor-Zassenhaus), so the result never varies.  Factors are
ordered lexicographically by coefficient tuple.  The primary parts
ker f_i(A)^{m_i} then give the canonical invariant direct sum; a single
irreducible power means no splitting of this kind exists.
"""

from __future__ import annotations

import random

from .errors import NotDecomposable, NotInvariant, ShapeError
from .fields import Poly
from .linalg import (
    DirectSumDecomposition,
    MatrixFp,
    is_invariant,
    null_space,
    poly_eval_matrix,
)

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


def _berlekamp_split(f: Poly) -> list[Poly]:
    """All monic irreducible factors of a monic square-free polynomial.

    Every element v of the Berlekamp kernel is a constant modulo each
    irreducible factor.  A random v splits a reducible factor g by
    gcd(w, g) (Cantor-Zassenhaus): at p = 2, w = v keeps the factors where
    that constant is 0; at odd p, w = v^((p-1)/2) - 1 keeps those where it
    is a nonzero square, at O(log p) products modulo g.  Each try splits g
    with probability at least about 1/2; the seed is fixed, so the factors
    found are the same on every run.
    """
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
    basis = null_space(Q - MatrixFp.identity(field, d)).basis_vectors()
    rng = random.Random(0)
    one = Poly.one(field)
    factors = [f]
    while len(factors) < len(basis):
        weights = [rng.randrange(p) for _ in basis]
        v = Poly(field, [sum(w * vec[i] for w, vec in zip(weights, basis))
                         for i in range(d)])
        refined = []
        for g in factors:
            h = g if g.degree == 1 else (v if p == 2 else pow(v, (p - 1) // 2, g) - one).gcd(g)
            refined += [h, g // h] if 0 < h.degree < g.degree else [g]
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


def factor_poly(f: Poly) -> tuple[tuple[Poly, int], ...]:
    """Full factorization of a nonzero polynomial into monic irreducibles:
    its (factor, multiplicity) pairs.

    Deterministic: factors are sorted by their coefficient tuples (constant
    term first).  The unit content is dropped, so the product of the result
    reconstructs f.monic().
    """
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    acc: dict[Poly, int] = {}
    _factor_monic(f.monic(), acc)
    return tuple(sorted(acc.items(), key=lambda item: (item[0].coeffs, item[1])))


def primary_decomposition(A: MatrixFp
                          ) -> tuple[DirectSumDecomposition, tuple[tuple[Poly, int], ...]]:
    """Split the state space into the kernels of the primary factors of A.

    Raises NotDecomposable (carrying the single irreducible factor and its
    multiplicity) when the characteristic polynomial has only one distinct
    irreducible factor, since then no splitting of this kind exists.
    """
    chi = char_poly(A)
    factors = factor_poly(chi)
    if len(factors) == 1:
        raise NotDecomposable(*factors[0])
    parts = []
    for q, m in factors:
        part = null_space(poly_eval_matrix(q**m, A))
        assert part.dim == q.degree * m, "primary part has unexpected dimension"
        assert is_invariant(A, part)
        parts.append(part)
    return DirectSumDecomposition(parts), factors


def verify_decomposition(A: MatrixFp, decomp: DirectSumDecomposition) -> bool:
    """Certify that the parts of a direct sum (which DirectSumDecomposition
    enforces) are A-invariant.

    Accepts any invariant splitting, including ones finer than the primary
    decomposition.  Raises NotInvariant (with the offending part index) on
    failure; returns True on success.
    """
    if A.nrows != A.ncols or A.nrows != decomp.ambient_dim:
        raise ShapeError("A must be square over the ambient space of the parts")
    for i, part in enumerate(decomp.parts):
        if not is_invariant(A, part):
            raise NotInvariant(i)
    return True
