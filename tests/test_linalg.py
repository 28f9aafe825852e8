"""Exact linear algebra over GF(p): matrices, subspaces, direct sums.

Structural identities (rank-nullity, the dimension law for sums and
intersections, preimage maximality) are checked by exhaustive enumeration
at small sizes, which is feasible because the spaces are finite.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from dpdecomp.dp import index_state, state_index
from dpdecomp.errors import NotDirectSum, ShapeError
from dpdecomp.fields import Poly, PrimeField
from dpdecomp import linalg
from dpdecomp.linalg import (DirectSumDecomposition, MatrixFp, Subspace,
                             column_space, index_map, index_sum, is_invariant, null_space,
                             poly_eval_matrix, preimage, rref,
                             subspace_intersect, subspace_sum)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def members(S):
    """Every member vector of S, read off the index map of its basis."""
    return [index_state(i, S.field.p, S.ambient_dim) for i in index_map(S.basis_matrix())]


@st.composite
def matrices(draw, max_dim=3, primes=(2, 3, 5)):
    F = PrimeField(draw(st.sampled_from(primes)))
    nr = draw(st.integers(1, max_dim))
    nc = draw(st.integers(1, max_dim))
    entries = draw(st.lists(st.integers(0, F.p - 1), min_size=nr * nc,
                            max_size=nr * nc))
    return MatrixFp(F, nr, nc, entries)


@st.composite
def square_matrices(draw, max_dim=3, primes=(2, 3, 5)):
    F = PrimeField(draw(st.sampled_from(primes)))
    n = draw(st.integers(1, max_dim))
    entries = draw(st.lists(st.integers(0, F.p - 1), min_size=n * n,
                            max_size=n * n))
    return MatrixFp(F, n, n, entries)


@st.composite
def subspace_pairs(draw, ambient=3, primes=(2, 3)):
    F = PrimeField(draw(st.sampled_from(primes)))
    def span(k):
        return [draw(st.lists(st.integers(0, F.p - 1), min_size=ambient,
                              max_size=ambient)) for _ in range(k)]
    S = Subspace(F, ambient, span(draw(st.integers(0, 3))))
    T = Subspace(F, ambient, span(draw(st.integers(0, 3))))
    return S, T


# === matrices ===

def test_shape_checks():
    A = MatrixFp.from_rows(F3, [[1, 2], [0, 1]])
    B = MatrixFp.from_rows(F3, [[1], [2]])
    with pytest.raises(ShapeError):
        A + B
    with pytest.raises(ShapeError):
        B @ A @ B  # (2x1)(2x2) mismatch
    assert A @ B == MatrixFp.from_rows(F3, [[2], [2]])


def test_matvec_hand_example():
    A = MatrixFp.from_rows(F3, [[1, 1, 0], [0, 2, 0], [0, 0, 1]])
    assert A.matvec((1, 2, 0)) == (0, 1, 0)


@given(square_matrices())
def test_pow_repeated_product(A):
    # matrix powers come from evaluating the monomials x^k at A
    assert poly_eval_matrix(Poly.monomial(A.field, 0), A) == MatrixFp.identity(A.field, A.nrows)
    assert poly_eval_matrix(Poly.monomial(A.field, 3), A) == A @ A @ A


@given(square_matrices())
def test_inverse_or_singular(A):
    if A.is_invertible():
        inv = A.inverse()
        eye = MatrixFp.identity(A.field, A.nrows)
        assert A @ inv == eye
        assert inv @ A == eye
    else:
        with pytest.raises(ValueError):
            A.inverse()


def test_inverse_hand_example():
    # [[1,1],[1,2]] over GF(3): det = 1, inverse = [[2,2],[2,1]]
    A = MatrixFp.from_rows(F3, [[1, 1], [1, 2]])
    assert A.inverse() == MatrixFp.from_rows(F3, [[2, 2], [2, 1]])


@given(matrices())
def test_rref_idempotent_and_rank(M):
    rows, pivots = rref(M)
    rows2, pivots2 = rref(MatrixFp.from_rows(M.field, rows, ncols=M.ncols))
    assert rows == rows2 and pivots == pivots2
    assert len(rows) == M.nrows and not any(map(any, rows[len(pivots):]))
    assert M.rank() == len(pivots) <= min(M.nrows, M.ncols)


@given(matrices(max_dim=3, primes=(2, 3)))
def test_rank_nullity(M):
    assert M.rank() + null_space(M).dim == M.ncols


@given(matrices(max_dim=3, primes=(2, 3)))
def test_null_space_members_annihilate(M):
    ns = null_space(M)
    zero = (0,) * M.nrows
    for v in members(ns):
        assert M.matvec(v) == zero


def matvec_index_oracle(M):
    """Reference for index_map: decode every x, multiply, encode M x."""
    p = M.field.p
    out = []
    for idx in range(p**M.ncols):
        x = [(idx // p**j) % p for j in range(M.ncols)]
        out.append(sum(d * p**i for i, d in enumerate(M.matvec(x))))
    return out


@given(st.sampled_from([2, 3, 5, 7]), st.integers(0, 6), st.data())
@settings(max_examples=200, deadline=None)
def test_index_map_matches_matvec(p, nrows, data):
    # up to 6 rows, so the two row groups may be unequal or hold one row (and
    # a tall matrix has more groups), up to 6 columns with p^ncols <= 4096;
    # 0 rows and 0 columns included
    ncols = data.draw(st.integers(0, max(k for k in range(7) if p**k <= 4096)))
    entries = data.draw(st.lists(st.integers(0, p - 1), min_size=nrows * ncols,
                                 max_size=nrows * ncols))
    M = MatrixFp(PrimeField(p), nrows, ncols, entries)
    assert index_map(M) == matvec_index_oracle(M)


def index_sum_oracle(p, xs, ys, digits):
    """Reference for index_sum: decode both indices, add the low digits mod
    p and keep the high digits of x, encode."""
    width = digits + 8  # past every digit of x
    return [state_index([a + b if k < digits else a for k, (a, b) in enumerate(
        zip(index_state(x, p, width), index_state(y, p, width)))], p) for x, y in zip(xs, ys)]


@given(st.sampled_from([2, 3, 5, 7, 101]), st.integers(0, 6), st.data())
@settings(max_examples=300, deadline=None)
def test_index_sum_matches_digit_oracle(p, digits, data):
    # every odd p meets sums through one table (few digits) and through
    # groups of digits (more digits); p = 101, whose p^2 sums outgrow
    # SUM_TABLE, adds digit by digit
    size = data.draw(st.integers(0, 60))
    high = data.draw(st.integers(0, 2))
    xs = data.draw(st.lists(st.integers(0, p**(digits + high) - 1), min_size=size, max_size=size))
    ys = data.draw(st.lists(st.integers(0, p**digits - 1), min_size=size, max_size=size))
    assert list(index_sum(p, xs, ys, digits)) == index_sum_oracle(p, xs, ys, digits)
    # iterables are consumed once, lists are left as they were
    assert list(index_sum(p, iter(xs), iter(ys), digits)) == index_sum_oracle(p, xs, ys, digits)


@pytest.mark.parametrize("p, digits", [(3, 9), (5, 5), (7, 3), (101, 2)])
def test_index_sum_keeps_no_table_above_sum_table(p, digits, monkeypatch):
    """Sums of more digits than one table holds go through groups of
    digits, and no sum table used holds more than SUM_TABLE entries."""
    built = []
    table = linalg._sum_table

    def recording(p, k):
        built.append(p ** (2 * k))
        return table(p, k)

    monkeypatch.setattr(linalg, "_sum_table", recording)
    rng = random.Random(p)
    size = 3 * p**digits
    xs = [rng.randrange(p ** (digits + 1)) for _ in range(size)]
    ys = [rng.randrange(p**digits) for _ in range(size)]
    assert list(index_sum(p, xs, ys, digits)) == index_sum_oracle(p, xs, ys, digits)
    assert p ** (2 * digits) > linalg.SUM_TABLE
    assert max(built, default=0) <= linalg.SUM_TABLE


@pytest.mark.parametrize("shape", [(0, 2), (2, 0), (1, 1), (3, 1), (1, 3), (4, 2)])
def test_index_map_with_a_large_prime(shape):
    # translation tables of up to 101 entries, joined over up to 4 row groups
    rng = random.Random(str(shape))
    F101 = PrimeField(101)
    nrows, ncols = shape
    M = MatrixFp(F101, nrows, ncols, [rng.randrange(101) for _ in range(nrows * ncols)])
    assert index_map(M) == matvec_index_oracle(M)


def test_index_map_empty_shapes():
    assert index_map(MatrixFp.zeros(F5, 0, 2)) == [0] * 25
    assert index_map(MatrixFp.zeros(F5, 2, 0)) == [0]


def test_transpose_and_stack():
    A = MatrixFp.from_rows(F2, [[1, 0], [1, 1]])
    assert A.cols() == [(1, 1), (0, 1)]  # the columns are the transpose's rows
    # [A | A] from the columns, as DPInstance.transitions builds [A | B]
    assert (MatrixFp.from_cols(F2, A.cols() + A.cols(), nrows=2)
            == MatrixFp.from_rows(F2, [[1, 0, 1, 0], [1, 1, 1, 1]]))


# === subspaces ===

def test_subspace_canonical_equality():
    S = Subspace(F3, 2, [(1, 0), (1, 1)])
    T = Subspace(F3, 2, [(1, 1), (0, 1)])
    assert S == T
    assert S.dim == 2
    assert hash(S) == hash(T)


def test_subspace_membership_and_coords():
    S = Subspace(F3, 3, [(1, 1, 0)])
    assert S.contains((2, 2, 0))
    assert not S.contains((1, 2, 0))
    coords = S.coords_of((2, 2, 0))
    assert coords is not None
    assert S.basis_matrix().matvec(coords) == (2, 2, 0)
    assert S.coords_of((0, 0, 1)) is None


@given(subspace_pairs())
def test_vectors_enumeration_count(pair):
    S, _ = pair
    found = set(members(S))
    assert len(found) == S.field.p ** S.dim
    assert all(S.contains(v) for v in found)


@given(subspace_pairs())
@settings(max_examples=60)
def test_dimension_law(pair):
    S, T = pair
    assert (S.dim + T.dim
            == subspace_sum(S, T).dim + subspace_intersect(S, T).dim)


@given(subspace_pairs())
@settings(max_examples=60)
def test_intersection_is_lower_bound(pair):
    S, T = pair
    I = subspace_intersect(S, T)
    for v in members(I):
        assert S.contains(v) and T.contains(v)
    assert all(subspace_sum(S, T).contains(b) for b in S.basis_vectors())


def test_row_column_space_hand_example():
    M = MatrixFp.from_rows(F2, [[1, 1], [1, 1]])
    assert column_space(M) == Subspace(F2, 2, [(1, 1)])
    assert null_space(M) == Subspace(F2, 2, [(1, 1)])


@given(matrices(max_dim=3, primes=(2, 3)))
@settings(max_examples=60)
def test_preimage_is_exact(M):
    # preimage of the column span of the first standard basis image
    S = Subspace(M.field, M.nrows, [M.col(0)])
    pre = preimage(M, S)
    p = M.field.p
    expected = []
    for idx in range(p ** M.ncols):
        digits = []
        c = idx
        for _ in range(M.ncols):
            digits.append(c % p)
            c //= p
        if S.contains(M.matvec(digits)):
            expected.append(tuple(digits))
    assert set(members(pre)) == set(expected)


def test_preimage_of_zero_is_kernel():
    M = MatrixFp.from_rows(F3, [[1, 1, 0], [0, 0, 1]])
    assert preimage(M, Subspace(F3, 2)) == null_space(M)


# === direct sums ===

def _example_parts():
    return [Subspace(F3, 3, [(1, 0, 0)]),
            Subspace(F3, 3, [(1, 1, 0)]),
            Subspace(F3, 3, [(0, 0, 1)])]


def test_direct_sum_recognition():
    parts = _example_parts()
    assert DirectSumDecomposition(parts).r == 3
    with pytest.raises(NotDirectSum):
        DirectSumDecomposition(parts[:2])  # spans only 2 of 3 dims
    overlapping = [parts[0], Subspace(F3, 3, [(1, 0, 0), (0, 1, 0)])]
    with pytest.raises(NotDirectSum):
        DirectSumDecomposition(overlapping)


def test_decomposition_rejects_bad_parts():
    with pytest.raises(ValueError):
        DirectSumDecomposition([Subspace(F3, 2, [(1, 0), (0, 1)])])  # fewer than 2 parts
    dependent = [Subspace(F3, 2, [(1, 0)]), Subspace(F3, 2, [(1, 0)])]
    with pytest.raises(NotDirectSum):
        DirectSumDecomposition(dependent)
    short = [Subspace(F3, 3, [(1, 0, 0)]), Subspace(F3, 3, [(0, 1, 0)])]
    with pytest.raises(NotDirectSum):
        DirectSumDecomposition(short)


def components(D, x):
    """The component of x in each part: part i's basis applied to the
    coordinates D.coordinates(i) extracts."""
    return [part.basis_matrix().matvec(D.coordinates(i).matvec(x))
            for i, part in enumerate(D.parts)]


def test_decompose_vector_frozen():
    D = DirectSumDecomposition(_example_parts())
    assert components(D, (1, 2, 0)) == [(2, 0, 0), (2, 2, 0), (0, 0, 0)]


def test_components_sum_back():
    D = DirectSumDecomposition(_example_parts())
    p = 3
    for idx in range(27):
        x = (idx % p, (idx // p) % p, idx // p**2)
        comps = components(D, x)
        total = tuple(sum(c[k] for c in comps) % p for k in range(3))
        assert total == x
        for i, c in enumerate(comps):
            assert D.parts[i].contains(c)


def test_local_coords_embed_roundtrip():
    # coordinates of a part member, mapped back through the part's basis
    D = DirectSumDecomposition(_example_parts())
    for i, c in enumerate(components(D, (1, 2, 0))):
        assert D.parts[i].basis_matrix().matvec(D.coordinates(i).matvec(c)) == c


def test_decomposition_index_tables_match_coordinates():
    D = DirectSumDecomposition(_example_parts())
    local = D.local_index_tables
    for idx in range(27):
        x = (idx % 3, (idx // 3) % 3, idx // 9)
        for i in range(D.r):
            loc = D.coordinates(i).matvec(x)
            assert local[i][idx] == sum(d * 3**k for k, d in enumerate(loc))
    for part, table in zip(D.parts, D.embedding_tables):
        assert len(table) == 3**part.dim
        for y, e in enumerate(table):
            coords = [(y // 3**k) % 3 for k in range(part.dim)]
            v = part.basis_matrix().matvec(coords)
            assert e == v[0] + 3 * v[1] + 9 * v[2]


def test_projectors():
    # E_i C_i projects onto part i along the others
    D = DirectSumDecomposition(_example_parts())
    eye = MatrixFp.identity(F3, 3)
    total = MatrixFp.zeros(F3, 3, 3)
    for i, part in enumerate(D.parts):
        P = part.basis_matrix() @ D.coordinates(i)
        assert P @ P == P
        total = total + P
    assert total == eye


def test_invariance_check():
    A = MatrixFp.from_rows(F3, [[1, 1, 0], [0, 2, 0], [0, 0, 1]])
    for part in _example_parts():
        assert is_invariant(A, part)
    assert not is_invariant(A, Subspace(F3, 3, [(0, 1, 0)]))


def test_poly_eval_matrix_hand_example():
    # f(x) = x^2 + 1 at A = [[0,1],[1,0]] over GF(2): A^2 = I, so f(A) = 0
    A = MatrixFp.from_rows(F2, [[0, 1], [1, 0]])
    f = Poly(F2, [1, 0, 1])
    assert poly_eval_matrix(f, A) == MatrixFp.zeros(F2, 2, 2)


def test_from_rows_and_cols_refuse_a_size_that_disagrees():
    """An explicit ncols (nrows) must be the length of the rows (columns)
    given; it used to be ignored."""
    with pytest.raises(ShapeError):
        MatrixFp.from_rows(F2, [[1, 2]], ncols=5)
    with pytest.raises(ShapeError):
        MatrixFp.from_cols(F2, [[1, 2]], nrows=5)
    assert MatrixFp.from_rows(F2, [[1, 0]], ncols=2) == MatrixFp.from_rows(F2, [[1, 0]])
    assert MatrixFp.from_cols(F2, [[1, 0]], nrows=2) == MatrixFp.from_rows(F2, [[1], [0]])
    assert MatrixFp.from_rows(F2, [], ncols=3) == MatrixFp.zeros(F2, 0, 3)
    assert MatrixFp.from_cols(F2, [], nrows=3) == MatrixFp.zeros(F2, 3, 0)
    for rows in ([], [[1], [1, 0]]):
        with pytest.raises(ShapeError):
            MatrixFp.from_rows(F2, rows)
        with pytest.raises(ShapeError):
            MatrixFp.from_cols(F2, rows)


def test_decomposition_refuses_a_zero_dimensional_part():
    """A part of dimension 0 splits nothing off (with one it, the trivial
    splitting passed the two-part rule); the error names the part."""
    whole, line = Subspace(F3, 2, [(1, 0), (0, 1)]), Subspace(F3, 2, [(1, 1)])
    for parts, k in (([Subspace(F3, 2), whole], 0), ([whole, Subspace(F3, 2, [(0, 0)])], 1),
                     ([line, Subspace(F3, 2), Subspace(F3, 2, [(1, 2)])], 1)):
        with pytest.raises(NotDirectSum, match=f"part {k} has dimension 0"):
            DirectSumDecomposition(parts)


# === the row routine, against an oracle and against enumeration ===

def oracle_rref(M):
    """rref as it ran on a MatrixFp before elimination moved to plain rows
    (linalg.rref_rows), kept as the oracle of the row routine."""
    field = M.field
    p = field.p
    rows = [list(M.row(i)) for i in range(M.nrows)]
    pivots = []
    r = 0
    for c in range(M.ncols):
        if r == M.nrows:
            break
        pivot_row = next((i for i in range(r, M.nrows) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = field.inv(rows[r][c])
        if inv != 1:
            rows[r] = [(inv * e) % p for e in rows[r]]
        for i in range(M.nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, tuple(pivots)


def random_rows(rng, p, nrows, ncols):
    """Rows that make low ranks likely: each is random, zero, or a multiple
    of an earlier one plus a sparse change."""
    rows = []
    for _ in range(nrows):
        kind = rng.randrange(3) if rows else 0
        if kind == 0:
            row = [rng.randrange(p) for _ in range(ncols)]
        elif kind == 1:
            row = [0] * ncols
        else:
            c = rng.randrange(p)
            row = [c * e % p for e in rng.choice(rows)]
            if ncols and rng.random() < 0.5:
                row[rng.randrange(ncols)] = rng.randrange(p)
        rows.append(row)
    return rows


def test_rref_rows_matches_the_oracle():
    """rref_rows gives the oracle's rows and pivots for p in {2, 3, 5, 7}
    and shapes with zero rows and zero columns, replaces rows without
    editing any in place, and rref(M) is it on M's rows."""
    rng = random.Random("rref-rows")
    for p in (2, 3, 5, 7):
        F = PrimeField(p)
        for _ in range(200):
            nrows, ncols = rng.randint(0, 6), rng.randint(0, 7)
            given = random_rows(rng, p, nrows, ncols)
            kept = [list(row) for row in given]
            M = MatrixFp.from_rows(F, given, ncols=ncols)
            want = oracle_rref(M)
            assert linalg.rref_rows(p, list(given)) == want, (p, kept)
            assert given == kept
            assert rref(M) == want


def span(p, vectors, k):
    """Every combination of vectors over GF(p), as k-tuples."""
    return {tuple(sum(c * v[j] for c, v in zip(cs, vectors)) % p for j in range(k))
            for cs in itertools.product(range(p), repeat=len(vectors))}


ENUMERATED = {2: 5, 3: 4, 5: 3, 7: 3}  # the largest k whose GF(p)^k is enumerated


def test_subspace_algebra_matches_enumeration():
    """Subspace, null_space, preimage, subspace_intersect and is_invariant
    agree with brute-force enumeration of GF(p)^k for p in {2, 3, 5, 7},
    with zero-dimensional spaces, zero subspaces and matrices with zero rows
    or zero columns among the cases."""
    rng = random.Random("subspace-enumeration")
    for p, top in ENUMERATED.items():
        F = PrimeField(p)
        for trial in range(30):
            k, j = rng.randint(0, top), rng.randint(0, top)
            space = list(itertools.product(range(p), repeat=k))
            spanning = random_rows(rng, p, rng.randint(0, 3), k)
            S = Subspace(F, k, spanning)
            members = span(p, spanning, k)
            assert span(p, S.basis_vectors(), k) == members and len(members) == p**S.dim
            assert Subspace(F, k, S.basis_vectors()) == S
            assert all(S.contains(x) == (x in members) for x in space)
            other = random_rows(rng, p, rng.randint(0, 3), k)
            meet = subspace_intersect(S, Subspace(F, k, other))
            assert span(p, meet.basis_vectors(), k) == members & span(p, other, k)
            M = MatrixFp.from_rows(F, random_rows(rng, p, j, k), ncols=k)
            assert (span(p, null_space(M).basis_vectors(), k)
                    == {x for x in space if not any(M.matvec(x))})
            target = random_rows(rng, p, rng.randint(0, 3), j)
            allowed = span(p, target, j)
            assert (span(p, preimage(M, Subspace(F, j, target)).basis_vectors(), k)
                    == {x for x in space if M.matvec(x) in allowed})
            A = MatrixFp.from_rows(F, random_rows(rng, p, k, k), ncols=k)
            if trial % 2 and k:  # a Krylov span, which A maps into itself
                v = tuple(rng.randrange(p) for _ in range(k))
                krylov = [v]
                for _ in range(k):
                    krylov.append(A.matvec(krylov[-1]))
                S, members = Subspace(F, k, krylov), span(p, krylov, k)
                assert is_invariant(A, S)
            assert is_invariant(A, S) == all(A.matvec(x) in members for x in members)
