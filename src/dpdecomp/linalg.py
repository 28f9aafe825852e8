"""Exact linear algebra over GF(p): matrices, subspaces, direct sums.

Vectors are tuples of reduced ints (column convention).  Subspaces carry a
canonical basis, the reduced column echelon form of any spanning set, so two
subspaces are equal as sets exactly when their stored bases are equal
structurally.  Matrices with zero rows or zero columns are legal throughout;
they show up as autonomous subproblem input maps.  MatrixFp is the type at
the API boundary: every elimination is one routine, rref_rows, on rows its
caller builds.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import InitVar, dataclass
from itertools import accumulate, chain, count, repeat
from operator import add, floordiv, getitem, lshift, mod, mul, sub, xor
from typing import Iterable, Iterator, Sequence

from .errors import NotDirectSum, ShapeError
from .fields import Poly, PrimeField

Vector = tuple[int, ...]


@dataclass(frozen=True)
class MatrixFp:
    """An immutable dense matrix over GF(p), entries stored row-major."""

    field: PrimeField
    nrows: int
    ncols: int
    entries: Iterable[int]

    def __post_init__(self):
        if self.nrows < 0 or self.ncols < 0:
            raise ShapeError("matrix dimensions must be nonnegative")
        ent = tuple(map(mod, self.entries, repeat(self.field.p)))
        if len(ent) != self.nrows * self.ncols:
            raise ShapeError(f"expected {self.nrows * self.ncols} entries, got {len(ent)}")
        object.__setattr__(self, "entries", ent)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rows(cls, field: PrimeField, rows: Sequence[Sequence[int]], ncols: int | None = None) -> "MatrixFp":
        rows = [list(r) for r in rows]
        return cls(field, len(rows), _length(rows, ncols, "rows"), chain.from_iterable(rows))

    @classmethod
    def from_cols(cls, field: PrimeField, cols: Sequence[Sequence[int]], nrows: int | None = None) -> "MatrixFp":
        cols = [list(c) for c in cols]
        return cls(field, _length(cols, nrows, "columns"), len(cols), chain.from_iterable(zip(*cols)))

    @classmethod
    def from_products(cls, field: PrimeField, rows: Sequence[Sequence[int]],
                      cols: Sequence[Sequence[int]]) -> "MatrixFp":
        """The product of the matrix of these rows and the one of these columns."""
        return cls(field, len(rows), len(cols), [sum(map(mul, r, c)) for r in rows for c in cols])

    @classmethod
    def identity(cls, field: PrimeField, n: int) -> "MatrixFp":
        return cls(field, n, n, (1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, field: PrimeField, nrows: int, ncols: int) -> "MatrixFp":
        return cls(field, nrows, ncols, (0,) * (nrows * ncols))

    # -- access ------------------------------------------------------------

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise IndexError(key)
        return self.entries[i * self.ncols + j]

    def row(self, i: int) -> Vector:
        return self.entries[i * self.ncols : (i + 1) * self.ncols]

    def rows(self) -> list[Vector]:
        return list(map(self.row, range(self.nrows)))

    def col(self, j: int) -> Vector:
        return self.entries[j :: self.ncols] if self.ncols else ()

    def cols(self) -> list[Vector]:
        return [self.col(j) for j in range(self.ncols)]

    # -- arithmetic --------------------------------------------------------

    def _entrywise(self, op, other: "MatrixFp") -> "MatrixFp":
        if not isinstance(other, MatrixFp) or other.field != self.field:
            raise ValueError("matrices must share a field")
        if (other.nrows, other.ncols) != (self.nrows, self.ncols):
            raise ShapeError("shape mismatch")
        return MatrixFp(self.field, self.nrows, self.ncols, map(op, self.entries, other.entries))

    __add__ = functools.partialmethod(_entrywise, add)
    __sub__ = functools.partialmethod(_entrywise, sub)

    def scale(self, c: int) -> "MatrixFp":
        return MatrixFp(self.field, self.nrows, self.ncols, (c * a for a in self.entries))

    def __matmul__(self, other: "MatrixFp") -> "MatrixFp":
        if not isinstance(other, MatrixFp) or other.field != self.field:
            raise ValueError("matrices must share a field")
        if self.ncols != other.nrows:
            raise ShapeError(f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}")
        return MatrixFp.from_products(self.field, self.rows(), other.cols())

    def matvec(self, v: Sequence[int]) -> Vector:
        if len(v) != self.ncols:
            raise ShapeError(f"vector length {len(v)} vs {self.ncols} columns")
        p = self.field.p
        return tuple([sum(map(mul, self.row(i), v)) % p for i in range(self.nrows)])

    # -- solved forms ------------------------------------------------------

    def rank(self) -> int:
        return len(rref_rows(self.field.p, self.rows())[1])

    def is_invertible(self) -> bool:
        return self.nrows == self.ncols and self.rank() == self.nrows

    def inverse(self) -> "MatrixFp":
        if self.nrows != self.ncols:
            raise ShapeError("only square matrices invert")
        n = self.nrows
        # rref([M | I]) = [I | M^-1] exactly when M is invertible
        rows, pivots = rref_rows(self.field.p, [[*row, *[0] * i, 1, *[0] * (n - 1 - i)]
                                                for i, row in enumerate(self.rows())])
        if pivots[:n] != tuple(range(n)):
            raise ValueError("matrix is singular")
        return MatrixFp.from_rows(self.field, [row[n:] for row in rows], ncols=n)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(map(str, row)) for row in self.rows())
        return f"MatrixFp({self.nrows}x{self.ncols} mod {self.field.p}: [{body}])"


# the most entries in one sum table of index_sum.  First calls (table build
# included) at p = 3, 5, 7 and 2..8 digits, bounds 3^2..3^12: 3^8 was fastest on
# the longest sums, and 3^12 up to 6x slower (its tables cost more to build).
SUM_TABLE = 3**8


def index_map(M: MatrixFp) -> list[int]:
    """The base-p index of M x for every x in GF(p)^ncols, in index order of x.

    Indices are base-p little-endian (digit k is coordinate k).  This is the
    one place that computes the image index of every state; every other
    state-indexed table is read off its results.

    At p = 2 the list grows one column at a time: the states with x_j = 1
    follow the block of states below 2^j, each xor the index of column j.
    For odd p the rows are split into groups of h rows: two halves of a
    square or wide matrix, and groups of at most ncols rows for a tall one,
    so no table below is longer than the output.  For each group and column
    j, a translation table of p^h entries maps the index y of a group image
    to the index of y + (column j's digits in the group), digit by digit mod
    p.  The group's index list then grows one coordinate at a time: the
    states with x_j = k follow the block of states below p^j, translated k
    times.  The group lists are joined as lo + p^h·hi (a sum over every
    group when there are more), so each state costs a few C-level map steps
    per group and no Python loop step.
    """
    p, n, m, ent = M.field.p, M.nrows, M.ncols, M.entries
    if p == 2:
        out = [0]
        for j in range(m):
            c = sum(map(lshift, ent[j::m], count()))
            out += list(map(xor, out, repeat(c)))  # a list extended by a map over itself never ends
        return out
    h = max(1, min(-(-n // 2), m))
    out = [0] * p**m
    for top in range(0, n, h):
        stop = min(top + h, n) * m
        idx = [0]
        for j in range(m):
            t = [0]
            weight = 1
            for a in ent[top * m + j:stop:m]:
                t = [e + weight * ((d + a) % p) for d in range(p) for e in t]
                weight *= p
            block = idx
            for _ in range(p - 1):
                block = list(map(t.__getitem__, block))
                idx += block
        out = idx if top == 0 else list(map(add, out, map((p**top).__mul__, idx)))
    return out


def index_sum(p: int, xs: Iterable[int], ys: Iterable[int], digits: int) -> Iterator[int]:
    """The index of x + y, digit by digit mod p, for each x of xs and y of
    ys (y below p^digits; the digits of x from there up pass through), as
    an iterator, so a caller that maps the sums on holds none of them.

    At p = 2 it is xor.  For odd p the digits go in groups of h, the most
    for which the p^(2h) sums of a group fit in SUM_TABLE entries, and each
    group is added by one lookup in the kept table of those sums (a prime
    whose p^2 sums outgrow SUM_TABLE adds each digit mod p instead)."""
    if p == 2:
        return map(xor, xs, ys)
    xs, ys = list(xs), list(ys)
    size = p**digits
    low = xs if not xs or max(xs) < size else list(map(mod, xs, repeat(size)))
    if size * size <= SUM_TABLE:  # one group
        sums = map(getitem, map(_sum_table(p, digits).__getitem__, ys), low)
    else:
        h = max(1, next(k for k in count() if p ** (2 * k + 2) > SUM_TABLE))
        sums = [0] * len(xs)
        for s in range(0, digits, h):
            k = min(h, digits - s)
            a, b = (map(mod, map(floordiv, v, repeat(p**s)), repeat(p**k)) for v in (low, ys))
            part = (map(getitem, map(_sum_table(p, k).__getitem__, b), a) if p * p <= SUM_TABLE
                    else map(mod, map(add, a, b), repeat(p)))
            sums = list(map(add, sums, map(mul, part, repeat(p**s))))
    return iter(sums) if low is xs else map(add, map(sub, xs, low), sums)


@functools.lru_cache(maxsize=16)
def _sum_table(p: int, k: int) -> list[list[int]]:
    """t[b][a] = a + b digit by digit, for a, b below p^k: rows of the map of [I_k | I_k]."""
    q = p**k
    total = index_map(MatrixFp(PrimeField(p), k, 2 * k,
                               [int(j % k == i) for i in range(k) for j in range(2 * k)]))
    return [total[i:i + q] for i in range(0, q * q, q)]


def rref_rows(p: int, rows: list[Sequence[int]]) -> tuple[list[list[int]], tuple[int, ...]]:
    """The one elimination routine: rows of one length, entries in range(p),
    in reduced row echelon form (the first len(pivots) nonzero, the rest
    zero), and the pivot columns; the rank is len(pivots).  The list itself
    is reordered and its rows replaced, each by a new list, never edited."""
    nrows = len(rows)
    pivots: list[int] = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        for k in range(r, nrows):
            if rows[k][c]:
                break
        else:
            continue
        top = rows[k]
        rows[k] = rows[r]
        inv = pow(top[c], p - 2, p)
        if inv != 1:
            top = [(inv * e) % p for e in top]
        rows[r] = top
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                rows[i] = [(a - f * b) % p for a, b in zip(row, top)]
        pivots.append(c)
    return rows, tuple(pivots)


def _length(vectors: list[list[int]], given: int | None, what: str) -> int:
    """The one length of vectors, which given (if not None) must be."""
    lengths = {len(v) for v in vectors} | ({given} - {None})
    if len(lengths) != 1:
        raise ShapeError(f"{what} of lengths {sorted({len(v) for v in vectors})}, expected {given}")
    return lengths.pop()


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of GF(p)^n with a canonical echelon basis.

    Internally the basis vectors are the rows of an RREF matrix (transposed
    back to columns on demand), which makes equality and membership cheap
    and deterministic.
    """

    field: PrimeField
    ambient_dim: int
    spanning: InitVar[Iterable[Sequence[int]]] = ()
    _rows: tuple[Vector, ...] = dataclasses.field(init=False)
    _pivots: tuple[int, ...] = dataclasses.field(init=False)

    def __post_init__(self, spanning):
        p = self.field.p
        vectors = [list(map(mod, v, repeat(p))) for v in spanning]
        if any(len(v) != self.ambient_dim for v in vectors):
            raise ShapeError("spanning vector of wrong length")
        rows, pivots = rref_rows(p, vectors)
        object.__setattr__(self, "_rows", tuple(map(tuple, rows[:len(pivots)])))
        object.__setattr__(self, "_pivots", pivots)

    @property
    def dim(self) -> int:
        return len(self._rows)

    def basis_vectors(self) -> list[Vector]:
        """Canonical basis, one ambient column vector per dimension."""
        return [tuple(r) for r in self._rows]

    def basis_matrix(self) -> MatrixFp:
        """Basis as matrix columns (ambient_dim x dim)."""
        return MatrixFp(self.field, self.ambient_dim, self.dim, chain.from_iterable(zip(*self._rows)))

    def contains(self, v: Sequence[int]) -> bool:
        """Is v in the span?  The basis is in reduced echelon form, so v's
        coefficient on each row is v at that row's pivot."""
        if len(v) != self.ambient_dim:
            raise ShapeError("vector length mismatch")
        p = self.field.p
        v = [e % p for e in v]
        for c, row in zip(self._pivots, self._rows):
            if lam := v[c]:
                v = [(a - lam * b) % p for a, b in zip(v, row)]
        return not any(v)

    def __repr__(self) -> str:
        vecs = ", ".join(str(list(r)) for r in self._rows)
        return f"Subspace(dim {self.dim} of GF({self.field.p})^{self.ambient_dim}: <{vecs}>)"


def column_space(M: MatrixFp) -> Subspace:
    return Subspace(M.field, M.nrows, M.cols())


def _kernel(p: int, rows: list[Sequence[int]], ncols: int) -> list[list[int]]:
    """A basis of the x in GF(p)^ncols orthogonal to every row: one vector
    per free column of the eliminated rows."""
    rows, pivots = rref_rows(p, rows)
    at = dict(zip(pivots, rows))  # the reduced row of each pivot column
    return [[-at[j][free] % p if j in at else int(j == free) for j in range(ncols)]
            for free in range(ncols) if free not in at]


def null_space(M: MatrixFp) -> Subspace:
    """Kernel {x : M x = 0} as a subspace of the domain."""
    return Subspace(M.field, M.ncols, _kernel(M.field.p, M.rows(), M.ncols))


def subspace_sum(S: Subspace, T: Subspace) -> Subspace:
    if S.field != T.field or S.ambient_dim != T.ambient_dim:
        raise ShapeError("subspaces live in different ambient spaces")
    return Subspace(S.field, S.ambient_dim, S.basis_vectors() + T.basis_vectors())


def subspace_intersect(S: Subspace, T: Subspace) -> Subspace:
    """The rows (s | s) of S's basis and (t | 0) of T's, eliminated: those with
    their pivot in the right half are (0 | v), v over a basis of the meet."""
    if S.field != T.field or S.ambient_dim != T.ambient_dim:
        raise ShapeError("subspaces live in different ambient spaces")
    n = S.ambient_dim
    rows, pivots = rref_rows(S.field.p, [s + s for s in S._rows] + [t + (0,) * n for t in T._rows])
    return Subspace(S.field, n, [row[n:] for row, c in zip(rows, pivots) if c >= n])


def preimage(M: MatrixFp, S: Subspace) -> Subspace:
    """The subspace {u : M u is a member of S} of the domain of M."""
    if S.ambient_dim != M.nrows or S.field != M.field:
        raise ShapeError("subspace must live in the codomain of M")
    k = M.ncols
    # u is in the preimage exactly when M u = -S w, so (u, w) is in ker [M | S], for some w
    rows = [[*row, *(b[i] for b in S._rows)] for i, row in enumerate(M.rows())]
    return Subspace(M.field, k, [w[:k] for w in _kernel(M.field.p, rows, k + S.dim)])


def is_invariant(A: MatrixFp, S: Subspace) -> bool:
    """True when A maps S into S."""
    if A.nrows != A.ncols or A.ncols != S.ambient_dim:
        raise ShapeError("A must be square over the ambient space of S")
    return all(S.contains(A.matvec(b)) for b in S.basis_vectors())


@dataclass(frozen=True)
class DirectSumDecomposition:
    """An ordered splitting of GF(p)^n into at least two independent parts,
    none of them zero.

    Carries the change-of-basis matrix formed by concatenating part bases and
    its inverse, so component extraction is a solve done once; blocks[i],
    the range of part i's coordinates in that basis; and its two per-part
    state tables, built on first use and then kept.  Equal parts
    make equal splittings; every other attribute is derived from them.
    """

    parts: Sequence[Subspace]
    field: PrimeField = dataclasses.field(init=False)
    ambient_dim: int = dataclasses.field(init=False)
    change_of_basis: MatrixFp = dataclasses.field(init=False)
    change_of_basis_inv: MatrixFp = dataclasses.field(init=False)
    blocks: tuple[range, ...] = dataclasses.field(init=False)

    def __post_init__(self):
        parts = tuple(self.parts)
        if len(parts) < 2:
            raise ValueError("a direct-sum splitting needs at least two parts")
        field = parts[0].field
        n = parts[0].ambient_dim
        if any(s.field != field or s.ambient_dim != n for s in parts):
            raise ShapeError("parts live in different ambient spaces")
        if not all(s.dim for s in parts):
            raise NotDirectSum(f"part {[s.dim for s in parts].index(0)} has dimension 0")
        if sum(s.dim for s in parts) != n:
            raise NotDirectSum(
                f"part dimensions sum to {sum(s.dim for s in parts)}, ambient is {n}")
        cols = [list(b) for s in parts for b in s.basis_vectors()]
        C = MatrixFp.from_cols(field, cols, nrows=n)
        try:
            C_inv = C.inverse()
        except ValueError:
            raise NotDirectSum("parts are not independent") from None
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "ambient_dim", n)
        object.__setattr__(self, "change_of_basis", C)
        object.__setattr__(self, "change_of_basis_inv", C_inv)
        object.__setattr__(self, "blocks", tuple(
            range(end - s.dim, end) for s, end in zip(parts, accumulate(s.dim for s in parts))))

    @property
    def r(self) -> int:
        return len(self.parts)

    def coordinates(self, i: int) -> MatrixFp:
        """Part i's rows of the inverse change of basis: the map from x to
        the coordinates of its part-i component in that part's basis."""
        n, rows = self.ambient_dim, self.blocks[i]
        return MatrixFp(self.field, len(rows), n,
                        self.change_of_basis_inv.entries[rows.start * n:rows.stop * n])

    @functools.cached_property
    def local_index_tables(self) -> list[list[int]]:
        """For each part, the index of the part-local coordinates of every
        ambient state."""
        return [index_map(self.coordinates(i)) for i in range(self.r)]

    @functools.cached_property
    def embedding_tables(self) -> list[list[int]]:
        """For each part, the ambient index of every part-local state."""
        return [index_map(s.basis_matrix()) for s in self.parts]

    def __repr__(self) -> str:
        dims = " + ".join(str(s.dim) for s in self.parts)
        return f"DirectSumDecomposition(GF({self.field.p})^{self.ambient_dim} = {dims})"


def poly_eval_matrix(f: Poly, A: MatrixFp) -> MatrixFp:
    """Evaluate a polynomial at a square matrix by Horner's rule."""
    if A.nrows != A.ncols:
        raise ShapeError("polynomial evaluation needs a square matrix")
    if f.field != A.field:
        raise ValueError("polynomial and matrix must share a field")
    n = A.nrows
    acc = MatrixFp.zeros(A.field, n, n)
    eye = MatrixFp.identity(A.field, n)
    for c in reversed(f.coeffs):
        acc = acc @ A + eye.scale(c)
    return acc
