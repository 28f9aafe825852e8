"""The coset frame of x' = A x + B u over GF(p): GF(p)^n in a basis Q
whose first r = rank B vectors span im(B).

The coordinate index of a state y (its index under Q^-1) has the
position w of y inside its coset of im(B) as its low r digits and the
coset label c as its high n - r digits, so coset c is the block of
P = p^r consecutive coordinate indices starting at c·P.  The successor
of x under u is the state at coordinate index k(Ax) + offset[u], summed
digit by digit (linalg.index_sum), which moves w and keeps c.  Every
kernel is a few C-level map, slice and itemgetter passes, with no Python
step per state, and no table has more than p^n or p^m entries, whatever
the rank of B.

Every state x whose A x lies in coset c can reach exactly the states of
c, so a stationary policy that picks one coordinate index per coset (a
first_minimal position) already holds a best successor for all of them:
policy iteration keeps p^(n-r) choices, not p^n inputs.

One elimination builds the frame: the pivot columns of [B | I_n] are Q's
columns, and rref sends them to e_1..e_n, so
rref([B | I_n]) = [Q^-1 B | Q^-1]: the right block is Q^-1 and the top
r rows of the left block are R, and one row product gives Q^-1 A.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from itertools import chain, compress, count, islice, repeat
from operator import eq, floordiv, getitem, itemgetter, lt, mul, ne
from typing import Callable, Sequence

from .linalg import MatrixFp, index_map, index_sum, rref_rows


def reader(at: Sequence[int]) -> Callable[[Sequence], tuple]:
    """A function reading a row at the indices at into a tuple in one C
    call: operator.itemgetter, wrapped for one index (a bare entry then)."""
    get = itemgetter(*at)
    return get if len(at) > 1 else lambda row: (get(row),)


@dataclass(frozen=True, eq=False, repr=False)
class CosetFrame:
    """The cosets of im(B) and where A and B move states among them.

    minima and argmin_sets read value rows in coordinate order, as the
    solvers keep them: a stage row, g(y) plus the minimum M over the coset
    of Ay at each coordinate index, is g read in_coords plus M read
    by_coset, and in_states reads a row back for a table the solver
    returns."""

    p: int
    r: int                     # rank B: a position has r digits
    P: int                     # p^r positions per coset
    order: list[int]           # order[k]: the state with coordinate index k
    k_ax: list[int]            # coordinate index of A x, per state x
    offset: list[int]          # R u, the in-coset shift of B u, per input u
    pre: list[frozenset[int]]  # pre[d]: the inputs u with R u = d
    neg: list[int]             # neg[w]: the position -w, digit by digit
    c_ak: tuple[int, ...] = dataclasses.field(init=False)  # coset label of A order[k]
    # readers (see reader) of a row into coordinate order, into state order,
    # at c_ak (a row by coset) and at k_ax (a row in coordinate order)
    in_coords: Callable = dataclasses.field(init=False)
    in_states: Callable = dataclasses.field(init=False)
    by_coset: Callable = dataclasses.field(init=False)
    at_ax: Callable = dataclasses.field(init=False)
    # rows of fibres by position (see argmin_sets)
    _rows: dict = dataclasses.field(default_factory=dict, init=False)

    def __post_init__(self):
        c_ax = list(map(floordiv, self.k_ax, repeat(self.P)))
        coord = [0] * len(self.order)  # the inverse of order
        for k, x in enumerate(self.order):
            coord[x] = k
        in_coords = reader(self.order)
        c_ak = in_coords(c_ax)
        self.__dict__.update(c_ak=c_ak, in_coords=in_coords, in_states=reader(coord),
                             by_coset=reader(c_ak), at_ax=reader(self.k_ax))  # frozen

    @classmethod
    def of(cls, A: MatrixFp, B: MatrixFp) -> "CosetFrame":
        field, n, m = A.field, B.nrows, B.ncols
        bi = [[*row, *[0] * i, 1, *[0] * (n - 1 - i)] for i, row in enumerate(B.rows())]
        # the pivots of [B | I] in B are a basis of im(B), those in I complete it
        rows, pivots = rref_rows(field.p, bi[:])
        r = sum(1 for j in pivots if j < m)
        # im(B) is spanned by Q's first r columns, so Q^-1 B vanishes below row r
        offset = index_map(MatrixFp.from_rows(field, [row[:m] for row in rows[:r]], ncols=m))
        P = field.p**r
        pre: list[list[int]] = [[] for _ in range(P)]
        for u, d in enumerate(offset):
            pre[d].append(u)
        return cls(field.p, r, P,
                   index_map(MatrixFp(field, n, n, [row[j] for row in bi for j in pivots])),
                   index_map(MatrixFp.from_products(field, [row[m:] for row in rows], A.cols())),
                   offset, [frozenset(us) for us in pre],
                   index_map(MatrixFp(field, r, r, [-(i == j) for i in range(r) for j in range(r)])))

    def minima(self, num: Sequence, den: Sequence[int] | None = None
               ) -> tuple[Sequence, list, list, list[int] | None]:
        """The minima over every coset of the values num[k] in coordinate
        order, or of num[k] / den[k] given den (every den positive): a key,
        the key's coset minima (argmin_sets(key, key minima) are the values'
        minimizer sets), and every coset's minimum as a numerator list and
        a denominator list (None without den).

        Without den the key is num itself and its minima are the values'.
        With den the key is False exactly where a value is its coset's
        minimum, and values compare by cross-multiplication, n·d' < n'·d,
        in a tournament over the P strided slices laid end to end: each
        round pits the first half of the slices against the second, so
        whatever P is, a round is a few map passes and halves the list.  A
        minimum can only lose a tie, so when no match was tied each coset's
        winner is its one minimal position; otherwise every value is
        compared with its coset's minimum."""
        P, size = self.P, len(num)
        if den is None:
            mins = list(map(min, zip(*[num[i::P] for i in range(P)])))
            return num, mins, mins, None
        cosets = size // P
        at = list(chain.from_iterable(range(w, size, P) for w in range(P)))
        n = list(chain.from_iterable(num[w::P] for w in range(P)))
        d = list(chain.from_iterable(den[w::P] for w in range(P)))
        tied = False
        while len(n) > cosets:
            half = (len(n) // cosets + 1) // 2 * cosets
            right_n, right_d = n[half:], d[half:]
            lhs, rhs = list(map(mul, right_n, d)), list(map(mul, n, right_d))
            tied = tied or not all(map(ne, lhs, rhs))
            less = list(map(lt, lhs, rhs))
            n = list(map(getitem, zip(n, right_n), less)) + n[len(less):half]
            d = list(map(getitem, zip(d, right_d), less)) + d[len(less):half]
            at = list(map(getitem, zip(at, at[half:]), less)) + at[len(less):half]
        if tied:
            key = list(map(ne, map(mul, num, chain.from_iterable(map(repeat, d, repeat(P)))),
                           map(mul, chain.from_iterable(map(repeat, n, repeat(P))), den)))
        else:  # setitem returns None, so any() runs every one
            key = [True] * size
            any(map(key.__setitem__, at, repeat(False)))
        return key, [False] * cosets, n, d

    def first_minimal(self, key: list, mins: Sequence,
                      cosets: Sequence[int] | None = None) -> list[int]:
        """The coordinate index of the first position where key reaches its
        coset's minimum (mins as minima returns them), for every coset or
        for each coset in cosets: one C-level list.index per coset."""
        P = self.P
        starts = [c * P for c in (range(len(mins)) if cosets is None else cosets)]
        wanted = mins if cosets is None else map(mins.__getitem__, cosets)
        return list(map(key.index, wanted, starts, map(P.__add__, starts)))

    def argmin_sets(self, Jk: Sequence, mins: Sequence) -> list[frozenset[int]]:
        """Every state's full set of inputs u with J(Ax + Bu) minimal, for J
        in coordinate order (Jk) with its coset minima.

        u is optimal at x exactly when w(Ax) + R u is a position v where J
        reaches its minimum on the coset of Ax, that is when R u = v - w(Ax):
        the fibre pre[v - w(Ax)].  Per coordinate index c·P + w the table
        holds the fibre at coset c's first minimal position v, merged over
        every minimal position where the coset's minimum ties (one merged
        row per set of positions).  A coset's block is a tuple of the zip of
        the P strided slices, so only tied cosets take a Python step.  Each
        position's row of fibres (pre[v - w] for every w) comes from one
        index sum, and rows are kept for later calls when all P of them fit
        in p^n entries; a state with one minimal position gets the shared
        fibre frozenset itself."""
        P = self.P
        blocks = list(zip(*[Jk[i::P] for i in range(P)]))
        first = list(map(tuple.index, blocks, mins))
        tied = list(compress(count(), map(lt, repeat(1), map(tuple.count, blocks, mins))))
        where = [tuple(compress(count(), map(eq, blocks[c], repeat(mins[c])))) for c in tied]
        rows = self._rows if P * P <= len(Jk) else {}
        new = list(set(first).union(*where).difference(rows))
        if new:
            shifts = chain.from_iterable(map(repeat, new, repeat(P)))
            found = map(self.pre.__getitem__,
                        index_sum(self.p, self.neg * len(new), shifts, self.r))
            rows.update(zip(new, map(tuple, map(islice, repeat(found), repeat(P)))))
        picked = list(map(rows.__getitem__, first))
        merged = {vs: tuple(map(frozenset().union, *map(rows.__getitem__, vs)))
                  for vs in set(where)}
        for c, vs in zip(tied, where):
            picked[c] = merged[vs]
        return list(self.at_ax(list(chain.from_iterable(picked))))

    def argmin_set(self, x: int, Jk: Sequence, mins: Sequence) -> frozenset[int]:
        """State x's entry of argmin_sets(Jk, mins) alone: for Ax at coordinate
        index c·P + w, the union of pre[v - w] over coset c's minimal v."""
        P = self.P
        c, w = divmod(self.k_ax[x], P)
        vs = list(compress(count(), map(eq, Jk[c * P:c * P + P], repeat(mins[c]))))
        return frozenset().union(*map(self.pre.__getitem__,
                                      index_sum(self.p, vs, [self.neg[w]] * len(vs), self.r)))

    def successors(self, inputs: Sequence[int]) -> list[int]:
        """The successor of every state x under the input inputs[x]."""
        return list(map(self.order.__getitem__, index_sum(
            self.p, self.k_ax, map(self.offset.__getitem__, inputs), self.r)))
