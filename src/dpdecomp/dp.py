"""Exact dynamic programming for linear dynamics over GF(p).

States live in GF(p)^n and are indexed by the base-p little-endian bijection
(digit k is coordinate k), inputs in GF(p)^m likewise.  Stage costs are
exact rationals, so every comparison the solvers make is decidable: the
finite-horizon recursion, policy iteration, and stationary-policy evaluation
all return exact values, and value iteration is the one deliberately
approximate route (with an explicit error bound).

The successors of x are exactly the coset Ax + im(B), so the solvers never
try inputs one by one: a Bellman stage takes the minimum of the next value
row over each coset of im(B) once (p^n comparisons) and reads every
state's minimum and full minimizer set off the coset of Ax.  The frame of
cosets costs one elimination (see dpdecomp.cosets).  Inside a solver a
row is kept in the frame's coordinate order, where each coset is a block
of consecutive entries: a stage builds the next row from the coset minima
with one read, and a row is read into state order only for a table the
solver returns.  A round of policy iteration walks the closed-loop graph
over cosets and builds no table at all.  No table outgrows p^n or p^m.

Values are exact integers over one scale: a cost keeps its numerators over
the common denominator of its table (CostFunction.num over .scale), and a
ValueTable keeps integer numerator tables over a single positive scale.  A
common denominator wider than WIDE_SCALE_BITS would make every numerator
that wide, so such a cost or table is wide: it keeps two integer rows,
numerators and denominators, each entry its own ratio.  Both forms run
through the same steps: CosetFrame.minima, which compares wide values by
cross-multiplication, _walk (the closed-loop graph of a stationary policy)
and _step (cost plus a row read at given indices), which add ratios
without a gcd until a denominator passes a bound read off the cost.  Tables
are dense over the state space; guard limits keep that honest (defaults
p^n <= 729 and p^m <= 81, both overridable).

ValueTable and ArgminTable share one time rule: a row per time (0..T for
values, 0..T-1 for minimizer sets, one for a discounted problem), t read
as a sequence index (a negative t counts from the last time, a t past
either end is an IndexError), each row (Fractions, or sets) built on
first read and kept, a one-entry read (value, inputs) from a built row or
alone, and equality time by time.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, count, repeat
from operator import add, attrgetter, eq, floordiv, le, mul, ne, sub
from typing import Callable, Iterable, Sequence

from .cosets import CosetFrame, reader
from .errors import ShapeError
from .fields import PrimeField
from .linalg import DirectSumDecomposition, MatrixFp, index_map

DEFAULT_MAX_STATES = 729
DEFAULT_MAX_INPUTS = 81

# A cost or table whose common denominator is wider than this is wide: it
# keeps a numerator and a denominator per entry.  With many unrelated
# denominators (4096 of them below 2^20 give a 32,000-bit LCD) numerators
# over the common one would each be that wide, far more than a ratio's own.
WIDE_SCALE_BITS = 256

# The widest integer str() prints under Python's default limit on int
# digits: value iteration refuses sweeps whose scale b^k would pass it, and
# printed() any value with a wider term.
PRINTABLE_BITS = int(sys.int_info.default_max_str_digits * math.log2(10))


def printed(values: Sequence[Fraction]) -> list[str]:
    """str() of each exact value, or a ValueError for a term wider than
    PRINTABLE_BITS: only a discount factor with a very wide denominator
    makes one from a cost whose own entries print."""
    widest = max(map(int.bit_length, chain(map(attrgetter("numerator"), values),
                                           map(attrgetter("denominator"), values))))
    if widest > PRINTABLE_BITS:
        raise ValueError(
            f"an exact value has a {widest}-bit term, wider than the {PRINTABLE_BITS} "
            "bits Python prints; give a discount factor (--alpha or "
            "horizon.discounted.alpha) with a narrower denominator")
    return list(map(str, values))


@dataclass(frozen=True)
class FiniteHorizon:
    """Run for steps 0..T-1 and pay the stage cost at times 0..T inclusive."""

    T: int

    def __post_init__(self):
        if not isinstance(self.T, int) or isinstance(self.T, bool) or self.T < 1:
            raise ValueError("finite horizon requires an integer T >= 1")


@dataclass(frozen=True)
class DiscountedHorizon:
    """Infinite horizon with geometric discount alpha strictly inside (0, 1)."""

    alpha: Fraction

    def __post_init__(self):
        a = Fraction(self.alpha)
        if not (0 < a < 1):
            raise ValueError("discount factor must satisfy 0 < alpha < 1")
        object.__setattr__(self, "alpha", a)


Horizon = FiniteHorizon | DiscountedHorizon


def horizon_json(horizon: Horizon) -> dict[str, dict[str, int | str]]:
    """A horizon's JSON form, the instance file's, as reports and solve write it."""
    if isinstance(horizon, FiniteHorizon):
        return {"finite": {"T": horizon.T}}
    return {"discounted": {"alpha": str(horizon.alpha)}}


def state_index(x: Sequence[int], p: int) -> int:
    """Base-p little-endian index of a digit vector."""
    idx = 0
    for k in range(len(x) - 1, -1, -1):
        idx = idx * p + (x[k] % p)
    return idx


def index_state(idx: int, p: int, n: int) -> tuple[int, ...]:
    digits = []
    for _ in range(n):
        digits.append(idx % p)
        idx //= p
    return tuple(digits)


@dataclass(frozen=True, eq=False, repr=False)
class CostFunction:
    """A nonnegative stage cost g on GF(p)^n with g(0) = 0, stored densely.

    By default g must be strictly positive away from the origin; passing
    allow_vanishing=True admits costs that are zero on part of the space
    (needed for costs that charge only some invariant coordinates).  The
    is_strict property records which case actually holds.
    """

    field: PrimeField
    n: int
    table: Sequence[Fraction]
    allow_vanishing: bool = False
    is_strict: bool = dataclasses.field(init=False)
    # the integer form the solvers use: table[x] == num[x] / scale, or for a
    # wide cost (den not None) table[x] == num[x] / den[x] over scale 1
    scale: int = dataclasses.field(init=False)
    num: tuple[int, ...] = dataclasses.field(init=False)
    den: tuple[int, ...] | None = dataclasses.field(init=False)
    # a wide cost's total bit length of its distinct denominators: their lcm,
    # which every reduced denominator of a sum of its values divides, is no
    # wider (0 for a narrow cost)
    den_bits: int = dataclasses.field(init=False)

    def __post_init__(self):
        size = self.field.p**self.n
        values = tuple(Fraction(v) for v in self.table)
        if len(values) != size:
            raise ValueError(f"cost table must have {size} entries, got {len(values)}")
        # scale > 0, so the signs of the numerators are the signs of the values
        scale, num, den = _integer_form(values)
        if min(num) < 0:
            raise ValueError("stage cost must be nonnegative")
        if num[0] != 0:
            raise ValueError("stage cost must vanish at the zero state")
        strict = all(num[1:])
        if not strict and not self.allow_vanishing:
            raise ValueError(
                "stage cost vanishes at a nonzero state; pass allow_vanishing=True "
                "if that is intended")
        object.__setattr__(self, "table", values)
        object.__setattr__(self, "is_strict", strict)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "den_bits",
                           0 if den is None else sum(map(int.bit_length, set(den))))

    @property
    def row(self) -> Sequence:
        """Entries that add and compare as the values do: num (over the
        positive scale), or a wide cost's Fractions."""
        return self.num if self.den is None else self.table

    @classmethod
    def indicator(cls, decomp: DirectSumDecomposition, weights: Sequence[Fraction],
                  allow_vanishing: bool = False) -> "CostFunction":
        """g(x) = sum of w_i over the parts whose component of x is nonzero."""
        if len(weights) != decomp.r:
            raise ValueError("one weight per part required")
        ws = [Fraction(w) for w in weights]
        if any(w < 0 for w in ws):
            raise ValueError("indicator weights must be nonnegative")
        if all(w == 0 for w in ws):
            raise ValueError("at least one indicator weight must be positive")
        p = decomp.field.p
        tables = [[Fraction(0)] + [w] * (p**s.dim - 1) for w, s in zip(ws, decomp.parts)]
        return cls.separable(decomp, tables, allow_vanishing=allow_vanishing)

    @classmethod
    def separable(cls, decomp: DirectSumDecomposition,
                  part_tables: Sequence[Sequence[Fraction]],
                  allow_vanishing: bool = False) -> "CostFunction":
        """g(x) = sum over parts of g_i at the part-i coordinates of x.

        Each part table is indexed by the base-p index of the part's local
        coordinate vector.
        """
        if len(part_tables) != decomp.r:
            raise ValueError("one table per part required")
        field = decomp.field
        p = field.p
        tables = []
        for i, t in enumerate(part_tables):
            want = p ** decomp.parts[i].dim
            vals = tuple(Fraction(v) for v in t)
            if len(vals) != want:
                raise ValueError(f"part {i} table must have {want} entries")
            tables.append(vals)

        table = _part_sums(tables, decomp.local_index_tables)
        return cls(field, decomp.ambient_dim, table, allow_vanishing=allow_vanishing)


def _integer_form(values: Sequence[Fraction]) -> tuple[int, tuple, tuple | None]:
    """(scale, nums, None) with values[x] == nums[x] / scale: integers over
    the common denominator; or, when that denominator is wider than
    WIDE_SCALE_BITS, (1, nums, dens) with values[x] == nums[x] / dens[x],
    each value's own terms."""
    dens = {v.denominator for v in values}
    scale = 1
    for d in dens:
        scale = math.lcm(scale, d)
        if scale.bit_length() > WIDE_SCALE_BITS:
            return (1, tuple([v.numerator for v in values]),
                    tuple([v.denominator for v in values]))
    factor = {d: scale // d for d in dens}
    return scale, tuple([v.numerator * factor[v.denominator] for v in values]), None


def _step(g, q: Sequence[int] | None, bits: int, num: Sequence[int],
          den: Sequence[int] | None, read: Callable[[Sequence], Sequence]
          ) -> tuple[tuple, None] | tuple[list[int], list[int]]:
    """g[x] + num[y] for every x, with g a cost's num (or a multiple) in
    some order and y read's index for x (see cosets.reader): integers, or
    given den (a wide cost's row; q and bits are the cost's den, in g's
    order, and den_bits), the ratios g[x]/q[x] + num[y]/den[y].  A ratio
    sum stays unreduced, (n·d' + n'·d) / (d·d'), until some denominator
    passes bits; the sums are integer combinations of cost values, so no
    reduced one can, and then the whole row is put in lowest terms."""
    if den is None:
        return tuple(map(add, g, read(num))), None
    d = read(den)
    sums = list(map(add, map(mul, g, d), map(mul, read(num), q)))
    d = list(map(mul, q, d))
    if max(d).bit_length() <= bits:
        return sums, d
    common = list(map(math.gcd, sums, d))
    return list(map(floordiv, sums, common)), list(map(floordiv, d, common))


def _check_row(row: Sequence[int], size: int, top: int, name: str) -> None:
    """A ValueError naming the row unless it holds size indices below top."""
    if len(row) != size or min(row) < 0 or max(row) >= top:
        raise ValueError(f"{name} must hold {size} entries, each in 0..{top - 1}")


def _lowest(num: int, den: int, cap: int) -> tuple[int, int]:
    """num / den, put in lowest terms when den is wider than cap bits."""
    if den.bit_length() <= cap:
        return num, den
    common = math.gcd(num, den)
    return num // common, den // common


class DPInstance:
    """A control problem: x' = A x + B u over GF(p), stage cost g, horizon.

    B must have full column rank for problems stated directly (the standing
    assumption); derived subproblems whose input map is a projection of B may
    pass require_injective=False.  injective records require_injective: B's
    full column rank was checked here.
    """

    __slots__ = ("field", "n", "m", "A", "B", "cost", "horizon", "injective", "_trans", "_frame")

    def __init__(self, A: MatrixFp, B: MatrixFp, cost: CostFunction, horizon: Horizon,
                 *, require_injective: bool = True,
                 max_states: int | None = DEFAULT_MAX_STATES,
                 max_inputs: int | None = DEFAULT_MAX_INPUTS):
        if A.nrows != A.ncols:
            raise ShapeError("A must be square")
        if B.nrows != A.nrows:
            raise ShapeError("B must have as many rows as A")
        if B.field != A.field:
            raise ValueError("A and B must share a field")
        if cost.field != A.field or cost.n != A.nrows:
            raise ValueError("cost function does not match the state space")
        if not isinstance(horizon, (FiniteHorizon, DiscountedHorizon)):
            raise ValueError(f"unsupported horizon {horizon!r}")
        p = A.field.p
        n, m = A.nrows, B.ncols
        if max_states is not None and p**n > max_states:
            raise ValueError(
                f"state space size {p**n} exceeds the guard {max_states}; "
                "raise max_states to override")
        if max_inputs is not None and p**m > max_inputs:
            raise ValueError(
                f"input space size {p**m} exceeds the guard {max_inputs}; "
                "raise max_inputs to override")
        if require_injective and B.rank() < m:
            raise ValueError("B must have full column rank (injective input map)")
        object.__setattr__(self, "field", A.field)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "cost", cost)
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "injective", require_injective)
        object.__setattr__(self, "_trans", None)
        object.__setattr__(self, "_frame", None)

    def __setattr__(self, name, value):
        raise AttributeError("DPInstance is immutable")

    @property
    def num_states(self) -> int:
        return self.field.p**self.n

    @property
    def num_inputs(self) -> int:
        return self.field.p**self.m

    def transitions(self) -> list[list[int]]:
        """next-state index for every (state, input) pair, computed once."""
        if self._trans is None:
            # entry x + p^n u of the map of [A | B] is the successor of x under u
            im = index_map(MatrixFp.from_cols(self.field, self.A.cols() + self.B.cols(), nrows=self.n))
            N = self.num_states
            object.__setattr__(self, "_trans", [im[x::N] for x in range(N)])
        return self._trans

    def coset_frame(self) -> "CosetFrame":
        """The cosets of im(B) and where A and B move states among them,
        computed once."""
        if self._frame is None:
            object.__setattr__(self, "_frame", CosetFrame.of(self.A, self.B))
        return self._frame


@dataclass(frozen=True, eq=False)
class _TimeTable:
    """The time rule of the module docstring.  A subclass gives _rows one
    None per time, builds a row (_build) and reads one entry alone (_entry)."""

    horizon: Horizon
    _rows: list = dataclasses.field(init=False, repr=False)  # per time: its row, or None

    def __len__(self) -> int:
        return len(self._rows)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return (self.horizon == other.horizon and len(self) == len(other)
                and all(self._agrees(other, t) for t in range(len(self))))

    def _agrees(self, other: "_TimeTable", t: int) -> bool:
        return self.table(t) == other.table(t)

    @property
    def per_time(self) -> tuple[tuple, ...]:
        # from t = T down, the order a backward recursion made the rows in: a
        # wide ValueTable then frees its oldest integer rows first, about 1 MB
        # less resident peak than the other order at 2^12 states and T = 8
        return tuple(reversed([self.table(t) for t in reversed(range(len(self)))]))

    @property
    def stationary(self) -> tuple:
        if not isinstance(self.horizon, DiscountedHorizon):
            raise ValueError("stationary table only exists for discounted horizons")
        return self.table(0)

    def table(self, t: int = 0) -> tuple:
        t = range(len(self))[t]
        if self._rows[t] is None:
            self._rows[t] = self._build(t)
        return self._rows[t]

    def _read(self, x_idx: int, t: int = 0):
        """One entry: from the time-t row once built, else read alone."""
        t = range(len(self))[t]
        row = self._rows[t]
        return self._entry(x_idx, t) if row is None else row[x_idx]


@dataclass(frozen=True, eq=False)
class ValueTable(_TimeTable):
    """Optimal (or policy) values per state, at times 0..T or stationary.

    The values are nums[t][x] / scale: integer numerators over one positive
    scale.  A wide table (dens not None) holds nums[t][x] / (scale ·
    dens[t][x]) instead, one positive denominator per entry.  table(),
    per_time, stationary and value() read the values as reduced Fractions;
    a wide row's Fractions replace its integer rows, which are then None.
    Rows of None for dens (a narrow solve's) mean a table that is not wide.
    Two tables are equal when they hold the same exact values, whatever
    their scales."""

    nums: Sequence[Sequence[int]]
    scale: int
    dens: Sequence[Sequence[int]] | None = None

    def __post_init__(self):
        wide = any(self.dens or ())
        object.__setattr__(self, "dens", list(self.dens) if wide else None)
        if wide:  # rows that table() frees
            object.__setattr__(self, "nums", list(self.nums))
        object.__setattr__(self, "_rows", [None] * len(self.nums))

    def at_scale(self, t: int, scale: int) -> tuple:
        """The time-t values times scale, a multiple of self.scale: integers,
        or a wide table's Fractions (read through table(t))."""
        if self.dens is not None:
            return tuple([scale * v for v in self.table(t)])
        k = scale // self.scale
        row = self.nums[t]
        return tuple(row) if k == 1 else tuple([k * v for v in row])

    def agrees(self, other: "ValueTable", t: int) -> bool:
        """The two tables hold the same exact values at time t."""
        scale = math.lcm(self.scale, other.scale)
        return self.at_scale(t, scale) == other.at_scale(t, scale)

    _agrees = agrees

    def _build(self, t: int) -> tuple[Fraction, ...]:
        if self.dens is None:
            exact = {v: Fraction(v, self.scale) for v in set(self.nums[t])}
            return tuple(map(exact.__getitem__, self.nums[t]))
        row = tuple(map(Fraction, self.nums[t], map(mul, self.dens[t], repeat(self.scale))))
        self.nums[t] = self.dens[t] = None
        return row

    def _entry(self, x_idx: int, t: int) -> Fraction:
        den = 1 if self.dens is None else self.dens[t][x_idx]
        return Fraction(self.nums[t][x_idx], self.scale * den)

    value = _TimeTable._read  # value(x_idx, t=0): one exact value


@dataclass(frozen=True, eq=False)
class ArgminTable(_TimeTable):
    """Full minimizer sets per state, at times 0..T-1 or stationary.

    stages holds each time's row of sets or, given a frame, its key in
    coordinate order and the key's coset minima (as CosetFrame.minima gives
    them): table(t) builds the row on first read, freeing the stage, and
    inputs() reads one state's set without building a row.  Once every row
    is built the table lets its frame go: frame is then None."""

    stages: Sequence
    frame: CosetFrame | None = None

    def __post_init__(self):
        object.__setattr__(self, "stages", list(self.stages))  # entries table() frees
        object.__setattr__(self, "_rows", [None] * len(self.stages))

    def _build(self, t: int) -> tuple[frozenset[int], ...]:
        stage, self.stages[t] = self.stages[t], None
        row = tuple(self.frame.argmin_sets(*stage) if self.frame else stage)
        if self.stages.count(None) == len(self):  # the last row: no read needs the frame
            object.__setattr__(self, "frame", None)
        return row

    def _entry(self, x_idx: int, t: int) -> frozenset[int]:
        stage = self.stages[t]
        return self.frame.argmin_set(x_idx, *stage) if self.frame else stage[x_idx]

    inputs = _TimeTable._read  # inputs(x_idx, t=0): one state's set


def solve_finite(inst: DPInstance) -> tuple[ValueTable, ArgminTable]:
    """Backward recursion: J_T = g, J_t = g + min over inputs of J_{t+1} at
    the successor; the full minimizer sets for every t in 0..T-1 are built
    on first read (see ArgminTable).

    Each stage is one pass of coset minima (see CosetFrame) over the cost's
    integer form in coordinate order, and one _step, g plus the minimum
    over the coset of Ay for the state y at each coordinate index (as
    ratios for a wide cost); each row is read into state order once."""
    if not isinstance(inst.horizon, FiniteHorizon):
        raise ValueError("solve_finite needs a finite horizon")
    frame = inst.coset_frame()
    cost = inst.cost
    g, q = row = frame.in_coords(cost.num), cost.den and frame.in_coords(cost.den)
    rows = [(cost.num, cost.den)]  # J_T, J_{T-1}, ..., J_0 with their dens
    keys = []  # each stage's argmin key and its coset minima
    for _ in range(inst.horizon.T):
        Jk, mins, mn, md = frame.minima(*row)
        row = _step(g, q, cost.den_bits, mn, md, frame.by_coset)
        rows.append((frame.in_states(row[0]), row[1] and frame.in_states(row[1])))
        keys.append((Jk, mins))
    nums, dens = zip(*reversed(rows))
    return (ValueTable(inst.horizon, nums, cost.scale, dens),
            ArgminTable(inst.horizon, reversed(keys), frame))


def solve(inst: DPInstance) -> tuple[ValueTable, ArgminTable]:
    """The exact solve for the instance's horizon: backward recursion for a
    finite horizon, policy iteration for a discounted one."""
    if isinstance(inst.horizon, FiniteHorizon):
        return solve_finite(inst)
    return solve_discounted_pi(inst)


def evaluate_stationary_policy(inst: DPInstance, policy: Sequence[int]) -> ValueTable:
    """Exact discounted value of a caller's stationary policy, computed on
    integers.  A policy of the wrong length or with an input out of range
    is a ValueError.  One _walk gives alpha·V at the states some state
    steps to, and one _step every state's V(x) = G(x) / L + alpha·V(next
    x).  Policy iteration does not call it: its table is its last round's."""
    if not isinstance(inst.horizon, DiscountedHorizon):
        raise ValueError("stationary-policy evaluation needs a discounted horizon")
    _check_row(policy, inst.num_states, inst.num_inputs, "policy")
    successors = inst.coset_frame().successors(policy)
    a, b = inst.horizon.alpha.numerator, inst.horizon.alpha.denominator
    cost = inst.cost
    scale, num, den = _walk(cost.num, cost.den, cost.den_bits, successors, set(successors), a, b)
    return _policy_table(inst, scale, *_step(map(mul, cost.num, repeat(scale)), cost.den,
                                             cost.den_bits, num, den, reader(successors)))


def _policy_table(inst: DPInstance, scale: int, row, dens) -> ValueTable:
    """The ValueTable of a policy's values in state order from the _step
    of a _walk: a wide cost's ratios, or numerators over L·scale taken to
    their least common scale (as _integer_form), unless that is wider than
    WIDE_SCALE_BITS: then wide over the walk's scale, as a wide cost is."""
    if dens is not None:
        return ValueTable(inst.horizon, (row,), 1, (dens,))
    L = inst.cost.scale
    # the least common scale of the values is L·scale over this gcd
    g = math.gcd(L * scale, *row)
    if (L * scale // g).bit_length() <= WIDE_SCALE_BITS:
        return ValueTable(inst.horizon, (tuple(map(floordiv, row, repeat(g))),), L * scale // g)
    return ValueTable(inst.horizon, (row,), L, ([scale] * len(row),))


def _walk(G: Sequence[int], Q: Sequence[int] | None, bits: int, nxt: Sequence[int],
          nodes: Iterable[int], a: int, b: int) -> tuple[int, list[int], list[int] | None]:
    """alpha·V at every node s in nodes (a set closed under nxt) for
    V(s) = G[s] / (L·Q[s]) + alpha·V(nxt[s]), alpha = a/b, with G and Q a
    cost's num and den (Q None for a narrow cost over its scale L) read at
    the nodes, as (scale, num, den): the _step of G·scale plus num and den
    read at the successors gives V.  A narrow cost's values are lifted to
    one common scale, alpha·V(s) = num[s] / (L·scale), and a wide cost's
    are ratios, num[s] / den[s] with scale 1.  The nodes are states for
    evaluate_stationary_policy and cosets in a round of policy iteration,
    whose last round's _step is then its returned table.

    Every trajectory runs down a tree into a cycle c_0..c_{l-1}.  Narrow:
    with d = b^l - a^l the head c_0 is worth H / (L·d) for
    H = sum over j of a^j·b^(l-j)·G(c_j), every cycle state has a numerator
    over L·d, and a node k steps above the cycle one over L·b^k·d.  Wide: a
    walked ratio is put in lowest terms once its denominator is wider than
    bits, the cost's den_bits, as _step reduces a row."""
    num = [0] * len(nxt)
    den = [0] * len(nxt)  # 0: unseen, -1: on the path
    if Q is None:  # num[x] / (L·den[x]) is V(x)
        for start in nodes:
            if den[start]:
                continue
            path = []
            x = start
            while not den[x]:
                den[x] = -1
                path.append(x)
                x = nxt[x]
            if den[x] < 0:  # the path closed a new cycle at x
                cycle = path[path.index(x):]
                del path[len(path) - len(cycle):]
                v, bl = 0, 1
                for s in reversed(cycle):
                    bl *= b
                    v = bl * G[s] + a * v
                d = bl - a ** len(cycle)
                num[x], den[x] = v, d
                for s in reversed(cycle[1:]):
                    v = d * G[s] + a * (v // b)  # b divides every cycle numerator
                    num[s], den[s] = v, d
            v, dn = num[x], den[x]
            for s in reversed(path):  # each s steps to the state just done
                dn *= b
                v = dn * G[s] + a * v
                num[s], den[s] = v, dn
        common = math.lcm(*set(den) - {0})
        lift = {dn: dn and a * (common // dn) for dn in set(den)}  # alpha·V over L·b·common
        return b * common, list(map(mul, num, map(lift.__getitem__, den))), None
    for start in nodes:
        path = []
        x = start
        while not den[x]:
            den[x] = -1
            path.append(x)
            x = nxt[x]
        if den[x] < 0:
            cycle = path[path.index(x):]
            # the lap sum v / w, by Horner's rule from the last state
            v, w = 0, 1
            for s in reversed(cycle):
                v, w = _lowest(b * w * G[s] + a * Q[s] * v, b * w * Q[s], bits)
            bl = b ** len(cycle)
            num[x], den[x] = _lowest(bl * v, w * (bl - a ** len(cycle)), bits)
            path.remove(x)
        for s in reversed(path):  # each s steps to the state just done
            y = nxt[s]
            num[s], den[s] = _lowest(b * den[y] * G[s] + a * Q[s] * num[y],
                                     b * den[y] * Q[s], bits)
    return 1, list(map(mul, num, repeat(a))), list(map(mul, den, repeat(b)))


def solve_discounted_pi(inst: DPInstance) -> tuple[ValueTable, ArgminTable]:
    """Exact policy iteration over the cosets of im(B).

    Every state x can reach exactly the coset of Ax, so the states of one
    coset share their best successor, and the policy is one chosen
    coordinate index per coset (p^(n-r) choices for r = rank B), starting
    from each coset's first state of least stage cost.  A round walks the
    cosets (see _walk) for alpha·V at each coset's choice, W[c], and builds
    its keys G·s + W[c(Ay)], the policy's values, in coordinate order with
    no state-order table; it switches a coset only on a strict improvement
    (its key differs from the key minimum, for narrow and wide rows alike),
    to its first minimal position, which rules out cycling.  A round with
    no stale coset has a policy greedy for its own values, so its keys are
    J*: they give the table, read into state order once, and the full
    minimizer sets, built on first read.
    """
    if not isinstance(inst.horizon, DiscountedHorizon):
        raise ValueError("solve_discounted_pi needs a discounted horizon")
    a, b = inst.horizon.alpha.numerator, inst.horizon.alpha.denominator
    frame = inst.coset_frame()
    cost = inst.cost
    g, q = frame.in_coords(cost.num), cost.den and frame.in_coords(cost.den)
    reached = set(frame.c_ak)  # the cosets some state steps into
    chosen = frame.first_minimal(*frame.minima(g, q)[:2])
    while True:
        pick = reader(chosen)
        scale, num, den = _walk(pick(g), q and pick(q), cost.den_bits, pick(frame.c_ak),
                                reached, a, b)
        row, dens = _step(map(mul, g, repeat(scale)), q, cost.den_bits, num, den, frame.by_coset)
        Jk, mins = frame.minima(row, dens)[:2]
        stale = list(compress(count(), map(ne, pick(Jk), mins)))
        if not stale:
            break
        for c, k in zip(stale, frame.first_minimal(Jk, mins, stale)):
            chosen[c] = k
    values = _policy_table(inst, scale, frame.in_states(row), dens and frame.in_states(dens))
    return values, ArgminTable(inst.horizon, [(Jk, mins)], frame)


@dataclass(frozen=True)
class ValueIterationResult:
    values: ValueTable
    error_bound: Fraction
    iterations: int


def solve_discounted_vi(inst: DPInstance, tol: Fraction) -> ValueIterationResult:
    """Value iteration from J = 0 until successive sup-norm change <= tol.

    The returned table J satisfies |J - J*| <= alpha * tol / (1 - alpha) in
    sup norm, which is the error_bound field.

    With alpha = a/b and the cost in integer form G / L (CostFunction.num
    over .scale), the k-th iterate is N_k / (b^k·L): N_0 = 0 and
    N_{k+1} = b^(k+1)·G + a·(coset minimum of N_k), one _step.  A wide
    cost's N_k is a row of ratios (the table's dens), starting from 0 over
    the cost's denominators.  The sweeps needed are at most the least k
    with alpha^k <= tol·(1 - alpha)/max g; before the first sweep a
    ValueError refuses a run whose k would carry the scale b^k past what
    str() prints (PRINTABLE_BITS), decided on integers.
    """
    if not isinstance(inst.horizon, DiscountedHorizon):
        raise ValueError("solve_discounted_vi needs a discounted horizon")
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    alpha = inst.horizon.alpha
    a, b = alpha.numerator, alpha.denominator
    top = max(inst.cost.table)
    reach = tol * (1 - alpha) / top if top else Fraction(1)
    # alpha^k <= reach bounds the sweeps needed; the scale b^k fits in
    # PRINTABLE_BITS for k up to `fits` (b^k < 2^(k·bit_length(b)) gives
    # the bounds searched), and the sweeps past it are counted on integers
    # up to `cap`, powers of a few hundred thousand bits
    fits = _last(lambda k: b ** k <= 1 << PRINTABLE_BITS, PRINTABLE_BITS // b.bit_length(),
                 PRINTABLE_BITS // (b.bit_length() - 1))
    if a ** fits * reach.denominator > b ** fits * reach.numerator:
        cap = 16 * (fits + 1)
        short = _last(lambda k: a ** k * reach.denominator > b ** k * reach.numerator,
                      fits, cap)
        sweeps = f"about {short + 1}" if short < cap else f"more than {cap}"
        raise ValueError(
            f"value iteration would need {sweeps} sweeps at alpha = {alpha} "
            f"and tol = {tol}, more than its exact values can carry; "
            "raise the tolerance")
    frame = inst.coset_frame()
    cost = inst.cost
    g, q = frame.in_coords(cost.num), cost.den and frame.in_coords(cost.den)
    current, dens = (0,) * inst.num_states, q  # in coordinate order
    power = 1  # current is over b^iterations·L
    iterations = 0
    while True:
        power *= b
        mn, md = frame.minima(current, dens)[2:]
        new, new_dens = _step(map(mul, g, repeat(power)), q, cost.den_bits,
                              [a * v for v in mn], md, frame.by_coset)
        # the old iterate over the new scale is b·current, and a narrow row's
        # denominators are all L: |new / nd - b·current / d| <= tol·power
        d, nd = dens or repeat(cost.scale), new_dens or repeat(cost.scale)
        done = all(map(le, map(mul, map(abs, map(sub, map(mul, new, d), map(
            mul, map(mul, current, repeat(b)), nd))), repeat(tol.denominator)),
            map(mul, map(mul, nd, d), repeat(tol.numerator * power))))
        current, dens = new, new_dens
        iterations += 1
        if done:
            break
    bound = alpha * tol / (1 - alpha)
    current, dens = frame.in_states(current), dens and frame.in_states(dens)
    values = ValueTable(inst.horizon, (current,), power * cost.scale, (dens,))
    return ValueIterationResult(values, bound, iterations)


def _last(holds, lo: int, hi: int) -> int:
    """The largest k in lo..hi with holds(k), for a holds that is true at lo
    and, from lo up, true on one run only."""
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if holds(mid) else (lo, mid - 1)
    return lo


def evaluate_time_varying(inst: DPInstance, law: Sequence[Sequence[int]]) -> ValueTable:
    """Finite-horizon cost-to-go of a time-varying control law.

    law[t][x] is the input index applied at time t in state x, for t in
    0..T-1.  Runs the backward recursion V_T = g, V_t = g + V_{t+1} at the
    successor under law[t], one _step per stage on the cost's integer form;
    table(0) is the total cost from every start state.  A row law[t] of
    the wrong length or with an input out of range is a ValueError.
    """
    if not isinstance(inst.horizon, FiniteHorizon):
        raise ValueError("closed-loop evaluation needs a finite horizon")
    if len(law) != inst.horizon.T:
        raise ValueError("law must cover times 0..T-1")
    frame = inst.coset_frame()
    cost = inst.cost
    rows = [(cost.num, cost.den)]  # V_T, V_{T-1}, ..., V_0 with their dens
    for t in reversed(range(len(law))):
        _check_row(law[t], inst.num_states, inst.num_inputs, f"law[{t}]")
        rows.append(_step(cost.num, cost.den, cost.den_bits, *rows[-1],
                          reader(frame.successors(law[t]))))
    nums, dens = zip(*reversed(rows))
    return ValueTable(inst.horizon, nums, cost.scale, dens)


def is_in_Gs(cost: CostFunction, decomp: DirectSumDecomposition) -> bool:
    """Exhaustive separability test: g(x) equals the sum of g over the
    components of x for every state."""
    if decomp.field != cost.field or decomp.ambient_dim != cost.n:
        raise ValueError("decomposition does not match the cost's state space")
    g = cost.row
    return value_split_defect(
        g, [reader(emb)(g) for emb in decomp.embedding_tables], decomp.local_index_tables) is None


def value_split_defect(table: Sequence[int], part_tables: Sequence[Sequence[int]],
                       comp: Sequence[Sequence[int]]) -> int | None:
    """The smallest state index x where table[x] differs from the sum over
    parts of part_tables[i][comp[i][x]], or None when the table splits.

    All tables hold numerators over one common scale.  comp[i] maps every
    state to its part-i local index, as in
    DirectSumDecomposition.local_index_tables.
    """
    total = _part_sums(part_tables, comp)
    if all(map(eq, table, total)):
        return None
    return next(x for x, (v, s) in enumerate(zip(table, total)) if v != s)


def _part_sums(part_tables: Sequence[Sequence], comp: Sequence[Sequence[int]]) -> Sequence:
    """part_tables[0][comp[0][x]] + part_tables[1][comp[1][x]] + ... at
    every state x: the sum of the part values at x's components."""
    total = reader(comp[0])(part_tables[0])
    for part, c in zip(part_tables[1:], comp[1:]):
        total = list(map(add, total, reader(c)(part)))
    return total
