"""Exact dynamic programming for linear dynamics over GF(p).

States live in GF(p)^n and are indexed by the base-p little-endian bijection
(digit k is coordinate k), inputs in GF(p)^m likewise.  Stage costs are
exact rationals, so every comparison the solvers make is decidable: the
finite-horizon recursion, policy iteration, and stationary-policy evaluation
all return exact values, and value iteration is the one deliberately
approximate route (with an explicit error bound).

The successors of x are exactly the coset Ax + im(B), so the solvers never
try inputs one by one: a Bellman stage takes the minimum of the next value
table over each coset of im(B) once (p^n comparisons) and reads every
state's minimum and full minimizer set off the coset of Ax.  The frame of
cosets costs one elimination (see dpdecomp.cosets), and every vector sum the
solvers need, successors and minimizer sets alike, is one digit-wise sum
of indices (linalg.index_sum), so no table outgrows p^n or p^m.

Values are exact integers over one scale: a cost keeps its numerators over
the common denominator of its table (CostFunction.num over .scale), and a
ValueTable keeps integer numerator tables over a single positive scale.
The solvers and every scan of the battery work on those integers, policy
evaluation included (one walk of the closed-loop functional graph on
integer numerators, see evaluate_stationary_policy); a Fraction is built
only at the API boundary, when a caller reads ValueTable.table(),
.per_time, .stationary or .value().  A common denominator wider than
WIDE_SCALE_BITS would make every numerator that wide, so such a cost or
table is wide: it keeps two integer rows, numerators and denominators,
each entry its own ratio.  Both forms run through the same two steps:
CosetFrame.minima, which compares wide values by cross-multiplication,
and _step (cost plus a row read at given states), which adds ratios
without a gcd, dividing a row by its gcds only when its widest
denominator passes a bound read off the cost.  Tables are still dense
over the state space; guard limits keep that honest (defaults
p^n <= 729 and p^m <= 81, both overridable).
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, count, repeat
from operator import add, attrgetter, eq, floordiv, le, mul, ne, sub
from typing import Sequence

from .cosets import CosetFrame
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
        if not isinstance(self.T, int) or self.T < 1:
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

        table = _part_sums(tables, decomp.local_index_tables())
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


def _step(g, cost: CostFunction, num: Sequence[int], den: Sequence[int] | None,
          at: Sequence[int]) -> tuple[tuple, None] | tuple[list[int], list[int]]:
    """g[x] + num[at[x]] for every x, with g cost.num or a multiple of it:
    integers, or given den (a wide cost's row), the ratios
    g[x]/cost.den[x] + num[y]/den[y] at y = at[x] as numerators and
    positive denominators.  A ratio sum stays unreduced,
    (n·d' + n'·d) / (d·d'), until some denominator passes the cost's
    den_bits; the sums are integer combinations of cost values, so no
    reduced one can, and then the whole row is put in lowest terms."""
    read = map(num.__getitem__, at)
    if den is None:
        return tuple(map(add, g, read)), None
    d = list(map(den.__getitem__, at))
    sums = list(map(add, map(mul, g, d), map(mul, read, cost.den)))
    d = list(map(mul, cost.den, d))
    if max(d).bit_length() <= cost.den_bits:
        return sums, d
    common = list(map(math.gcd, sums, d))
    return list(map(floordiv, sums, common)), list(map(floordiv, d, common))


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
    pass require_injective=False.
    """

    __slots__ = ("field", "n", "m", "A", "B", "cost", "horizon", "_trans", "_frame")

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
            im = index_map(self.A.hstack(self.B))
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
class ValueTable:
    """Optimal (or policy) values per state; one table per time for finite
    horizons (times 0..T), a single table for discounted problems.

    The values are nums[t][x] / scale: integer numerators over one positive
    scale.  A wide table (dens not None) holds nums[t][x] / (scale ·
    dens[t][x]) instead, one positive denominator per entry.  table(),
    per_time, stationary and value() read the values as reduced Fractions,
    built on first use and kept; a wide row's Fractions replace its integer
    rows, which are then None.  Rows of None for dens (a narrow solve's)
    mean a table that is not wide.  Two tables are equal when they hold
    the same exact values, whatever their scales."""

    horizon: Horizon
    nums: Sequence[Sequence[int]]
    scale: int
    dens: Sequence[Sequence[int]] | None = None
    _exact: dict[int, tuple[Fraction, ...]] = dataclasses.field(
        default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        wide = any(self.dens or ())
        object.__setattr__(self, "dens", list(self.dens) if wide else None)
        if wide:  # rows that table() frees
            object.__setattr__(self, "nums", list(self.nums))

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

    def __eq__(self, other):
        if not isinstance(other, ValueTable):
            return NotImplemented
        return (self.horizon == other.horizon and len(self.nums) == len(other.nums)
                and all(self.agrees(other, t) for t in range(len(self.nums))))

    @property
    def per_time(self) -> tuple[tuple[Fraction, ...], ...]:
        # built from t = T down, the order a backward recursion made the rows
        # in: a wide table then frees its oldest integer rows first, which
        # left about 1 MB less resident peak than the other order at 2^12
        # states and T = 8
        return tuple(reversed([self.table(t) for t in reversed(range(len(self.nums)))]))

    @property
    def stationary(self) -> tuple[Fraction, ...]:
        if not isinstance(self.horizon, DiscountedHorizon):
            raise ValueError("stationary table only exists for discounted horizons")
        return self.table(0)

    def table(self, t: int = 0) -> tuple[Fraction, ...]:
        if t not in self._exact:
            if self.dens is None:
                row = self.nums[t]
                exact = {v: Fraction(v, self.scale) for v in set(row)}
                self._exact[t] = tuple(map(exact.__getitem__, row))
            else:
                self._exact[t] = tuple(map(Fraction, self.nums[t],
                                           map(mul, self.dens[t], repeat(self.scale))))
                self.nums[t] = self.dens[t] = None
        return self._exact[t]

    def value(self, x_idx: int, t: int = 0) -> Fraction:
        """One exact value, read without building the time-t table."""
        if t in self._exact:
            return self._exact[t][x_idx]
        den = 1 if self.dens is None else self.dens[t][x_idx]
        return Fraction(self.nums[t][x_idx], self.scale * den)


@dataclass(frozen=True)
class ArgminTable:
    """Full minimizer sets per state; per time 0..T-1 for finite horizons,
    a single table for discounted problems."""

    horizon: Horizon
    per_time: tuple[tuple[frozenset[int], ...], ...]

    @property
    def stationary(self) -> tuple[frozenset[int], ...]:
        if not isinstance(self.horizon, DiscountedHorizon):
            raise ValueError("stationary table only exists for discounted horizons")
        return self.per_time[0]


def solve_finite(inst: DPInstance) -> tuple[ValueTable, ArgminTable]:
    """Backward recursion: J_T = g, J_t = g + min over inputs of J_{t+1} at
    the successor; minimizer sets are recorded in full for every t in 0..T-1.

    Each stage is one pass of coset minima (see CosetFrame) over the cost's
    integer form, so every table is over the cost's scale, and one _step,
    g plus the minimum over the coset of Ax (as ratios for a wide cost)."""
    if not isinstance(inst.horizon, FiniteHorizon):
        raise ValueError("solve_finite needs a finite horizon")
    frame = inst.coset_frame()
    cost = inst.cost
    rows = [(cost.num, cost.den)]  # J_T, J_{T-1}, ..., J_0 with their dens
    argmins = []
    for _ in range(inst.horizon.T):
        Jk, mins, mn, md = frame.minima(*rows[-1])
        rows.append(_step(cost.num, cost, mn, md, frame.c_ax))
        argmins.append(tuple(frame.argmin_sets(Jk, mins)))
    nums, dens = zip(*reversed(rows))
    return (ValueTable(inst.horizon, nums, cost.scale, dens),
            ArgminTable(inst.horizon, tuple(reversed(argmins))))


def solve(inst: DPInstance) -> tuple[ValueTable, ArgminTable]:
    """The exact solve for the instance's horizon: backward recursion for a
    finite horizon, policy iteration for a discounted one."""
    if isinstance(inst.horizon, FiniteHorizon):
        return solve_finite(inst)
    return solve_discounted_pi(inst)


def evaluate_stationary_policy(inst: DPInstance, policy: Sequence[int] | None,
                               successors: Sequence[int] | None = None) -> ValueTable:
    """Exact discounted value of a stationary policy, computed on integers.
    successors, when given, is the successor of every state and stands in
    for the policy, which may then be None (policy iteration passes one
    chosen successor per coset of im(B), spread over its states); it is not
    checked against policy.

    The closed-loop map is a functional graph: every trajectory runs down a
    tree into a cycle.  Only the states some state steps to are walked
    (their successors are such states too); under policy iteration they are
    at most p^(n-r), one per coset.  With alpha = a/b and the cost in
    integer form G / L (CostFunction.num over .scale), a cycle
    c_0..c_{l-1} with d = b^l - a^l has the value H / (L·d) at its head
    c_0, where H = sum over j of a^j·b^(l-j)·G(c_j); every other cycle state
    also has a numerator over L·d, and a walked state k steps above the
    cycle one over L·b^k·d (from V = G / L + alpha·V_next).  Lifted to
    the walked states' common scale L·D, one _step then gives every state
    V(x) = G(x) / L + alpha·V(next x) over L·b·D.  The table takes the least
    common scale of its values, the one _integer_form gives, and is wide,
    holding those numerators over L·b·D, when that scale is wider than
    WIDE_SCALE_BITS.  A wide cost's values are wide (see _wide_policy_values).
    """
    if not isinstance(inst.horizon, DiscountedHorizon):
        raise ValueError("stationary-policy evaluation needs a discounted horizon")
    if successors is None and len(policy) != inst.num_states:
        raise ValueError("policy must assign an input to every state")
    a, b = inst.horizon.alpha.numerator, inst.horizon.alpha.denominator
    nxt = inst.coset_frame().successors(policy) if successors is None else successors
    if inst.cost.den is not None:
        return ValueTable(inst.horizon, *_wide_policy_values(nxt, inst.cost, a, b))
    G = inst.cost.num
    walked = set(nxt)
    num = [0] * len(nxt)
    den = [0] * len(nxt)  # x's value is num[x] / (L·den[x]); 0: unseen, -1: on the path
    for start in walked:
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
    dens = set(map(den.__getitem__, walked))
    common = math.lcm(*dens)
    lift = {dn: a * (common // dn) for dn in dens}
    for s in walked:  # alpha·V(s) over L·b·common
        num[s] *= lift[den[s]]
    L, scale = inst.cost.scale, b * common
    row = _step(map(mul, G, repeat(scale)), inst.cost, num, None, nxt)[0]
    # the least common scale of the values is L·scale over this gcd
    g = math.gcd(L * scale, *row)
    if (L * scale // g).bit_length() <= WIDE_SCALE_BITS:
        return ValueTable(inst.horizon, (tuple(map(floordiv, row, repeat(g))),), L * scale // g)
    return ValueTable(inst.horizon, (row,), L, ([scale] * len(row),))


def _wide_policy_values(nxt: Sequence[int], cost: CostFunction, a: int, b: int
                        ) -> tuple[tuple[list[int]], int, tuple[list[int]]]:
    """(nums, scale, dens) of the wide table of discounted values at alpha =
    a/b when x steps to nxt[x] under a wide cost: each value a ratio.  The
    walk covers the states some state steps to, from
    V(s) = g(s) + alpha·V(nxt[s]) on its paths and, at the state x where a
    path closes a cycle c_0 = x, ..., c_{l-1},
    V(x) = (sum over j of alpha^j·g(c_j)) / (1 - alpha^l); one _step then
    gives every state g(x) + alpha·V(nxt[x]).

    A walked ratio is put in lowest terms only when its denominator passes
    a bound on the reduced one: V(x) has one dividing lcm(den)·(b^l - a^l),
    and a state k steps above the cycle one dividing
    lcm(den)·b^k·(b^l - a^l), so the bound is the cost's den_bits plus
    bit_length(b) per step and per cycle state (den_bits > 0, so a bound of
    0 is one not yet set)."""
    G, Q = cost.num, cost.den
    step = b.bit_length()
    num = [0] * len(nxt)
    den = [0] * len(nxt)  # 0: unseen, -1: on the path
    cap = [0] * len(nxt)  # the bound on den[x]
    for start in set(nxt):
        path = []
        x = start
        while not den[x]:
            den[x] = -1
            path.append(x)
            x = nxt[x]
        if den[x] < 0:
            cycle = path[path.index(x):]
            # the lap sum v / w, by Horner's rule from the last state
            v, w, bits = 0, 1, cost.den_bits
            for s in reversed(cycle):
                v, w = _lowest(b * w * G[s] + a * Q[s] * v, b * w * Q[s], bits)
                bits += step
            bl = b ** len(cycle)
            for s in cycle:  # every cycle state is some rotation's head
                cap[s] = cost.den_bits + len(cycle) * step
            num[x], den[x] = _lowest(bl * v, w * (bl - a ** len(cycle)), cap[x])
            path.remove(x)
        for s in reversed(path):  # each s steps to the state just done
            y = nxt[s]
            cap[s] = cap[s] or cap[y] + step
            num[s], den[s] = _lowest(b * den[y] * G[s] + a * Q[s] * num[y],
                                     b * den[y] * Q[s], cap[s])
    nums, dens = _step(G, cost, list(map(mul, num, repeat(a))),
                       list(map(mul, den, repeat(b))), nxt)
    return (nums,), 1, (dens,)


def solve_discounted_pi(inst: DPInstance) -> tuple[ValueTable, ArgminTable]:
    """Exact policy iteration over the cosets of im(B).

    Every state x can reach exactly the coset of Ax, so the states of one
    coset share their best successor, and the policy is one chosen
    coordinate index per coset (p^(n-r) choices for r = rank B), starting
    from each coset's first state of least stage cost.  A round evaluates
    the policy exactly (on integers, see evaluate_stationary_policy) with
    successors chosen[c(Ax)], takes the coset minima of the values from
    CosetFrame.minima, and switches a coset only on a strict improvement
    (its key differs from the key minimum, for narrow and wide rows alike),
    to its first minimal position, which rules out cycling.  On
    convergence the values satisfy the fixed-point equation exactly, and
    the minimizer sets, built in full once from those values, are complete.
    """
    if not isinstance(inst.horizon, DiscountedHorizon):
        raise ValueError("solve_discounted_pi needs a discounted horizon")
    frame = inst.coset_frame()
    chosen = frame.first_minimal(*frame.minima(inst.cost.num, inst.cost.den)[:2])
    while True:
        ahead = list(map(frame.order.__getitem__, chosen))
        values = evaluate_stationary_policy(inst, None, list(map(ahead.__getitem__, frame.c_ax)))
        Jk, mins = frame.minima(values.nums[0], values.dens and values.dens[0])[:2]
        stale = list(compress(count(), map(ne, map(Jk.__getitem__, chosen), mins)))
        if not stale:
            break
        for c, k in zip(stale, frame.first_minimal(Jk, mins, stale)):
            chosen[c] = k
    return values, ArgminTable(inst.horizon, (tuple(frame.argmin_sets(Jk, mins)),))


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
    current, dens = (0,) * inst.num_states, cost.den
    power = 1  # current is over b^iterations·L
    iterations = 0
    while True:
        power *= b
        mn, md = frame.minima(current, dens)[2:]
        new, new_dens = _step(map(mul, cost.num, repeat(power)), cost,
                              [a * v for v in mn], md, frame.c_ax)
        # the old iterate over the new scale is b·current
        if dens is None:
            delta = max(map(abs, map(sub, new, map(mul, current, repeat(b)))))
            done = delta * tol.denominator <= tol.numerator * power * cost.scale
        else:  # |new / new_dens - b·current / dens| <= tol·power at every state
            done = all(map(le, map(mul, map(abs, map(sub, map(mul, new, dens), map(
                mul, map(mul, current, repeat(b)), new_dens))), repeat(tol.denominator)),
                map(mul, map(mul, new_dens, dens), repeat(tol.numerator * power))))
        current, dens = new, new_dens
        iterations += 1
        if done:
            break
    bound = alpha * tol / (1 - alpha)
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
    table(0) is the total cost from every start state.
    """
    if not isinstance(inst.horizon, FiniteHorizon):
        raise ValueError("closed-loop evaluation needs a finite horizon")
    if len(law) != inst.horizon.T:
        raise ValueError("law must cover times 0..T-1")
    frame = inst.coset_frame()
    cost = inst.cost
    rows = [(cost.num, cost.den)]  # V_T, V_{T-1}, ..., V_0 with their dens
    for inputs in reversed(law):
        rows.append(_step(cost.num, cost, *rows[-1], frame.successors(inputs)))
    nums, dens = zip(*reversed(rows))
    return ValueTable(inst.horizon, nums, cost.scale, dens)


def is_in_Gs(cost: CostFunction, decomp: DirectSumDecomposition, *,
             embedding: Sequence[Sequence[int]] | None = None,
             comp: Sequence[Sequence[int]] | None = None) -> bool:
    """Exhaustive separability test: g(x) equals the sum of g over the
    components of x for every state.  embedding and comp, when given, are
    decomp's embedding_tables() and local_index_tables()."""
    if decomp.field != cost.field or decomp.ambient_dim != cost.n:
        raise ValueError("decomposition does not match the cost's state space")
    if embedding is None:
        embedding = decomp.embedding_tables()
    if comp is None:
        comp = decomp.local_index_tables()
    g = cost.row
    return value_split_defect(g, [[g[e] for e in emb] for emb in embedding], comp) is None


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


def _part_sums(part_tables: Sequence[Sequence], comp: Sequence[Sequence[int]]) -> list:
    """part_tables[0][comp[0][x]] + part_tables[1][comp[1][x]] + ... at
    every state x: the sum of the part values at x's components."""
    total = list(map(part_tables[0].__getitem__, comp[0]))
    for part, c in zip(part_tables[1:], comp[1:]):
        total = list(map(add, total, map(part.__getitem__, c)))
    return total
