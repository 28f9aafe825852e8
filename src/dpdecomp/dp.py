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
state's minimum and full minimizer set off the coset of Ax.  Finite-horizon
values are computed on integers (the cost scaled by its common denominator)
while they stay below 2^62, and on exact Fractions beyond that.  Tables are
still dense over the state space; guard limits keep that honest (defaults
p^n <= 729 and p^m <= 81, both overridable).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import ShapeError
from .fields import PrimeField
from .linalg import DirectSumDecomposition, MatrixFp, index_map, rref

DEFAULT_MAX_STATES = 729
DEFAULT_MAX_INPUTS = 81

ZERO = Fraction(0)

# Finite-horizon values run on integers only while max(g)·LCD(g)·(T+1) is below
# this.  Python ints cannot overflow, so the limit is about speed: turning each
# distinct integer value back into a Fraction costs a gcd as wide as the LCD,
# while reduced Fractions of many unrelated denominators stay far narrower.
INT_WIDTH_LIMIT = 2**62


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

    def __post_init__(self):
        size = self.field.p**self.n
        values = tuple(Fraction(v) for v in self.table)
        if len(values) != size:
            raise ValueError(f"cost table must have {size} entries, got {len(values)}")
        if any(v < 0 for v in values):
            raise ValueError("stage cost must be nonnegative")
        if values[0] != 0:
            raise ValueError("stage cost must vanish at the zero state")
        strict = all(v > 0 for v in values[1:])
        if not strict and not self.allow_vanishing:
            raise ValueError(
                "stage cost vanishes at a nonzero state; pass allow_vanishing=True "
                "if that is intended")
        object.__setattr__(self, "table", values)
        object.__setattr__(self, "is_strict", strict)

    @classmethod
    def indicator(cls, decomp: DirectSumDecomposition,
                  weights: Sequence[Fraction]) -> "CostFunction":
        """g(x) = sum of w_i over the parts whose component of x is nonzero."""
        if len(weights) != decomp.r:
            raise ValueError("one weight per part required")
        ws = [Fraction(w) for w in weights]
        if any(w < 0 for w in ws):
            raise ValueError("indicator weights must be nonnegative")
        if all(w == 0 for w in ws):
            raise ValueError("at least one indicator weight must be positive")
        p = decomp.field.p
        tables = [[ZERO] + [w] * (p**s.dim - 1) for w, s in zip(ws, decomp.parts)]
        return cls.separable(decomp, tables, allow_vanishing=any(w == 0 for w in ws))

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

        comp = decomp.local_index_tables()
        table = [_part_sum(tables, comp, x) for x in range(p**decomp.ambient_dim)]
        return cls(field, decomp.ambient_dim, table, allow_vanishing=allow_vanishing)


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

    def input_vector(self, u_idx: int) -> tuple[int, ...]:
        return index_state(u_idx, self.field.p, self.m)

    def state_vector(self, x_idx: int) -> tuple[int, ...]:
        return index_state(x_idx, self.field.p, self.n)

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


@dataclass(frozen=True, eq=False, repr=False)
class CosetFrame:
    """GF(p)^n in a basis Q whose first r = rank B vectors span im(B).

    The coordinate index of a state y (its index under Q^-1) has the
    position w of y inside its coset of im(B) as its low r digits and the
    coset label c as its high n - r digits, so coset c is the block of
    P = p^r consecutive coordinate indices starting at c·P.  The successor
    of x under u is then the state at coordinate index
    c(Ax)·P + add[w(Ax) + P·offset[u]].
    """

    P: int
    order: list[int]           # order[k]: the state with coordinate index k
    k_ax: list[int]            # coordinate index of A x, per state x
    offset: list[int]          # R u, the in-coset shift of B u, per input u
    pre: list[frozenset[int]]  # pre[d]: the inputs u with R u = d
    add: list[int]             # add[w + P·v] = w + v, digit by digit
    sub: list[int]             # sub[w + P·v] = w - v, digit by digit

    @classmethod
    def of(cls, A: MatrixFp, B: MatrixFp) -> "CosetFrame":
        field = A.field
        n, m = B.nrows, B.ncols
        eye = MatrixFp.identity(field, n)
        # pivots of [B | I] in B are a basis of im(B); those in I complete it
        _, _, pivots = rref(B.hstack(eye))
        r = sum(1 for j in pivots if j < m)
        Q = MatrixFp.from_cols(field, [B.col(j) if j < m else eye.col(j - m)
                                       for j in pivots], nrows=n)
        to_frame = Q.inverse()
        # im(B) is spanned by Q's first r columns, so Q^-1 B vanishes below row r
        R = MatrixFp(field, r, m, (to_frame @ B).entries[:r * m])
        P = field.p**r
        offset = index_map(R)
        pre: list[list[int]] = [[] for _ in range(P)]
        for u, d in enumerate(offset):
            pre[d].append(u)
        eye_r = MatrixFp.identity(field, r)
        return cls(P, index_map(Q), index_map(to_frame @ A), offset,
                   [frozenset(us) for us in pre], index_map(eye_r.hstack(eye_r)),
                   index_map(eye_r.hstack(eye_r.scale(-1))))

    def minima(self, J: Sequence) -> tuple[list, list]:
        """J in coordinate order, and its minimum over every coset."""
        P = self.P
        Jk = [J[y] for y in self.order]
        return Jk, [min(Jk[b:b + P]) for b in range(0, len(Jk), P)]

    def argmin_sets(self, Jk: Sequence, mins: Sequence) -> list[frozenset[int]]:
        """Every state's full set of inputs u with J(Ax + Bu) minimal.

        u is optimal at x exactly when w(Ax) + R u is a position v where J
        reaches its minimum on the coset of Ax, that is when R u = v - w(Ax);
        with one such position the set is the shared fibre pre[v - w(Ax)]."""
        P, pre, sub = self.P, self.pre, self.sub
        where = [[v for v, j in enumerate(Jk[b:b + P]) if j == best]
                 for b, best in zip(range(0, len(Jk), P), mins)]
        out = []
        for k in self.k_ax:
            c, w = divmod(k, P)
            best = where[c]
            out.append(pre[sub[best[0] + P * w]] if len(best) == 1 else
                       frozenset().union(*(pre[sub[v + P * w]] for v in best)))
        return out

    def successors(self, inputs: Sequence[int]) -> list[int]:
        """The successor of every state x under the input inputs[x]."""
        P, add, off, order = self.P, self.add, self.offset, self.order
        out = []
        for k, u in zip(self.k_ax, inputs):
            w = k % P
            out.append(order[k - w + add[w + P * off[u]]])
        return out


@dataclass(frozen=True)
class ValueTable:
    """Optimal (or policy) values per state; one table per time for finite
    horizons (times 0..T), a single table for discounted problems."""

    horizon: Horizon
    per_time: tuple[tuple[Fraction, ...], ...]

    @property
    def stationary(self) -> tuple[Fraction, ...]:
        if not isinstance(self.horizon, DiscountedHorizon):
            raise ValueError("stationary table only exists for discounted horizons")
        return self.per_time[0]

    def table(self, t: int = 0) -> tuple[Fraction, ...]:
        return self.per_time[t]

    def value(self, x_idx: int, t: int = 0) -> Fraction:
        return self.per_time[t][x_idx]


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

    def at(self, x_idx: int, t: int = 0) -> frozenset[int]:
        return self.per_time[t][x_idx]


def _scaled_cost(g: Sequence[Fraction], T: int) -> tuple[list[int], int] | None:
    """The cost as integers g·LCD(g) and that LCD, when every horizon-T value
    provably fits below INT_WIDTH_LIMIT (max(g)·LCD·(T+1) < 2^62); else None."""
    top = max(g) * (T + 1)
    lcd = 1
    for d in {v.denominator for v in g}:
        lcd = math.lcm(lcd, d)
        if top * lcd >= INT_WIDTH_LIMIT:
            return None
    return [v.numerator * (lcd // v.denominator) for v in g], lcd


def solve_finite(inst: DPInstance) -> tuple[ValueTable, ArgminTable]:
    """Backward recursion: J_T = g, J_t = g + min over inputs of J_{t+1} at
    the successor; minimizer sets are recorded in full for every t in 0..T-1.

    Each stage is one pass of coset minima (see CosetFrame).  When the
    integer width rule allows it, the recursion runs on g·LCD(g) and the
    tables are turned back into Fractions at the end."""
    if not isinstance(inst.horizon, FiniteHorizon):
        raise ValueError("solve_finite needs a finite horizon")
    T = inst.horizon.T
    frame = inst.coset_frame()
    P = frame.P
    g = inst.cost.table
    scaled = _scaled_cost(g, T)
    stage_cost = g if scaled is None else scaled[0]
    J = stage_cost
    tables = []  # J_{T-1}, ..., J_0, on integers when scaled
    argmins = []
    for _ in range(T):
        Jk, mins = frame.minima(J)
        J = [gx + mins[k // P] for gx, k in zip(stage_cost, frame.k_ax)]
        tables.append(J)
        argmins.append(tuple(frame.argmin_sets(Jk, mins)))
    if scaled is not None:
        exact = {v: Fraction(v, scaled[1]) for v in set().union(*tables)}
        tables = [map(exact.__getitem__, J) for J in tables]
    return (ValueTable(inst.horizon, tuple(tuple(J) for J in reversed(tables)) + (g,)),
            ArgminTable(inst.horizon, tuple(reversed(argmins))))


def solve(inst: DPInstance) -> tuple[ValueTable, ArgminTable]:
    """The exact solve for the instance's horizon: backward recursion for a
    finite horizon, policy iteration for a discounted one."""
    if isinstance(inst.horizon, FiniteHorizon):
        return solve_finite(inst)
    return solve_discounted_pi(inst)


def evaluate_stationary_policy(inst: DPInstance, policy: Sequence[int]) -> ValueTable:
    """Exact discounted value of a stationary policy.

    Every trajectory of the closed-loop map is a tail into a cycle; the
    prefix is summed term by term and the cycle contributes its discounted
    lap cost times 1/(1 - alpha^L), all in exact rationals.
    """
    if not isinstance(inst.horizon, DiscountedHorizon):
        raise ValueError("stationary-policy evaluation needs a discounted horizon")
    if len(policy) != inst.num_states:
        raise ValueError("policy must assign an input to every state")
    alpha = inst.horizon.alpha
    g = inst.cost.table
    nxt = inst.coset_frame().successors(policy)
    values: list[Fraction | None] = [None] * inst.num_states
    for start in range(inst.num_states):
        if values[start] is not None:
            continue
        path: list[int] = []
        pos: dict[int, int] = {}
        x = start
        while values[x] is None and x not in pos:
            pos[x] = len(path)
            path.append(x)
            x = nxt[x]
        if values[x] is None:
            # closed a fresh cycle at path[pos[x]:]
            cycle = path[pos[x]:]
            lap = ZERO
            a_pow = Fraction(1)
            for s in cycle:
                lap += a_pow * g[s]
                a_pow *= alpha
            values[cycle[0]] = lap / (1 - a_pow)  # a_pow is alpha^len(cycle)
            # fill the rest of the cycle walking backwards from the head
            for idx in range(len(cycle) - 1, 0, -1):
                s = cycle[idx]
                values[s] = g[s] + alpha * values[nxt[s]]
            prefix_end = pos[x]
        else:
            prefix_end = len(path)
        for idx in range(prefix_end - 1, -1, -1):
            s = path[idx]
            values[s] = g[s] + alpha * values[nxt[s]]
    return ValueTable(inst.horizon, (tuple(values),))


def solve_discounted_pi(inst: DPInstance) -> tuple[ValueTable, ArgminTable]:
    """Exact policy iteration.

    Starts from the greedy-on-g policy (cheapest successor stage cost,
    lowest input index on ties), alternates exact evaluation with greedy
    improvement, and only switches an action on a strict improvement, which
    rules out cycling.  On convergence the values satisfy the fixed-point
    equation exactly and the returned minimizer sets are complete.
    """
    if not isinstance(inst.horizon, DiscountedHorizon):
        raise ValueError("solve_discounted_pi needs a discounted horizon")
    frame = inst.coset_frame()
    policy = [min(chosen) for chosen in frame.argmin_sets(*frame.minima(inst.cost.table))]
    while True:
        values = evaluate_stationary_policy(inst, policy).stationary
        argmin = frame.argmin_sets(*frame.minima(values))
        improved = False
        for x, chosen in enumerate(argmin):
            if policy[x] not in chosen:
                policy[x] = min(chosen)
                improved = True
        if not improved:
            break
    # no action changed on this last pass, so its minimizer sets are final
    return (ValueTable(inst.horizon, (tuple(values),)),
            ArgminTable(inst.horizon, (tuple(argmin),)))


@dataclass(frozen=True)
class ValueIterationResult:
    values: ValueTable
    error_bound: Fraction
    iterations: int


def solve_discounted_vi(inst: DPInstance, tol: Fraction) -> ValueIterationResult:
    """Value iteration from J = 0 until successive sup-norm change <= tol.

    The returned table J satisfies |J - J*| <= alpha * tol / (1 - alpha) in
    sup norm, which is the error_bound field.
    """
    if not isinstance(inst.horizon, DiscountedHorizon):
        raise ValueError("solve_discounted_vi needs a discounted horizon")
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    alpha = inst.horizon.alpha
    frame = inst.coset_frame()
    P = frame.P
    g = inst.cost.table
    current = tuple(ZERO for _ in range(inst.num_states))
    iterations = 0
    while True:
        iterations += 1
        mins = frame.minima(current)[1]
        new = tuple(gx + alpha * mins[k // P] for gx, k in zip(g, frame.k_ax))
        delta = max(abs(a - b) for a, b in zip(new, current))
        current = new
        if delta <= tol:
            break
    bound = alpha * tol / (1 - alpha)
    return ValueIterationResult(ValueTable(inst.horizon, (current,)), bound, iterations)


def evaluate_time_varying(inst: DPInstance, law: Sequence[Sequence[int]]) -> tuple[Fraction, ...]:
    """Finite-horizon cost-from-start of a time-varying control law.

    law[t][x] is the input index applied at time t in state x, for t in
    0..T-1.  Returns the total cost from every start state.
    """
    if not isinstance(inst.horizon, FiniteHorizon):
        raise ValueError("closed-loop evaluation needs a finite horizon")
    T = inst.horizon.T
    if len(law) != T:
        raise ValueError("law must cover times 0..T-1")
    frame = inst.coset_frame()
    steps = [frame.successors(inputs) for inputs in law]
    g = inst.cost.table
    out = []
    for start in range(inst.num_states):
        x = start
        total = g[x]
        for nxt in steps:
            x = nxt[x]
            total += g[x]
        out.append(total)
    return tuple(out)


def is_in_Gs(cost: CostFunction, decomp: DirectSumDecomposition) -> bool:
    """Exhaustive separability test: g(x) equals the sum of g over the
    components of x for every state."""
    if decomp.field != cost.field or decomp.ambient_dim != cost.n:
        raise ValueError("decomposition does not match the cost's state space")
    g = cost.table
    parts = [[g[e] for e in emb] for emb in decomp.embedding_tables()]
    return value_split_defect(g, parts, decomp.local_index_tables()) is None


def _part_sum(part_tables: Sequence[Sequence[Fraction]], comp: Sequence[Sequence[int]],
              x: int) -> Fraction:
    """Sum over parts of part table i at the part-i local index of state x."""
    return sum((t[c[x]] for t, c in zip(part_tables, comp)), ZERO)


def value_split_defect(table: Sequence[Fraction],
                       part_tables: Sequence[Sequence[Fraction]],
                       comp: Sequence[Sequence[int]]) -> int | None:
    """The smallest state index x where table[x] differs from the sum over
    parts of part_tables[i][comp[i][x]], or None when the table splits.

    comp[i] maps every state to its part-i local index, as in
    DirectSumDecomposition.local_index_tables.
    """
    for x, v in enumerate(table):
        if v != _part_sum(part_tables, comp, x):
            return x
    return None


def bellman_residual(inst: DPInstance, values: ValueTable) -> Fraction:
    """Max absolute defect of the optimality recursion over all states
    (and times, for finite horizons).  Zero certifies exact optimality.

    It tries every input through transitions() on purpose: as an oracle for
    the solvers it must stay independent of the coset operator they use."""
    trans = inst.transitions()
    g = inst.cost.table
    worst = ZERO
    if isinstance(inst.horizon, FiniteHorizon):
        T = inst.horizon.T
        for x in range(inst.num_states):
            defect = abs(values.per_time[T][x] - g[x])
            worst = max(worst, defect)
        for t in range(T):
            nxt = values.per_time[t + 1]
            for x in range(inst.num_states):
                best = min(nxt[y] for y in trans[x])
                worst = max(worst, abs(values.per_time[t][x] - (g[x] + best)))
        return worst
    alpha = inst.horizon.alpha
    table = values.stationary
    for x in range(inst.num_states):
        best = min(table[y] for y in trans[x])
        worst = max(worst, abs(table[x] - (g[x] + alpha * best)))
    return worst
