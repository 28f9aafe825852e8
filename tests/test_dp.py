"""Exact finite-state dynamic programming over GF(p).

The finite-horizon solver is checked against brute-force enumeration of
all input sequences (an independent oracle: no recursion involved).  The
discounted solvers are checked against hand-derived closed forms, the
exact Bellman residual, and each other.  All three solvers are also checked
exactly against per-(state, input) oracles that try every input at every
state through transitions(), which is how the library solved before the
coset operator.  Stationary-policy evaluation is checked against the exact
Fraction walk it replaced, down to the table's scale and numerators, and
the coset kernels (CosetFrame.minima and argmin_sets) against the
per-state loops they replaced.
"""

import itertools
import math
import random
import sys
import tracemalloc
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dpdecomp import cosets, dp
from dpdecomp.dp import (ArgminTable, CostFunction,
                         DiscountedHorizon, DPInstance, FiniteHorizon,
                         ValueIterationResult, ValueTable,
                         evaluate_stationary_policy,
                         evaluate_time_varying, index_state, is_in_Gs,
                         solve_discounted_pi, solve_discounted_vi,
                         solve_finite, state_index, value_split_defect)
from dpdecomp.fields import PrimeField
from dpdecomp import linalg
from dpdecomp.linalg import DirectSumDecomposition, MatrixFp, Subspace, index_map, rref_rows

F2 = PrimeField(2)
F3 = PrimeField(3)

HALF = Fraction(1, 2)


def exact_table(horizon, tables):
    """The ValueTable of exact rational values in integer form (equal-length
    rows, one per time), as the solvers build it."""
    scale, flat, dens = dp._integer_form([v for t in tables for v in t])
    size = len(flat) // len(tables)
    rows = range(0, len(flat), size)
    return ValueTable(horizon, tuple(flat[k:k + size] for k in rows), scale,
                      None if dens is None else [dens[k:k + size] for k in rows])


def _strict_table(rng_vals, size):
    return [Fraction(0)] + [Fraction(v) for v in rng_vals[:size - 1]]


@st.composite
def finite_instances(draw):
    p = draw(st.sampled_from([2, 3]))
    F = PrimeField(p)
    n = draw(st.integers(1, 2))
    m = draw(st.integers(1, 2))
    A = MatrixFp(F, n, n, draw(st.lists(st.integers(0, p - 1),
                                        min_size=n * n, max_size=n * n)))
    B = MatrixFp(F, n, m, draw(st.lists(st.integers(0, p - 1),
                                        min_size=n * m, max_size=n * m)))
    vals = draw(st.lists(st.integers(1, 5), min_size=p**n - 1, max_size=p**n - 1))
    cost = CostFunction(F, n, _strict_table(vals, p**n))
    T = draw(st.integers(1, 3))
    return DPInstance(A, B, cost, FiniteHorizon(T), require_injective=False)


@st.composite
def discounted_instances(draw):
    p = draw(st.sampled_from([2, 3]))
    F = PrimeField(p)
    n = draw(st.integers(1, 2))
    m = draw(st.integers(1, 2))
    A = MatrixFp(F, n, n, draw(st.lists(st.integers(0, p - 1),
                                        min_size=n * n, max_size=n * n)))
    B = MatrixFp(F, n, m, draw(st.lists(st.integers(0, p - 1),
                                        min_size=n * m, max_size=n * m)))
    vals = draw(st.lists(st.integers(1, 5), min_size=p**n - 1, max_size=p**n - 1))
    cost = CostFunction(F, n, _strict_table(vals, p**n))
    alpha = draw(st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(2, 3)]))
    return DPInstance(A, B, cost, DiscountedHorizon(alpha), require_injective=False)


def brute_force_minimum(inst, x_idx):
    """Enumerate every input sequence of length T; no recursion."""
    T = inst.horizon.T
    g = inst.cost.table
    trans = inst.transitions()
    best = None
    for seq in itertools.product(range(inst.num_inputs), repeat=T):
        x = x_idx
        total = g[x]
        for u in seq:
            x = trans[x][u]
            total += g[x]
        if best is None or total < best:
            best = total
    return best


def _minimize(values, next_states):
    """The smallest successor value and every input that reaches it."""
    best = None
    chosen = []
    for u, nx in enumerate(next_states):
        v = values[nx]
        if best is None or v < best:
            best = v
            chosen = [u]
        elif v == best:
            chosen.append(u)
    return best, frozenset(chosen)


def oracle_solve_finite(inst):
    """Backward recursion trying every input at every state."""
    T = inst.horizon.T
    trans = inst.transitions()
    g = inst.cost.table
    values = [None] * (T + 1)
    argmin = [None] * T
    values[T] = g
    for t in range(T - 1, -1, -1):
        solved = [_minimize(values[t + 1], trans[x]) for x in range(inst.num_states)]
        values[t] = tuple(g[x] + best for x, (best, _) in enumerate(solved))
        argmin[t] = tuple(chosen for _, chosen in solved)
    return (exact_table(inst.horizon, values),
            ArgminTable(inst.horizon, tuple(argmin)))


def oracle_evaluate_stationary_policy(inst, policy):
    """The exact discounted values of a stationary policy, as Fractions:
    every trajectory of the closed-loop map (through transitions()) is a
    tail into a cycle; a cycle's head is worth its discounted lap cost over
    1 - alpha^L, and every other state g + alpha times its successor."""
    alpha = inst.horizon.alpha
    g = inst.cost.table
    trans = inst.transitions()
    nxt = [trans[x][u] for x, u in enumerate(policy)]
    values = [None] * inst.num_states
    for start in range(inst.num_states):
        path = []
        pos = {}
        x = start
        while values[x] is None and x not in pos:
            pos[x] = len(path)
            path.append(x)
            x = nxt[x]
        if values[x] is None:  # closed a fresh cycle at path[pos[x]:]
            cycle = path[pos[x]:]
            lap = sum((alpha**j * g[s] for j, s in enumerate(cycle)), Fraction(0))
            values[x] = lap / (1 - alpha ** len(cycle))
            path = path[:pos[x]] + cycle[1:]
        for s in reversed(path):
            values[s] = g[s] + alpha * values[nxt[s]]
    return values


def oracle_solve_discounted_pi(inst):
    """Policy iteration from the greedy-on-g policy, switching an action only
    on a strict improvement, trying every input at every state."""
    trans = inst.transitions()
    policy = [min(_minimize(inst.cost.table, trans[x])[1]) for x in range(inst.num_states)]
    while True:
        values = oracle_evaluate_stationary_policy(inst, policy)
        improved = False
        argmin = []
        for x in range(inst.num_states):
            best, chosen = _minimize(values, trans[x])
            argmin.append(chosen)
            if values[trans[x][policy[x]]] > best:
                policy[x] = min(chosen)
                improved = True
        if not improved:
            return (exact_table(inst.horizon, (values,)),
                    ArgminTable(inst.horizon, (tuple(argmin),)))


def bellman_residual(inst: DPInstance, values: ValueTable) -> Fraction:
    """Max absolute defect of the optimality recursion over all states
    (and times, for finite horizons).  Zero certifies exact optimality.

    It tries every input through transitions() on purpose: as an oracle for
    the solvers it must stay independent of the coset operator they use."""
    trans = inst.transitions()
    g = inst.cost.table
    worst = Fraction(0)
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


def oracle_solve_discounted_vi(inst, tol):
    """Value iteration from J = 0, trying every input at every state."""
    alpha = inst.horizon.alpha
    trans = inst.transitions()
    g = inst.cost.table
    current = tuple(Fraction(0) for _ in range(inst.num_states))
    iterations = 0
    while True:
        iterations += 1
        new = tuple(g[x] + alpha * _minimize(current, trans[x])[0]
                    for x in range(inst.num_states))
        delta = max(abs(a - b) for a, b in zip(new, current))
        current = new
        if delta <= tol:
            break
    return ValueIterationResult(exact_table(inst.horizon, (current,)),
                                alpha * tol / (1 - alpha), iterations)


def oracle_evaluate_time_varying(inst, law):
    """The cost of law from every state and time, by forward simulation
    summing exact Fractions."""
    T, trans, g = inst.horizon.T, inst.transitions(), inst.cost.table
    expected = []
    for t in range(T + 1):
        row = []
        for start in range(inst.num_states):
            x, total = start, g[start]
            for s in range(t, T):
                x = trans[x][law[s][x]]
                total += g[x]
            row.append(total)
        expected.append(row)
    return exact_table(inst.horizon, expected)


def oracle_minima(frame, J):
    """J in coordinate order and its minimum over every coset, one state and
    one coset at a time (how CosetFrame.minima computed them before it read
    them off with map and zip)."""
    P = frame.P
    Jk = [J[y] for y in frame.order]
    return Jk, [min(Jk[b:b + P]) for b in range(0, len(Jk), P)]


def digit_difference(p, r, v, w):
    """The index of v - w for two r-digit base-p indices, read off their
    digit vectors."""
    return state_index([a - b for a, b in zip(index_state(v, p, r), index_state(w, p, r))], p)


def oracle_argmin_sets(frame, Jk, mins):
    """Every state's minimizer set, one state at a time: the union of the
    fibres pre[v - w(Ax)] over the minimal positions v of the coset of Ax
    (how CosetFrame.argmin_sets built them before its fibre rows), with
    v - w taken from digit vectors."""
    P, pre = frame.P, frame.pre
    where = [[v for v, j in enumerate(Jk[b:b + P]) if j == best]
             for b, best in zip(range(0, len(Jk), P), mins)]
    out = []
    for k in frame.k_ax:
        c, w = divmod(k, P)
        fibres = [pre[digit_difference(frame.p, frame.r, v, w)] for v in where[c]]
        out.append(fibres[0] if len(fibres) == 1 else frozenset().union(*fibres))
    return out


def oracle_coset_frame(A, B):
    """The coset frame built by two eliminations (how CosetFrame.of built it
    before it read Q^-1 off rref([B | I])): Q from the pivots of [B | I],
    Q^-1 by a second elimination, R from the product Q^-1 B, and neg from
    the digit vectors of the positions."""
    field = A.field
    p, n, m = field.p, B.nrows, B.ncols
    eye = MatrixFp.identity(field, n)
    _, pivots = rref_rows(p, MatrixFp.from_cols(field, B.cols() + eye.cols(), nrows=n).rows())
    r = sum(1 for j in pivots if j < m)
    Q = MatrixFp.from_cols(field, [B.col(j) if j < m else eye.col(j - m)
                                   for j in pivots], nrows=n)
    to_frame = Q.inverse()
    R = MatrixFp(field, r, m, (to_frame @ B).entries[:r * m])
    offset = index_map(R)
    pre = [[] for _ in range(p**r)]
    for u, d in enumerate(offset):
        pre[d].append(u)
    return dp.CosetFrame(p, r, p**r, index_map(Q), index_map(to_frame @ A), offset,
                         [frozenset(us) for us in pre],
                         [digit_difference(p, r, 0, w) for w in range(p**r)])


def oracle_successors(inst, inputs):
    """The successor of every state under inputs[x], from the digit vectors
    of A x + B u."""
    p = inst.field.p
    return [state_index([a + b for a, b in zip(inst.A.matvec(index_state(x, p, inst.n)),
                                                inst.B.matvec(index_state(u, p, inst.m)))], p)
            for x, u in enumerate(inputs)]


# Mersenne primes: a table holding the first two has an LCD above 2^150, so
# its integer numerators run far past 64 bits; with the third as well the LCD
# passes WIDE_SCALE_BITS and the table is wide (a numerator and a denominator
# per entry)
WIDE_DENOMINATORS = (2**61 - 1, 2**89 - 1, 2**127 - 1)


@st.composite
def coset_instances(draw, horizon):
    """Any p in {2, 3, 5, 7}, singular or invertible A, m = 0 and B of any
    rank (require_injective=False), costs that may vanish off zero, and
    denominators either small or wide (an LCD past WIDE_SCALE_BITS when all
    three wide denominators are drawn)."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    F = PrimeField(p)
    n = draw(st.integers(1, 3 if p <= 3 else 2))
    m = draw(st.integers(0, 2 if p <= 5 else 1))
    entries = st.integers(0, p - 1)
    A = MatrixFp(F, n, n, draw(st.lists(entries, min_size=n * n, max_size=n * n)))
    if draw(st.booleans()):
        A = A @ MatrixFp(F, n, n, [1 if i == j and i else 0
                                   for i in range(n) for j in range(n)])  # kills e_0
    B = MatrixFp(F, n, m, draw(st.lists(entries, min_size=n * m, max_size=n * m)))
    wide = draw(st.booleans())
    dens = st.sampled_from(WIDE_DENOMINATORS if wide else (1, 2, 3, 4))
    table = [Fraction(0)] + [Fraction(draw(st.integers(0, 3)), draw(dens))
                             for _ in range(p**n - 1)]
    cost = CostFunction(F, n, table, allow_vanishing=True)
    return DPInstance(A, B, cost, horizon(draw), require_injective=False)


def _finite_horizon(draw):
    return FiniteHorizon(draw(st.integers(1, 3)))


def _discounted_horizon(draw):
    return DiscountedHorizon(draw(st.sampled_from([Fraction(1, 2), Fraction(2, 3),
                                                   Fraction(9, 10)])))


# === state indexing ===

@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 4), st.data())
def test_index_roundtrip(p, n, data):
    digits = data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
    idx = state_index(digits, p)
    assert index_state(idx, p, n) == tuple(digits)
    assert state_index(index_state(idx, p, n), p) == idx


def test_index_is_little_endian():
    assert state_index((1, 0, 0), 3) == 1
    assert state_index((0, 1, 0), 3) == 3
    assert state_index((0, 0, 1), 3) == 9
    assert state_index((2, 1, 0), 3) == 5
    assert [index_state(x, 2, 2) for x in range(4)] == [(0, 0), (1, 0), (0, 1), (1, 1)]


# === cost validation ===

def test_cost_must_vanish_at_zero():
    with pytest.raises(ValueError, match="vanish at the zero state"):
        CostFunction(F2, 1, [Fraction(1), Fraction(1)])


def test_cost_must_be_nonnegative():
    with pytest.raises(ValueError, match="nonnegative"):
        CostFunction(F2, 1, [Fraction(0), Fraction(-1)])


def test_cost_vanishing_needs_flag():
    with pytest.raises(ValueError, match="allow_vanishing"):
        CostFunction(F2, 2, [0, 1, 0, 1])
    c = CostFunction(F2, 2, [0, 1, 0, 1], allow_vanishing=True)
    assert not c.is_strict
    assert CostFunction(F2, 2, [0, 1, 1, 1]).is_strict


def test_cost_table_size_checked():
    with pytest.raises(ValueError, match="entries"):
        CostFunction(F2, 2, [0, 1, 1])


def test_indicator_weight_validation():
    parts = [Subspace(F2, 2, [(1, 0)]), Subspace(F2, 2, [(0, 1)])]
    D = DirectSumDecomposition(parts)
    with pytest.raises(ValueError):
        CostFunction.indicator(D, [Fraction(1)])
    with pytest.raises(ValueError):
        CostFunction.indicator(D, [Fraction(-1), Fraction(1)])
    with pytest.raises(ValueError):
        CostFunction.indicator(D, [Fraction(0), Fraction(0)])
    c = CostFunction.indicator(D, [Fraction(1), Fraction(2)])
    # states ordered (00),(10),(01),(11)
    assert c.table == (Fraction(0), Fraction(1), Fraction(2), Fraction(3))


def test_separable_constructor():
    parts = [Subspace(F3, 2, [(1, 0)]), Subspace(F3, 2, [(0, 1)])]
    D = DirectSumDecomposition(parts)
    c = CostFunction.separable(D, [[0, 1, 4], [0, 2, 2]])
    assert c.table[state_index((2, 1), 3)] == Fraction(6)
    assert is_in_Gs(c, D)
    with pytest.raises(ValueError, match="entries"):
        CostFunction.separable(D, [[0, 1], [0, 2, 2]])


def test_is_in_Gs_detects_coupling():
    parts = [Subspace(F3, 2, [(1, 0)]), Subspace(F3, 2, [(0, 1)])]
    D = DirectSumDecomposition(parts)
    base = CostFunction.indicator(D, [Fraction(1), Fraction(1)])
    coupled = list(base.table)
    coupled[state_index((1, 1), 3)] += 1
    assert not is_in_Gs(CostFunction(F3, 2, coupled), D)


# denominators of the shapes value tables carry: small, wide Mersenne primes,
# and discounted ones b^k (b^L - a^L) for unrelated alpha = a/b
SPLIT_DENOMINATORS = (1, 2, 3, 7) + WIDE_DENOMINATORS + (
    10**3 * (10**2 - 9**2), 10 * (10**5 - 9**5), 3**4 * (3**3 - 2**3), 2**7 * (2**4 - 1))


def _fraction_split_defect(table, part_tables, comp):
    """The first state where table differs from the summed part values,
    state by state on Fractions."""
    for x, v in enumerate(table):
        if v != sum(t[c[x]] for t, c in zip(part_tables, comp)):
            return x
    return None


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_integer_split_scan_matches_fraction_oracle(data):
    """value_split_defect on numerators over the common scale of separately
    scaled tables (as the battery lifts them) finds the oracle's first
    defect, with and without perturbed entries."""
    p = data.draw(st.sampled_from([2, 3]))
    dims = data.draw(st.lists(st.integers(1, 2), min_size=2, max_size=3))
    n = sum(dims)
    F = PrimeField(p)
    axes, at = [], 0
    for d in dims:
        axes.append(Subspace(F, n, [tuple(int(k == at + j) for k in range(n))
                                    for j in range(d)]))
        at += d
    comp = DirectSumDecomposition(axes).local_index_tables
    value = st.builds(Fraction, st.integers(0, 50), st.sampled_from(SPLIT_DENOMINATORS))
    parts = [[Fraction(0)] + data.draw(st.lists(value, min_size=p**d - 1, max_size=p**d - 1))
             for d in dims]
    table = [sum(t[c[x]] for t, c in zip(parts, comp)) for x in range(p**n)]
    for x in data.draw(st.lists(st.integers(0, p**n - 1), max_size=3)):
        table[x] += data.draw(st.builds(Fraction, st.integers(-3, 3).filter(bool),
                                        st.sampled_from(SPLIT_DENOMINATORS)))
    horizon = DiscountedHorizon(Fraction(9, 10))
    whole = exact_table(horizon, (table,))
    pieces = [exact_table(horizon, (t,)) for t in parts]
    scale = math.lcm(whole.scale, *(v.scale for v in pieces))
    found = value_split_defect(whole.at_scale(0, scale),
                               [v.at_scale(0, scale) for v in pieces], comp)
    assert found == _fraction_split_defect(table, parts, comp)
    # a perturbed numerator is seen at the same first state as its Fraction
    # (a read frees a wide table's integer rows, so the row is built afresh)
    whole = exact_table(horizon, (table,))
    x = data.draw(st.integers(0, p**n - 1))
    bumped = list(whole.nums[0])
    bumped[x] += data.draw(st.integers(-2, 2).filter(bool))
    dens = whole.dens[0] if whole.dens else [1] * len(bumped)
    exact = [Fraction(v, whole.scale * d) for v, d in zip(bumped, dens)]
    lifted = ValueTable(horizon, (tuple(bumped),), whole.scale,
                        whole.dens and (dens,)).at_scale(0, scale)
    assert (value_split_defect(lifted, [v.at_scale(0, scale) for v in pieces], comp)
            == _fraction_split_defect(exact, parts, comp))


def test_value_table_equality_is_exact_whatever_the_scale():
    h = FiniteHorizon(1)
    a = ValueTable(h, ((0, 1), (0, 2)), 2)
    assert a == ValueTable(h, ((0, 3), (0, 6)), 6)
    assert a == exact_table(h, ((Fraction(0), HALF), (Fraction(0), Fraction(1))))
    assert a != ValueTable(h, ((0, 1), (0, 3)), 2)
    assert a != ValueTable(DiscountedHorizon(HALF), a.nums, 2)
    assert a.table(0) == (Fraction(0), HALF) and a.value(1, 1) == 1
    assert a.per_time[1][1].denominator == 1  # views are reduced


def test_negative_times_read_the_row_of_their_time():
    """The one time rule of ValueTable and a solver's ArgminTable: a
    negative t is resolved to its time before the cache is consulted (a
    wide table reads -1 after 1, whose read freed the integer rows; a
    narrow table and an argmin table keep one row for 1 and -1, and a
    one-entry read at -2 reads time 0), a t past either end is an
    IndexError for table, value and inputs, and stationary refuses a
    finite horizon."""
    wide = ValueTable(FiniteHorizon(1), [[1, 2], [3, 4]], 1, [[3, 5], [7, 2**300 + 1]])
    row = wide.table(1)
    assert wide.table(-1) is row and wide.value(1, -1) == row[1] == Fraction(4, 2**300 + 1)
    assert wide.value(0, -2) == Fraction(1, 3) and len(wide) == 2
    narrow = ValueTable(FiniteHorizon(1), ((0, 1), (0, 2)), 2)
    assert narrow.table(-1) is narrow.table(1) and narrow.value(1, -1) == 1
    # x' = x + u over GF(2), g = [0, 1], T = 2: leave 1 at once
    A = MatrixFp.identity(F2, 1)
    _, argmin = solve_finite(DPInstance(A, A, CostFunction(F2, 1, [0, 1]), FiniteHorizon(2)))
    assert argmin.inputs(1, -2) == frozenset({1}) and len(argmin) == 2
    row = argmin.table(1)
    assert argmin.table(-1) is row and argmin.inputs(0, -1) is row[0] == frozenset({0})
    for table, read in ((wide, wide.value), (narrow, narrow.value), (argmin, argmin.inputs)):
        for t in (len(table), -len(table) - 1):
            with pytest.raises(IndexError):
                table.table(t)
            with pytest.raises(IndexError):
                read(0, t)
        with pytest.raises(ValueError, match="only exists for discounted horizons"):
            table.stationary


@pytest.mark.parametrize("horizon", [FiniteHorizon(2), DiscountedHorizon(HALF)],
                         ids=["finite", "discounted"])
def test_argmin_table_lets_its_frame_go_once_every_row_is_built(horizon):
    """A solver's ArgminTable holds the instance's CosetFrame only while a
    row is left to build: with the instance gone, building the last row
    frees the frame, and one-state reads then give the built rows' sets."""
    A = MatrixFp.from_rows(F3, [[1, 1], [0, 2]])
    B = MatrixFp.from_rows(F3, [[1], [1]])
    inst = DPInstance(A, B, CostFunction(F3, 2, [0, 1, 2, 1, 1, 2, 2, 1, 3]), horizon)
    _, argmin = dp.solve(inst)
    del inst
    frame = weakref.ref(argmin.frame)
    if len(argmin) > 1:
        argmin.table(1)
        assert frame() is argmin.frame is not None  # row 0 is left to build
    rows = argmin.per_time
    assert frame() is None and argmin.frame is None
    assert [tuple(argmin.inputs(x, t) for x in range(9)) for t in range(len(argmin))] == list(rows)


def test_value_split_defect_returns_smallest_failing_state():
    # GF(2)^2 split along the axes: comp[i][x] is coordinate i of x
    comp = [[0, 1, 0, 1], [0, 0, 1, 1]]
    parts = [[Fraction(0), Fraction(1)], [Fraction(0), Fraction(2)]]
    split = [Fraction(v) for v in (0, 1, 2, 3)]
    assert value_split_defect(split, parts, comp) is None
    assert value_split_defect([Fraction(v) for v in (0, 1, 5, 4)], parts, comp) == 2
    assert value_split_defect([Fraction(v) for v in (0, 1, 2, 4)], parts, comp) == 3


# === instance validation ===

def test_horizon_validation():
    with pytest.raises(ValueError):
        FiniteHorizon(0)
    with pytest.raises(ValueError):
        DiscountedHorizon(Fraction(1))
    with pytest.raises(ValueError):
        DiscountedHorizon(Fraction(0))
    assert DiscountedHorizon(Fraction(1, 2)).alpha == HALF


def test_state_space_guard():
    A = MatrixFp.identity(F3, 7)
    B = MatrixFp.zeros(F3, 7, 1)
    cost = CostFunction(F3, 7, [0] + [1] * (3**7 - 1), allow_vanishing=True)
    with pytest.raises(ValueError, match="guard"):
        DPInstance(A, B, cost, FiniteHorizon(1), require_injective=False)
    inst = DPInstance(A, B, cost, FiniteHorizon(1), require_injective=False,
                      max_states=None)
    assert inst.num_states == 3**7


def test_input_space_guard():
    """p^m above max_inputs (81 by default) is refused; None lifts the guard."""
    A = MatrixFp.identity(F3, 1)
    B = MatrixFp.zeros(F3, 1, 5)
    cost = CostFunction(F3, 1, [0, 1, 1])
    with pytest.raises(ValueError, match="input space size 243 exceeds the guard 81"):
        DPInstance(A, B, cost, FiniteHorizon(1), require_injective=False)
    with pytest.raises(ValueError, match="input space size 243 exceeds the guard 27"):
        DPInstance(A, B, cost, FiniteHorizon(1), require_injective=False, max_inputs=27)
    inst = DPInstance(A, B, cost, FiniteHorizon(1), require_injective=False,
                      max_inputs=None)
    assert inst.num_inputs == 3**5


def test_injective_input_map_required_by_default():
    A = MatrixFp.identity(F2, 2)
    B = MatrixFp.from_rows(F2, [[1, 1], [0, 0]])
    cost = CostFunction(F2, 2, [0, 1, 1, 1])
    with pytest.raises(ValueError, match="column rank"):
        DPInstance(A, B, cost, FiniteHorizon(1))
    DPInstance(A, B, cost, FiniteHorizon(1), require_injective=False)


# === finite-horizon solver ===

@given(finite_instances())
@settings(max_examples=60, deadline=None)
def test_finite_matches_brute_force(inst):
    values, _ = solve_finite(inst)
    for x in range(inst.num_states):
        assert values.value(x, 0) == brute_force_minimum(inst, x)


@given(finite_instances())
@settings(max_examples=40, deadline=None)
def test_finite_argmin_sets_are_exact(inst):
    values, argmin = solve_finite(inst)
    T = inst.horizon.T
    g = inst.cost.table
    trans = inst.transitions()
    for t in range(T):
        nxt = values.per_time[t + 1]
        for x in range(inst.num_states):
            chosen = argmin.per_time[t][x]
            assert chosen
            achieved = {nxt[trans[x][u]] for u in chosen}
            assert achieved == {values.value(x, t) - g[x]}
            for u in range(inst.num_inputs):
                if u not in chosen:
                    assert nxt[trans[x][u]] > values.value(x, t) - g[x]


@given(finite_instances())
@settings(max_examples=30, deadline=None)
def test_time_varying_argmin_law_is_optimal(inst):
    values, argmin = solve_finite(inst)
    T = inst.horizon.T
    law = [[min(argmin.per_time[t][x]) for x in range(inst.num_states)]
           for t in range(T)]
    assert evaluate_time_varying(inst, law) == values


@given(coset_instances(_finite_horizon), st.data())
@settings(max_examples=100, deadline=None)
def test_time_varying_evaluation_matches_fraction_oracle(inst, data):
    """The backward integer recursion against forward simulation summing
    exact Fractions, for any law, wide denominators included."""
    T, N = inst.horizon.T, inst.num_states
    law = [data.draw(st.lists(st.integers(0, inst.num_inputs - 1), min_size=N, max_size=N))
           for _ in range(T)]
    assert evaluate_time_varying(inst, law) == oracle_evaluate_time_varying(inst, law)


@given(coset_instances(_finite_horizon))
@settings(max_examples=150, deadline=None)
def test_finite_matches_oracle_exactly(inst):
    values, argmin = solve_finite(inst)
    expected_values, expected_argmin = oracle_solve_finite(inst)
    assert values == expected_values
    assert argmin == expected_argmin
    assert all(type(v) is Fraction for table in values.per_time for v in table)


def test_finite_fraction_side_matches_oracle():
    # 1/(2^61-1) and 1/(2^89-1) together put the LCD past 2^150; with
    # 1/(2^127-1) too it passes WIDE_SCALE_BITS and the cost is wide
    A = MatrixFp(F3, 2, 2, [1, 1, 0, 1])
    B = MatrixFp(F3, 2, 1, [0, 1])
    w61, w89, w127 = (Fraction(1, d) for d in WIDE_DENOMINATORS)
    for last, scale in ((3, WIDE_DENOMINATORS[0] * WIDE_DENOMINATORS[1]), (w127, 1)):
        table = [0, w61, w89, 2 * w89, w61 + w89, 0, 1, w61, last]
        inst = DPInstance(A, B, CostFunction(F3, 2, table, allow_vanishing=True),
                          FiniteHorizon(3))
        assert inst.cost.scale == scale
        assert solve_finite(inst) == oracle_solve_finite(inst)


def test_wide_cost_keeps_its_own_fractions():
    # past WIDE_SCALE_BITS the integer form is each value's own reduced
    # terms: a numerator and a denominator per state, over scale 1
    w61, w89, w127 = (Fraction(1, d) for d in WIDE_DENOMINATORS)
    cost = CostFunction(F3, 2, [0, w61, w89, 2 * w89, w61 + w89, 0, 1, w61, w127],
                        allow_vanishing=True)
    assert cost.scale == 1
    assert cost.num == tuple(v.numerator for v in cost.table)
    assert cost.den == tuple(v.denominator for v in cost.table)
    assert cost.row is cost.table
    narrow = CostFunction(F3, 1, [0, Fraction(1, 2), Fraction(1, 3)])
    assert (narrow.scale, narrow.num, narrow.den) == (6, (0, 3, 2), None)
    assert narrow.row is narrow.num


def _wide_instance(seed, p, n, m, horizon, *, one_coset=False):
    """A random instance whose cost is wide: every state's denominator is
    one of WIDE_DENOMINATORS, each of which occurs.  one_coset makes B
    invertible (m = n, P = p^n)."""
    rng = random.Random(seed)
    F = PrimeField(p)
    A = MatrixFp(F, n, n, [rng.randrange(p) for _ in range(n * n)])
    if one_coset:  # unit lower triangular
        B = MatrixFp(F, n, n, [1 if i == j else rng.randrange(p) if i > j else 0
                               for i in range(n) for j in range(n)])
    else:
        B = MatrixFp(F, n, m, [rng.randrange(p) for _ in range(n * m)])
    dens = list(WIDE_DENOMINATORS) + [rng.choice(WIDE_DENOMINATORS) for _ in range(p**n - 4)]
    table = [Fraction(0)] + [Fraction(rng.randint(1, 9), d) for d in dens]
    inst = DPInstance(A, B, CostFunction(F, n, table), horizon, require_injective=False,
                      max_states=None, max_inputs=None)
    assert inst.cost.den is not None
    return inst


def test_one_coset_wide_instance_matches_fraction_oracles():
    """B invertible: one coset of P = 16 positions, so the ratio minima's
    tournament runs four halving rounds down to one minimum."""
    inst = _wide_instance("one-coset-wide", 2, 4, 4, FiniteHorizon(3), one_coset=True)
    assert inst.coset_frame().P == 16
    values, argmin = solve_finite(inst)
    assert values.dens is not None
    assert (values, argmin) == oracle_solve_finite(inst)
    law = [[min(chosen) for chosen in row] for row in argmin.per_time]
    assert evaluate_time_varying(inst, law) == oracle_evaluate_time_varying(inst, law)
    discounted = _wide_instance("one-coset-wide", 2, 4, 4, DiscountedHorizon(Fraction(2, 3)),
                                one_coset=True)
    assert solve_discounted_pi(discounted) == oracle_solve_discounted_pi(discounted)
    tol = Fraction(1, 50)
    assert solve_discounted_vi(discounted, tol) == oracle_solve_discounted_vi(discounted, tol)


def test_long_wide_horizon_keeps_denominators_within_the_cost_bound():
    """T = 500 on GF(3)^2: unreduced, a denominator would be the product of
    501 cost denominators; a row is reduced once its widest denominator
    passes the total bit length of the cost's distinct denominators, so no
    stored row is wider than that."""
    inst = _wide_instance("long-wide", 3, 2, 1, FiniteHorizon(500))
    bound = sum(d.bit_length() for d in set(inst.cost.den))
    values, argmin = solve_finite(inst)
    assert max(max(row).bit_length() for row in values.dens) <= bound
    law = [[min(chosen) for chosen in row] for row in argmin.per_time]
    evaluated = evaluate_time_varying(inst, law)
    assert max(max(row).bit_length() for row in evaluated.dens) <= bound
    assert (values, argmin) == oracle_solve_finite(inst)
    assert evaluated == values  # the argmin law is optimal
    # the costs are near 2^-58, so at alpha = 1/2 a tolerance of 2^-700 takes
    # over 500 sweeps; the sweeps' b^k stays in the scale, not the dens
    discounted = _wide_instance("long-wide", 3, 2, 1, DiscountedHorizon(HALF))
    tol = Fraction(1, 2**700)
    result = solve_discounted_vi(discounted, tol)
    assert result.iterations > 500
    assert max(result.values.dens[0]).bit_length() <= bound
    assert result == oracle_solve_discounted_vi(discounted, tol)


def test_long_wide_policy_paths_keep_denominators_linear():
    """A wide cost's policy values on a 255-step chain into a fixed point and
    on one 256-state cycle.  Unreduced, a denominator would gather about 100
    bits per step (one cost denominator each); a reduced one gains only
    bit_length(b) per step and per cycle state over the cost's den_bits."""
    inst = _wide_instance("long-chain", 2, 8, 8, DiscountedHorizon(Fraction(9, 10)),
                          one_coset=True)
    N = inst.num_states
    bound = inst.cost.den_bits + N * (10).bit_length()
    trans = inst.transitions()
    for target in ([x + 1 for x in range(N - 1)] + [N - 1], [(x + 1) % N for x in range(N)]):
        policy = [trans[x].index(y) for x, y in enumerate(target)]
        values = evaluate_stationary_policy(inst, policy)
        assert max(values.dens[0]).bit_length() <= bound
        assert list(values.table(0)) == oracle_evaluate_stationary_policy(inst, policy)


def _solver_results(seed, p):
    """Every solver's result on one seeded instance over GF(p): small
    costs over denominators 1..4 (zeros included, for ties), any B."""
    rng = random.Random(f"forms-{seed}")
    F = PrimeField(p)
    n = rng.randint(1, {2: 5, 3: 3, 5: 2}[p])
    m = rng.randint(0, n)
    A = MatrixFp(F, n, n, [rng.randrange(p) for _ in range(n * n)])
    B = MatrixFp(F, n, m, [rng.randrange(p) for _ in range(n * m)])
    table = [0] + [Fraction(rng.randint(0, 9), rng.randint(1, 4)) for _ in range(p**n - 1)]
    finite, discounted = (DPInstance(A, B, CostFunction(F, n, table, allow_vanishing=True),
                                     horizon, require_injective=False)
                          for horizon in (FiniteHorizon(3), DiscountedHorizon(Fraction(2, 3))))
    law = [[rng.randrange(p**m) for _ in range(p**n)] for _ in range(3)]
    policy = [rng.randrange(p**m) for _ in range(p**n)]
    return [solve_finite(finite), evaluate_time_varying(finite, law),
            solve_discounted_pi(discounted), solve_discounted_vi(discounted, Fraction(1, 100)),
            evaluate_stationary_policy(discounted, policy)]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_wide_form_matches_narrow_form_on_the_same_inputs(monkeypatch, p):
    """With dp.WIDE_SCALE_BITS = 0 every cost and every table is wide, a
    numerator and a denominator row; on 20 seeded instances per prime each
    solver returns the same exact tables and minimizer sets as it does on
    narrow integer rows."""
    for seed in range(20):
        narrow = _solver_results(seed, p)
        with monkeypatch.context() as patched:
            patched.setattr(dp, "WIDE_SCALE_BITS", 0)
            wide = _solver_results(seed, p)
        tables = [wide[0][0], wide[1], wide[2][0], wide[3].values, wide[4]]
        assert all(t.dens is not None for t in tables)
        assert wide == narrow


def test_wide_solvers_do_no_fraction_arithmetic(monkeypatch):
    """The solvers run on integers from a wide cost (and from the wide
    rounds a narrow cost gives policy iteration): with Fraction addition
    and ordering disabled they still finish, and every argmin row, built
    on first read, is read there too; the results match the oracles."""
    finite = _wide_instance("no-fractions", 3, 2, 1, FiniteHorizon(4))
    discounted = _wide_instance("no-fractions", 3, 2, 1, DiscountedHorizon(Fraction(9, 10)))
    cycles = _many_cycle_lengths_instance()
    law = [[(x + t) % 3 for x in range(9)] for t in range(4)]
    tol = Fraction(1, 1000)

    def refuse(*args):
        raise AssertionError("Fraction arithmetic inside a solver")

    with monkeypatch.context() as patched:
        patched.setattr(Fraction, "__add__", refuse)
        patched.setattr(Fraction, "__lt__", refuse)
        got = [solve_finite(finite), evaluate_time_varying(finite, law),
               solve_discounted_pi(discounted), solve_discounted_vi(discounted, tol),
               solve_discounted_pi(cycles[0])]
        for solution in (got[0], got[2], got[4]):
            solution[1].per_time
    assert got[0] == oracle_solve_finite(finite)
    assert got[1] == oracle_evaluate_time_varying(finite, law)
    assert got[2] == oracle_solve_discounted_pi(discounted)
    assert got[3] == oracle_solve_discounted_vi(discounted, tol)
    assert got[4] == oracle_solve_discounted_pi(cycles[0])


def test_reading_a_wide_table_frees_each_integer_row():
    """per_time builds a wide table's Fractions one row at a time and frees
    that row's integers as it goes: the traced peak is never more than one
    integer row above what the Fractions alone hold at the end."""
    inst = _wide_instance("free-rows", 2, 8, 2, FiniteHorizon(6))
    tracemalloc.start()
    try:
        values, _ = solve_finite(inst)
        row_bytes = [sum(map(sys.getsizeof, itertools.chain(values.nums[t], values.dens[t])))
                     for t in range(7)]
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        read = values.per_time
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert values.nums == [None] * 7 and values.dens == [None] * 7
    # the integers are gone: what remains grew by less than the Fractions
    fraction_bytes = sum(map(sys.getsizeof, itertools.chain.from_iterable(
        (v, v.numerator, v.denominator) for row in read for v in row)))
    assert after - before < fraction_bytes - sum(row_bytes) / 2
    assert peak - after < max(row_bytes) * 1.5
    assert values == oracle_solve_finite(inst)[0]


def test_finite_hand_example():
    # x' = x + u over GF(2), g = [0, 1], T = 2: leave 1 immediately
    A = MatrixFp.identity(F2, 1)
    inst = DPInstance(A, A, CostFunction(F2, 1, [0, 1]), FiniteHorizon(2))
    values, argmin = solve_finite(inst)
    assert values.table(0) == (Fraction(0), Fraction(1))
    assert values.table(2) == (Fraction(0), Fraction(1))
    assert argmin.per_time[0][0] == frozenset({0})
    assert argmin.per_time[0][1] == frozenset({1})
    with pytest.raises(ValueError):
        values.stationary


# === discounted solvers ===

def test_discounted_scalar_closed_form():
    A = MatrixFp.identity(F2, 1)
    inst = DPInstance(A, A, CostFunction(F2, 1, [0, 1]), DiscountedHorizon(HALF))
    values, argmin = solve_discounted_pi(inst)
    assert values.stationary == (Fraction(0), Fraction(1))
    assert argmin.stationary[1] == frozenset({1})
    assert bellman_residual(inst, values) == 0


def test_discounted_uncontrollable_cycle():
    # x' = 2x over GF(3), input has no effect: nonzero states cycle forever
    # paying 1 per step, so J*(x) = 1/(1 - alpha) = 2 at alpha = 1/2
    A = MatrixFp.from_rows(F3, [[2]])
    B = MatrixFp.zeros(F3, 1, 1)
    cost = CostFunction(F3, 1, [0, 1, 1])
    inst = DPInstance(A, B, cost, DiscountedHorizon(HALF), require_injective=False)
    values, _ = solve_discounted_pi(inst)
    assert values.stationary == (Fraction(0), Fraction(2), Fraction(2))


@given(discounted_instances())
@settings(max_examples=40, deadline=None)
def test_pi_residual_is_exactly_zero(inst):
    values, argmin = solve_discounted_pi(inst)
    assert bellman_residual(inst, values) == 0
    # the greedy stationary policy from the argmin table reproduces J*
    policy = [min(argmin.stationary[x]) for x in range(inst.num_states)]
    evaluated = evaluate_stationary_policy(inst, policy)
    assert evaluated.stationary == values.stationary


@given(discounted_instances())
@settings(max_examples=25, deadline=None)
def test_vi_respects_error_bound(inst):
    exact, _ = solve_discounted_pi(inst)
    tol = Fraction(1, 100)
    result = solve_discounted_vi(inst, tol)
    alpha = inst.horizon.alpha
    assert result.error_bound == alpha * tol / (1 - alpha)
    gap = max(abs(a - b) for a, b in
              zip(result.values.stationary, exact.stationary))
    assert gap <= result.error_bound
    assert result.iterations >= 1
    # the same iterates, stopped at the same sweep, as trying every input
    assert result == oracle_solve_discounted_vi(inst, tol)


@given(coset_instances(_discounted_horizon))
@settings(max_examples=100, deadline=None)
def test_discounted_matches_oracle_exactly(inst):
    assert solve_discounted_pi(inst) == oracle_solve_discounted_pi(inst)
    assert solve_discounted_vi(inst, Fraction(1, 50)) == oracle_solve_discounted_vi(
        inst, Fraction(1, 50))


def _assert_same_representation(got, values, inst):
    """got holds exactly the values, in exact_table(values)'s form:
    the same scale and numerators when that is narrow and the cost is not
    wide, and otherwise a wide row of integer ratios,
    got.nums[0][x] / (got.scale · got.dens[0][x])."""
    want = exact_table(got.horizon, (values,))
    assert (got.dens is None) == (want.dens is None and inst.cost.den is None)
    if got.dens is None:
        assert (got.scale, got.nums) == (want.scale, want.nums)
    else:
        assert all(type(v) is int for row in (got.nums[0], got.dens[0]) for v in row)
        assert [Fraction(v, got.scale * d)
                for v, d in zip(got.nums[0], got.dens[0], strict=True)] == list(values)
    assert got.table(0) == tuple(values)


@given(coset_instances(_discounted_horizon), st.data())
@settings(max_examples=150, deadline=None)
def test_policy_evaluation_matches_fraction_oracle(inst, data):
    policy = data.draw(st.lists(st.integers(0, inst.num_inputs - 1),
                                min_size=inst.num_states, max_size=inst.num_states))
    _assert_same_representation(evaluate_stationary_policy(inst, policy),
                                oracle_evaluate_stationary_policy(inst, policy), inst)


def test_policy_evaluation_fraction_domain_matches_oracle():
    # the three wide denominators put the cost itself past WIDE_SCALE_BITS,
    # and two states cost nothing
    A = MatrixFp(F3, 2, 2, [1, 1, 0, 1])
    B = MatrixFp(F3, 2, 1, [0, 1])
    w61, w89, w127 = (Fraction(1, d) for d in WIDE_DENOMINATORS)
    table = [0, w61, w89, 2 * w89, w61 + w89, 0, 1, w61, w127]
    inst = DPInstance(A, B, CostFunction(F3, 2, table, allow_vanishing=True),
                      DiscountedHorizon(Fraction(2, 3)))
    assert inst.cost.scale == 1
    for k, policy in enumerate(itertools.product(range(3), repeat=9)):
        if k % 97 == 0:  # 203 of the 3^9 policies
            _assert_same_representation(evaluate_stationary_policy(inst, policy),
                                        oracle_evaluate_stationary_policy(inst, policy), inst)


def _many_cycle_lengths_instance():
    """(instance, policy) on GF(2)^8 with B = I, so any successor is one
    input away: 0 stays put, states 1..230 close cycles of every length
    2..21, and 231..255 feed into them; the d = 10^l - 9^l of twenty
    lengths put the least scale of the policy's values near 2^491."""
    n = 8
    eye = MatrixFp.identity(F2, n)
    succ = list(range(2**n))
    start = 1
    for length in range(2, 22):
        for i in range(length):
            succ[start + i] = start + (i + 1) % length
        start += length
    for x in range(start, 2**n):
        succ[x] = x - 7
    table = [Fraction(0)] + [Fraction(1 + x * x % 11) for x in range(1, 2**n)]
    inst = DPInstance(eye, eye, CostFunction(F2, n, table), DiscountedHorizon(Fraction(9, 10)),
                      max_inputs=None)
    return inst, [x ^ y for x, y in enumerate(succ)]  # u = y - x over GF(2)


def test_policy_evaluation_of_many_cycle_lengths_keeps_fractions():
    inst, policy = _many_cycle_lengths_instance()
    got = evaluate_stationary_policy(inst, policy)
    assert got.dens is not None  # wide
    _assert_same_representation(got, oracle_evaluate_stationary_policy(inst, policy), inst)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_coset_kernels_match_per_state_oracle(data):
    """minima and argmin_sets equal the per-state loops on p = 2 up to n = 6,
    P = 1 (m = 0), a single coset (B invertible), singular A, non-injective
    B and tie-heavy values in {0, 1}; a coset with one minimal position
    hands out the shared fibre frozenset itself.  The same values as
    ratios num·k / den·k, with a random positive k per state, give the
    same coset minima and minimizer sets (ties in {0, 1} run the
    tournament's tied branch, distinct values its untied one)."""
    draw = data.draw
    p = draw(st.sampled_from([2, 2, 3, 5]))
    F = PrimeField(p)
    n = draw(st.integers(1, {2: 6, 3: 3, 5: 2}[p]))
    shape = draw(st.sampled_from(["any", "autonomous", "one-coset"]))
    entries = st.integers(0, p - 1)
    A = MatrixFp(F, n, n, draw(st.lists(entries, min_size=n * n, max_size=n * n)))
    if draw(st.booleans()):
        A = A @ MatrixFp(F, n, n, [1 if i == j and i else 0
                                   for i in range(n) for j in range(n)])  # kills e_0
    if shape == "one-coset":  # unit lower triangular, so invertible
        B = MatrixFp(F, n, n, [1 if i == j else draw(entries) if i > j else 0
                               for i in range(n) for j in range(n)])
    else:
        m = 0 if shape == "autonomous" else draw(st.integers(1, n + 1))
        B = MatrixFp(F, n, m, draw(st.lists(entries, min_size=n * m, max_size=n * m)))
    frame = dp.CosetFrame.of(A, B)
    assert frame.P == {"autonomous": 1, "one-coset": p**n}.get(shape, frame.P)
    values = draw(st.sampled_from([st.integers(0, 1), st.integers(0, 20),
                                   st.builds(Fraction, st.integers(0, 6), st.just(3))]))
    J = draw(st.lists(values, min_size=p**n, max_size=p**n))
    # minima reads rows in coordinate order; the oracle reads J by state
    Jk, mins, min_num, min_den = frame.minima([J[y] for y in frame.order])
    assert (Jk, mins) == oracle_minima(frame, J)
    assert (min_num, min_den) == (mins, None)
    got = frame.argmin_sets(Jk, mins)
    assert got == oracle_argmin_sets(frame, Jk, mins)
    ks = draw(st.lists(st.integers(1, 10**6), min_size=p**n, max_size=p**n))
    key, key_mins, min_num, min_den = frame.minima(
        [Fraction(J[y]).numerator * ks[y] for y in frame.order],
        [Fraction(J[y]).denominator * ks[y] for y in frame.order])
    assert list(map(Fraction, min_num, min_den)) == mins
    assert frame.argmin_sets(key, key_mins) == got
    fibres = {id(us) for us in frame.pre}
    for x, k in enumerate(frame.k_ax):
        c = k // frame.P
        if Jk[c * frame.P:(c + 1) * frame.P].count(mins[c]) == 1:
            assert id(got[x]) in fibres


FRAME_FIELDS = ("p", "r", "P", "order", "k_ax", "offset", "pre", "neg")


def _frame_case(rng, F, n, shape):
    """(A, B) on GF(p)^n with B of the given shape: random of any width,
    m = 0, zero, non-injective (more columns than its rank, as a projected
    family's input map has), or invertible (one coset)."""
    p = F.p
    A = MatrixFp(F, n, n, [rng.randrange(p) for _ in range(n * n)])
    if shape == "invertible":  # unit lower triangular
        return A, MatrixFp(F, n, n, [1 if i == j else rng.randrange(p) if i > j else 0
                                     for i in range(n) for j in range(n)])
    if shape == "non-injective":  # n x k times k x (k + 1) has rank at most k
        k = rng.randint(1, n)
        X = MatrixFp(F, n, k, [rng.randrange(p) for _ in range(n * k)])
        return A, X @ MatrixFp(F, k, k + 1, [rng.randrange(p) for _ in range(k * k + k)])
    m = 0 if shape == "autonomous" else rng.randint(1, n + 1)
    entries = [0] * (n * m) if shape == "zero" else [rng.randrange(p) for _ in range(n * m)]
    return A, MatrixFp(F, n, m, entries)


def test_coset_frame_matches_two_elimination_oracle():
    """Every field of the one-elimination frame equals the two-elimination
    oracle's, for p in {2, 3, 5, 7} up to n = 6, one-coset frames
    included."""
    rng = random.Random("coset-frame")
    shapes = ("any", "autonomous", "zero", "non-injective", "invertible")
    max_n = {2: 6, 3: 5, 5: 3, 7: 3}
    for p, top in max_n.items():
        F = PrimeField(p)
        for n, shape, _ in itertools.product(range(1, top + 1), shapes, range(3)):
            A, B = _frame_case(rng, F, n, shape)
            got, want = dp.CosetFrame.of(A, B), oracle_coset_frame(A, B)
            for name in FRAME_FIELDS:
                assert getattr(got, name) == getattr(want, name), (p, n, shape, name)
            assert got.c_ak == tuple(got.k_ax[y] // got.P for y in got.order)
            if shape in ("autonomous", "zero"):
                assert got.P == 1
            if shape == "invertible":
                assert got.P == p**n


def test_argmin_reads_leave_the_frame_unchanged():
    """A coset frame is a function of (A, B) alone: building minimizer sets,
    a whole row or one state's, stores nothing on it, also where every
    position's row of fibres would fit in p^n entries (P^2 <= p^n)."""
    rng = random.Random("frame-keeps-no-state")
    for p, n in ((2, 4), (3, 3), (5, 2)):
        F = PrimeField(p)
        A = MatrixFp(F, n, n, [rng.randrange(p) for _ in range(n * n)])
        frame = dp.CosetFrame.of(A, MatrixFp.from_rows(F, [[1]] + [[0]] * (n - 1)))
        assert frame.P == p and frame.P**2 <= p**n
        before = {name: value.copy() if isinstance(value, (list, dict)) else value
                  for name, value in vars(frame).items()}
        for _ in range(3):  # ties in {0, 1} give cosets of several minimal positions
            Jk, mins, _, _ = frame.minima([rng.randrange(2) for _ in range(p**n)])
            row = frame.argmin_sets(Jk, mins)
            assert [frame.argmin_set(x, Jk, mins) for x in range(p**n)] == row
            assert vars(frame) == before


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_one_state_argmin_read_matches_the_built_row(monkeypatch, p):
    """ArgminTable.inputs (CosetFrame.argmin_set) gives the built row's set
    at every state and time, read before any row is built, on seeded B of
    every _frame_case shape (rank 0, zero, non-injective as a projected
    family's, one coset), for narrow, wide (a bool key) and tie-heavy
    costs, over finite and discounted horizons."""
    rng = random.Random(f"one-state-argmin-{p}")
    F = PrimeField(p)
    shapes = ("any", "autonomous", "zero", "non-injective", "invertible")
    keys, argmin_set = [], cosets.CosetFrame.argmin_set
    monkeypatch.setattr(cosets.CosetFrame, "argmin_set",
                        lambda frame, x, Jk, mins: keys.append(Jk) or argmin_set(frame, x, Jk, mins))
    for shape, kind, finite, _ in itertools.product(
            shapes, ("narrow", "wide", "ties"), (True, False), range(2)):
        n = rng.randint(1 if p > 3 else 2, {2: 5, 3: 3, 5: 2, 7: 2}[p])
        A, B = _frame_case(rng, F, n, shape)
        if kind == "wide":
            dens = list(WIDE_DENOMINATORS) + [rng.choice(WIDE_DENOMINATORS)
                                              for _ in range(p**n - 4)]
            table = [0] + [Fraction(rng.randint(1, 9), d) for d in dens]
        else:
            table = [0] + [rng.randint(0, 1 if kind == "ties" else 9) for _ in range(p**n - 1)]
        horizon = FiniteHorizon(rng.randint(1, 3)) if finite else DiscountedHorizon(Fraction(9, 10))
        inst = DPInstance(A, B, CostFunction(F, n, table, allow_vanishing=True), horizon,
                          require_injective=False, max_inputs=None)
        _, argmin = dp.solve(inst)
        keys.clear()
        singles = [tuple(argmin.inputs(x, t) for x in range(p**n)) for t in range(len(argmin))]
        assert len(keys) == p**n * len(argmin)  # no row was built for them
        assert (kind == "wide") == all(type(k) is bool for Jk in keys for k in Jk)
        oracle = oracle_solve_finite if finite else oracle_solve_discounted_pi
        assert singles == list(argmin.per_time) == list(oracle(inst)[1].per_time)


def test_coset_frame_eliminates_once(monkeypatch):
    """Building a frame runs one elimination and inverts nothing: Q^-1 is
    the right block of rref([B | I])."""
    calls = {"rref_rows": 0, "inverse": 0}
    original_rref_rows, original_inverse = linalg.rref_rows, MatrixFp.inverse

    def counting_rref_rows(p, rows):
        calls["rref_rows"] += 1
        return original_rref_rows(p, rows)

    def counting_inverse(self):
        calls["inverse"] += 1
        return original_inverse(self)

    monkeypatch.setattr(linalg, "rref_rows", counting_rref_rows)
    monkeypatch.setattr(cosets, "rref_rows", counting_rref_rows)
    monkeypatch.setattr(MatrixFp, "inverse", counting_inverse)
    A, B = _frame_case(random.Random("eliminate-once"), F3, 4, "any")
    dp.CosetFrame.of(A, B)
    assert calls == {"rref_rows": 1, "inverse": 0}


def test_value_reads_one_entry_without_building_the_table():
    """value(x, t) equals table(t)[x] on an integer table and on wide
    tables (integer ratios over scale 1, and over a larger scale as value
    iteration leaves them), read before table(t) exists and after."""
    w61, w89, w127 = (Fraction(1, d) for d in WIDE_DENOMINATORS)
    ZERO = Fraction(0)
    horizon = FiniteHorizon(1)
    integer = exact_table(horizon, [[ZERO, Fraction(1, 3), Fraction(5, 2)],
                                         [ZERO, Fraction(1), Fraction(7)]])
    wide = exact_table(horizon, [[ZERO, w61, w89], [w127, Fraction(1), w61 + w89]])
    assert type(integer.nums[0][1]) is int and integer.scale == 6
    assert wide.dens is not None and type(wide.nums[0][1]) is int and wide.scale == 1
    wide_scaled = ValueTable(horizon, wide.nums, 7, wide.dens)
    for vt in (integer, wide, wide_scaled):
        fresh = ValueTable(vt.horizon, vt.nums, vt.scale, vt.dens)
        read = [[vt.value(x, t) for x in range(3)] for t in range(2)]
        assert vt._rows == [None] * 2
        assert read == [list(fresh.table(t)) for t in range(2)]
        assert all(type(v) is Fraction for row in read for v in row)
        for t in range(2):
            row = vt.table(t)
            assert [vt.value(x, t) for x in range(3)] == list(row)
            assert all(vt.value(x, t) is row[x] for x in range(3))


def test_argmin_sets_on_one_coset_allocates_per_state_not_per_row():
    """With B invertible there is one coset of P = p^n positions, and the P
    fibre rows would hold P^2 entries (2 MB at P = 512); argmin_sets builds
    only the row of the coset's first minimal position, and a tie is patched
    with one union per reached position, so it allocates O(p^n)."""
    n = 9
    frame = dp.CosetFrame.of(MatrixFp.identity(F2, n), MatrixFp.identity(F2, n))
    assert frame.P == 2**n
    for J in (list(range(2**n, 0, -1)), [0, 0] + [1] * (2**n - 2)):
        Jk, mins = frame.minima(J)[:2]
        tracemalloc.start()
        try:
            got = frame.argmin_sets(Jk, mins)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == oracle_argmin_sets(frame, Jk, mins)
        assert peak < 2**20


@given(coset_instances(_finite_horizon), st.data())
@settings(max_examples=150, deadline=None)
def test_successors_match_per_state_oracle(inst, data):
    """Whole-table successors equal A x + B u computed from digit vectors,
    for p in {2, 3, 5, 7} and B of any rank."""
    inputs = data.draw(st.lists(st.integers(0, inst.num_inputs - 1),
                                min_size=inst.num_states, max_size=inst.num_states))
    assert inst.coset_frame().successors(inputs) == oracle_successors(inst, inputs)


def test_one_coset_frame_and_solve_allocate_per_state():
    """p = 2, n = m = 12 with B invertible: one coset of P = 4096 positions.
    Tables of P^2 entries (16.8 million) would take hundreds of MB; the frame
    and a T = 8 solve with distinct values stay within a few MB."""
    n = 12
    rng = random.Random("one-coset-12")
    A = MatrixFp(F2, n, n, [rng.randrange(2) for _ in range(n * n)])
    B = MatrixFp(F2, n, n, [1 if i == j else rng.randrange(2) if i > j else 0
                            for i in range(n) for j in range(n)])
    inst = DPInstance(A, B, CostFunction(F2, n, list(range(2**n))), FiniteHorizon(8),
                      max_states=None, max_inputs=None)
    tracemalloc.start()
    try:
        frame = inst.coset_frame()
        values, _ = solve_finite(inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert frame.P == 2**n
    assert values.nums[0] == tuple(range(2**n))  # every state reaches 0 in one step
    assert peak < 16 * 2**20


def test_policy_iteration_builds_argmin_sets_once(monkeypatch):
    # three rounds: two improvements, then no change; the rounds walk the
    # cosets and compare coset minima only, the walk runs once per round,
    # the last round's values are the table with no further evaluation,
    # and the full minimizer sets are built once, for the end, when read
    A = MatrixFp(F3, 2, 2, [2, 1, 2, 0])
    B = MatrixFp(F3, 2, 1, [2, 2])
    inst = DPInstance(A, B, CostFunction(F3, 2, [0, 4, 5, 1, 7, 7, 3, 2, 8]),
                      DiscountedHorizon(Fraction(9, 10)))
    calls = {"argmin_sets": 0, "evaluate": 0, "walk": 0, "oracle": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(dp.CosetFrame, "argmin_sets",
                        counting("argmin_sets", dp.CosetFrame.argmin_sets))
    monkeypatch.setattr(dp, "evaluate_stationary_policy",
                        counting("evaluate", dp.evaluate_stationary_policy))
    monkeypatch.setattr(dp, "_walk", counting("walk", dp._walk))
    monkeypatch.setitem(globals(), "oracle_evaluate_stationary_policy",
                        counting("oracle", oracle_evaluate_stationary_policy))
    values, argmin = solve_discounted_pi(inst)
    assert argmin.stationary is argmin.stationary
    assert calls == {"argmin_sets": 1, "evaluate": 0, "walk": 3, "oracle": 0}
    assert (values, argmin) == oracle_solve_discounted_pi(inst)
    assert calls == {"argmin_sets": 1, "evaluate": 0, "walk": 3, "oracle": 3}


def test_policy_iteration_walks_one_successor_per_coset(monkeypatch):
    """p = 2, n = 10, m = 3 with a tie-heavy cost: every round's walk
    covers at most p^(n - rank B) = 128 distinct nodes, one per coset of
    im(B).  A per-state policy, which breaks ties by each state's least
    input, spreads a coset's states over its tied positions and fails this."""
    rng = random.Random("walk-per-coset")
    n, m = 10, 3
    A = MatrixFp(F2, n, n, [rng.randrange(2) for _ in range(n * n)])
    B = MatrixFp(F2, n, m, [rng.randrange(2) for _ in range(n * m)])
    table = [0] + [rng.choice((1, 1, 2, 3)) for _ in range(2**n - 1)]
    inst = DPInstance(A, B, CostFunction(F2, n, table), DiscountedHorizon(Fraction(9, 10)),
                      max_states=None)
    walked = []
    original = dp._walk

    def recording(G, Q, bits, nxt, nodes, a, b):
        walked.append(len(set(nodes)))
        return original(G, Q, bits, nxt, nodes, a, b)

    monkeypatch.setattr(dp, "_walk", recording)
    values, argmin = solve_discounted_pi(inst)
    assert B.rank() == m and len(walked) > 1
    assert max(walked) <= 2**(n - m)
    assert bellman_residual(inst, values) == 0
    policy = [min(chosen) for chosen in argmin.stationary]
    assert evaluate_stationary_policy(inst, policy) == values


def _pi_rounds_instance(kind, seed):
    """A seeded discounted instance for the round-by-round test: a narrow
    cost at alpha = 9/10, a narrow cost at alpha = 1 - 10^-20, whose round
    tables pass WIDE_SCALE_BITS (wide rounds), or a wide cost."""
    rng = random.Random(f"pi-rounds-{kind}-{seed}")
    n = 6
    A = MatrixFp(F2, n, n, [rng.randrange(2) for _ in range(n * n)])
    B = MatrixFp(F2, n, 1, [rng.randrange(2) for _ in range(n)])
    wide = WIDE_DENOMINATORS if kind == "wide-cost" else (1,)
    table = [Fraction(0)] + [Fraction(rng.randint(1, 9), rng.choice(wide))
                             for _ in range(2**n - 1)]
    alpha = Fraction(10**20 - 1, 10**20) if kind == "wide-round" else Fraction(9, 10)
    return DPInstance(A, B, CostFunction(F2, n, table), DiscountedHorizon(alpha),
                      require_injective=False)


def full_evaluation_rounds(inst):
    """(coset minima, stale cosets) of every round of coset policy
    iteration as it ran before its rounds walked cosets, where each round
    reads the full table of the per-state policy that realises each
    coset's choice from evaluate_stationary_policy, and whether some
    round's table was wide.  State x, whose Ax sits at position w of coset
    c, moves to c's chosen position v by an input in the fibre pre[v - w]."""
    frame = inst.coset_frame()
    chosen = frame.first_minimal(*oracle_minima(frame, inst.cost.table))
    rounds, wide = [], False
    P = frame.P
    while True:
        policy = [min(frame.pre[digit_difference(frame.p, frame.r, chosen[k // P] % P, k % P)])
                  for k in frame.k_ax]
        values = evaluate_stationary_policy(inst, policy)
        wide = wide or values.dens is not None
        Jk, mins = oracle_minima(frame, values.table())
        stale = [c for c, k in enumerate(chosen) if Jk[k] != mins[c]]
        rounds.append((mins, stale))
        if not stale:
            return rounds, wide
        for c, k in zip(stale, frame.first_minimal(Jk, mins, stale)):
            chosen[c] = k


# rounds per seed of policy iteration with a full evaluation per round
PI_ROUNDS = {"narrow": [4, 3, 4], "wide-round": [2, 6, 6], "wide-cost": [5, 3, 2]}


@pytest.mark.parametrize("kind", sorted(PI_ROUNDS))
def test_policy_iteration_rounds_match_full_evaluation(kind, monkeypatch):
    """Every round of policy iteration, which builds no table of the
    policy's values, has the coset minima and the stale cosets that a full
    evaluate_stationary_policy of the same policy gives, so the rounds are
    as many as with a full evaluation per round (pinned in PI_ROUNDS), on
    narrow rounds, wide rounds of a narrow cost and a wide cost."""
    for seed, rounds in enumerate(PI_ROUNDS[kind]):
        inst = _pi_rounds_instance(kind, seed)
        want, wide = full_evaluation_rounds(inst)
        assert len(want) == rounds
        assert wide == (kind != "narrow") and (inst.cost.den is not None) == (kind == "wide-cost")
        scales, minima, stale = [], [], []
        walk, kernel, first = dp._walk, dp.CosetFrame.minima, dp.CosetFrame.first_minimal

        def recording_walk(*args):
            out = walk(*args)
            scales.append(out[0])
            return out

        def recording_minima(frame, num, den=None):
            minima.append(kernel(frame, num, den))
            return minima[-1]

        def recording_first(frame, key, mins, cosets=None):
            if cosets is not None:
                stale.append(list(cosets))
            return first(frame, key, mins, cosets)

        with monkeypatch.context() as patch:
            patch.setattr(dp, "_walk", recording_walk)
            patch.setattr(dp.CosetFrame, "minima", recording_minima)
            patch.setattr(dp.CosetFrame, "first_minimal", recording_first)
            solve_discounted_pi(inst)
        # the first minima ranks the stage cost; each round walks once
        assert len(minima) == rounds + 1 and len(scales) == rounds
        L = inst.cost.scale
        got = [([Fraction(v, L * scale * d) for v, d in zip(mn, md or [1] * len(mn))], cosets)
               for (_, _, mn, md), scale, cosets in zip(minima[1:], scales, stale + [[]])]
        assert got == want


def _coset_policy_instance(kind, seed, p):
    """A seeded discounted instance over GF(p) for the per-state oracle:
    B of rank 0 (one position per coset), B with a third column summing
    the other two (not injective), a wide cost, a narrow cost at
    alpha = 1 - 10^-20, whose values' least scale can pass WIDE_SCALE_BITS
    (wide rounds), or costs drawn from {0, 1} (many ties)."""
    rng = random.Random(f"coset-policy-{kind}-{p}-{seed}")
    F = PrimeField(p)
    n = {2: 4, 3: 3}[p] - seed % 2
    A = MatrixFp(F, n, n, [rng.randrange(p) for _ in range(n * n)])
    cols = [[rng.randrange(p) for _ in range(n)] for _ in range(2)]
    if kind == "rank0":
        B = MatrixFp.zeros(F, n, 2)
    elif kind == "non-injective":
        B = MatrixFp.from_cols(F, cols + [[(u + v) % p for u, v in zip(*cols)]])
    else:
        B = MatrixFp.from_cols(F, cols)
    dens = [rng.choice((1, 2, 3)) for _ in range(p**n - 1)]
    if kind == "wide":  # every wide denominator, over nonzero numerators
        dens = list(WIDE_DENOMINATORS) + [rng.choice(WIDE_DENOMINATORS) for _ in dens[3:]]
    top = 1 if kind == "ties" else 9
    table = [Fraction(0)] + [Fraction(rng.randint(kind == "wide", top), d) for d in dens]
    alpha = rng.choice([Fraction(1, 2), Fraction(9, 10)])
    if kind == "wide-round":
        alpha = Fraction(10**20 - 1, 10**20)
    return DPInstance(A, B, CostFunction(F, n, table, allow_vanishing=True),
                      DiscountedHorizon(alpha), require_injective=False)


@pytest.mark.parametrize("kind", ["rank0", "non-injective", "wide", "wide-round", "ties"])
@pytest.mark.parametrize("p", [2, 3])
def test_coset_policy_iteration_matches_per_state_oracle(kind, p):
    """Policy iteration over cosets returns the per-state oracle's values,
    down to the scale and numerators of a narrow table, and its minimizer
    sets, on eight seeded instances of each kind; some wide-round table is
    wide although its cost is narrow."""
    wide_tables = 0
    for seed in range(8):
        inst = _coset_policy_instance(kind, seed, p)
        assert {"rank0": inst.coset_frame().P == 1, "non-injective": inst.B.rank() < inst.m,
                "wide": inst.cost.den is not None, "wide-round": inst.cost.den is None,
                "ties": True}[kind]
        values, argmin = solve_discounted_pi(inst)
        want_values, want_argmin = oracle_solve_discounted_pi(inst)
        assert argmin == want_argmin
        _assert_same_representation(values, want_values.table(0), inst)
        wide_tables += values.dens is not None
    assert kind != "wide-round" or wide_tables


def test_vi_rejects_bad_tolerance():
    A = MatrixFp.identity(F2, 1)
    inst = DPInstance(A, A, CostFunction(F2, 1, [0, 1]), DiscountedHorizon(HALF))
    with pytest.raises(ValueError, match="positive"):
        solve_discounted_vi(inst, Fraction(0))


def test_solver_horizon_mismatch():
    A = MatrixFp.identity(F2, 1)
    cost = CostFunction(F2, 1, [0, 1])
    fin = DPInstance(A, A, cost, FiniteHorizon(1))
    disc = DPInstance(A, A, cost, DiscountedHorizon(HALF))
    with pytest.raises(ValueError):
        solve_finite(disc)
    with pytest.raises(ValueError):
        solve_discounted_pi(fin)
    with pytest.raises(ValueError):
        solve_discounted_vi(fin, Fraction(1, 10))


def test_policy_evaluation_refuses_bad_rows():
    """A policy or law row of the wrong length or with an index out of
    range is a ValueError that names the row; before, -1 was read as the
    last input and a short row gave a short table.  p = 2, n = 2, m = 1:
    4 states, 2 inputs."""
    A = MatrixFp.identity(F2, 2)
    B = MatrixFp(F2, 2, 1, [1, 0])
    cost = CostFunction(F2, 2, [0, 1, 2, 3])
    disc = DPInstance(A, B, cost, DiscountedHorizon(HALF))
    fin = DPInstance(A, B, cost, FiniteHorizon(2))
    for policy in ([-1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 0], [0] * 5):
        with pytest.raises(ValueError, match=r"^policy must hold 4 entries, each in 0\.\.1$"):
            evaluate_stationary_policy(disc, policy)
    for t, row in ((0, [0, 0, 0]), (1, [0, 0, 0, 2]), (1, [0, -1, 0, 0])):
        law = [[0] * 4, [0] * 4]
        law[t] = row
        with pytest.raises(ValueError, match=rf"^law\[{t}\] must hold 4 entries, each in 0\.\.1$"):
            evaluate_time_varying(fin, law)
    # 0 and 1 swap, 2 and 3 stay: V(0) = 1/2·V(1), V(1) = 1 + 1/2·V(0)
    assert evaluate_stationary_policy(disc, [1, 1, 0, 0]).table(0) == (
        Fraction(2, 3), Fraction(4, 3), 4, 6)
    assert evaluate_time_varying(fin, [[1] * 4, [0] * 4]).table(0) == (2, 1, 8, 7)
