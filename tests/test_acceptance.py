"""End-to-end acceptance runs.

Each test covers one numbered criterion and writes a single PASS/FAIL line
to the real stdout (so the verdicts survive pytest's capture).  Randomized
suites are seeded and rebuilt from scratch here; nothing is shared with the
unit tests.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from dpdecomp.checks import run_battery
from dpdecomp.dp import (CostFunction, DiscountedHorizon, DPInstance,
                         FiniteHorizon, index_state,
                         solve_discounted_pi, solve_discounted_vi,
                         solve_finite, state_index)
from dpdecomp.errors import NotDecomposable
from dpdecomp.fields import PrimeField
from dpdecomp.invariant_decomp import (char_poly, factor_poly,
                                       primary_decomposition,
                                       verify_decomposition)
from dpdecomp.linalg import (DirectSumDecomposition, MatrixFp, Subspace,
                             column_space, null_space, poly_eval_matrix,
                             subspace_intersect, subspace_sum)
from dpdecomp.lqr import block_diagonal_check, riccati_backward, trajectory_cost
from dpdecomp.subproblems import build_bundle, solve_bundle
from test_dp import bellman_residual
from test_invariant_decomp import product
from test_linalg import members

F3 = PrimeField(3)
HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


@pytest.fixture()
def criterion(capfd):
    """One printed verdict line per criterion, bypassing pytest's capture."""

    @contextmanager
    def run(num, text):
        start = time.perf_counter()
        try:
            yield
        except BaseException:
            with capfd.disabled():
                print(f"criterion {num:2d}: FAIL - {text}", flush=True)
            raise
        elapsed = time.perf_counter() - start
        with capfd.disabled():
            print(f"criterion {num:2d}: PASS - {text} ({elapsed:.2f}s)", flush=True)

    return run


# === fixed instances ===

def worked_instance(horizon=FiniteHorizon(1)):
    A = MatrixFp.from_rows(F3, [[1, 1, 0], [0, 2, 0], [0, 0, 1]])
    B = MatrixFp.from_rows(F3, [[1, 0], [1, 1], [0, 1]])
    parts = [Subspace(F3, 3, [(1, 0, 0)]),
             Subspace(F3, 3, [(1, 1, 0)]),
             Subspace(F3, 3, [(0, 0, 1)])]
    decomp = DirectSumDecomposition(parts)
    cost = CostFunction.separable(decomp, [[0, 0, 0], [0, 1, 1], [0, 0, 0]],
                                  allow_vanishing=True)
    return DPInstance(A, B, cost, horizon), decomp


def axes_instance(horizon=FiniteHorizon(1)):
    A = MatrixFp.from_rows(F3, [[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    B = MatrixFp.from_rows(F3, [[1, 1], [0, 1], [0, 1]])
    parts = [Subspace(F3, 3, [(1, 0, 0)]),
             Subspace(F3, 3, [(0, 1, 0)]),
             Subspace(F3, 3, [(0, 0, 1)])]
    decomp = DirectSumDecomposition(parts)
    cost = CostFunction.indicator(decomp, [Fraction(1)] * 3)
    return DPInstance(A, B, cost, horizon), decomp


def brute_force_values(inst):
    """Independent finite-horizon oracle: enumerate all input sequences."""
    T = inst.horizon.T
    g = inst.cost.table
    trans = inst.transitions()
    out = []
    for start in range(inst.num_states):
        best = None
        for seq in itertools.product(range(inst.num_inputs), repeat=T):
            x = start
            total = g[x]
            for u in seq:
                x = trans[x][u]
                total += g[x]
            if best is None or total < best:
                best = total
        out.append(best)
    return tuple(out)


# === random generators (seeded; retry loops keep draws well formed) ===

def rand_matrix(rng, F, nr, nc):
    return MatrixFp(F, nr, nc, [rng.randrange(F.p) for _ in range(nr * nc)])


def rand_invertible(rng, F, n):
    while True:
        M = rand_matrix(rng, F, n, n)
        if M.is_invertible():
            return M


def rand_part_dims(rng, n):
    r = rng.randint(2, n)
    cuts = sorted(rng.sample(range(1, n), r - 1))
    dims, prev = [], 0
    for c in cuts + [n]:
        dims.append(c - prev)
        prev = c
    return dims


def rand_split_system(rng, primes=(2, 3), n_max=4, invertible=False):
    """Random dynamics with a known invariant splitting: a block-diagonal
    matrix conjugated by a random change of basis; the parts are the basis
    column groups."""
    F = PrimeField(rng.choice(primes))
    n = rng.randint(2, n_max)
    dims = rand_part_dims(rng, n)
    S = rand_invertible(rng, F, n)
    entries = [[0] * n for _ in range(n)]
    off = 0
    for d in dims:
        blk = rand_invertible(rng, F, d) if invertible else rand_matrix(rng, F, d, d)
        for i in range(d):
            for j in range(d):
                entries[off + i][off + j] = blk[i, j]
        off += d
    A = S @ MatrixFp.from_rows(F, entries) @ S.inverse()
    parts, off = [], 0
    for d in dims:
        parts.append(Subspace(F, n, [S.col(off + k) for k in range(d)]))
        off += d
    return F, A, DirectSumDecomposition(parts)


def rand_forced_B(rng, F, decomp, m_max=3):
    """Full-column-rank input map with every column inside some part."""
    n = decomp.ambient_dim
    while True:
        m = rng.randint(1, min(m_max, n))
        cols = []
        for _ in range(m):
            part = rng.choice(decomp.parts)
            coords = [rng.randrange(F.p) for _ in range(part.dim)]
            cols.append(list(part.basis_matrix().matvec(coords)))
        B = MatrixFp.from_cols(F, cols, nrows=n)
        if B.rank() == m:
            return B


def rand_B(rng, F, n, m_max=3):
    while True:
        m = rng.randint(1, min(m_max, n))
        B = rand_matrix(rng, F, n, m)
        if B.rank() == m:
            return B


def rand_strict_cost(rng, decomp):
    """Separable stage cost with strictly positive local tables."""
    F = decomp.field
    tables = []
    for part in decomp.parts:
        size = F.p ** part.dim
        tables.append([Fraction(0)]
                      + [Fraction(rng.randint(1, 5)) for _ in range(size - 1)])
    return CostFunction.separable(decomp, tables)


# corpus caches shared across the hierarchy criteria
_CORPUS: dict = {}


def suite_forced_columns():
    """100 systems whose input columns respect the parts; five horizons each."""
    if "forced" not in _CORPUS:
        rng = random.Random(41)
        reports = []
        for _ in range(100):
            F, A, decomp = rand_split_system(rng)
            B = rand_forced_B(rng, F, decomp)
            cost = rand_strict_cost(rng, decomp)
            for T in (1, 2, 3):
                reports.append(run_battery(DPInstance(A, B, cost, FiniteHorizon(T)),
                                           decomp))
            for alpha in (HALF, THIRD):
                reports.append(run_battery(
                    DPInstance(A, B, cost, DiscountedHorizon(alpha)), decomp))
        _CORPUS["forced"] = reports
    return _CORPUS["forced"]


def suite_invertible():
    """100 systems with invertible dynamics and unconstrained inputs."""
    if "invertible" not in _CORPUS:
        rng = random.Random(52)
        reports = []
        for _ in range(100):
            F, A, decomp = rand_split_system(rng, invertible=True)
            B = rand_B(rng, F, decomp.ambient_dim)
            cost = rand_strict_cost(rng, decomp)
            reports.append(run_battery(DPInstance(A, B, cost, FiniteHorizon(2)), decomp))
            reports.append(run_battery(
                DPInstance(A, B, cost, DiscountedHorizon(HALF)), decomp))
        _CORPUS["invertible"] = reports
    return _CORPUS["invertible"]


def suite_unconstrained():
    """100 further systems with no structure forced on the input map."""
    if "unconstrained" not in _CORPUS:
        rng = random.Random(63)
        reports = []
        for _ in range(100):
            F, A, decomp = rand_split_system(rng)
            B = rand_B(rng, F, decomp.ambient_dim)
            cost = rand_strict_cost(rng, decomp)
            reports.append(run_battery(DPInstance(A, B, cost, FiniteHorizon(2)), decomp))
            reports.append(run_battery(
                DPInstance(A, B, cost, DiscountedHorizon(HALF)), decomp))
        _CORPUS["unconstrained"] = reports
    return _CORPUS["unconstrained"]


# === criteria ===

def test_criterion_1_lifted_subproblem_optimizers(criterion):
    with criterion(1, "lifted optimizers of the charged subproblem are "
                      "optimal for the full problem"):
        inst, decomp = worked_instance()
        bundle = build_bundle(inst, decomp)
        _, parent_argmin = solve_finite(inst)
        _, sub_argmin = solve_bundle(bundle, "restricted")[1]
        comp = bundle.component_state_tables()
        basis = bundle.input_parts[1].basis_matrix()
        for x in range(inst.num_states):
            for a in sub_argmin.per_time[0][comp[1][x]]:
                a_vec = index_state(a, 3, bundle.restricted[1].m)
                u_vec = basis.matvec(a_vec)
                assert u_vec[1] == 0  # lifted input uses only the first channel
                assert state_index(u_vec, 3) in parent_argmin.per_time[0][x]


def test_criterion_2_input_image_intersections(criterion):
    with criterion(2, "input image meets only the charged line; splitting "
                      "fails yet additivity holds"):
        inst, decomp = worked_instance()
        image = column_space(inst.B)
        assert subspace_intersect(image, decomp.parts[0]).dim == 0
        assert subspace_intersect(image, decomp.parts[2]).dim == 0
        assert subspace_intersect(image, decomp.parts[1]) == decomp.parts[1]
        report = run_battery(inst, decomp)
        assert report.range_condition is False
        assert report.additive_holds is True


def test_criterion_3_axes_instance_values_and_refutation(criterion):
    with criterion(3, "per-part values match the hand table; additive holds, "
                      "componentwise refuted at a charged middle state"):
        inst, decomp = axes_instance()
        bundle = build_bundle(inst, decomp)
        sols = solve_bundle(bundle, "restricted")
        h = (Fraction(0), Fraction(1), Fraction(1))
        assert sols[0][0].table(0) == h
        assert sols[1][0].table(0) == tuple(2 * v for v in h)
        assert sols[2][0].table(0) == h
        for sub, sol in zip(bundle.restricted, sols):
            assert sol[0].table(0) == brute_force_values(sub)
        report = run_battery(inst, decomp)
        assert report.additive_holds is True
        assert report.componentwise_holds is False
        assert report.componentwise_witness["state"][1] != 0


def test_criterion_4_part_respecting_inputs_always_split(criterion):
    with criterion(4, "500 part-respecting batteries (3 finite + 2 discounted "
                      "horizons x 100 systems) all additive"):
        start = time.perf_counter()
        reports = suite_forced_columns()
        assert len(reports) == 500
        for report in reports:
            assert report.range_condition is True
            assert report.additive_holds is True
        assert time.perf_counter() - start < 60


def test_criterion_5_invertible_dynamics_equivalence(criterion):
    with criterion(5, "invertible dynamics: input-image splitting and "
                      "additivity agree on 200 batteries"):
        start = time.perf_counter()
        reports = suite_invertible()
        assert len(reports) == 200
        for report in reports:
            assert report.A_invertible is True
            assert report.invertible_equivalence is True
            assert report.additive_holds == report.range_condition
        assert time.perf_counter() - start < 60


def test_criterion_6_componentwise_implies_additive(criterion):
    with criterion(6, "componentwise implies additive across the full corpus "
                      "of 900 batteries"):
        start = time.perf_counter()
        corpus = suite_forced_columns() + suite_invertible() + suite_unconstrained()
        assert len(corpus) == 900
        for report in corpus:
            if report.componentwise_holds is True:
                assert report.additive_holds is True
            assert report.hierarchy_consistent is not False
        assert time.perf_counter() - start < 120


def test_criterion_7_supporting_propositions(criterion):
    with criterion(7, "supporting propositions re-derived on fresh samples; "
                      "battery-internal implications clean on 900 batteries"):
        corpus = suite_forced_columns() + suite_invertible() + suite_unconstrained()
        # the batteries assert the one-step minimum collapse, value
        # separability under the minimizer condition, necessity, positivity,
        # and horizon monotonicity internally; reaching this point with 900
        # reports means none of them tripped
        assert len(corpus) == 900
        for report in corpus:
            if report.horizon_monotone is not None:
                assert report.horizon_monotone is True

        rng = random.Random(7)
        for _ in range(20):
            F, A, decomp = rand_split_system(rng)
            B = rand_B(rng, F, decomp.ambient_dim)
            cost = rand_strict_cost(rng, decomp)
            inst = DPInstance(A, B, cost, FiniteHorizon(2))
            bundle = build_bundle(inst, decomp)
            values, argmin = solve_finite(inst)
            p = F.p
            n = decomp.ambient_dim

            # optimal value vanishes exactly at the origin (strict cost)
            for t in range(3):
                for x in range(inst.num_states):
                    assert (values.value(x, t) == 0) == (x == 0)
            # every optimizer at the origin has a null input effect
            zero = (0,) * n
            for t in range(2):
                for u in argmin.per_time[t][0]:
                    assert inst.B.matvec(index_state(u, p, inst.m)) == zero

            # input-image splitting coincides with its input-space form
            image = column_space(inst.B)
            split = Subspace(F, n)
            for part in decomp.parts:
                split = subspace_sum(split, subspace_intersect(image, part))
            assert (split == image) == (bundle.input_span.dim == inst.m)

            # one-step minimum over a part's inputs equals the minimum over
            # the summed feasible inputs, from every state of that part
            span_vecs = members(bundle.input_span)
            for i, part in enumerate(decomp.parts):
                part_vecs = members(bundle.input_parts[i])
                for y in members(part):
                    ay = inst.A.matvec(y)
                    def step(u):
                        bu = inst.B.matvec(u)
                        return inst.cost.table[state_index(
                            [(a + b) % p for a, b in zip(ay, bu)], p)]
                    assert min(step(u) for u in part_vecs) \
                        == min(step(u) for u in span_vecs)

            # additivity forces the complement's image to miss the dynamics
            # image (strict costs only, which this generator guarantees)
            report = run_battery(inst, decomp, family="restricted")
            if report.additive_holds:
                bv = Subspace(F, n, [inst.B.matvec(v)
                                     for v in bundle.complement.basis_vectors()])
                assert subspace_intersect(column_space(inst.A), bv).dim == 0


def test_criterion_8_solver_cross_validation(criterion):
    with criterion(8, "value iteration within its error bound of the exact "
                      "solution on 50 instances; exact residual zero"):
        rng = random.Random(85)
        tol = Fraction(1, 1000)
        for _ in range(50):
            F = PrimeField(rng.choice((2, 3)))
            n = rng.randint(1, 3)
            A = rand_matrix(rng, F, n, n)
            B = rand_B(rng, F, n, m_max=2)
            table = [Fraction(0)] + [Fraction(rng.randint(1, 9))
                                     for _ in range(F.p**n - 1)]
            cost = CostFunction(F, n, table)
            alpha = rng.choice((HALF, THIRD, Fraction(3, 4)))
            inst = DPInstance(A, B, cost, DiscountedHorizon(alpha))
            exact, _ = solve_discounted_pi(inst)
            assert bellman_residual(inst, exact) == 0
            vi = solve_discounted_vi(inst, tol)
            assert vi.error_bound == alpha * tol / (1 - alpha)
            gap = max(abs(a - b) for a, b in
                      zip(vi.values.stationary, exact.stationary))
            assert gap <= vi.error_bound


def test_criterion_9_regulator_block_structure(criterion):
    with criterion(9, "regulators assembled from independent blocks stay "
                      "block-diagonal to 1e-9; successor-index gains "
                      "reproduce the predicted cost to 1e-8"):
        start = time.perf_counter()
        rng = np.random.default_rng(9)
        same_time_always_matched = True
        for trial in range(6):
            dims = [[2, 2], [2, 3], [3, 2], [2, 2, 2], [1, 3], [3, 3]][trial]
            n = sum(dims)
            blocks_A, blocks_B, blocks_P = [], [], []
            for d in dims:
                blocks_A.append(rng.normal(size=(d, d)) * 0.6)
                m_i = rng.integers(1, d + 1)
                while True:
                    Bi = rng.normal(size=(d, m_i))
                    if np.linalg.matrix_rank(Bi) == m_i:
                        break
                blocks_B.append(Bi)
                M = rng.normal(size=(d, d))
                blocks_P.append(M @ M.T + 0.2 * np.eye(d))
            S, _ = np.linalg.qr(rng.normal(size=(n, n)))
            A = S @ _blockdiag(blocks_A) @ S.T
            B = S @ _blockdiag(blocks_B)
            P = S @ _blockdiag(blocks_P) @ S.T
            parts, off = [], 0
            for d in dims:
                parts.append(S[:, off:off + d])
                off += d
            T = 7
            assert block_diagonal_check(A, B, P, parts, T, tol=1e-9)
            sol = riccati_backward(A, B, P, T)
            x0 = rng.normal(size=n)
            predicted = float(x0 @ sol.K[0] @ x0)
            achieved = trajectory_cost(A, B, P, sol.gains_std, x0)
            assert abs(achieved - predicted) <= 1e-8 * max(1.0, abs(predicted))
            same_time = trajectory_cost(A, B, P, sol.gains, x0)
            if abs(same_time - predicted) > 1e-8 * max(1.0, abs(predicted)):
                same_time_always_matched = False
            assert same_time >= predicted - 1e-8
        # the successor-index convention is the one that reproduces x0'K0x0;
        # the same-time convention demonstrably does not in general
        assert not same_time_always_matched
        assert time.perf_counter() - start < 10


def _blockdiag(blocks):
    rows = sum(b.shape[0] for b in blocks)
    cols = sum(b.shape[1] for b in blocks)
    out = np.zeros((rows, cols))
    r = c = 0
    for b in blocks:
        out[r:r + b.shape[0], c:c + b.shape[1]] = b
        r += b.shape[0]
        c += b.shape[1]
    return out


def test_criterion_10_algebra_suite(criterion):
    with criterion(10, "characteristic polynomials, factorization, primary "
                       "splittings, and the subspace dimension law on "
                       "randomized corpora"):
        start = time.perf_counter()
        rng = random.Random(10)
        for _ in range(200):
            F = PrimeField(rng.choice((2, 3, 5)))
            n = rng.randint(1, 5)
            A = rand_matrix(rng, F, n, n)
            chi = char_poly(A)
            assert poly_eval_matrix(chi, A) == MatrixFp.zeros(F, n, n)
            fact = factor_poly(chi)
            assert product(F, fact) == chi
            try:
                decomp, _ = primary_decomposition(A)
            except NotDecomposable:
                assert len(fact) == 1
            else:
                assert verify_decomposition(A, decomp)
        for _ in range(500):
            F = PrimeField(rng.choice((2, 3, 5)))
            n = rng.randint(1, 4)
            def rand_space():
                k = rng.randint(0, n)
                return Subspace(F, n, [[rng.randrange(F.p) for _ in range(n)]
                                       for _ in range(k)])
            S, T = rand_space(), rand_space()
            assert S.dim + T.dim \
                == subspace_sum(S, T).dim + subspace_intersect(S, T).dim
        assert time.perf_counter() - start < 30
