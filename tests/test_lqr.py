"""Real-valued finite-horizon quadratic regulation and its block structure.

Closed forms: with A = 0 the recursion is stationary at P; a controllable
scalar problem keeps K constant.  The two gain conventions are pinned on a
2-state example where they genuinely differ, including the resulting
trajectory costs.
"""

import numpy as np
import pytest

from dpdecomp.errors import IllConditioned, PreconditionFailed
from dpdecomp.lqr import (COND_LIMIT, _orthonormal, block_diagonal_check, riccati_backward,
                          trajectory_cost)


def random_instance(seed, n=3, m=2):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    B = rng.normal(size=(n, m))
    M = rng.normal(size=(n, n))
    P = M.T @ M + 0.1 * np.eye(n)
    return A, B, P


# === closed forms ===

def test_zero_dynamics_keeps_P():
    P = np.diag([1.0, 2.0])
    sol = riccati_backward(np.zeros((2, 2)), np.eye(2), P, T=3)
    for K in sol.K:
        assert np.allclose(K, P)
    for L in sol.gains + sol.gains_std:
        assert np.allclose(L, 0.0)
    assert len(sol.gains) == len(sol.gains_std) == 3


def test_scalar_controllable_is_stationary():
    # a = 2, b = 1, p = 1: the correction cancels the growth, K stays 1
    sol = riccati_backward([[2.0]], [[1.0]], [[1.0]], T=4)
    for K in sol.K:
        assert np.allclose(K, 1.0)
    for L in sol.gains_std:
        assert np.allclose(L, 2.0)
    assert trajectory_cost([[2.0]], [[1.0]], [[1.0]], sol.gains_std, [3.0]) \
        == pytest.approx(9.0)


def test_gain_conventions_diverge():
    A = np.array([[1.0, 1.0], [0.0, 1.0]])
    B = np.array([[0.0], [1.0]])
    P = np.eye(2)
    sol = riccati_backward(A, B, P, T=2)
    assert np.allclose(sol.K[1], [[2.0, 1.0], [1.0, 2.0]])
    assert np.allclose(sol.K[0], [[2.5, 1.5], [1.5, 2.5]])
    assert np.allclose(sol.gains_std[1], [[0.0, 1.0]])
    assert np.allclose(sol.gains[1], [[0.5, 1.5]])
    x0 = [1.0, 0.0]
    optimal = trajectory_cost(A, B, P, sol.gains_std, x0)
    assert optimal == pytest.approx(2.5)
    assert optimal == pytest.approx(float(np.array(x0) @ sol.K[0] @ np.array(x0)))
    # the same-time convention is a legitimate control law, just not optimal
    assert trajectory_cost(A, B, P, sol.gains, x0) == pytest.approx(2.56)


# === structural properties ===

@pytest.mark.parametrize("seed", range(6))
def test_cost_matrices_symmetric_psd(seed):
    A, B, P = random_instance(seed)
    sol = riccati_backward(A, B, P, T=5)
    for K in sol.K:
        assert np.allclose(K, K.T)
        assert np.linalg.eigvalsh(K).min() >= -1e-10


@pytest.mark.parametrize("seed", range(6))
def test_predicted_cost_matches_trajectory(seed):
    A, B, P = random_instance(seed)
    sol = riccati_backward(A, B, P, T=5)
    rng = np.random.default_rng(seed + 100)
    x0 = rng.normal(size=3)
    predicted = float(x0 @ sol.K[0] @ x0)
    achieved = trajectory_cost(A, B, P, sol.gains_std, x0)
    assert achieved == pytest.approx(predicted, rel=1e-8)


@pytest.mark.parametrize("seed", range(4))
def test_optimal_gains_beat_perturbations(seed):
    A, B, P = random_instance(seed)
    sol = riccati_backward(A, B, P, T=4)
    rng = np.random.default_rng(seed + 200)
    x0 = rng.normal(size=3)
    best = trajectory_cost(A, B, P, sol.gains_std, x0)
    for _ in range(5):
        noisy = [L + 0.05 * rng.normal(size=L.shape) for L in sol.gains_std]
        assert trajectory_cost(A, B, P, noisy, x0) >= best - 1e-9


@pytest.mark.parametrize("seed", range(4))
def test_longer_horizons_cost_more(seed):
    A, B, P = random_instance(seed)
    prev = None
    for T in (1, 2, 3, 4):
        K0 = riccati_backward(A, B, P, T).K[0]
        if prev is not None:
            assert np.linalg.eigvalsh(K0 - prev).min() >= -1e-9
        prev = K0


def test_trajectory_cost_empty_gains():
    assert trajectory_cost(np.eye(2), np.eye(2), np.eye(2), [], [1.0, 2.0]) \
        == pytest.approx(5.0)


# === input validation ===

def test_shape_and_symmetry_validation():
    with pytest.raises(ValueError, match="square"):
        riccati_backward(np.zeros((2, 3)), np.zeros((2, 1)), np.eye(2), 1)
    with pytest.raises(ValueError, match="rows"):
        riccati_backward(np.eye(2), np.zeros((3, 1)), np.eye(2), 1)
    with pytest.raises(ValueError, match="match"):
        riccati_backward(np.eye(2), np.zeros((2, 1)), np.eye(3), 1)
    with pytest.raises(ValueError, match="symmetric"):
        riccati_backward(np.eye(2), np.zeros((2, 1)),
                         [[1.0, 0.5], [0.0, 1.0]], 1)
    with pytest.raises(ValueError, match="T"):
        riccati_backward(np.eye(2), np.eye(2), np.eye(2), 0)


def test_singular_input_cost_reported():
    # P annihilates the second coordinate, so B'PB is singular at the start
    P = np.diag([1.0, 0.0])
    with pytest.raises(IllConditioned):
        riccati_backward(np.eye(2), np.eye(2), P, T=1)


# === block-diagonalization check ===

def test_block_structure_detected():
    A = np.diag([0.5, -0.25])
    B = np.eye(2)
    parts = [np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])]
    assert block_diagonal_check(A, B, np.diag([1.0, 2.0]), parts, T=6)
    coupled = np.array([[1.0, 0.3], [0.3, 2.0]])
    assert not block_diagonal_check(A, B, coupled, parts, T=6)


def test_block_check_in_skewed_basis():
    # same diagonal problem conjugated by S: the parts are S's columns
    S = np.array([[1.0, 1.0], [0.0, 1.0]])
    D = np.diag([0.5, -0.25])
    A = S @ D @ np.linalg.inv(S)
    parts = [S[:, :1], S[:, 1:]]
    P = np.linalg.inv(S).T @ np.diag([1.0, 2.0]) @ np.linalg.inv(S)
    assert block_diagonal_check(A, np.eye(2), P, parts, T=5)


def test_preconditions_reported_by_name():
    A = np.array([[1.0, 1.0], [0.0, 1.0]])
    e1 = np.array([[1.0], [0.0]])
    e2 = np.array([[0.0], [1.0]])
    with pytest.raises(PreconditionFailed, match="two parts"):
        block_diagonal_check(np.eye(2), np.eye(2), np.eye(2), [np.eye(2)], 1)
    with pytest.raises(PreconditionFailed, match="direct-sum basis"):
        block_diagonal_check(np.eye(2), np.eye(2), np.eye(2), [e1, e1, e2], 1)
    with pytest.raises(PreconditionFailed, match="invariant"):
        block_diagonal_check(A, np.eye(2), np.eye(2), [e1, e2], 1)
    with pytest.raises(PreconditionFailed, match="column rank"):
        block_diagonal_check(np.eye(2), np.array([[1.0, 1.0], [1.0, 1.0]]),
                             np.eye(2), [e1, e2], 1)
    with pytest.raises(PreconditionFailed, match="image of B splits"):
        block_diagonal_check(np.eye(2), np.array([[1.0], [1.0]]),
                             np.eye(2), [e1, e2], 1)


def test_precondition_message_carries_detail():
    e1 = np.array([[1.0], [0.0]])
    e2 = np.array([[0.0], [1.0]])
    with pytest.raises(PreconditionFailed) as exc:
        block_diagonal_check(np.eye(2), np.array([[1.0], [1.0]]),
                             np.eye(2), [e1, e2], 1)
    assert "assumption" in str(exc.value) or "splits" in str(exc.value)


# === block-diagonalization check against the loop-form oracle ===

def _off_block_max(M, row_offsets, row_dims, col_offsets, col_dims):
    worst = 0.0
    for i, (ro, rd) in enumerate(zip(row_offsets, row_dims)):
        for j, (co, cd) in enumerate(zip(col_offsets, col_dims)):
            if i == j or rd == 0 or cd == 0:
                continue
            block = M[ro:ro + rd, co:co + cd]
            if block.size:
                worst = max(worst, float(np.abs(block).max()))
    return worst


def oracle_block_diagonal_check(A, B, P, parts, T, tol):
    """block_diagonal_check with every block addressed by offsets and each
    test its own loop.  Returns the verdict and the test that decided it:
    "P", "K", "gain", "block" or "all"."""
    A, B, P = (np.asarray(M, dtype=float) for M in (A, B, P))
    n, m = A.shape[0], B.shape[1]
    mats = [np.asarray(W, dtype=float) for W in parts]
    if len(mats) < 2:
        raise PreconditionFailed("the splitting has at least two parts")
    dims = [W.shape[1] for W in mats]
    if sum(dims) != n or any(W.shape[0] != n for W in mats):
        raise PreconditionFailed("parts form a direct-sum basis of the state space")
    S = np.hstack(mats)
    if np.linalg.cond(S) > COND_LIMIT:
        raise PreconditionFailed("parts form a direct-sum basis of the state space")
    scale = max(1.0, float(np.abs(A).max()))
    for W in mats:
        AW = A @ W
        coeffs, *_ = np.linalg.lstsq(W, AW, rcond=None)
        if float(np.abs(AW - W @ coeffs).max()) > tol * scale:
            raise PreconditionFailed("each part is invariant under A")
    if np.linalg.matrix_rank(B, tol=1e-10 * max(1.0, float(np.abs(B).max()))) < m:
        raise PreconditionFailed("B has full column rank")
    input_bases = []
    for W in mats:
        Q = _orthonormal(W)
        _, s, vt = np.linalg.svd((np.eye(n) - Q @ Q.T) @ B)
        rank = int((s > 1e-10 * max(1.0, s.max() if s.size else 1.0)).sum())
        input_bases.append(vt[rank:].T)
    input_dims = [E.shape[1] for E in input_bases]
    if sum(input_dims) != m:
        raise PreconditionFailed("the image of B splits across the parts")
    M = np.hstack([E for E in input_bases if E.shape[1]])
    if np.linalg.cond(M) > COND_LIMIT:
        raise PreconditionFailed("the image of B splits across the parts")
    A_t = np.linalg.solve(S, A @ S)
    B_t = np.linalg.solve(S, B @ M)
    P_t = S.T @ P @ S
    so = np.concatenate(([0], np.cumsum(dims)))[:-1]
    io = np.concatenate(([0], np.cumsum(input_dims)))[:-1]
    if _off_block_max(P_t, so, dims, so, dims) > tol:
        return False, "P"
    sol = riccati_backward(A_t, B_t, P_t, T)
    for K in sol.K:
        if _off_block_max(K, so, dims, so, dims) > tol:
            return False, "K"
    for stack in (sol.gains, sol.gains_std):
        for L in stack:
            if _off_block_max(L, io, input_dims, so, dims) > tol:
                return False, "gain"
    for i in range(len(mats)):
        a, d, b, e = so[i], dims[i], io[i], input_dims[i]
        sol_i = riccati_backward(A_t[a:a + d, a:a + d], B_t[a:a + d, b:b + e],
                                 P_t[a:a + d, a:a + d], T)
        for t in range(T + 1):
            if float(np.abs(sol.K[t][a:a + d, a:a + d] - sol_i.K[t]).max()) > tol:
                return False, "block"
    return True, "all"


def block_regulator(seed):
    """A regulator that is block-diagonal under a random basis S, 2-3 parts
    of dimension 1-2, some with no feasible input, blocks and cost weights
    over several magnitudes, and coupling noise (possibly none) on P and B."""
    rng = np.random.default_rng(seed)
    r = int(rng.integers(2, 4))
    dims = [int(d) for d in rng.integers(1, 3, size=r)]
    inputs = [min(d, int(k)) for d, k in zip(dims, rng.integers(0, 3, size=r))]
    inputs[0] = max(inputs[0], 1)
    n, m = sum(dims), sum(inputs)
    S = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-1, 1, size=n)
    A_b, B_b, P_b = np.zeros((n, n)), np.zeros((n, m)), np.zeros((n, n))
    s = u = 0
    for d, k in zip(dims, inputs):
        A_b[s:s + d, s:s + d] = rng.normal(size=(d, d)) * 10.0 ** rng.uniform(-1, 2)
        B_b[s:s + d, u:u + k] = rng.normal(size=(d, k))
        G = rng.normal(size=(d, d))
        P_b[s:s + d, s:s + d] = ((G @ G.T + 10.0 ** rng.uniform(-4, 0) * np.eye(d))
                                 * 10.0 ** rng.uniform(-2, 4))
        s, u = s + d, u + k

    def noise(shape):
        return rng.choice([0.0, 0.0, 1e-12, 1e-7, 1e-4, 1e-2]) * rng.normal(size=shape)

    N = noise((n, n))
    S_inv = np.linalg.inv(S)
    P = S_inv.T @ (P_b + N + N.T) @ S_inv
    B = S @ B_b + noise((n, m))
    parts = np.split(S, np.cumsum(dims)[:-1], axis=1)
    tol = float(rng.choice([1e-9, 1e-6, 1e-3]))
    return S @ A_b @ S_inv, B, (P + P.T) / 2, parts, int(rng.integers(1, 5)), tol


def _outcome(check, *args):
    try:
        return check(*args)
    except Exception as exc:
        return type(exc)


def test_block_check_matches_loop_oracle():
    decided = set()
    for seed in range(400):
        args = block_regulator(seed)
        expected = _outcome(oracle_block_diagonal_check, *args)
        got = _outcome(block_diagonal_check, *args)
        if isinstance(expected, tuple):
            expected, by = expected
            decided.add(by)
        assert got is expected, seed
        decided.add(got)
    assert {True, False, PreconditionFailed} <= decided
    assert {"P", "K", "gain", "all"} <= decided


def test_block_check_decides_large_exactly_symmetric_costs():
    # P = S^-T P_b S^-1 is exactly symmetric with entries near 1e6, but the
    # adapted S'PS rounds asymmetric by more than an absolute 1e-9
    A, B, P, parts, T, tol = block_regulator(308)
    assert np.array_equal(P, P.T)
    assert oracle_block_diagonal_check(A, B, P, parts, T, tol) == (False, "K")
    assert block_diagonal_check(A, B, P, parts, T, tol=tol) is False


def test_block_check_compares_each_block_recursion():
    # every off-block entry is within tol, but part 1 feels the coupling
    # through part 0's input: its K block drops by 5e-4^2 / 1e4 * 1e8
    A = np.diag([0.5, 1e4])
    B = np.array([[1.0], [0.0]])
    P = np.array([[1e4, 5e-4], [5e-4, 1.0]])
    parts = [np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])]
    assert oracle_block_diagonal_check(A, B, P, parts, 1, 1e-3) == (False, "block")
    assert block_diagonal_check(A, B, P, parts, 1, tol=1e-3) is False
