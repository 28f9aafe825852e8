"""Real-valued finite-horizon quadratic regulation and its block structure.

Closed forms: with A = 0 the recursion is stationary at P; a controllable
scalar problem keeps K constant.  The two gain conventions are pinned on a
2-state example where they genuinely differ, including the resulting
trajectory costs.
"""

import numpy as np
import pytest

from dpdecomp.errors import IllConditioned, PreconditionFailed
from dpdecomp.lqr import block_diagonal_check, riccati_backward, trajectory_cost


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
