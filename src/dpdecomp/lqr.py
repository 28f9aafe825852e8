"""Finite-horizon quadratic regulation over the reals, with a block-
diagonalization check against an invariant splitting.

This is the one floating-point module in the package.  The backward
recursion

    K_T = P,   K_t = P + A'K_{t+1}A - A'K_{t+1}B (B'K_{t+1}B)^{-1} B'K_{t+1}A

is exact linear algebra up to rounding; every tolerance used by the checks
is an explicit argument.  Two feedback-gain stacks are computed because the
two natural index conventions differ whenever K_t varies with t:

* gains[t]   = (B'K_t B)^{-1} B'K_t A        (same-time convention)
* gains_std[t] = (B'K_{t+1}B)^{-1} B'K_{t+1}A  (successor convention, the
  DP minimizer; its closed loop reproduces x0'K_0x0 exactly)

Callers that want the optimal trajectory should use gains_std; comparing
the two trajectory costs is itself a useful diagnostic and is what the
acceptance suite does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IllConditioned, PreconditionFailed

COND_LIMIT = 1e12


def _as_matrix(M, name: str) -> np.ndarray:
    out = np.asarray(M, dtype=float)
    if out.ndim != 2:
        raise ValueError(f"{name} must be a 2-d array")
    return out


def _symmetrize(M: np.ndarray) -> np.ndarray:
    return (M + M.T) / 2.0


@dataclass(frozen=True)
class RiccatiSolution:
    """Cost matrices K[0..T] plus both feedback-gain stacks (length T)."""

    K: tuple[np.ndarray, ...]
    gains: tuple[np.ndarray, ...]
    gains_std: tuple[np.ndarray, ...]


def _feedback(A: np.ndarray, B: np.ndarray, K: np.ndarray) -> np.ndarray:
    inner = B.T @ K @ B
    if inner.size and np.linalg.cond(inner) > COND_LIMIT:
        raise IllConditioned(
            "input-weighted cost matrix B'KB is numerically singular")
    return np.linalg.solve(inner, B.T @ K @ A) if inner.size else np.zeros((B.shape[1], A.shape[0]))


def riccati_backward(A, B, P, T: int) -> RiccatiSolution:
    """Run the backward recursion from K_T = P down to K_0.

    P must be symmetric positive semidefinite (symmetry is enforced up to
    rounding at P's scale; definiteness is the caller's contract).  Raises
    IllConditioned when B'K_{t+1}B is numerically singular.
    """
    A = _as_matrix(A, "A")
    B = _as_matrix(B, "B")
    P = _as_matrix(P, "P")
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("A must be square")
    if B.shape[0] != n:
        raise ValueError("B must have as many rows as A")
    if P.shape != (n, n):
        raise ValueError("P must match A in shape")
    if not np.allclose(P, P.T, atol=1e-9 * np.abs(P).max(initial=1.0)):
        raise ValueError("P must be symmetric")
    if not isinstance(T, int) or T < 1:
        raise ValueError("T must be an integer >= 1")
    P = _symmetrize(P)
    K: list[np.ndarray] = [np.empty(0)] * (T + 1)
    K[T] = P
    # the gain from K[t + 1] is the recursion's L, gains_std[t] and gains[t + 1]
    L: list[np.ndarray] = [np.empty(0)] * T
    for t in range(T - 1, -1, -1):
        Kn = K[t + 1]
        L[t] = _feedback(A, B, Kn)
        K[t] = _symmetrize(P + A.T @ Kn @ A - A.T @ Kn @ B @ L[t])
    return RiccatiSolution(tuple(K), (_feedback(A, B, K[0]), *L[:-1]), tuple(L))


def trajectory_cost(A, B, P, gains, x0) -> float:
    """Total cost sum of x_t' P x_t for t = 0..T under u_t = -gains[t] x_t."""
    A = _as_matrix(A, "A")
    B = _as_matrix(B, "B")
    P = _as_matrix(P, "P")
    x = np.asarray(x0, dtype=float).reshape(-1)
    total = float(x @ P @ x)
    for L in gains:
        u = -L @ x
        x = A @ x + B @ u
        total += float(x @ P @ x)
    return total


def _orthonormal(basis: np.ndarray) -> np.ndarray:
    q, r = np.linalg.qr(basis)
    diag = np.abs(np.diag(r))
    keep = diag > 1e-12 * max(1.0, float(diag.max()) if diag.size else 1.0)
    return q[:, keep]


def block_diagonal_check(A, B, P, parts, T: int, tol: float = 1e-9) -> bool:
    """Does the regulator respect an invariant splitting, block by block?

    parts is a list of basis matrices (columns spanning each part).  The
    standing assumptions, checked first and reported by name when violated:
    the parts form a direct-sum basis of the state space, each part is
    invariant under A, B has full column rank, and the image of B splits
    across the parts (equivalently, the feasible input subspaces span the
    input space).

    With those in place the recursion is rerun in the adapted state and
    input bases; the verdict is True when the transformed P, every K_t, and
    every feedback gain (both index conventions) are block-diagonal to tol
    and the per-block recursions reproduce the diagonal blocks to tol.
    """
    A = _as_matrix(A, "A")
    B = _as_matrix(B, "B")
    P = _as_matrix(P, "P")
    n = A.shape[0]
    m = B.shape[1]
    mats = [_as_matrix(W, "part") for W in parts]
    if len(mats) < 2:
        raise PreconditionFailed("the splitting has at least two parts")
    dims = [W.shape[1] for W in mats]
    if sum(dims) != n or any(W.shape[0] != n for W in mats):
        raise PreconditionFailed("parts form a direct-sum basis of the state space",
                                 f"dimensions {dims} against ambient {n}")
    S = np.hstack(mats)
    if np.linalg.cond(S) > COND_LIMIT:
        raise PreconditionFailed("parts form a direct-sum basis of the state space",
                                 "combined basis is numerically singular")
    scale = max(1.0, float(np.abs(A).max()))
    for i, W in enumerate(mats):
        AW = A @ W
        coeffs, *_ = np.linalg.lstsq(W, AW, rcond=None)
        if float(np.abs(AW - W @ coeffs).max()) > tol * scale:
            raise PreconditionFailed("each part is invariant under A", f"part {i}")
    if np.linalg.matrix_rank(B, tol=1e-10 * max(1.0, float(np.abs(B).max()))) < m:
        raise PreconditionFailed("B has full column rank")

    # feasible input subspaces E_i = {u : Bu lies in part i}
    input_bases = []
    for W in mats:
        Q = _orthonormal(W)
        resid = (np.eye(n) - Q @ Q.T) @ B
        _, s, vt = np.linalg.svd(resid)
        # rows of vt past the numerical rank span the kernel of resid
        rank = int((s > 1e-10 * max(1.0, s.max() if s.size else 1.0)).sum())
        input_bases.append(vt[rank:].T)
    input_dims = [E.shape[1] for E in input_bases]
    if sum(input_dims) != m:
        raise PreconditionFailed(
            "the image of B splits across the parts",
            f"feasible input dimensions {input_dims} against input space {m}")
    M = np.hstack([E for E in input_bases if E.shape[1]])
    if np.linalg.cond(M) > COND_LIMIT:
        raise PreconditionFailed(
            "the image of B splits across the parts",
            "combined feasible input basis is numerically singular")

    A_t = np.linalg.solve(S, A @ S)
    B_t = np.linalg.solve(S, B @ M)
    P_t = S.T @ P @ S

    # each adapted state and input coordinate carries the label of its part
    states = np.repeat(np.arange(len(mats)), dims)
    inputs = np.repeat(np.arange(len(mats)), input_dims)

    def block_diagonal(M: np.ndarray, rows: np.ndarray) -> bool:
        return not (np.abs(M[np.not_equal.outer(rows, states)]) > tol).any()

    if not block_diagonal(P_t, states):
        return False
    sol = riccati_backward(A_t, B_t, P_t, T)
    if not (all(block_diagonal(K, states) for K in sol.K)
            and all(block_diagonal(L, inputs) for L in sol.gains + sol.gains_std)):
        return False
    for i in range(len(mats)):
        s, u = np.flatnonzero(states == i), np.flatnonzero(inputs == i)
        sol_i = riccati_backward(A_t[np.ix_(s, s)], B_t[np.ix_(s, u)], P_t[np.ix_(s, s)], T)
        if any(float(np.abs(K[np.ix_(s, s)] - K_i).max()) > tol
               for K, K_i in zip(sol.K, sol_i.K)):
            return False
    return True
