"""Seeded inputs for the benchmark workloads.

Every input is an instance document in the layout of
docs/instance-schema.json, built here with plain integer arithmetic mod p so
that nothing under test takes part in making its own inputs.

Each workload is a fixed list of slots (the sizes and kinds of one pass, or
round, of the workload).  Every slot has VARIANTS seeded contents.  The
workload seed picks one variant per slot and the order of the slots, so the
same seed always gives the same inputs, and the recorded golden outputs
(golden.json) cover every input any seed can produce.
"""

from __future__ import annotations

import random
from fractions import Fraction

VARIANTS = 6

# ---------------------------------------------------------------- GF(p) helpers


def _rref_rank(p: int, rows: list[list[int]]) -> int:
    m = [list(r) for r in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][c] % p), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], -1, p)
        m[rank] = [v * inv % p for v in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def _inverse(p: int, M: list[list[int]]) -> list[list[int]]:
    n = len(M)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(M)]
    for c in range(n):
        piv = next(i for i in range(c, n) if aug[i][c] % p)
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = pow(aug[c][c], -1, p)
        aug[c] = [v * inv % p for v in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [(a - f * b) % p for a, b in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


def _matmul(p: int, X: list[list[int]], Y: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*Y))
    return [[sum(a * b for a, b in zip(row, col)) % p for col in cols] for row in X]


def _rand_matrix(rng: random.Random, p: int, r: int, c: int) -> list[list[int]]:
    return [[rng.randrange(p) for _ in range(c)] for _ in range(r)]


def _rand_rank_full(rng: random.Random, p: int, r: int, c: int) -> list[list[int]]:
    """Random r x c matrix of rank min(r, c)."""
    while True:
        M = _rand_matrix(rng, p, r, c)
        if _rref_rank(p, M) == min(r, c):
            return M


def _block_diag(blocks: list[list[list[int]]], widths: list[int]) -> list[list[int]]:
    total = sum(widths)
    out = []
    at = 0
    for block, w in zip(blocks, widths):
        for row in block:
            out.append([0] * at + list(row) + [0] * (total - at - w))
        at += w
    return out


def _poly_mod(p: int, a: list[int], b: list[int]) -> list[int]:
    """Remainder of a by monic b; coefficients low to high."""
    a = list(a)
    while len(a) >= len(b):
        f = a[-1]
        if f:
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] = (a[shift + i] - f * c) % p
        a.pop()
    return a


def _is_irreducible(p: int, q: list[int]) -> bool:
    d = len(q) - 1
    for k in range(1, d // 2 + 1):
        for code in range(p**k):
            cand = [(code // p**i) % p for i in range(k)] + [1]
            if not any(_poly_mod(p, q, cand)):
                return False
    return True


def _rand_irreducible(rng: random.Random, p: int, d: int, avoid: list[list[int]]) -> list[int]:
    while True:
        q = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(d - 1)] + [1]
        if q not in avoid and _is_irreducible(p, q):
            return q


def _companion(p: int, q: list[int]) -> list[list[int]]:
    d = len(q) - 1
    return [[(1 if j == i - 1 else 0) if j < d - 1 else (-q[i]) % p for j in range(d)]
            for i in range(d)]


# ---------------------------------------------------------------- costs


def _rational(rng: random.Random, wide: bool = False) -> str:
    """A positive rational; ``wide`` gives denominators up to 2^20."""
    if wide:
        den = rng.randint(2, 2**20)
        return str(Fraction(rng.randint(den, 9 * den), den))
    return str(Fraction(rng.randint(1, 9), rng.choice((1, 2, 3, 4))))


def _table(rng: random.Random, size: int, wide: bool = False) -> list[str]:
    return ["0"] + [_rational(rng, wide) for _ in range(size - 1)]


def _digits(idx: int, p: int, n: int) -> list[int]:
    out = []
    for _ in range(n):
        out.append(idx % p)
        idx //= p
    return out


def _expand_separable(p: int, P_inv: list[list[int]], dims: list[int],
                      tables: list[list[str]]) -> list[str]:
    """Dense table of x -> sum_i t_i[local coordinates of x in block i]."""
    n = sum(dims)
    parts = [[Fraction(v) for v in t] for t in tables]
    out = []
    for idx in range(p**n):
        x = _digits(idx, p, n)
        y = [sum(a * b for a, b in zip(row, x)) % p for row in P_inv]
        total = Fraction(0)
        at = 0
        for d, t in zip(dims, parts):
            loc = 0
            for k in range(d - 1, -1, -1):
                loc = loc * p + y[at + k]
            total += t[loc]
            at += d
        out.append(str(total))
    return out


# ---------------------------------------------------------------- documents


def _doc(p: int, A, B, cost: dict, horizon: dict, decomposition=None) -> dict:
    doc = {"schema_version": "1.0", "field": {"prime": p},
           "dims": {"n": len(A), "m": len(B[0]) if B else 0},
           "A": A, "B": B, "cost": cost, "horizon": horizon}
    if decomposition is not None:
        doc["decomposition"] = decomposition
    return doc


def _horizon(spec: tuple) -> dict:
    kind, param = spec
    if kind == "finite":
        return {"finite": {"T": param}}
    return {"discounted": {"alpha": param}}


def _split_system(rng: random.Random, p: int, dims: list[int], ms: list[int] | None,
                  m: int, primary: bool):
    """Block-diagonal dynamics conjugated by a random basis change.

    Returns (A, B, P, P_inv).  With ``ms`` the input columns are built part by
    part, so the image of B splits across the parts; without it B is a
    generic full-column-rank matrix.  With ``primary`` every block is the
    companion matrix of a distinct irreducible polynomial, so the primary
    invariant splitting of A is exactly the block splitting.
    """
    n = sum(dims)
    if primary:
        used: list[list[int]] = []
        blocks = []
        for d in dims:
            q = _rand_irreducible(rng, p, d, used)
            used.append(q)
            blocks.append(_companion(p, q))
    else:
        blocks = [_rand_rank_full(rng, p, d, d) for d in dims]
    P = _rand_rank_full(rng, p, n, n)
    P_inv = _inverse(p, P)
    A = _matmul(p, _matmul(p, P, _block_diag(blocks, dims)), P_inv)
    if ms is not None:
        inputs = [_rand_rank_full(rng, p, d, k) for d, k in zip(dims, ms)]
        B = _matmul(p, P, _block_diag(inputs, ms))
    else:
        B = _rand_rank_full(rng, p, n, m)
    return A, B, P, P_inv



# ---------------------------------------------------------------- workloads
#
# A slot is (name, spec).  Sizes are fixed per slot; only contents vary.

SOLVE_SLOTS = [
    # p, n, m, horizon, cost
    ("p2n10m2f", dict(p=2, n=10, m=2, horizon=("finite", 8), cost="table")),
    ("p2n10m3d", dict(p=2, n=10, m=3, horizon=("discounted", "9/10"), cost="table")),
    ("p2n10m4f", dict(p=2, n=10, m=4, horizon=("finite", 8), cost="table")),
    ("p2n11m2f", dict(p=2, n=11, m=2, horizon=("finite", 8), cost="table")),
    ("p2n11m3f", dict(p=2, n=11, m=3, horizon=("finite", 8), cost="table")),
    ("p2n12m2fw", dict(p=2, n=12, m=2, horizon=("finite", 8), cost="wide")),
    ("p2n13m2f", dict(p=2, n=13, m=2, horizon=("finite", 8), cost="table")),
    ("p3n6m2f", dict(p=3, n=6, m=2, horizon=("finite", 8), cost="table")),
    ("p3n7m1d", dict(p=3, n=7, m=1, horizon=("discounted", "9/10"), cost="table")),
    ("p3n7m2f", dict(p=3, n=7, m=2, horizon=("finite", 8), cost="table")),
    ("p5n5m1f", dict(p=5, n=5, m=1, horizon=("finite", 8), cost="table")),
    ("p7n4m1d", dict(p=7, n=4, m=1, horizon=("discounted", "9/10"), cost="table")),
]

# dims are the part dimensions; ms the per-part input counts (B respects
# the parts) or None with m generic input columns.
BATTERY_SPLIT_SLOTS = [
    ("p2d44f", dict(p=2, dims=[4, 4], ms=[1, 1], horizon=("finite", 4))),
    ("p2d55d", dict(p=2, dims=[5, 5], ms=[1, 1], horizon=("discounted", "9/10"))),
    ("p2d66f", dict(p=2, dims=[6, 6], ms=[1, 1], horizon=("finite", 4))),
    ("p2d333f", dict(p=2, dims=[3, 3, 3], ms=[1, 1, 1], horizon=("finite", 4))),
    ("p2d44d", dict(p=2, dims=[4, 4], ms=[2, 1], horizon=("discounted", "9/10"))),
    ("p3d33f", dict(p=3, dims=[3, 3], ms=[1, 1], horizon=("finite", 4))),
    ("p3d222d", dict(p=3, dims=[2, 2, 2], ms=[1, 1, 1], horizon=("discounted", "9/10"))),
    ("p5d22f", dict(p=5, dims=[2, 2], ms=[1, 1], horizon=("finite", 4))),
    ("p2d45d", dict(p=2, dims=[4, 5], ms=[1, 2], horizon=("discounted", "9/10"))),
    ("p2d234f", dict(p=2, dims=[2, 3, 4], ms=[1, 1, 1], horizon=("finite", 4))),
]

BATTERY_REFUTE_SLOTS = [
    ("p2d44f", dict(p=2, dims=[4, 4], m=2, horizon=("finite", 4))),
    ("p2d55d", dict(p=2, dims=[5, 5], m=2, horizon=("discounted", "9/10"))),
    ("p2d66f", dict(p=2, dims=[6, 6], m=2, horizon=("finite", 4))),
    ("p2d333f", dict(p=2, dims=[3, 3, 3], m=3, horizon=("finite", 4))),
    ("p2d44d", dict(p=2, dims=[4, 4], m=2, horizon=("discounted", "9/10"))),
    ("p3d33f", dict(p=3, dims=[3, 3], m=2, horizon=("finite", 4))),
    ("p3d222d", dict(p=3, dims=[2, 2, 2], m=2, horizon=("discounted", "9/10"))),
    ("p2d56f", dict(p=2, dims=[5, 6], m=2, horizon=("finite", 4))),
    ("p2d45d", dict(p=2, dims=[4, 5], m=2, horizon=("discounted", "9/10"))),
    ("p2d234f", dict(p=2, dims=[2, 3, 4], m=3, horizon=("finite", 4))),
]

# cost: "separable" / "indicator" / "table" (a separable cost written out
# densely) / "nonseparable" (a random dense table, which check rejects with
# exit 2).  decomp: the file carries the splitting; otherwise the dynamics
# are built so that the primary splitting is the block splitting.
# Discounted solve ops use alpha 1/2 or 2/3 with the default tolerance: with
# alpha = 999/1000 and --tol 1/1000000 the CLI's exact value iteration does
# not finish (ROADMAP item 4), so such an op would never yield a time.
CLI_SLOTS = [
    ("p2d22-check", dict(p=2, dims=[2, 2], ms=[1, 1], decomp=True, cost="separable",
                         horizon=("finite", 4), command="check")),
    ("p2d33-verify", dict(p=2, dims=[3, 3], m=2, decomp=True, cost="indicator",
                          horizon=("finite", 4), command="verify")),
    ("p3d22-check", dict(p=3, dims=[2, 2], ms=[1, 1], decomp=False, cost="table",
                         horizon=("discounted", "1/2"), command="check")),
    ("p2d44-solve", dict(p=2, dims=[4, 4], ms=[1, 1], decomp=False, cost="table",
                         horizon=("finite", 4), command="solve")),
    ("p2d55-solve", dict(p=2, dims=[5, 5], m=2, decomp=True, cost="separable",
                         horizon=("discounted", "1/2"), command="solve")),
    ("p5d22-check", dict(p=5, dims=[2, 2], ms=[1, 1], decomp=True, cost="indicator",
                         horizon=("discounted", "2/3"), command="check")),
    ("p3d33-verify", dict(p=3, dims=[3, 3], m=2, decomp=False, cost="table",
                          horizon=("finite", 4), command="verify")),
    ("p2d23-solve", dict(p=2, dims=[2, 3], ms=[1, 1], decomp=True, cost="table",
                         horizon=("finite", 4), command="solve")),
    ("p3d23-check", dict(p=3, dims=[2, 3], m=2, decomp=False, cost="table",
                         horizon=("discounted", "1/2"), command="check")),
    ("p2d343-check", dict(p=2, dims=[3, 4, 3], ms=[1, 1, 1], decomp=True, cost="separable",
                          horizon=("finite", 4), command="check")),
    ("p5d12-solve", dict(p=5, dims=[1, 2], ms=[1, 1], decomp=True, cost="separable",
                         horizon=("discounted", "1/2"), command="solve")),
    ("p2d45-verify", dict(p=2, dims=[4, 5], m=3, decomp=True, cost="separable",
                          horizon=("discounted", "1/2"), command="verify")),
    ("p3d12-solve", dict(p=3, dims=[1, 2], ms=[1, 1], decomp=True, cost="indicator",
                         horizon=("discounted", "1/2"), command="solve")),
    ("p3d24-verify", dict(p=3, dims=[2, 4], m=2, decomp=False, cost="table",
                          horizon=("finite", 4), command="verify")),
    ("p2d33-nonsep", dict(p=2, dims=[3, 3], ms=[1, 1], decomp=True, cost="nonseparable",
                          horizon=("finite", 4), command="check")),
]

WORKLOAD_SLOTS = {
    "solve-large": SOLVE_SLOTS,
    "battery-split": BATTERY_SPLIT_SLOTS,
    "battery-refute": BATTERY_REFUTE_SLOTS,
    "cli-files": CLI_SLOTS,
}


def _parts_block(P: list[list[int]], dims: list[int]) -> list[list[list[int]]]:
    """Each part as an n x d matrix whose columns are its basis vectors."""
    out = []
    at = 0
    for d in dims:
        out.append([row[at:at + d] for row in P])
        at += d
    return out


def make_doc(workload: str, slot: int, variant: int) -> dict:
    """The instance document of one slot variant."""
    name, spec = WORKLOAD_SLOTS[workload][slot]
    rng = random.Random(f"{workload}/{name}/{variant}")
    p = spec["p"]
    horizon = _horizon(spec["horizon"])
    if workload == "solve-large":
        n, m = spec["n"], spec["m"]
        A = _rand_matrix(rng, p, n, n)
        B = _rand_rank_full(rng, p, n, m)
        cost = {"table": _table(rng, p**n, wide=spec["cost"] == "wide")}
        return _doc(p, A, B, cost, horizon)
    dims = spec["dims"]
    primary = workload == "cli-files" and not spec["decomp"]
    A, B, P, P_inv = _split_system(rng, p, dims, spec.get("ms"), spec.get("m", 0), primary)
    tables = [_table(rng, p**d) for d in dims]
    kind = spec.get("cost", "separable")
    if kind == "separable":
        cost = {"separable": {"tables": tables}}
    elif kind == "indicator":
        cost = {"indicator": {"weights": [_rational(rng) for _ in dims]}}
    elif kind == "table":
        cost = {"table": _expand_separable(p, P_inv, dims, tables)}
    else:
        cost = {"table": _table(rng, p**sum(dims))}
    decomposition = None if primary else _parts_block(P, dims)
    return _doc(p, A, B, cost, horizon, decomposition)


def plan(workload: str, seed: int) -> list[tuple[int, int]]:
    """One round of the workload: (slot, variant) pairs in seeded order."""
    rng = random.Random(f"{workload}#{seed}")
    slots = list(range(len(WORKLOAD_SLOTS[workload])))
    variants = [rng.randrange(VARIANTS) for _ in slots]
    rng.shuffle(slots)
    return [(s, variants[s]) for s in slots]


def descriptor(workload: str, slot: int) -> dict:
    """What one op exercises: sizes, horizon, cost kind and input layout."""
    name, spec = WORKLOAD_SLOTS[workload][slot]
    p = spec["p"]
    if workload == "solve-large":
        n, m, dims = spec["n"], spec["m"], None
    else:
        dims = spec["dims"]
        n = sum(dims)
        m = sum(spec["ms"]) if spec.get("ms") else spec["m"]
    out = {"slot": name, "p": p, "n": n, "m": m, "states": p**n,
           "part_dims": dims, "horizon": list(spec["horizon"]),
           "cost": spec.get("cost", "separable")}
    if dims is not None:
        out["B_respects_parts"] = spec.get("ms") is not None
    if workload == "cli-files":
        out["command"] = spec["command"]
        out["decomposition_in_file"] = spec["decomp"]
    return out
