"""Per-part subproblems induced by an invariant splitting.

The worked 3-state instance over GF(3) is used as a fixture with every
derived quantity (feasible input subspaces, complement, local matrices,
local costs) frozen from hand computation.
"""

import random
from fractions import Fraction

import pytest

from dpdecomp.dp import (CostFunction, DiscountedHorizon, DPInstance,
                         FiniteHorizon, evaluate_time_varying, index_state,
                         solve_finite, state_index)
from dpdecomp.errors import NotInvariant, NotSeparableCost
from dpdecomp.fields import Poly, PrimeField
from dpdecomp.linalg import DirectSumDecomposition, MatrixFp, Subspace, preimage
from dpdecomp.subproblems import build_bundle, lift_policy, solve_bundle
from test_acceptance import rand_B, rand_forced_B, rand_split_system
from test_linalg import members

F3 = PrimeField(3)
HALF = Fraction(1, 2)


def make_parent(horizon=FiniteHorizon(1)):
    """x1' = x1 + x2, x2' = 2 x2, x3' = x3 with a 2-input map; the state
    splits into three invariant lines and the cost charges only the middle
    one."""
    A = MatrixFp.from_rows(F3, [[1, 1, 0], [0, 2, 0], [0, 0, 1]])
    B = MatrixFp.from_rows(F3, [[1, 0], [1, 1], [0, 1]])
    parts = [Subspace(F3, 3, [(1, 0, 0)]),
             Subspace(F3, 3, [(1, 1, 0)]),
             Subspace(F3, 3, [(0, 0, 1)])]
    decomp = DirectSumDecomposition(parts)
    cost = CostFunction.separable(decomp, [[0, 0, 0], [0, 1, 1], [0, 0, 0]],
                                  allow_vanishing=True)
    return DPInstance(A, B, cost, horizon), decomp


def make_axes_parent(horizon=FiniteHorizon(1)):
    """Coordinate-axis splitting with a shared input: x' = (x1+u1+u2, x2+u2, u2)."""
    A = MatrixFp.from_rows(F3, [[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    B = MatrixFp.from_rows(F3, [[1, 1], [0, 1], [0, 1]])
    parts = [Subspace(F3, 3, [(1, 0, 0)]),
             Subspace(F3, 3, [(0, 1, 0)]),
             Subspace(F3, 3, [(0, 0, 1)])]
    decomp = DirectSumDecomposition(parts)
    cost = CostFunction.indicator(decomp, [Fraction(1)] * 3)
    return DPInstance(A, B, cost, horizon), decomp


# === construction and validation ===

def test_rejects_non_invariant_parts():
    inst, _ = make_parent()
    bad = DirectSumDecomposition([Subspace(F3, 3, [(0, 1, 0)]),
                                  Subspace(F3, 3, [(1, 0, 0), (0, 0, 1)])])
    with pytest.raises(NotInvariant):
        build_bundle(inst, bad)


def test_rejects_non_separable_cost():
    inst, decomp = make_parent()
    coupled = CostFunction(F3, 3, [0] + [1] * 26, allow_vanishing=True)
    inst2 = DPInstance(inst.A, inst.B, coupled, inst.horizon)
    with pytest.raises(NotSeparableCost):
        build_bundle(inst2, decomp)


def test_rejects_mismatched_splitting():
    inst, _ = make_parent()
    other = DirectSumDecomposition([Subspace(F3, 2, [(1, 0)]),
                                    Subspace(F3, 2, [(0, 1)])])
    with pytest.raises(ValueError):
        build_bundle(inst, other)


def test_unchecked_parent_gets_checked_restricted_maps(monkeypatch):
    """A parent built with require_injective=False vouches for nothing, so
    build_bundle checks each restricted input map's rank, one elimination
    per part: a non-injective B is refused as before.  A checked parent's
    restricted maps are injective with it, and get no rank check."""
    inst, decomp = make_parent()
    flat = MatrixFp.from_rows(F3, [[1, 1], [1, 1], [0, 0]])  # B u always on (1, 1, 0)
    with pytest.raises(ValueError, match="column rank"):
        build_bundle(DPInstance(inst.A, flat, inst.cost, inst.horizon,
                                require_injective=False), decomp)
    unchecked = DPInstance(inst.A, inst.B, inst.cost, inst.horizon, require_injective=False)
    ranked = []
    rank = MatrixFp.rank
    monkeypatch.setattr(MatrixFp, "rank", lambda self: ranked.append(self) or rank(self))
    bundle = build_bundle(unchecked, decomp)
    assert ranked == [sub.B for sub in bundle.restricted]
    ranked.clear()
    assert build_bundle(inst, decomp).restricted and ranked == []


def test_family_name_checked():
    inst, decomp = make_parent()
    bundle = build_bundle(inst, decomp)
    with pytest.raises(ValueError):
        bundle.family("exact")


# === frozen structure of the worked instance ===

def test_feasible_input_subspaces():
    inst, decomp = make_parent()
    bundle = build_bundle(inst, decomp)
    assert [e.dim for e in bundle.input_parts] == [0, 1, 0]
    assert bundle.input_parts[1] == Subspace(F3, 2, [(1, 0)])
    assert bundle.input_span == Subspace(F3, 2, [(1, 0)])
    assert bundle.complement == Subspace(F3, 2, [(0, 1)])


def test_feasible_inputs_land_in_their_part():
    for maker in (make_parent, make_axes_parent):
        inst, decomp = maker()
        bundle = build_bundle(inst, decomp)
        for i, e in enumerate(bundle.input_parts):
            for u in members(e):
                assert decomp.parts[i].contains(inst.B.matvec(u))


def test_restricted_local_matrices():
    inst, decomp = make_parent()
    bundle = build_bundle(inst, decomp)
    # part 2 in the basis (1,1,0): A acts as 2, the feasible input as 1
    sub = bundle.restricted[1]
    assert sub.A == MatrixFp.from_rows(F3, [[2]])
    assert sub.B == MatrixFp.from_rows(F3, [[1]])
    assert sub.cost.table == (Fraction(0), Fraction(1), Fraction(1))
    # the outer parts are autonomous: no feasible inputs, zero local cost
    for i in (0, 2):
        sub = bundle.restricted[i]
        assert sub.m == 0
        assert sub.num_inputs == 1
        assert sub.cost.table == (Fraction(0),) * 3


def test_projected_local_matrices():
    inst, decomp = make_parent()
    bundle = build_bundle(inst, decomp)
    # columns are the part components of B e1 = (1,1,0) and B e2 = (0,1,1)
    assert bundle.projected[0].B == MatrixFp.from_rows(F3, [[0, 2]])
    assert bundle.projected[1].B == MatrixFp.from_rows(F3, [[1, 1]])
    assert bundle.projected[2].B == MatrixFp.from_rows(F3, [[0, 1]])
    for i in range(3):
        assert bundle.projected[i].A == bundle.restricted[i].A


def test_axes_parent_structure():
    inst, decomp = make_axes_parent()
    bundle = build_bundle(inst, decomp)
    assert [e.dim for e in bundle.input_parts] == [1, 0, 0]
    assert bundle.input_parts[0] == Subspace(F3, 2, [(1, 0)])
    assert bundle.complement == Subspace(F3, 2, [(0, 1)])
    # components of B e1 = (1,0,0) and B e2 = (1,1,1) along the axes
    assert bundle.projected[0].B == MatrixFp.from_rows(F3, [[1, 1]])
    assert bundle.projected[1].B == MatrixFp.from_rows(F3, [[0, 1]])
    assert bundle.projected[2].B == MatrixFp.from_rows(F3, [[0, 1]])


def test_component_state_tables():
    inst, decomp = make_parent()
    bundle = build_bundle(inst, decomp)
    tables = bundle.component_state_tables()
    for x_idx in range(27):
        x = index_state(x_idx, 3, 3)
        for i in range(3):
            assert tables[i][x_idx] == state_index(decomp.coordinates(i).matvec(x), 3)
    assert bundle.component_state_tables() is tables


def test_build_bundle_builds_each_state_table_once(monkeypatch):
    """The splitting builds its part-local index tables once: the separable
    cost, the separability scan and every bundle read that one list."""
    calls = []
    original = DirectSumDecomposition.coordinates

    def counting(self, i):
        calls.append(i)
        return original(self, i)

    monkeypatch.setattr(DirectSumDecomposition, "coordinates", counting)
    inst, decomp = make_parent()  # CostFunction.separable on the splitting
    bundle = build_bundle(inst, decomp)
    again = build_bundle(inst, decomp)
    assert calls == list(range(decomp.r))
    assert bundle.component_state_tables() is decomp.local_index_tables
    assert again.component_state_tables() is decomp.local_index_tables


def oracle_local_matrices(inst, decomp, input_parts):
    """Per part: (A, restricted B, projected B) by products through the
    part's coordinates and basis, one part at a time (how build_bundle
    computed them before it sliced one C^-1 A C and one C^-1 B)."""
    out = []
    for i, part in enumerate(decomp.parts):
        to_local = decomp.coordinates(i)
        out.append((to_local @ inst.A @ part.basis_matrix(),
                    to_local @ inst.B @ input_parts[i].basis_matrix(),
                    to_local @ inst.B))
    return out


@pytest.mark.parametrize("forced", [True, False], ids=["split-B", "generic-B"])
def test_local_matrices_match_per_part_products(forced):
    """The blocks of one change of basis equal the per-part products on
    seeded invariant splittings, with B inside the parts or generic."""
    rng = random.Random(f"bundle-{forced}")
    for _ in range(40):
        F, A, decomp = rand_split_system(rng, primes=(2, 3, 5), n_max=5)
        B = rand_forced_B(rng, F, decomp) if forced else rand_B(rng, F, A.nrows)
        cost = CostFunction.indicator(decomp, [Fraction(1)] * decomp.r)
        inst = DPInstance(A, B, cost, FiniteHorizon(1), max_states=None, max_inputs=None)
        bundle = build_bundle(inst, decomp)
        got = [(r.A, r.B, q.B) for r, q in zip(bundle.restricted, bundle.projected)]
        assert got == oracle_local_matrices(bundle.parent, decomp, bundle.input_parts)
        assert all(r.A is q.A for r, q in zip(bundle.restricted, bundle.projected))


@pytest.mark.parametrize("forced", [True, False], ids=["split-B", "generic-B"])
def test_feasible_inputs_are_the_preimages_of_the_parts(forced):
    """Part i's feasible inputs, the kernel of the other parts' rows of
    C^-1 B, are preimage(B, part i): the inputs u with B u in part i."""
    rng = random.Random(f"preimage-{forced}")
    for _ in range(150):
        F, A, decomp = rand_split_system(rng, primes=(2, 3, 5), n_max=5)
        B = rand_forced_B(rng, F, decomp) if forced else rand_B(rng, F, A.nrows)
        cost = CostFunction.indicator(decomp, [Fraction(1)] * decomp.r)
        inst = DPInstance(A, B, cost, FiniteHorizon(1), max_states=None, max_inputs=None)
        assert build_bundle(inst, decomp).input_parts == [preimage(B, part)
                                                          for part in decomp.parts]


# === solving and lifting ===

def test_restricted_solutions_worked_instance():
    inst, decomp = make_parent()
    bundle = build_bundle(inst, decomp)
    sols = solve_bundle(bundle, "restricted")
    # the charged part can reach its origin in one step, so J0 = stage cost
    values1, argmin1 = sols[1]
    assert values1.table(0) == (Fraction(0), Fraction(1), Fraction(1))
    # local state y maps to 2y + u; the minimizer is u = y
    assert argmin1.per_time[0][1] == frozenset({1})
    assert argmin1.per_time[0][2] == frozenset({2})
    for i in (0, 2):
        values, argmin = sols[i]
        assert values.table(0) == (Fraction(0),) * 3
        assert argmin.per_time[0][1] == frozenset({0})


def test_local_values_vanish_at_local_origin():
    for maker in (make_parent, make_axes_parent):
        for horizon in (FiniteHorizon(2), DiscountedHorizon(HALF)):
            inst, decomp = maker(horizon)
            bundle = build_bundle(inst, decomp)
            for family in ("restricted", "projected"):
                for values, _ in solve_bundle(bundle, family):
                    assert values.per_time[0][0] == 0


def test_component_value_sum_matches_parent():
    inst, decomp = make_parent(FiniteHorizon(2))
    bundle = build_bundle(inst, decomp)
    parent_values, _ = solve_finite(inst)
    sols = solve_bundle(bundle, "restricted")
    comp = bundle.component_state_tables()
    for x in range(inst.num_states):
        total = sum(sols[i][0].value(comp[i][x], 0) for i in range(3))
        assert total == parent_values.value(x, 0)


def test_lifted_restricted_policy_achieves_parent_optimum():
    inst, decomp = make_parent(FiniteHorizon(2))
    bundle = build_bundle(inst, decomp)
    parent_values, _ = solve_finite(inst)
    sols = solve_bundle(bundle, "restricted")
    selections = []
    for i in range(3):
        _, argmin = sols[i]
        T = inst.horizon.T
        selections.append([[min(argmin.per_time[t][y])
                            for y in range(bundle.restricted[i].num_states)]
                           for t in range(T)])
    law = lift_policy(bundle, selections)
    assert evaluate_time_varying(inst, law).table(0) == parent_values.table(0)


def oracle_lift(bundle, choices):
    """A lifted law at one time, state by state from digit vectors: the sum
    over parts of each part's action at the state's component, embedded
    through the feasible-input basis."""
    parent = bundle.parent
    p, m = parent.field.p, parent.m
    law = []
    for x in range(parent.num_states):
        u = [0] * m
        for i, (chosen, loc) in enumerate(zip(choices, bundle.component_state_tables())):
            action = index_state(chosen[loc[x]], p, bundle.restricted[i].m)
            u = [a + b for a, b in zip(u, bundle.input_parts[i].basis_matrix().matvec(action))]
        law.append(state_index(u, p))
    return law


def test_lift_policy_matches_per_state_oracle():
    """Random local selections lift to the same parent law as the digit
    vector oracle, for p in {2, 3, 5, 7}, finite (per time) and discounted."""
    rng = random.Random("lift-restricted")
    for k in range(24):
        F, A, decomp = rand_split_system(rng, primes=(2, 3, 5, 7), n_max=4 if k % 4 else 3)
        B = rand_forced_B(rng, F, decomp) if k % 2 else rand_B(rng, F, A.nrows)
        cost = CostFunction.indicator(decomp, [Fraction(1)] * decomp.r)
        horizon = FiniteHorizon(2) if k % 3 else DiscountedHorizon(HALF)
        inst = DPInstance(A, B, cost, horizon, max_states=None, max_inputs=None)
        bundle = build_bundle(inst, decomp)
        times = 2 if k % 3 else 1
        picks = [[[rng.randrange(sub.num_inputs) for _ in range(sub.num_states)]
                  for _ in range(times)] for sub in bundle.restricted]
        if k % 3:
            law = lift_policy(bundle, picks)
            assert law == [oracle_lift(bundle, [sel[t] for sel in picks]) for t in range(times)]
        else:
            law = lift_policy(bundle, [sel[0] for sel in picks])
            assert law == oracle_lift(bundle, [sel[0] for sel in picks])


def test_discounted_bundle_solves():
    inst, decomp = make_parent(DiscountedHorizon(HALF))
    bundle = build_bundle(inst, decomp)
    sols = solve_bundle(bundle, "restricted")
    values1, _ = sols[1]
    # the charged line reaches its origin in one step and stays there
    assert values1.stationary == (Fraction(0), Fraction(1), Fraction(1))
    selections = [[min(sols[i][1].stationary[y])
                   for y in range(bundle.restricted[i].num_states)]
                  for i in range(3)]
    law = lift_policy(bundle, selections)
    assert len(law) == inst.num_states


# === immutability and equality ===

# name -> (factory building a fresh object, an attribute it carries)
IMMUTABLES = {
    "PrimeField": (lambda: PrimeField(3), "p"),
    "Poly": (lambda: Poly(F3, [1, 0, 2]), "coeffs"),
    "MatrixFp": (lambda: MatrixFp.from_rows(F3, [[1, 2], [0, 1]]), "entries"),
    "Subspace": (lambda: Subspace(F3, 3, [(1, 1, 0)]), "ambient_dim"),
    "DirectSumDecomposition": (lambda: make_parent()[1], "parts"),
    "CostFunction": (lambda: make_parent()[0].cost, "table"),
    "DPInstance": (lambda: make_parent()[0], "horizon"),
    "SubproblemBundle": (lambda: build_bundle(*make_parent()), "parent"),
}
COMPARED_BY_VALUE = {"PrimeField", "Poly", "MatrixFp", "Subspace", "DirectSumDecomposition"}


@pytest.mark.parametrize("name", sorted(IMMUTABLES))
def test_immutability_and_equality(name):
    factory, attr = IMMUTABLES[name]
    a, b = factory(), factory()
    assert type(a).__name__ == name and a is not b
    with pytest.raises(AttributeError):
        setattr(a, attr, getattr(a, attr))
    with pytest.raises(AttributeError):
        setattr(a, "extra", 1)
    if name in COMPARED_BY_VALUE:
        assert a == b and hash(a) == hash(b)
    else:
        assert a == a and a != b
