"""Per-part control subproblems induced by an invariant splitting.

Given a parent problem and an invariant direct sum of its state space, each
part gets two local problems on its own coordinates:

* restricted: inputs range over the part's feasible input subspace, the
  preimage of the part under B (possibly zero-dimensional, which makes the
  local problem autonomous with a single empty input);
* projected: inputs range over the whole input space, but the input matrix
  is the composition of B with the projection onto the part, which need not
  be injective.

The input space itself splits as the direct sum of the feasible input
subspaces plus a complement chosen by greedily extending with standard
basis vectors.  Separability of the stage cost across the parts is required
up front; the local costs are the parent cost read through each part's
embedding.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Literal, Sequence

from .dp import ArgminTable, CostFunction, DPInstance, FiniteHorizon, ValueTable, is_in_Gs, solve
from .errors import NotSeparableCost
from .invariant_decomp import verify_decomposition
from .linalg import (DirectSumDecomposition, MatrixFp, Subspace, index_map, preimage,
                     subspace_sum)

Family = Literal["restricted", "projected"]


@dataclass(frozen=True, eq=False, repr=False)
class SubproblemBundle:
    """The two families of local problems for one parent and splitting."""

    parent: DPInstance
    decomp: DirectSumDecomposition
    input_parts: list[Subspace]
    complement: Subspace
    restricted: list[DPInstance]
    projected: list[DPInstance]
    # per part: the local index of every parent state's component, and the
    # parent index of every local state (DirectSumDecomposition's tables)
    component_tables: list[list[int]]
    embedding_tables: list[list[int]]
    input_span: Subspace = dataclasses.field(init=False)

    def __post_init__(self):
        span = Subspace.zero(self.parent.field, self.parent.m)
        for e in self.input_parts:
            span = subspace_sum(span, e)
        object.__setattr__(self, "input_span", span)

    @property
    def r(self) -> int:
        return self.decomp.r

    def input_basis(self, i: int) -> MatrixFp:
        """Embedding of part i's feasible input coordinates into the input space."""
        return self.input_parts[i].basis_matrix()

    def family(self, name: Family) -> list[DPInstance]:
        if name == "restricted":
            return self.restricted
        if name == "projected":
            return self.projected
        raise ValueError(f"unknown family {name!r}")

    def component_state_tables(self) -> list[list[int]]:
        """For each part, the local state index of every parent state's
        component."""
        return self.component_tables


def build_bundle(inst: DPInstance, decomp: DirectSumDecomposition) -> SubproblemBundle:
    """Construct both subproblem families for a parent problem and splitting.

    Raises NotInvariant / NotDirectSum if the splitting is not an invariant
    direct sum for the parent dynamics, and NotSeparableCost if the stage
    cost does not split additively across the parts.
    """
    if decomp.field != inst.field or decomp.ambient_dim != inst.n:
        raise ValueError("splitting does not match the parent state space")
    verify_decomposition(inst.A, decomp)
    if not is_in_Gs(inst.cost, decomp):
        raise NotSeparableCost(
            "stage cost is not additive across the given parts")

    field = inst.field
    input_parts = [preimage(inst.B, part) for part in decomp.parts]

    # complement of the feasible-input span, grown from standard basis vectors
    spanning = [list(b) for e in input_parts for b in e.basis_vectors()]
    added: list[list[int]] = []
    rank = MatrixFp.from_rows(field, spanning, ncols=inst.m).rank() if spanning else 0
    for j in range(inst.m):
        e_j = [1 if k == j else 0 for k in range(inst.m)]
        candidate = MatrixFp.from_rows(field, spanning + added + [e_j], ncols=inst.m)
        if candidate.rank() > rank + len(added):
            added.append(e_j)
    complement = Subspace(field, inst.m, added)

    restricted = []
    projected = []
    embedding = decomp.embedding_tables()
    for i, part in enumerate(decomp.parts):
        # the parts are invariant and E_i maps into part i, so these products
        # are the local matrices in the part's canonical basis
        to_local = decomp.coordinates(i)
        a_local = to_local @ inst.A @ part.basis_matrix()
        b_restricted = to_local @ inst.B @ input_parts[i].basis_matrix()
        cost_local = CostFunction(
            field, part.dim, [inst.cost.table[e] for e in embedding[i]],
            allow_vanishing=inst.cost.allow_vanishing)
        restricted.append(DPInstance(
            a_local, b_restricted, cost_local, inst.horizon,
            max_states=None, max_inputs=None))
        projected.append(DPInstance(
            a_local, to_local @ inst.B, cost_local, inst.horizon,
            require_injective=False, max_states=None, max_inputs=None))
    return SubproblemBundle(inst, decomp, input_parts, complement, restricted, projected,
                            decomp.local_index_tables(), embedding)


def solve_bundle(bundle: SubproblemBundle, family: Family) -> list[tuple[ValueTable, ArgminTable]]:
    """Solve every local problem of one family with the horizon-matching
    exact solver."""
    return [solve(sub) for sub in bundle.family(family)]


def lift_policy(bundle: SubproblemBundle, family: Family,
                selections: Sequence) -> list:
    """Combine per-part action selections into a parent control law.

    For a finite horizon, selections[i][t][y] is the local action index
    chosen for part i at local state y and time t, and the result is
    law[t][x], a parent input index per time and state.  For a discounted
    horizon the time axis is absent on both sides.  Restricted-family
    actions are embedded through the feasible-input bases before summing;
    projected-family actions already live in the input space and sum as is.
    """
    bundle.family(family)  # rejects an unknown family name
    parent = bundle.parent
    pm = parent.num_inputs
    eye = MatrixFp.identity(parent.field, parent.m)
    # adds[i][u + p^m a] is the parent input u plus part i's action a, embedded;
    # each table has p^(m + dim of the action space) <= p^(n + m) entries
    adds = [index_map(eye.hstack(bundle.input_basis(i) if family == "restricted" else eye))
            for i in range(bundle.r)]
    comp = bundle.component_state_tables()

    def lift(choices: Sequence[Sequence[int]]) -> list[int]:
        law = [0] * parent.num_states
        for add, chosen, loc in zip(adds, choices, comp):
            law = [add[u + pm * chosen[y]] for u, y in zip(law, loc)]
        return law

    if isinstance(parent.horizon, FiniteHorizon):
        return [lift([sel[t] for sel in selections]) for t in range(parent.horizon.T)]
    return lift(selections)
