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

from dataclasses import dataclass
from typing import Literal, Sequence

from .cosets import reader
from .dp import ArgminTable, CostFunction, DPInstance, FiniteHorizon, ValueTable, is_in_Gs, solve
from .errors import NotSeparableCost
from .invariant_decomp import verify_decomposition
from .linalg import DirectSumDecomposition, MatrixFp, Subspace, index_map, index_sum, null_space, rref_rows

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
    input_span: Subspace  # the span of input_parts

    def family(self, name: Family) -> list[DPInstance]:
        if name == "restricted":
            return self.restricted
        if name == "projected":
            return self.projected
        raise ValueError(f"unknown family {name!r}")

    def component_state_tables(self) -> list[list[int]]:
        """For each part, the local state index of every parent state's
        component."""
        return self.decomp.local_index_tables


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

    field, m = inst.field, inst.m
    # the parts are invariant, so C^-1 A C is block diagonal: part i's block
    # and its rows of C^-1 B are the local matrices in the part's basis, and
    # B u lies in part i exactly when the other parts' rows of C^-1 B vanish at u,
    # so the restricted input map (own rows times F) kills only what B F kills
    coords = decomp.change_of_basis_inv.rows()
    local_B = MatrixFp.from_products(field, coords, inst.B.cols()).rows()
    input_parts = [null_space(MatrixFp.from_rows(field, local_B[:b.start] + local_B[b.stop:],
                                                 ncols=m)) for b in decomp.blocks]

    # complement of the feasible-input span, grown greedily from standard
    # basis vectors: the pivots of [E_1 ... E_r | I] that fall in I
    spanning = [b for e in input_parts for b in e.basis_vectors()]
    input_span = Subspace(field, m, spanning)
    eye = [[0] * i + [1] + [0] * (m - 1 - i) for i in range(m)]
    _, pivots = rref_rows(field.p, list(zip(*spanning, *eye)))
    complement = Subspace(field, m, [eye[j - len(spanning)] for j in pivots if j >= len(spanning)])

    restricted, projected = [], []
    for part, feasible, emb, rows in zip(decomp.parts, input_parts, decomp.embedding_tables,
                                         decomp.blocks):
        own_B = local_B[rows.start:rows.stop]
        a_local = MatrixFp.from_products(field, coords[rows.start:rows.stop],
                                         list(map(inst.A.matvec, part.basis_vectors())))
        cost_local = CostFunction(field, part.dim, reader(emb)(inst.cost.table),
                                  allow_vanishing=inst.cost.allow_vanishing)
        restricted.append(DPInstance(
            a_local, MatrixFp.from_products(field, own_B, feasible.basis_vectors()), cost_local,
            inst.horizon, require_injective=not inst.injective, max_states=None, max_inputs=None))
        projected.append(DPInstance(
            a_local, MatrixFp.from_rows(field, own_B, ncols=m), cost_local, inst.horizon,
            require_injective=False, max_states=None, max_inputs=None))
    return SubproblemBundle(inst, decomp, input_parts, complement, restricted, projected,
                            input_span)


def solve_bundle(bundle: SubproblemBundle, family: Family) -> list[tuple[ValueTable, ArgminTable]]:
    """Solve every local problem of one family with the horizon-matching
    exact solver."""
    return [solve(sub) for sub in bundle.family(family)]


def lift_policy(bundle: SubproblemBundle, selections: Sequence) -> list:
    """Combine per-part restricted action selections into a parent control law.

    For a finite horizon, selections[i][t][y] is the local action index
    chosen for part i at local state y and time t, and the result is
    law[t][x], a parent input index per time and state.  For a discounted
    horizon the time axis is absent on both sides.  Each part's actions are
    embedded through its feasible-input basis and the embedded inputs summed.
    """
    parent = bundle.parent
    p, m = parent.field.p, parent.m
    # each part's action indices as parent input indices
    embed = [index_map(e.basis_matrix()) for e in bundle.input_parts]
    comp = bundle.component_state_tables()

    def lift(choices: Sequence[Sequence[int]]) -> list[int]:
        law = None
        for chosen, emb, loc in zip(choices, embed, comp):
            step = map(list(map(emb.__getitem__, chosen)).__getitem__, loc)
            law = step if law is None else index_sum(p, law, step, m)
        return list(law)

    if isinstance(parent.horizon, FiniteHorizon):
        return [lift([sel[t] for sel in selections]) for t in range(parent.horizon.T)]
    return lift(selections)
