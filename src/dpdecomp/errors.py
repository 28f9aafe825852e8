"""Exception types shared across the package.

Plain input mistakes raise the builtin ValueError (or ZeroDivisionError for a
zero inverse); the classes here mark structured failures that callers are
expected to catch and act on.  Every one of them but TheoremViolation is an
input problem and so a ValueError; TheoremViolation alone signals a bug.
"""

from __future__ import annotations


class ShapeError(ValueError):
    """Matrix or vector dimensions do not line up."""


class NotDecomposable(ValueError):
    """The characteristic polynomial is a power of a single irreducible, so
    the state space admits no nontrivial invariant splitting of this kind.

    Carries that irreducible factor and its multiplicity.
    """

    def __init__(self, factor, multiplicity: int):
        self.factor = factor
        self.multiplicity = multiplicity
        super().__init__(
            f"characteristic polynomial is ({factor})^{multiplicity}; "
            "no nontrivial invariant splitting exists"
        )


class NotDirectSum(ValueError):
    """Candidate parts fail to form a direct sum spanning the ambient space."""


class NotInvariant(ValueError):
    """A candidate part is not invariant under the dynamics matrix."""

    def __init__(self, part_index: int):
        self.part_index = part_index
        super().__init__(f"part {part_index} is not invariant under A")


class NotSeparableCost(ValueError):
    """The stage cost does not split additively across the given parts."""


class TheoremViolation(Exception):
    """An internally guaranteed implication failed; signals a bug, not data."""


class PreconditionFailed(ValueError):
    """A named standing assumption of a numeric check does not hold."""

    def __init__(self, assumption: str, detail: str = ""):
        self.assumption = assumption
        msg = f"precondition violated: {assumption}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class IllConditioned(ValueError):
    """A real-field solve hit a numerically singular inner matrix."""
