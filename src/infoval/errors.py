"""Exception types shared across the library."""


class EmptyInput(ValueError):
    """An operation that needs at least one point received none."""


class UnreadableEntry(ValueError, TypeError):
    """An entry that no Fraction can be read from, such as "1/0", "x" or None."""


class EmptyPolytope(ValueError):
    """The polytope has no points, so no interior point exists."""


class NonpositiveScale(ValueError):
    """Utility rescaling requires a strictly positive factor."""


class BoundaryPrior(ValueError):
    """The prior must assign strictly positive probability to every state."""

    def __init__(self, message: str = "prior must be interior to the simplex"):
        super().__init__(message)


class MeanMismatch(ValueError):
    """A posterior distribution does not average back to the required prior."""


class ShapeMismatch(ValueError):
    """Matrix dimensions do not line up for the requested composition."""


class MalformedData(ValueError):
    """Identification data violates its structural invariants."""


class InconsistentData(ValueError):
    """Identification data is structurally fine but numerically contradictory."""


class SingularSolve(ValueError):
    """A reconstruction step has no unique solution (degenerate weights or facet)."""


class LPInfeasible(RuntimeError):
    """The linear program has no feasible point."""


class LPUnbounded(RuntimeError):
    """The linear program's objective is unbounded above."""
