"""Exact tools for valuing information in finite decision problems.

The library covers both directions of the problem: computing how much a
Blackwell experiment is worth to a decision maker, and recovering the
decision problem (up to relabeling and a state-dependent payoff transfer)
from finitely many ranked experiments and utility differences.
"""

from .errors import (
    BoundaryPrior,
    EmptyInput,
    EmptyPolytope,
    InconsistentData,
    MalformedData,
    MeanMismatch,
    NonpositiveScale,
    ShapeMismatch,
    SingularSolve,
    UnreadableEntry,
)
from .geometry import (
    Belief,
    Halfspace,
    Polytope,
    barycenter,
    belief,
    dimension,
    facet_between,
    hull_halfspaces,
    interior_point,
    uniform_belief,
    vertices_of,
)

__version__ = "0.1.0"
