"""Finite decision problems and the subdivision of the belief simplex.

A decision problem is a finite utility matrix over states and actions. Its
value function is the upper envelope of the actions' affine payoff lines,
and projecting that envelope onto the simplex subdivides it into cells, one
per action that is strictly optimal somewhere; one lift of the payoff rows
gives all of them. This module computes those objects exactly and decides
when two problems differ only by an action-independent, state-dependent
payoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import InconsistentData, MalformedData, NonpositiveScale, ShapeMismatch
from .geometry import (
    ZERO,
    Belief,
    Coords,
    Halfspace,
    Polytope,
    _coords_of,
    _dedupe_canonical,
    _frac,
    _normalized,
    _rank,
    adjacent_facets,
    envelope_rays,
    facet_between,  # noqa: F401  (bench/test_bench.py checks the tracer patches it here)
)


@dataclass(frozen=True)
class DecisionProblem:
    """States, actions, and an exact utility matrix u[action][state]."""

    state_labels: tuple[str, ...]
    action_labels: tuple[str, ...]
    utility: tuple[Coords, ...]

    def __post_init__(self):
        utility = tuple(tuple(_frac(v) for v in row) for row in self.utility)
        object.__setattr__(self, "utility", utility)
        object.__setattr__(self, "state_labels", tuple(self.state_labels))
        object.__setattr__(self, "action_labels", tuple(self.action_labels))
        n = len(self.state_labels)
        if n < 2:
            raise ValueError("a decision problem needs at least two states")
        if not utility:
            raise ValueError("a decision problem needs at least one action")
        if len(self.action_labels) != len(utility):
            raise ValueError("one label per action is required")
        for row in utility:
            if len(row) != n:
                raise ValueError("every utility row needs one entry per state")
        seen: dict[Coords, int] = {}
        for idx, row in enumerate(utility):
            if row in seen:
                raise ValueError(
                    f"duplicate action payoffs: {self.action_labels[seen[row]]!r} "
                    f"and {self.action_labels[idx]!r} are indistinguishable"
                )
            seen[row] = idx

    @property
    def n(self) -> int:
        return len(self.state_labels)

    @property
    def num_actions(self) -> int:
        return len(self.utility)

    def _require_states(self, k: int) -> None:
        """ShapeMismatch unless beliefs over k states fit this problem."""
        if k != self.n:
            raise ShapeMismatch(f"belief over {k} states for a problem with {self.n} states")

    def payoff(self, action: int, x: Belief) -> Fraction:
        self._require_states(x.n)
        return sum(u * c for u, c in zip(self.utility[action], x.coords))


def make_problem(utility, state_labels=None, action_labels=None) -> DecisionProblem:
    rows = [tuple(_frac(v) for v in row) for row in utility]
    n = len(rows[0]) if rows else 0
    states = tuple(state_labels) if state_labels else tuple(f"t{i+1}" for i in range(n))
    actions = (
        tuple(action_labels)
        if action_labels
        else tuple(f"a{i+1}" for i in range(len(rows)))
    )
    return DecisionProblem(states, actions, tuple(rows))


@dataclass(frozen=True)
class AffineFn:
    """An affine function on the simplex, stored as x -> coeffs . x.

    Because coordinates sum to one, constants are absorbed into the
    coefficients, and the representation is unique: the coefficient on state
    theta is the value at the theta vertex.
    """

    coeffs: Coords

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(_frac(v) for v in self.coeffs))

    def _zip(self, x):
        """Pairs of this function's coefficients with x's, which must be as many."""
        return zip(self.coeffs, _coords_of(x, len(self.coeffs)))

    def __call__(self, x) -> Fraction:
        return sum(a * c for a, c in self._zip(x))

    def __add__(self, other: "AffineFn") -> "AffineFn":
        return AffineFn(tuple(a + b for a, b in self._zip(other.coeffs)))

    def __sub__(self, other: "AffineFn") -> "AffineFn":
        return AffineFn(tuple(a - b for a, b in self._zip(other.coeffs)))

    def scaled(self, factor: Fraction) -> "AffineFn":
        return AffineFn(tuple(a * _frac(factor) for a in self.coeffs))

    @classmethod
    def zero(cls, n: int) -> "AffineFn":
        return cls((ZERO,) * n)

    @classmethod
    def from_halfspace(cls, h: Halfspace) -> "AffineFn":
        return cls(h.as_affine_coords())


@dataclass(frozen=True)
class Cell:
    """A maximal region of the simplex on which one action is optimal."""

    action_index: int
    geometry: Polytope


@dataclass(frozen=True)
class AdjacentPair:
    """Two cells meeting in a common facet, with the separating halfspace.

    The halfspace is oriented to hold on cell j (the larger index side) with
    equality exactly on the shared facet.
    """

    i: int
    j: int
    shared: Polytope
    halfspace: Halfspace


@dataclass(frozen=True)
class Subdivision:
    """Cells covering the simplex with pairwise disjoint interiors."""

    cells: tuple[Cell, ...]
    adjacency: tuple[AdjacentPair, ...]

    @classmethod
    def from_cells(cls, cells) -> "Subdivision":
        """The subdivision of the cells, with facets from geometry.adjacent_facets."""
        cells = tuple(cells)
        found = adjacent_facets([cell.geometry for cell in cells])
        return cls(cells, tuple(AdjacentPair(*pair) for pair in found))

    @property
    def n(self) -> int:
        if not self.cells:
            raise MalformedData("a subdivision needs at least one cell")
        return self.cells[0].geometry.n

    @cached_property
    def _pairs(self) -> dict[tuple[int, int], AdjacentPair]:
        pairs: dict[tuple[int, int], AdjacentPair] = {}
        for pair in self.adjacency:
            pairs.setdefault((pair.i, pair.j), pair)
        return pairs

    def oriented_facet(self, i: int, j: int) -> Halfspace | None:
        """The facet halfspace between cells i and j, positive on cell j."""
        pair = self._pairs.get((min(i, j), max(i, j)))
        if pair is None:
            return None
        return pair.halfspace if j == pair.j else pair.halfspace.flipped()

    def shared_facet(self, i: int, j: int) -> Polytope | None:
        pair = self._pairs.get((min(i, j), max(i, j)))
        return None if pair is None else pair.shared

    def spanning_tree(self) -> list[tuple[int, int]]:
        """Breadth-first tree edges (parent, child) from cell 0, lowest neighbor first.

        Raises MalformedData when the adjacency graph is disconnected.
        """
        edges = _breadth_first(((pair.i, pair.j) for pair in self.adjacency), 0)
        if len(edges) != len(self.cells) - 1:
            raise MalformedData("adjacency graph is disconnected")
        return edges

    def match_cells(self, other: "Subdivision") -> list[tuple[int, int]] | None:
        """Pairs (i, k) of cell i here and cell k of other with the same vertex set.

        None unless the cells of both sides correspond one to one.
        """
        mine = [_vertex_key(cell) for cell in self.cells]
        theirs = [_vertex_key(cell) for cell in other.cells]
        if sorted(mine) != sorted(theirs):
            return None
        lookup = {key: k for k, key in enumerate(theirs)}
        return [(i, lookup[key]) for i, key in enumerate(mine)]

    def same_geometry(self, other: "Subdivision") -> bool:
        return self.match_cells(other) is not None


def _vertex_key(cell: Cell) -> tuple[Coords, ...]:
    return tuple(v.coords for v in cell.geometry.vertices)


def _breadth_first(links, root: int) -> list[tuple[int, int]]:
    """Breadth-first tree edges (parent, child) from root, lowest neighbor first.

    links are the graph's edges as pairs (i, j), in either orientation.
    """
    neighbors: dict[int, set[int]] = {}
    for i, j in links:
        neighbors.setdefault(i, set()).add(j)
        neighbors.setdefault(j, set()).add(i)
    seen = {root}
    edges: list[tuple[int, int]] = []
    queue = [root]
    for node in queue:
        for child in sorted(neighbors.get(node, set()) - seen):
            seen.add(child)
            edges.append((node, child))
            queue.append(child)
    return edges


@dataclass(frozen=True)
class PiecewiseAffineFn:
    """A convex piecewise-affine function given by one affine piece per cell.

    Construction verifies exactly that each cell's piece dominates every
    other piece at each vertex of that cell, and so on the whole cell: the
    function is the pointwise maximum of its pieces. Adjacent pieces then
    agree on their shared facet, because every shared face this library
    builds (geometry.adjacent_facets) is spanned by vertices common to both
    cells, where each piece dominates the other.
    """

    subdivision: Subdivision
    pieces: tuple[AffineFn, ...]

    def __post_init__(self):
        object.__setattr__(self, "pieces", tuple(self.pieces))
        cells = self.subdivision.cells
        if len(self.pieces) != len(cells):
            raise ValueError("need exactly one affine piece per cell")
        values: dict[Belief, list[Fraction]] = {}
        for i, cell in enumerate(cells):
            for v in cell.geometry.vertices:
                if v not in values:
                    values[v] = [piece(v) for piece in self.pieces]
                for k, value in enumerate(values[v]):
                    if value > values[v][i]:
                        raise InconsistentData(f"piece {k} rises above piece {i} on cell {i}")

    def __call__(self, x) -> Fraction:
        return max(piece(x) for piece in self.pieces)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def evaluate_value(dp: DecisionProblem, x: Belief) -> Fraction:
    """The best expected payoff available at belief x."""
    return max(dp.payoff(a, x) for a in range(dp.num_actions))


def _lift(dp: DecisionProblem) -> tuple[list[tuple[int, ...]], list[frozenset[int]], list[int]]:
    """dp's envelope rays, each action's tight rays, and the undominated actions."""
    rays, tight = envelope_rays(dp.utility)
    winners = [a for a, on in enumerate(tight) if _rank([rays[r] for r in on]) == dp.n]
    return rays, tight, winners


def undominated_actions(dp: DecisionProblem) -> frozenset[int]:
    """Actions that are strictly better than every rival at some belief.

    Read off one lift of the payoff rows: an action is undominated exactly
    when the envelope vertices where it is optimal span R^n, so that it is
    optimal on a full-dimensional region, where distinct rows tie only on
    hyperplanes. Actions optimal only on ties count as dominated.
    """
    return frozenset(_lift(dp)[2])


def compute_subdivision(dp: DecisionProblem) -> Subdivision:
    """One full-dimensional cell per undominated action, plus facet adjacency.

    Cell geometry is the exact halfspace intersection
    {x : u(a,.) . x >= u(b,.) . x for every rival undominated b}, and its
    vertices are the envelope vertices of one lift where a is optimal. Cells
    come back ordered by action index. Adjacency comes from
    Subdivision.from_cells on those cells, as for cells read back from data:
    payoffs tie on a shared face, so its kernel line is u(j,.) - u(i,.) up to
    scale. Each undominated action is the only maximizer on an open set, so
    its cell is full-dimensional and it is uniquely optimal inside; the cells
    tile the simplex, so their adjacency graph is connected, which the
    spanning tree confirms.
    """
    n = dp.n
    rays, tight, winners = _lift(dp)
    vertices = [_normalized(ray) for ray in rays]
    cells = []
    for a in winners:
        halfspaces = _dedupe_canonical(
            Halfspace(tuple(u - v for u, v in zip(dp.utility[a], dp.utility[b])), ZERO)
            for b in winners
            if b != a
        )
        corners = tuple(sorted(vertices[r] for r in tight[a]))
        cells.append(Cell(a, Polytope(halfspaces, corners, n)))
    sub = Subdivision.from_cells(cells)
    sub.spanning_tree()  # raises MalformedData if the graph is disconnected
    return sub


def scale_problem(dp: DecisionProblem, factor) -> DecisionProblem:
    """Multiply every payoff by a positive rational; behavior is unchanged."""
    factor = _frac(factor)
    if factor <= 0:
        raise NonpositiveScale(f"scale factor must be positive, got {factor}")
    scaled = tuple(tuple(v * factor for v in row) for row in dp.utility)
    return DecisionProblem(dp.state_labels, dp.action_labels, scaled)


def value_function(dp: DecisionProblem) -> PiecewiseAffineFn:
    """The upper envelope of dp's payoff lines as a piecewise-affine function."""
    sub = compute_subdivision(dp)
    pieces = tuple(AffineFn(dp.utility[cell.action_index]) for cell in sub.cells)
    return PiecewiseAffineFn(sub, pieces)


def equal_up_to_state_transfer(dp1: DecisionProblem, dp2: DecisionProblem):
    """Witness that dp2 is dp1 plus a state-dependent payoff, on undominated actions.

    Matches the cells of both subdivisions by exact geometric equality; when a
    bijection exists and every matched pair of utility rows differs by one and
    the same per-state vector, returns (relabeling, transfer) where relabeling
    maps dp1's undominated action indices to dp2's. Otherwise returns None.
    """
    if dp1.n != dp2.n:
        return None
    sub1 = compute_subdivision(dp1)
    sub2 = compute_subdivision(dp2)
    matching = sub1.match_cells(sub2)
    if matching is None:
        return None
    pairs = [(sub1.cells[i].action_index, sub2.cells[k].action_index) for i, k in matching]
    transfers = {
        tuple(u2 - u1 for u1, u2 in zip(dp1.utility[a1], dp2.utility[a2]))
        for a1, a2 in pairs
    }
    if len(transfers) != 1:
        return None
    return dict(pairs), AffineFn(transfers.pop())
