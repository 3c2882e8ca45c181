"""Finite decision problems and the subdivision of the belief simplex.

A decision problem is a finite utility matrix over states and actions. Its
value function is the upper envelope of the actions' affine payoff lines,
and projecting that envelope onto the simplex subdivides it into cells, one
per action that is strictly optimal somewhere; one lift of the payoff rows
the problem holds over one denominator gives the cells and their adjacency
(_lift). This module computes those objects exactly and decides when two
problems differ only by an action-independent, state-dependent payoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from operator import mul

from .errors import InconsistentData, MalformedData, NonpositiveScale, ShapeMismatch
from .geometry import (
    ZERO,
    Belief,
    Coords,
    Halfspace,
    Polytope,
    _Holder,
    _belief,
    _coords_of,
    _exact_belief,
    _extreme_rays,
    _facet,
    _facet_halfspace,
    _frac,
    _require_type,
    _scaled,
    _scaled_points,
    adjacent_facets,
    facet_between,  # noqa: F401  (bench/test_bench.py checks the tracer patches it here)
)


# (low, spread, width, states, cuts); see _pack
Packing = tuple[int, int, int, tuple[int, ...], tuple[slice, ...]]


def _pack(rows: list[list[int]], most: int) -> Packing:
    """The integer payoff rows packed into one integer per state, digits wide enough for most.

    Kronecker substitution (Harvey 2009): with low the least entry and
    digits of width bytes, state k's integer is sum_a (rows[a][k] - low) *
    2**(8 * width * a), so for a nonnegative column c, sum_k c_k * states[k]
    has base 2**(8 * width) digits (u_a - low) . c, one per action, and cuts
    slices its width * len(rows) big-endian bytes into them. A digit is at
    most spread * sum(c), spread the largest entry minus low, so width is
    the fewest bytes holding spread * most, and no digit overflows into the
    next.
    """
    low = min(map(min, rows))
    spread = max(map(max, rows)) - low
    width = max(1, -(-(spread * most).bit_length() // 8))
    shift = 8 * width
    states = tuple(
        sum((v - low) << (shift * a) for a, v in enumerate(column)) for column in zip(*rows)
    )
    cuts = tuple(slice(a * width, (a + 1) * width) for a in range(len(rows)))
    return low, spread, width, states, cuts


@dataclass(frozen=True)
class DecisionProblem(_Holder):
    """States, actions and an exact utility matrix u[action][state]; equal rows are one action.

    The utility rows over one denominator (_ints), which every valuation
    reads, are held, so valuing many experiments for one problem scales its
    matrix once. So is their packing for information._gap (_packing): a
    packing with wider digits serves every narrower need, so only the widest
    formed is held, and the problem alone widens it, when a column needs more room.
    """

    state_labels: tuple[str, ...]
    action_labels: tuple[str, ...]
    utility: tuple[Coords, ...]
    _packed = None

    def __post_init__(self):
        utility = tuple(map(_coords_of, self.utility))
        object.__setattr__(self, "utility", utility)
        object.__setattr__(self, "state_labels", tuple(self.state_labels))
        object.__setattr__(self, "action_labels", tuple(self.action_labels))
        n = len(self.state_labels)
        if not utility:
            raise ValueError("a decision problem needs at least one action")
        if n < 2:
            raise ValueError("a decision problem needs at least two states")
        if len(self.action_labels) != len(utility):
            raise ValueError("one label per action is required")
        for label, row in zip(self.action_labels, utility):
            if len(row) != n:
                raise ValueError(f"action {label!r}: every utility row needs one entry per state")

    @cached_property
    def _ints(self) -> tuple[list[list[int]], int]:
        """(rows, scale) with utility[a][k] == rows[a][k] / scale, scale the lcm."""
        return _scaled(self.utility)

    def _packing(self, most: int) -> Packing:
        """The held packing (_pack) if it fits columns summing to most, else a wider one, held."""
        if self._packed is None or (self._packed[1] * most).bit_length() > 8 * self._packed[2]:
            object.__setattr__(self, "_packed", _pack(self._ints[0], most))
        return self._packed

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

    def payoff(self, action: int, x: Belief | Coords) -> Fraction:
        if action not in range(self.num_actions):
            raise ShapeMismatch(f"action {action} is not one of the {self.num_actions} actions")
        x = _belief(x)
        self._require_states(x.n)
        return sum(u * c for u, c in zip(self.utility[action], x.coords))


def make_problem(utility, state_labels=None, action_labels=None) -> DecisionProblem:
    rows = [_coords_of(row) for row in utility]
    n = max(map(len, rows), default=0)
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
        object.__setattr__(self, "coeffs", _coords_of(self.coeffs))

    def _zip(self, x):
        """Pairs of this function's coefficients with x's, which must be as many."""
        return zip(self.coeffs, _coords_of(x, len(self.coeffs)))

    def __call__(self, x) -> Fraction:
        return sum(a * c for a, c in self._zip(x))

    def __add__(self, other: "AffineFn") -> "AffineFn":
        return AffineFn(tuple(a + b for a, b in self._zip(other.coeffs)))

    def __sub__(self, other: "AffineFn") -> "AffineFn":
        return AffineFn(tuple(a - b for a, b in self._zip(other.coeffs)))

    @classmethod
    def zero(cls, n: int) -> "AffineFn":
        return cls((ZERO,) * n)


@dataclass(frozen=True)
class Cell:
    """A maximal region of the simplex on which one action is optimal."""

    action_index: int
    geometry: Polytope


@dataclass(frozen=True)
class AdjacentPair:
    """Two cells meeting in a common facet, with the separating halfspace.

    The halfspace is tight on the facet and holds on cell j, the larger
    index; the shared face is cell i cut by it, whether a lift
    (compute_subdivision) or vertex incidence (Subdivision.from_cells) found it.
    """

    i: int
    j: int
    shared: Polytope
    halfspace: Halfspace


@dataclass(frozen=True)
class Subdivision:
    """Cells covering the simplex with pairwise disjoint interiors.

    adjacency holds one AdjacentPair (i < j) per two cells sharing a facet.
    """

    cells: tuple[Cell, ...]
    adjacency: tuple[AdjacentPair, ...]

    @classmethod
    def from_cells(cls, cells) -> "Subdivision":
        """The subdivision of cells given by their vertices, with geometry.adjacent_facets."""
        cells = tuple(cells)
        for index, cell in enumerate(cells):
            _require_type(f"cell {index}", cell, Cell)
        found = adjacent_facets([cell.geometry for cell in cells])
        return cls(cells, tuple(AdjacentPair(*pair) for pair in found))

    @property
    def n(self) -> int:
        if not self.cells:
            raise MalformedData("a subdivision needs at least one cell")
        return self.cells[0].geometry.n

    def pair(self, i: int, j: int) -> AdjacentPair | None:
        """The adjacent pair of cells i and j, named in either order, or None (a scan)."""
        return next((p for p in self.adjacency if (p.i, p.j) in ((i, j), (j, i))), None)

    def spanning_tree(self) -> list[tuple[int, int]]:
        """Breadth-first tree edges (parent, child) from cell 0, lowest neighbor first.

        Raises MalformedData when there is no cell or the graph is disconnected.
        """
        self.n  # MalformedData when there is no cell
        edges = _breadth_first(((pair.i, pair.j) for pair in self.adjacency), 0)
        if len(edges) != len(self.cells) - 1:
            raise MalformedData("adjacency graph is disconnected")
        return edges

    def match_cells(self, other: "Subdivision") -> list[tuple[int, int]] | None:
        """Pairs (i, k) of cell i here and cell k of other with equal Belief vertex tuples.

        None unless the cells of both sides correspond one to one.
        """
        mine = [cell.geometry.vertices for cell in self.cells]
        theirs = [cell.geometry.vertices for cell in other.cells]
        if sorted(mine) != sorted(theirs):
            return None
        lookup = {key: k for k, key in enumerate(theirs)}
        return [(i, lookup[key]) for i, key in enumerate(mine)]


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
    function is the pointwise maximum of its pieces. It compares integer dot
    products: the rows scaled by the lcm of all their denominators, each
    vertex by its held row over the lcm of its own. Adjacent pieces then
    agree on their shared facet, because every shared face this library
    builds (compute_subdivision, geometry.adjacent_facets) is spanned by
    vertices common to both cells, where each piece dominates the other.
    """

    subdivision: Subdivision
    pieces: tuple[AffineFn, ...]

    def __post_init__(self):
        object.__setattr__(self, "pieces", tuple(self.pieces))
        _require_type("subdivision", self.subdivision, Subdivision)
        self.subdivision.n  # MalformedData when the subdivision has no cell
        cells = self.subdivision.cells
        if len(self.pieces) != len(cells):
            raise ValueError("need exactly one affine piece per cell")
        widths = [len(piece.coeffs) for piece in self.pieces]
        rows, _ = _scaled([piece.coeffs for piece in self.pieces])
        values: dict[Belief, list[int]] = {}
        for i, cell in enumerate(cells):
            for v in cell.geometry.vertices:
                row = values.get(v)
                if row is None:
                    for width in widths:
                        _coords_of(v, width)  # the ShapeMismatch piece(v) raises
                    (x,), _ = _scaled_points([v])
                    row = values[v] = [sum(map(mul, r, x)) for r in rows]
                top = row[i]
                if max(row) > top:
                    k = next(k for k, value in enumerate(row) if value > top)
                    raise InconsistentData(f"piece {k} rises above piece {i} on cell {i}")

    def __call__(self, x) -> Fraction:
        return max(piece(x) for piece in self.pieces)


def equal_up_to_affine(first: PiecewiseAffineFn, second: PiecewiseAffineFn) -> AffineFn | None:
    """The affine function phi with second = first + phi, if one exists.

    The cells are matched by geometry (match_cells); coefficients are unique on
    the simplex, so every matched pair of pieces must differ by the same tuple.
    """
    _require_type("first", first, PiecewiseAffineFn)
    _require_type("second", second, PiecewiseAffineFn)
    matching = first.subdivision.match_cells(second.subdivision)
    if matching is None:
        return None
    shifts = {second.pieces[k] - first.pieces[i] for i, k in matching}
    return shifts.pop() if len(shifts) == 1 else None


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def evaluate_value(dp: DecisionProblem, x: Belief) -> Fraction:
    """The best expected payoff available at belief x."""
    _require_type("dp", dp, DecisionProblem)
    return max(dp.payoff(a, x) for a in range(dp.num_actions))


def _lift(dp: DecisionProblem) -> tuple[list[list[int]], list[frozenset[int]], list[int]]:
    """dp's lifted extreme rays, each action row's set of them, and the undominated actions.

    One double description on the cone {(x, z) : x >= 0, scale * z >= rows[a] . x}
    over the problem's integer rows (dp._ints), with rows (e_i, 0), then
    (-rows[a], scale). The rays come back as their x parts: the vertical
    ray's is zero, and every other lies on the envelope above a vertex of
    the subdivision. Action a's set is the rays its row's zero set holds,
    the whole face of that row: the rays where a is optimal. The cone is
    pointed, so a face is fixed by its rays (Ziegler, Lectures on Polytopes,
    ch. 2), and action a is undominated exactly when its row cuts a facet:
    it repeats no earlier row, and its set is non-empty and strictly inside
    no other action's. The coordinate rows need no set: a face without the
    vertical ray lies on the envelope, so in some winner's facet.
    """
    _require_type("dp", dp, DecisionProblem)
    n = dp.n
    rows, scale = dp._ints
    lifted = [[int(i == j) for j in range(n + 1)] for i in range(n)]
    lifted += [[-v for v in row] + [scale] for row in rows]
    found = _extreme_rays(lifted, n + 1)
    sets = [
        frozenset(r for r, (_, zeros) in enumerate(found) if zeros >> (n + a) & 1)
        for a in range(len(rows))
    ]
    winners = [
        a for a, row in enumerate(rows)
        if row not in rows[:a] and sets[a] and not any(sets[a] < s for s in sets)
    ]
    return [ray[:n] for ray, _ in found], sets, winners


def undominated_actions(dp: DecisionProblem) -> frozenset[int]:
    """Actions that are strictly better than every rival at some belief.

    Read off one lift of the payoff rows: an action is undominated exactly
    when its lifted row cuts a facet of the lifted cone, so that it is
    optimal on a full-dimensional region, where distinct rows tie only on
    hyperplanes. Actions optimal only on ties count as dominated, as do all
    but the lowest index of equal rows.
    """
    return frozenset(_lift(dp)[2])


def compute_subdivision(dp: DecisionProblem) -> Subdivision:
    """One full-dimensional cell per undominated action, plus facet adjacency.

    Cell geometry is the exact halfspace intersection
    {x : u(a,.) . x >= u(b,.) . x for every rival undominated b}, each cut
    made by geometry._facet from the difference of the two integer payoff
    rows (DecisionProblem._ints), as hull and adjacency facets are. Its
    vertices are the envelope vertices of one lift (_lift) where a is
    optimal, in Belief order. Cells come back ordered by action index. A
    ridge of the lifted cone lies in exactly two facets and a smaller face
    in at least three, so winners a < b share a facet exactly when only
    their two rows hold all their common rays: the dual of
    geometry._extreme_rays' adjacency test. Winners' rows suffice, as cells
    that meet in less than a ridge also meet a third cell there.
    Payoffs tie there, so the halfspace is _facet of u(b,.) - u(a,.); the
    shared face is cell a cut by it, with the common rays as vertices. Each
    undominated action's row is the only maximizing row on an open set, so
    its cell is full-dimensional and that row is uniquely optimal inside;
    the cells tile the simplex, so their adjacency graph is connected, which
    the spanning tree confirms. Equal rows share one cell.
    """
    rays, sets, winners = _lift(dp)
    n = dp.n
    vertices = {r: _exact_belief(ray, sum(ray)) for r, ray in enumerate(rays) if any(ray)}
    order = sorted(vertices, key=vertices.__getitem__)
    rows, _ = dp._ints
    cells = []
    for a in winners:
        cuts = (_facet([x - y for x, y in zip(rows[a], rows[b])]) for b in winners if b != a)
        halfspaces = tuple(_facet_halfspace(*cut) for cut in dict.fromkeys(cuts))
        corners = tuple(vertices[r] for r in order if r in sets[a])
        cells.append(Cell(a, Polytope(halfspaces, corners, n)))
    facets = [sets[a] for a in winners]
    adjacency = []
    for (i, a), (j, b) in combinations(enumerate(winners), 2):
        common = sets[a] & sets[b]
        if sum(common <= s for s in facets) == 2:
            facet = _facet_halfspace(*_facet([y - x for x, y in zip(rows[a], rows[b])]))
            face = tuple(vertices[r] for r in order if r in common)
            shared = Polytope((*cells[i].geometry.halfspaces, facet), face, n)
            adjacency.append(AdjacentPair(i, j, shared, facet))
    sub = Subdivision(tuple(cells), tuple(adjacency))
    sub.spanning_tree()  # raises MalformedData if the graph is disconnected
    return sub


def scale_problem(dp: DecisionProblem, factor) -> DecisionProblem:
    """Multiply every payoff by a positive rational; behavior is unchanged."""
    factor = _frac(factor)
    if factor <= 0:
        raise NonpositiveScale(f"scale factor must be positive, got {factor}")
    _require_type("dp", dp, DecisionProblem)
    scaled = tuple(tuple(v * factor for v in row) for row in dp.utility)
    return DecisionProblem(dp.state_labels, dp.action_labels, scaled)


def value_function(dp: DecisionProblem) -> PiecewiseAffineFn:
    """The upper envelope of dp's payoff lines as a piecewise-affine function."""
    sub = compute_subdivision(dp)
    pieces = tuple(AffineFn(dp.utility[cell.action_index]) for cell in sub.cells)
    return PiecewiseAffineFn(sub, pieces)


def equal_up_to_state_transfer(dp1: DecisionProblem, dp2: DecisionProblem):
    """Witness that dp2 is dp1 plus a state-dependent payoff, on undominated actions.

    (relabeling, transfer): transfer is equal_up_to_affine of the two value
    functions, and relabeling maps dp1's undominated action indices to dp2's
    through the cells match_cells pairs. None when there is no such transfer.
    """
    _require_type("dp1", dp1, DecisionProblem)
    _require_type("dp2", dp2, DecisionProblem)
    first, second = value_function(dp1), value_function(dp2)
    transfer = equal_up_to_affine(first, second)
    if transfer is None:
        return None
    cells1, cells2 = first.subdivision.cells, second.subdivision.cells
    matching = first.subdivision.match_cells(second.subdivision)
    return {cells1[i].action_index: cells2[k].action_index for i, k in matching}, transfer
