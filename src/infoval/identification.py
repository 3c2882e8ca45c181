"""Identifying a decision problem from comparisons of experiments.

The forward direction builds, for a given problem and interior prior, a
finite collection of statements about posterior distributions:

* one equality per cell, holding exactly when the candidate value function
  is affine on that cell (mass on the cell's extreme points versus the same
  mass collapsed to their barycenter);
* one strict inequality per adjacent cell pair, holding exactly when the
  candidate is not affine across the pair (mass at a shared facet point
  versus the same mass split into the two cell interiors);
* one utility difference per spanning-tree edge of the cell adjacency
  graph, pinning down the slope jump across that facet.

The backward direction reads the cell geometry out of the equalities and
rebuilds the value function, up to an affine function, from the utility
differences.

Witness points are formed from the integer rows their beliefs hold: a
residual is one integer row from the prior's and the anchor's, and a line
is held as its origin's and its direction's rows over one scale, from
which its windows in the cells are read and each point on it is formed as
one row. Each point becomes a Belief once. The interior point of a cell or
of a shared face is held by its polytope, so each is averaged once per
subdivision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .decision import (
    AffineFn,
    Cell,
    DecisionProblem,
    PiecewiseAffineFn,
    Subdivision,
    _breadth_first,
    compute_subdivision,
    make_problem,
)
from .errors import InconsistentData, MalformedData, MeanMismatch, SingularSolve
from .geometry import (
    ONE,
    ZERO,
    Belief,
    Polytope,
    _coords_of,
    _exact_belief,
    _frac,
    _line_window,
    _require_prior,
    _require_type,
    facet_between,  # noqa: F401  (bench/test_bench.py checks the tracer patches it here)
    interior_point,
)
from .information import PosteriorDistribution, _gap


@dataclass(frozen=True)
class CellAffine:
    """Tags an equality that tests affineness on one cell."""

    cell: int


@dataclass(frozen=True)
class PairNonAffine:
    """Tags a strict inequality that tests non-affineness across a facet."""

    i: int
    j: int


@dataclass(frozen=True)
class OrderedExpectation:
    """A comparison of the candidate value's expectation under two distributions.

    relation is "eq" (exact equality required) or "gt" (left side strictly
    larger). Both sides share the prior as their mean, so each side is the
    posterior distribution of an actual experiment at that prior.
    """

    lhs: PosteriorDistribution
    rhs: PosteriorDistribution
    relation: str
    tag: CellAffine | PairNonAffine

    def __post_init__(self):
        _require_type("lhs", self.lhs, PosteriorDistribution)
        _require_type("rhs", self.rhs, PosteriorDistribution)
        if self.relation not in ("eq", "gt"):
            raise ValueError("relation must be 'eq' or 'gt'")
        if self.lhs.mean != self.rhs.mean:
            raise ValueError("both sides of an ordered expectation must share their mean")
        if self.relation == "eq" and not isinstance(self.tag, CellAffine):
            raise ValueError("equalities must carry a cell tag")
        if self.relation == "gt" and not isinstance(self.tag, PairNonAffine):
            raise ValueError("strict inequalities must carry a pair tag")


@dataclass(frozen=True)
class UtilityDifference:
    """States that the left distribution is worth exactly `gap` more utils.

    The two supports share all atoms except on the cell-`edge[0]` side, and
    exactly one common atom carries different weights on the two sides; that
    atom sits inside cell edge[1] and anchors the reconstruction.
    """

    lhs: PosteriorDistribution
    rhs: PosteriorDistribution
    gap: Fraction
    edge: tuple[int, int]

    def __post_init__(self):
        _require_type("lhs", self.lhs, PosteriorDistribution)
        _require_type("rhs", self.rhs, PosteriorDistribution)
        object.__setattr__(self, "gap", _frac(self.gap))
        try:
            edge = tuple(self.edge)
        except TypeError:
            raise MalformedData(f"a difference edge names two cells, got {self.edge!r}") from None
        if len(edge) != 2 or not all(isinstance(e, int) and not isinstance(e, bool) for e in edge):
            raise MalformedData(f"a difference edge names two cells by int index, got {edge}")
        object.__setattr__(self, "edge", (int(edge[0]), int(edge[1])))
        if self.lhs.mean != self.rhs.mean:
            raise ValueError("both sides of a utility difference must share their mean")


@dataclass(frozen=True)
class IdentificationData:
    """Everything the observer reveals: prior, ordinal statements, differences.

    The prior is read by _require_prior, and every side of every statement
    and difference must average to it: ShapeMismatch for a side over other
    states, then MeanMismatch naming the first statement or difference, by
    index, that does not; MalformedData names one of another type.
    """

    prior: Belief
    ordinal: tuple[OrderedExpectation, ...]
    cardinal: tuple[UtilityDifference, ...]
    root_cell: int = 0

    def __post_init__(self):
        prior = _require_prior(self.prior)
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "ordinal", tuple(self.ordinal))
        object.__setattr__(self, "cardinal", tuple(self.cardinal))
        for kind, items, item_type in (
            ("statement", self.ordinal, OrderedExpectation),
            ("difference", self.cardinal, UtilityDifference),
        ):
            for index, item in enumerate(items):
                _require_type(f"{kind} {index}", item, item_type)
                for side in (item.lhs, item.rhs):
                    _coords_of(side.mean, prior.n)
                    if side.mean != prior:
                        raise MeanMismatch(
                            f"{kind} {index} averages to {side.mean}, not to the prior {prior}"
                        )


# ---------------------------------------------------------------------------
# ordinal statements
# ---------------------------------------------------------------------------


def _halvings(d: Fraction, b: Fraction) -> int:
    """The smallest k >= 0 with d / 2**k < b, for positive d and b.

    d / 2**k < b exactly when floor(d / b) < 2**k, and the least such k is
    the bit length of floor(d / b).
    """
    return (d // b).bit_length()


def _residual_point(prior: Belief, anchor: Belief, forbidden: set) -> tuple[Belief, Fraction]:
    """The largest weight lam = 2**-k, k >= 1, making (prior - lam*anchor)/(1-lam) a residual.

    The residual must be interior to the simplex and distinct from every
    forbidden point. It is interior exactly when lam is below prior/anchor
    in every state the anchor charges; that bound is at most 1, as both sum
    to one. With the held rows (p, s) of the prior and (a, t) of the anchor,
    the first k is the bit length of the largest floor(a_i*s / (p_i*t)), as
    in _halvings, and the residual is the row p*t*2**k - a*s made a belief
    once. Unless the anchor is the prior, the residual moves with lam, so
    each forbidden point costs at most one more halving. An anchor that is
    the prior and forbidden comes only from a degenerate hand-built cell,
    which raises MalformedData.
    """
    (p, s), (a, t) = prior._ints, anchor._ints
    first = max((x * s) // (m * t) for m, x in zip(p, a) if x).bit_length()
    for k in range(first, first + len(forbidden) + 1):
        row = [(m * t << k) - x * s for m, x in zip(p, a)]
        residual = _exact_belief(row, sum(row))
        if residual not in forbidden:
            return residual, Fraction(1, 2**k)
    raise MalformedData("every residual falls on a point of the cell; is the cell degenerate?")


def gen_affineness_equalities(sub: Subdivision, prior: Belief) -> list[OrderedExpectation]:
    """One equality per cell, sensitive exactly to affineness on that cell.

    The left side spreads weight lam evenly over the cell's extreme points
    and parks the rest on a residual point chosen so the mean is the prior;
    the right side puts the same lam on the extreme points' barycenter, a
    mean-preserving contraction of the left. Both sides are written down
    directly; OrderedExpectation checks that their means agree. Under a
    convex candidate the two sides agree exactly when the candidate is
    affine on the cell.
    """
    prior = _require_prior(prior, sub.n)
    statements = []
    for index, cell in enumerate(sub.cells):
        extremes = cell.geometry.vertices
        center = interior_point(cell.geometry)
        residual, lam = _residual_point(prior, center, set(extremes))
        share = lam / len(extremes)
        spread = PosteriorDistribution([(v, share) for v in extremes] + [(residual, 1 - lam)])
        collapsed = PosteriorDistribution([(center, lam), (residual, 1 - lam)])
        statements.append(
            OrderedExpectation(spread, collapsed, "eq", CellAffine(index))
        )
    return statements


def _line(origin: Belief, toward: Belief) -> tuple[list[int], list[int], int]:
    """(o, d, e): origin == o/e and toward - origin == d/e, the held rows over one scale.

    e is the lcm of the two beliefs' scales; _line_window reads the line as
    it is, and _on_line makes its points.
    """
    (a, s), (b, t) = origin._ints, toward._ints
    e = math.lcm(s, t)
    o = [x * (e // s) for x in a]
    return o, [y * (e // t) - x for x, y in zip(o, b)], e


def _on_line(line: tuple[list[int], list[int], int], t: Fraction) -> Belief:
    """The belief (o + t*d) / e of the line (o, d, e), a point of the simplex.

    With t = p/q, that is the row o*q + p*d over e*q, made a belief once.
    """
    o, d, e = line
    p, q = t.numerator, t.denominator
    return _exact_belief([x * q + p * y for x, y in zip(o, d)], e * q)


def _point_into_cell(
    shared: Polytope, start: Polytope, target: Polytope
) -> tuple[Belief, Belief, Belief, Fraction]:
    """Points on a line from cell `start` through the facet it shares with cell `target`.

    Returns (facet_center, x_i, x_j, t): the interior points of the shared
    facet and of start, and x_j = facet_center + t*(facet_center - x_i)
    inside target for the largest t = 2**-k. Raises MalformedData when the
    ray beyond facet_center does not enter the interior of target at once,
    as it does when `shared` is not a facet between the two cells.
    """
    facet_center = interior_point(shared)
    x_i = interior_point(start)
    o, d, e = _line(facet_center, x_i)
    line = o, [-v for v in d], e  # away from x_i
    window = _line_window(*line, target)
    if window is not None and window[1] > 0:
        t = Fraction(1, 2 ** _halvings(ONE, window[1]))
        if window[0] < t:
            return facet_center, x_i, _on_line(line, t), t
    raise MalformedData("the line across a shared facet misses the neighboring cell")


def gen_nonaffineness_inequalities(sub: Subdivision, prior: Belief) -> list[OrderedExpectation]:
    """One strict inequality per adjacent cell pair.

    A base distribution puts weight lam on an interior point of the shared
    facet and the rest on a residual fixing the mean (no residual when the
    facet point is the prior); the comparison distribution keeps the same
    residual and splits the facet mass onto interior points of the two
    cells, a mean-preserving spread of the base. Both sides are written down
    directly; OrderedExpectation checks that their means agree. A convex
    candidate strictly prefers the split exactly when it is not affine
    across the pair.
    """
    prior = _require_prior(prior, sub.n)
    statements = []
    for pair in sub.adjacency:
        facet_center, inner_i, inner_j, t = _point_into_cell(
            pair.shared, sub.cells[pair.i].geometry, sub.cells[pair.j].geometry
        )
        # inner_j = facet_center + t * (facet_center - inner_i) with t > 0,
        # so facet_center = w_i * inner_i + w_j * inner_j with positive weights
        w_i = t / (1 + t)
        w_j = 1 / (1 + t)
        if facet_center == prior:
            rest, lam = [], ONE
        else:
            residual, lam = _residual_point(prior, facet_center, {facet_center})
            rest = [(residual, 1 - lam)]
        base = PosteriorDistribution([(facet_center, lam)] + rest)
        spread = PosteriorDistribution(rest + [(inner_i, lam * w_i), (inner_j, lam * w_j)])
        statements.append(
            OrderedExpectation(spread, base, "gt", PairNonAffine(pair.i, pair.j))
        )
    return statements


def satisfies_ordinal(dp: DecisionProblem, data: IdentificationData) -> bool:
    """Whether the problem's value function satisfies every ordinal statement."""
    dp._require_states(data.prior.n)  # every side averages to the prior
    for statement in data.ordinal:
        gap = _gap(dp, statement.lhs._ints, statement.rhs._ints)
        if statement.relation == "eq" and gap != 0:
            return False
        if statement.relation == "gt" and gap <= 0:
            return False
    return True


# ---------------------------------------------------------------------------
# reading geometry back out of the data
# ---------------------------------------------------------------------------


def extract_subdivision(data: IdentificationData) -> Subdivision:
    """Rebuild the cell geometry encoded in the affineness equalities.

    Each cell's extreme points are the atoms that disappear between the two
    sides of its equality; the cell is their convex hull. Adjacency is then
    recomputed from the geometry, and the inequality tags are checked against
    it. Cells that overlap rather than meet face to face raise MalformedData
    naming a pair of them.
    """
    cell_tags = [s for s in data.ordinal if isinstance(s.tag, CellAffine)]
    indices = sorted(s.tag.cell for s in cell_tags)
    if indices != list(range(len(cell_tags))) or not cell_tags:
        raise MalformedData("need exactly one affineness equality per cell")
    cells: list[Cell] = []
    for statement in sorted(cell_tags, key=lambda s: s.tag.cell):
        right_support = set(statement.rhs.support)
        removed = [b for b in statement.lhs.support if b not in right_support]
        try:
            geometry = Polytope.from_vertices(removed)
        except ValueError as exc:
            raise MalformedData(f"cell {statement.tag.cell}: {exc}") from exc
        cells.append(Cell(statement.tag.cell, geometry))
    try:
        sub = Subdivision.from_cells(cells)
    except ValueError as exc:
        raise MalformedData(str(exc)) from exc
    pair_tags = {
        (min(s.tag.i, s.tag.j), max(s.tag.i, s.tag.j))
        for s in data.ordinal
        if isinstance(s.tag, PairNonAffine)
    }
    actual = {(p.i, p.j) for p in sub.adjacency}
    if pair_tags != actual:
        raise MalformedData(
            f"inequality tags {sorted(pair_tags)} do not match the adjacency {sorted(actual)}"
        )
    return sub


# ---------------------------------------------------------------------------
# utility differences
# ---------------------------------------------------------------------------


def _binary_difference(sub: Subdivision, prior: Belief, parent: int, child: int):
    """Two binary mean-prior distributions separating the pair, if possible.

    Works on a line prior + t*direction, oriented so that the parent cell's
    side has t > 0: one support point in each cell's interior on opposite
    sides of the prior, and a second comparison point strictly between the
    prior and the parent-side point. Feasible exactly when the prior can be
    written as a strict mixture of the two interiors. Returns the two
    distributions (lhs, rhs), or None when infeasible; the common point
    x_j is the anchor that reconstruct_value reads back.
    """
    pair = sub.pair(parent, child)
    if pair.halfspace.value(prior) != 0:
        target = interior_point(pair.shared)
    else:
        target = interior_point(sub.cells[child].geometry)
    o, d, e = _line(prior, target)
    interval_i = _line_window(o, d, e, sub.cells[parent].geometry)
    interval_j = _line_window(o, d, e, sub.cells[child].geometry)
    if interval_i is None or interval_j is None:
        return None
    (lo_i, hi_i), (lo_j, hi_j) = interval_i, interval_j
    if not hi_i > 0 > lo_j:
        # negating the direction and t reaches the same points
        d = [-v for v in d]
        (lo_i, hi_i), (lo_j, hi_j) = (-hi_i, -lo_i), (-hi_j, -lo_j)
        if not hi_i > 0 > lo_j:
            return None

    # the parent's window is (near_i, hi_i) and the child's is (lo_j, near_j)
    near_i = max(lo_i, ZERO)
    t_i = (near_i + hi_i) / 2
    start = Fraction(2) if near_i < 2 else hi_i
    # halve the distance from near_i until the point lies before t_i
    k = _halvings(start - near_i, t_i - near_i)
    t_hat = near_i + (start - near_i) / 2**k

    near_j = min(hi_j, ZERO)
    start_j = -t_hat if lo_j < -t_hat < near_j else near_j
    t_j = (start_j + lo_j) / 2

    p = t_i / (t_i - t_j)
    q = t_hat / (t_hat - t_j)
    x_i = _on_line((o, d, e), t_i)
    x_hat = _on_line((o, d, e), t_hat)
    x_j = _on_line((o, d, e), t_j)
    lhs = PosteriorDistribution([(x_j, p), (x_i, 1 - p)])
    rhs = PosteriorDistribution([(x_j, q), (x_hat, 1 - q)])
    return lhs, rhs


def _residual_difference(sub: Subdivision, prior: Belief, parent: int, child: int):
    """Mean-prior distributions for a pair the prior cannot sit between.

    Both sides share one residual atom that absorbs the mean constraint; the
    remaining atoms live near the shared facet. Because the two sides share
    their mean and the residual atom, the residual contribution cancels from
    the utility difference and the reconstruction formula is unchanged.
    Returns the two distributions (lhs, rhs); x_j is the anchor.
    """
    facet_center, x_i, x_j, t = _point_into_cell(
        sub.pair(parent, child).shared, sub.cells[parent].geometry, sub.cells[child].geometry
    )
    x_hat = _on_line(_line(facet_center, x_i), Fraction(1, 2))
    # facet_center = (x_j + t * x_i) / (1 + t), so x_hat = beta * x_i + (1 - beta) * x_j
    beta = (1 + 2 * t) / (2 * (1 + t))
    # with lam = 2 * eps, the lhs puts eps * (2 - beta) on x_j and eps * beta
    # on x_i, that is lam on their mixture `mixed`; with t = p/q that mixture
    # is proportional to (3q + 2p) * x_j + (q + 2p) * x_i, one row over the
    # two held rows. The residual takes the rest.
    (a, s), (b, u) = x_j._ints, x_i._ints
    p, q = t.numerator, t.denominator
    row = [(3 * q + 2 * p) * y * u + (q + 2 * p) * x * s for y, x in zip(a, b)]
    mixed = _exact_belief(row, sum(row))
    residual, lam = _residual_point(prior, mixed, {x_i, x_hat, x_j})
    eps = lam / 2
    lhs = PosteriorDistribution(
        [(x_j, eps * (2 - beta)), (x_i, eps * beta), (residual, 1 - lam)]
    )
    rhs = PosteriorDistribution([(x_j, eps), (x_hat, eps), (residual, 1 - lam)])
    return lhs, rhs


def gen_utility_differences(
    dp: DecisionProblem,
    prior: Belief,
    subdivision: Subdivision | None = None,
    include_all_edges: bool = False,
) -> list[UtilityDifference]:
    """One utility difference per spanning-tree edge of the adjacency graph.

    The tree is breadth-first from the lowest-index cell. Each difference
    compares two mean-prior distributions whose supports agree except that
    exactly one atom, interior to the child cell, carries different weights;
    the stated gap is the exact expected-value difference under dp. With
    include_all_edges=True every adjacent pair gets a difference, not just
    the tree, which makes the data redundant and cross-checkable.
    """
    prior = _require_prior(prior, dp.n)
    sub = subdivision if subdivision is not None else compute_subdivision(dp)
    edges = sub.spanning_tree()
    if include_all_edges:
        tree = {(min(i, j), max(i, j)) for i, j in edges}
        for pair in sub.adjacency:
            if (pair.i, pair.j) not in tree:
                edges.append((pair.i, pair.j))
    out = []
    for parent, child in edges:
        built = _binary_difference(sub, prior, parent, child)
        lhs, rhs = built if built is not None else _residual_difference(sub, prior, parent, child)
        gap = _gap(dp, lhs._ints, rhs._ints)
        if gap <= 0:
            raise InconsistentData(
                f"edge {(parent, child)}: the problem's utility difference is {gap}, "
                "not positive; the subdivision is not the problem's"
            )
        out.append(UtilityDifference(lhs, rhs, gap, (parent, child)))
    return out


def generate_identification(
    dp: DecisionProblem, prior: Belief, include_all_edges: bool = False
) -> IdentificationData:
    """The full identifying collection for a problem at an interior prior."""
    prior = _require_prior(prior, dp.n)
    sub = compute_subdivision(dp)
    ordinal = gen_affineness_equalities(sub, prior)
    ordinal += gen_nonaffineness_inequalities(sub, prior)
    cardinal = gen_utility_differences(
        dp, prior, subdivision=sub, include_all_edges=include_all_edges
    )
    return IdentificationData(prior, tuple(ordinal), tuple(cardinal), root_cell=0)


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------


def _anchor_of(difference: UtilityDifference):
    """The unique common-support atom whose weight differs between the sides."""
    lhs = dict(difference.lhs.atoms)
    rhs = dict(difference.rhs.atoms)
    differing = [
        key for key in lhs.keys() & rhs.keys() if lhs[key] != rhs[key]
    ]
    if len(differing) != 1:
        raise MalformedData(
            "a utility difference needs exactly one shared atom with differing weights"
        )
    key = differing[0]
    return key, lhs[key], rhs[key]


def reconstruct_value(data: IdentificationData) -> PiecewiseAffineFn:
    """Rebuild the value function from identifying data, up to an affine part.

    The subdivision comes from the equalities and the root cell's piece is
    normalized to zero. Each pair of distinct cells named by a difference is
    linked by the first difference naming it, and a breadth-first walk over
    those links from the root must reach every cell. Each tree edge's
    difference fixes the slope jump across its facet via
    gap = (p - q) * jump(anchor), which solves the child's piece. The jump
    vanishes on the facet, so with A the facet's linear form it is
    A * gap / ((p - q) * A(anchor)); negating or rescaling A cancels, so the
    pair's halfspace serves whichever cell it faces. Every other difference
    is a check: its gap must equal information._gap under the problem whose
    actions are the pieces, packed once per call.
    """
    sub = extract_subdivision(data)
    t = len(sub.cells)
    root = data.root_cell
    if not isinstance(root, int) or isinstance(root, bool):
        raise MalformedData(f"root cell {root!r} is not a cell index")
    if not 0 <= root < t:
        raise MalformedData(f"root cell {root} is out of range")
    first: dict[tuple[int, int], int] = {}
    for index, diff in enumerate(data.cardinal):
        if not all(0 <= end < t for end in diff.edge):
            raise MalformedData(f"difference {index}: edge {diff.edge} names a cell out of range")
        i, j = diff.edge
        if i != j:
            first.setdefault((min(i, j), max(i, j)), index)
    tree = _breadth_first(first, root)
    if len(tree) != t - 1:
        raise MalformedData("utility differences do not span the cell adjacency graph")
    pieces = {root: AffineFn.zero(sub.n)}
    for parent, child in tree:
        diff = data.cardinal[first[min(parent, child), max(parent, child)]]
        i, j = diff.edge
        anchor, p, q = _anchor_of(diff)
        if not sub.cells[j].geometry.contains(anchor):
            raise MalformedData(
                f"difference for edge {diff.edge}: its anchor atom is not in cell {j}"
            )
        pair = sub.pair(i, j)
        if pair is None:
            raise MalformedData(f"edge {diff.edge} does not join adjacent cells")
        denominator = (p - q) * pair.halfspace.value(anchor)
        if denominator == 0:
            raise SingularSolve(f"edge {diff.edge}: degenerate weights or anchor on the facet")
        jump = AffineFn.from_halfspace(pair.halfspace).scaled(diff.gap / denominator)
        pieces[child] = pieces[parent] + jump if parent == i else pieces[parent] - jump

    fn = PiecewiseAffineFn(sub, tuple(pieces[cell] for cell in range(t)))
    problem = make_problem([piece.coeffs for piece in fn.pieces])
    solved = {first[min(edge), max(edge)] for edge in tree}
    for index, diff in enumerate(data.cardinal):
        if index in solved:
            continue
        predicted = _gap(problem, diff.lhs._ints, diff.rhs._ints)
        if predicted != diff.gap:
            raise InconsistentData(
                f"edge {diff.edge}: stated gap {diff.gap} but the reconstruction "
                f"implies {predicted}"
            )
    return fn
