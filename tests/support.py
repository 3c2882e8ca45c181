"""Shared fixtures and random-instance generators for the test suite."""

import math
from fractions import Fraction
from itertools import combinations
from random import Random

from hypothesis import Phase

from infoval import linprog
from infoval.decision import (
    AdjacentPair,
    Cell,
    DecisionProblem,
    Subdivision,
    evaluate_value,
    make_problem,
)
from infoval.errors import EmptyInput, MeanMismatch
from infoval.geometry import (
    ONE,
    ZERO,
    Belief,
    Coords,
    Halfspace,
    Polytope,
    _dedupe_canonical,
    _frac,
    _integer_row,
    _kernel_ray,
    _require_interior,
    _require_prior,
    barycenter,
    dimension,
    hull_halfspaces,
    vertices_of,
)
from infoval.identification import (
    CellAffine,
    OrderedExpectation,
    PairNonAffine,
    _point_into_cell,
    _residual_point,
)
from infoval.information import Experiment, Garbling, Order, PosteriorDistribution, bayes_split


def two_peak_problem() -> DecisionProblem:
    """Two states; bets on each state plus a flat action that is never strict."""
    return make_problem([[1, 0], [0, 1], ["2/5", "2/5"]])


def safe_or_bet_problem() -> DecisionProblem:
    """Two states; a zero action against a bet paying 2*x(t2) - 1."""
    return make_problem([[0, 0], [-1, 1]])


def guess_the_state_problem() -> DecisionProblem:
    """Three states, matching-pennies-like: guess which state holds."""
    return make_problem([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def halvings_by_search(d: Fraction, b: Fraction) -> int:
    """Reference for the closed-form halving count: halve d until it is below b."""
    k = 0
    while d >= b:
        d = d / 2
        k += 1
    return k


def grid_beliefs(n: int, steps: int) -> list[Belief]:
    """All rational grid points of the simplex with the given resolution."""
    out = []

    def rec(prefix, remaining, left):
        if remaining == 1:
            out.append(Belief(tuple(prefix + [Fraction(left, steps)])))
            return
        for k in range(left + 1):
            rec(prefix + [Fraction(k, steps)], remaining - 1, left - k)

    rec([], n, steps)
    return out


REPEATED_ROWS = 100

# Hypothesis phases for a test drawn from an integer seed: a seed has no
# structure to shrink, and each shrink try builds a fresh random problem.
NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)


def random_problem(rng: Random, n: int | None = None, max_actions: int = 8,
                   max_denominator: int = 20) -> DecisionProblem:
    """k distinct random payoff rows; ValueError if the rng keeps repeating rows.

    At most k + REPEATED_ROWS rows are drawn, so an rng that repeats itself
    fails instead of looping forever.
    """
    if n is None:
        n = rng.choice([2, 3, 4])
    k = rng.randint(2, max_actions)
    rows: list[tuple[Fraction, ...]] = []
    seen = set()
    for _ in range(k + REPEATED_ROWS):
        if len(rows) == k:
            break
        row = tuple(
            Fraction(rng.randint(-40, 40), rng.randint(1, max_denominator))
            for _ in range(n)
        )
        if row in seen:
            continue
        seen.add(row)
        rows.append(row)
    if len(rows) < k:
        raise ValueError(f"the rng gave {len(rows)} distinct rows in {k + REPEATED_ROWS} draws, not {k}")
    return make_problem(rows)


def random_interior_prior(rng: Random, n: int) -> Belief:
    weights = [rng.randint(1, 12) for _ in range(n)]
    total = sum(weights)
    return Belief(tuple(Fraction(w, total) for w in weights))


def random_experiment(rng: Random, n: int, signals: int | None = None) -> Experiment:
    if signals is None:
        signals = rng.randint(2, 4)
    rows = []
    for _ in range(n):
        weights = [rng.randint(0, 6) for _ in range(signals)]
        if sum(weights) == 0:
            weights[rng.randrange(signals)] = 1
        total = sum(weights)
        rows.append(tuple(Fraction(w, total) for w in weights))
    return Experiment(tuple(f"s{i+1}" for i in range(signals)), tuple(rows))


def random_garbling(rng: Random, rows: int, cols: int | None = None) -> Garbling:
    if cols is None:
        cols = rng.randint(1, 4)
    out = []
    for _ in range(rows):
        weights = [rng.randint(0, 5) for _ in range(cols)]
        if sum(weights) == 0:
            weights[rng.randrange(cols)] = 1
        total = sum(weights)
        out.append(tuple(Fraction(w, total) for w in weights))
    return Garbling(tuple(out))


# ---------------------------------------------------------------------------
# valuation through posteriors: the path value_of_experiment, expected_value
# and rank took before one integer product over the joint columns replaced
# it, kept as a differential oracle
# ---------------------------------------------------------------------------


def expected_value_by_posteriors(dp: DecisionProblem, dist: PosteriorDistribution) -> Fraction:
    """Expectation of the problem's value function under the distribution."""
    return sum(prob * evaluate_value(dp, b) for b, prob in dist.atoms)


def value_by_posteriors(dp: DecisionProblem, prior: Belief, experiment: Experiment) -> Fraction:
    """Expected gain from observing the experiment before acting.

    Normalized so an uninformative experiment is worth exactly zero.
    """
    _require_interior(prior)
    return expected_value_by_posteriors(dp, bayes_split(prior, experiment)) - evaluate_value(dp, prior)


def rank_by_posteriors(dp: DecisionProblem, prior: Belief, first: Experiment, second: Experiment) -> Order:
    """Exact comparison of two experiments' value at the prior."""
    w1 = value_by_posteriors(dp, prior, first)
    w2 = value_by_posteriors(dp, prior, second)
    if w1 > w2:
        return Order.BETTER
    if w1 < w2:
        return Order.WORSE
    return Order.EQUAL


# ---------------------------------------------------------------------------
# collapse and split: the mean-preserving contraction and spread the ordinal
# generators derived their second side with before they wrote both sides
# directly, kept with the generators built on them as a differential oracle
# ---------------------------------------------------------------------------


class UnequalWeights(ValueError):
    """Collapsing atoms to their barycenter needs equal atom probabilities."""


def collapse_to_barycenter(dist: PosteriorDistribution, indices) -> PosteriorDistribution:
    """Replace equally weighted atoms by a single atom at their barycenter.

    This is a mean-preserving contraction. The equal-weights precondition
    makes the collapsed mass's conditional mean the plain barycenter.
    """
    chosen = set(indices)
    if not chosen:
        return dist
    picked = [dist.atoms[i] for i in sorted(chosen)]
    weights = {p for _, p in picked}
    if len(weights) > 1:
        raise UnequalWeights(
            "collapse needs equal probabilities on the selected atoms"
        )
    center = barycenter([b for b, _ in picked])
    total = sum(p for _, p in picked)
    rest = [atom for i, atom in enumerate(dist.atoms) if i not in chosen]
    return PosteriorDistribution(rest + [(center, total)])


def split_atom(dist: PosteriorDistribution, index: int, first, second) -> PosteriorDistribution:
    """Replace one atom by two whose weighted average reproduces it.

    first and second are (belief, weight) pairs; the weights must be positive,
    sum to the split atom's probability, and average back to its belief. The
    result is a mean-preserving spread of the input.
    """
    belief_point, prob = dist.atoms[index]
    (x1, w1), (x2, w2) = first, second
    w1, w2 = _frac(w1), _frac(w2)
    if w1 <= 0 or w2 <= 0:
        raise ValueError("split weights must be positive")
    if w1 + w2 != prob:
        raise MeanMismatch("split weights must sum to the atom's probability")
    mixed = tuple(
        w1 * a + w2 * b for a, b in zip(x1.coords, x2.coords)
    )
    target = tuple(prob * c for c in belief_point.coords)
    if mixed != target:
        raise MeanMismatch("split targets do not average back to the original atom")
    rest = [atom for i, atom in enumerate(dist.atoms) if i != index]
    return PosteriorDistribution(rest + [(x1, w1), (x2, w2)])


def affineness_by_collapse(sub: Subdivision, prior: Belief) -> list[OrderedExpectation]:
    """gen_affineness_equalities with the right side collapsed out of the left."""
    _require_prior(prior, sub.n)
    statements = []
    for index, cell in enumerate(sub.cells):
        extremes = list(cell.geometry.vertices)
        center = barycenter(extremes)
        forbidden = {v.coords for v in extremes}
        residual, lam = _residual_point(prior, center, forbidden)
        k = len(extremes)
        spread = PosteriorDistribution([(v, lam / k) for v in extremes] + [(residual, 1 - lam)])
        extreme_indices = [i for i, (b, _) in enumerate(spread.atoms) if b.coords in forbidden]
        collapsed = collapse_to_barycenter(spread, extreme_indices)
        statements.append(OrderedExpectation(spread, collapsed, "eq", CellAffine(index)))
    return statements


def nonaffineness_by_split(sub: Subdivision, prior: Belief) -> list[OrderedExpectation]:
    """gen_nonaffineness_inequalities with the left side split out of the right."""
    _require_prior(prior, sub.n)
    statements = []
    for pair in sub.adjacency:
        facet_center, inner_i, inner_j, t = _point_into_cell(
            pair.shared, sub.cells[pair.i].geometry, sub.cells[pair.j].geometry
        )
        w_i = t / (1 + t)
        w_j = 1 / (1 + t)
        if facet_center == prior:
            base = PosteriorDistribution([(facet_center, ONE)])
            lam = ONE
        else:
            residual, lam = _residual_point(prior, facet_center, {facet_center.coords})
            base = PosteriorDistribution([(facet_center, lam), (residual, 1 - lam)])
        at = next(i for i, (b, _) in enumerate(base.atoms) if b == facet_center)
        spread = split_atom(base, at, (inner_i, lam * w_i), (inner_j, lam * w_j))
        statements.append(OrderedExpectation(spread, base, "gt", PairNonAffine(pair.i, pair.j)))
    return statements


# ---------------------------------------------------------------------------
# brute-force polyhedra: the enumeration the double-description core replaced,
# kept as a differential oracle for vertices_of, hull_halfspaces, the rank and
# the kernel line, with the Fraction Gauss-Jordan elimination it used; and the
# hull-then-re-enumerate path Polytope.from_vertices took before one double
# description also told which points are vertices
# ---------------------------------------------------------------------------


def _int_row(normal: Coords, offset: Fraction) -> tuple[tuple[int, ...], int]:
    scale = math.lcm(offset.denominator, *(a.denominator for a in normal))
    return tuple(int(a * scale) for a in normal), int(offset * scale)


def _solve_int_square(rows: list[list[int]]) -> list[Fraction] | None:
    """Solve an n x (n+1) augmented integer system exactly; None if singular."""
    n = len(rows)
    a = [row[:] for row in rows]
    prev = 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if a[r][k] != 0), None)
        if pivot is None:
            return None
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
        akk = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i = a[i]
            row_k = a[k]
            for j in range(k + 1, n + 1):
                row_i[j] = (akk * row_i[j] - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = akk
    xs: list[Fraction] = [ZERO] * n
    for i in range(n - 1, -1, -1):
        s = Fraction(a[i][n])
        for j in range(i + 1, n):
            s -= a[i][j] * xs[j]
        xs[i] = s / a[i][i]
    return xs


def rank_by_fractions(rows: list[Coords]) -> int:
    """Exact rank of a small rational matrix."""
    if not rows:
        return 0
    work: list[list[Fraction]] = [[_frac(v) for v in row] for row in rows]
    m, n = len(work), len(work[0])
    rank = 0
    col = 0
    while rank < m and col < n:
        pivot = next((r for r in range(rank, m) if work[r][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        prow = work[rank]
        pval = prow[col]
        for r in range(rank + 1, m):
            factor = work[r][col] / pval
            if factor:
                work[r] = [x - factor * y for x, y in zip(work[r], prow)]
        rank += 1
        col += 1
    return rank


def _unique_kernel_vector(rows: list[Coords], n: int) -> Coords | None:
    """The kernel vector of a rational row system whose nullity is exactly 1.

    Returns None when the nullity differs from 1 (rows rank-deficient or of
    full column rank). The vector is scaled to primitive integers with its
    first nonzero entry positive.
    """
    work: list[list[Fraction]] = [[_frac(v) for v in row] for row in rows]
    m = len(work)
    pivots: list[int] = []
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, m) if work[r][col] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        prow = work[rank]
        pval = prow[col]
        work[rank] = [x / pval for x in prow]
        prow = work[rank]
        for r in range(m):
            if r != rank and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], prow)]
        pivots.append(col)
        rank += 1
        if rank == m:
            break
    if n - rank != 1:
        return None
    free = next(c for c in range(n) if c not in pivots)
    vec = [ZERO] * n
    vec[free] = ONE
    for r, col in enumerate(pivots):
        vec[col] = -work[r][free]
    ints = _integer_row(vec)
    g = math.gcd(*ints)
    ints = [v // g for v in ints]
    lead = next(v for v in ints if v != 0)
    if lead < 0:
        ints = [-v for v in ints]
    return tuple(Fraction(v) for v in ints)


def vertices_by_brute_force(halfspaces, n: int) -> list[Belief]:
    """All extreme points of the halfspace intersection cut with the simplex.

    Brute force: every (n-1)-subset of constraints (the given halfspaces plus
    the n simplex facets) is made tight together with sum(x) = 1, the square
    system is solved exactly, and feasible solutions are kept. Deduplicated
    and sorted lexicographically; the empty list means an empty intersection.
    """
    hs = _dedupe_canonical(halfspaces)
    rows: list[tuple[tuple[int, ...], int]] = [_int_row(h.normal, h.offset) for h in hs]
    for theta in range(n):
        unit = tuple(1 if i == theta else 0 for i in range(n))
        rows.append((unit, 0))
    sum_row = [1] * n + [1]

    found: dict[Coords, Belief] = {}
    for subset in combinations(rows, n - 1):
        system = [list(a) + [c] for a, c in subset]
        system.append(sum_row[:])
        xs = _solve_int_square(system)
        if xs is None:
            continue
        if any(x < 0 for x in xs):
            continue
        coords = tuple(xs)
        if coords in found:
            continue
        if all(h.value(coords) >= 0 for h in hs):
            found[coords] = Belief(coords)
    return sorted(found.values())


def hull_by_brute_force(points) -> list[Halfspace]:
    """Facet halfspaces of the convex hull of a full-dimensional point set.

    Brute force over (n-1)-subsets: each affinely independent subset spans a
    candidate hyperplane (computed as the one-dimensional kernel of the
    difference rows plus the sum-gauge row); it is a facet when every input
    point sits weakly on one side. Assumes the hull is full-dimensional.
    """
    pts = sorted(set(points))
    if not pts:
        raise EmptyInput("hull of an empty point set is undefined")
    n = pts[0].n
    if dimension(pts) != n - 1:
        raise ValueError("hull_halfspaces expects a full-dimensional point set")
    facets: dict[tuple, Halfspace] = {}
    for subset in combinations(pts, n - 1):
        base = subset[0].coords
        rows: list[Coords] = [
            tuple(c - b for c, b in zip(p.coords, base)) for p in subset[1:]
        ]
        rows.append(tuple(ONE for _ in range(n)))
        w = _unique_kernel_vector(rows, n)
        if w is None:
            continue
        cut = sum(a * b for a, b in zip(w, base))
        signs = [sum(a * c for a, c in zip(w, p.coords)) - cut for p in pts]
        if all(s >= 0 for s in signs):
            h = Halfspace(w, cut).canonical()
        elif all(s <= 0 for s in signs):
            h = Halfspace(tuple(-a for a in w), -cut).canonical()
        else:
            continue
        facets[(h.normal, h.offset)] = h
    return sorted(facets.values(), key=lambda h: (h.normal, h.offset))


def polytope_by_reenumeration(points) -> Polytope:
    """Polytope.from_vertices by two double descriptions, as it was built before.

    The convex-hull facets are recomputed exactly, then the vertex set is
    re-enumerated from them; a mismatch means the input was not actually
    the vertex set of its own hull, which is rejected.
    """
    points = sorted(set(points))
    if not points:
        raise EmptyInput("cannot build a polytope from no points")
    n = points[0].n
    hs = hull_halfspaces(points)
    verts = vertices_of(hs, n)
    if verts != points:
        raise ValueError("points are not the vertex set of their convex hull")
    return Polytope(tuple(hs), tuple(verts), n)


# ---------------------------------------------------------------------------
# LP dominance: the forward path the lifted double description replaced, kept
# as a differential oracle for undominated_actions and compute_subdivision
# ---------------------------------------------------------------------------


def _strict_margin(rows: list[Coords], index: int) -> Fraction | None:
    """Best worst-case advantage of rows[index] over its rivals on the simplex.

    Solves max_x min_b (rows[index] - rows[b]) . x over beliefs x by exact LP.
    None means the row has no rivals (vacuously undominated).
    """
    rivals = [row for k, row in enumerate(rows) if k != index]
    if not rivals:
        return None
    n = len(rows[index])
    # variables: x (n, >= 0), then margin split into positive and negative parts
    objective = [ZERO] * n + [ONE, -ONE]
    eq = [([ONE] * n + [ZERO, ZERO], ONE)]
    ge = []
    for rival in rivals:
        diff = [a - b for a, b in zip(rows[index], rival)]
        ge.append((diff + [-ONE, ONE], ZERO))
    value, _ = linprog.maximize(objective, eq=eq, ge=ge)
    return value


def undominated_by_lp(dp: DecisionProblem) -> frozenset[int]:
    """Actions whose best worst-case margin over every rival is positive, by exact LP."""
    rows = list(dp.utility)
    out = set()
    for idx in range(len(rows)):
        margin = _strict_margin(rows, idx)
        if margin is None or margin > 0:
            out.add(idx)
    return frozenset(out)


# ---------------------------------------------------------------------------
# pairwise facet scan: the adjacency test Subdivision.from_cells ran before it
# shared geometry.adjacent_facets with compute_subdivision, kept as an oracle
# ---------------------------------------------------------------------------


def facet_between_pair(p1: Polytope, p2: Polytope):
    """Shared facet of two adjacent full-dimensional cells, with orientation.

    Returns (shared, h) where `shared` is the common face and `h` the facet
    halfspace holding on p2 with equality on the face, or None when the cells
    do not meet in dimension n-2. Swapping the arguments flips h.

    Both inputs must be full-dimensional cells that meet face-to-face (as the
    cells of one subdivision always do): the shared face is then spanned by
    the common vertices. The facet's linear form g is the kernel line of the
    common vertices' coordinate rows, which exists exactly when they span a
    face of dimension n-2; on the simplex, g . x >= 0 is the halfspace. Its
    signs on p2's vertices orient g, and mixed signs, a hyperplane that does
    not support p2, raise ValueError.
    """
    if any(p.is_empty() or dimension(p.vertices) != p.n - 1 for p in (p1, p2)):
        raise ValueError("facet_between expects full-dimensional cells")
    n = p1.n
    common = sorted(set(p1.vertices) & set(p2.vertices))
    w = _kernel_ray([p.coords for p in common], n)
    if w is None:
        return None
    sides = [sum(a * c for a, c in zip(w, v.coords)) for v in p2.vertices]
    if min(sides) < 0 < max(sides):
        raise ValueError("shared hyperplane does not support the second cell")
    if max(sides) <= 0:
        w = [-a for a in w]
    h = Halfspace(tuple(w), ZERO).canonical()
    shared = Polytope(tuple(dict.fromkeys(p1.halfspaces + p2.halfspaces)), tuple(common), n)
    return shared, h


def subdivision_by_pairs(cells) -> Subdivision:
    """The subdivision of the given cells, with facet_between_pair run on every pair."""
    cells = tuple(cells)
    adjacency = []
    for i in range(len(cells)):
        for j in range(i + 1, len(cells)):
            found = facet_between_pair(cells[i].geometry, cells[j].geometry)
            if found is not None:
                adjacency.append(AdjacentPair(i, j, *found))
    return Subdivision(cells, tuple(adjacency))


def subdivision_by_lp(dp: DecisionProblem) -> Subdivision:
    """LP winners, one halfspace-intersection cell each, adjacency by the pairwise scan."""
    winners = sorted(undominated_by_lp(dp))
    cells = []
    for a in winners:
        halfspaces = [
            Halfspace(tuple(u - v for u, v in zip(dp.utility[a], dp.utility[b])), ZERO)
            for b in winners
            if b != a
        ]
        cells.append(Cell(a, Polytope.from_halfspaces(halfspaces, dp.n)))
    return subdivision_by_pairs(cells)
