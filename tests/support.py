"""Shared fixtures and random-instance generators for the test suite."""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import itemgetter, mul
from random import Random

from hypothesis import Phase
from hypothesis import strategies as st

from infoval import linprog
from infoval.decision import (
    AdjacentPair,
    Cell,
    DecisionProblem,
    Subdivision,
    evaluate_value,
    make_problem,
)
from infoval.errors import (
    EmptyInput,
    InconsistentData,
    MalformedData,
    MeanMismatch,
    ShapeMismatch,
)
from infoval.geometry import (
    ONE,
    ZERO,
    Belief,
    Coords,
    Halfspace,
    Polytope,
    _belief,
    _coords_of,
    _exact_belief,
    _extreme_rays,
    _frac,
    _hull,
    _integer_row,
    _kernel_ray,
    _rank,
    _require_prior,
    _scaled,
    _scaled_points,
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
from infoval.information import (
    Experiment,
    Order,
    PosteriorDistribution,
    bayes_split,
)


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


def residual_point_by_fractions(prior: Belief, anchor: Belief, forbidden: set):
    """_residual_point with the bound and each residual coordinate in Fractions.

    The bound is min prior/anchor over the states the anchor charges, its
    halving count comes from the search, and each residual is
    prior - lam*anchor normalized.
    """
    bound = min(m / a for m, a in zip(prior.coords, anchor.coords) if a > 0)
    first = halvings_by_search(ONE, bound)
    for k in range(first, first + len(forbidden) + 1):
        lam = Fraction(1, 2**k)
        column = [m - lam * a for m, a in zip(prior.coords, anchor.coords)]
        residual = normalized_by_fractions(column)
        if residual not in forbidden:
            return residual, lam
    raise MalformedData("every residual falls on a point of the cell; is the cell degenerate?")


def residual_difference_by_fractions(sub: Subdivision, prior: Belief, parent: int, child: int):
    """_residual_difference with x_hat a barycenter and the mixture point in Fraction coordinates.

    The mixture (2 - beta) * x_j + beta * x_i is formed coordinate by
    coordinate and normalized, and the residual comes from the Fraction
    residual search.
    """
    facet_center, x_i, x_j, t = _point_into_cell(
        sub.pair(parent, child).shared, sub.cells[parent].geometry, sub.cells[child].geometry
    )
    x_hat = barycenter_by_fractions([x_i, facet_center])
    beta = (1 + 2 * t) / (2 * (1 + t))
    column = [(2 - beta) * j + beta * i for j, i in zip(x_j.coords, x_i.coords)]
    mixed = normalized_by_fractions(column)
    residual, lam = residual_point_by_fractions(prior, mixed, {x_i, x_hat, x_j})
    eps = lam / 2
    lhs = PosteriorDistribution([(x_j, eps * (2 - beta)), (x_i, eps * beta), (residual, 1 - lam)])
    rhs = PosteriorDistribution([(x_j, eps), (x_hat, eps), (residual, 1 - lam)])
    return lhs, rhs


def point_on_line(origin: Belief, direction: Coords, t: Fraction) -> Coords:
    """Raw coordinates of origin + t * direction (direction sums to zero), in Fractions."""
    return tuple(o + t * d for o, d in zip(origin.coords, direction))


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


def fractions(low: int, high: int, max_denominator: int):
    """Fractions a/b, low <= a <= high and 0 < b <= max_denominator; quicker than st.fractions."""
    return st.builds(Fraction, st.integers(low, high), st.integers(1, max_denominator))


@st.composite
def mixed_beliefs(draw, n: int) -> Belief:
    """Beliefs over n states from nonnegative rational weights, so their denominators differ."""
    weights = fractions(0, 45, 9)
    drawn = draw(st.lists(weights, min_size=n, max_size=n).filter(any))
    return Belief(tuple(w / sum(drawn) for w in drawn))


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


def random_garbling(rng: Random, rows: int, cols: int | None = None) -> tuple[Coords, ...]:
    """A random row-stochastic matrix with the given number of rows: a garbling for garble."""
    if cols is None:
        cols = rng.randint(1, 4)
    out = []
    for _ in range(rows):
        weights = [rng.randint(0, 5) for _ in range(cols)]
        if sum(weights) == 0:
            weights[rng.randrange(cols)] = 1
        total = sum(weights)
        out.append(tuple(Fraction(w, total) for w in weights))
    return tuple(out)


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
    _require_prior(prior)
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
# the gap between two sets of columns as information._gap formed it before
# it packed the payoff rows, and as Fraction sums
# ---------------------------------------------------------------------------


def gap_by_dot_products(rows: tuple[list[list[int]], int], left, right) -> Fraction:
    """sum_c max_a u_a . c over the left columns, minus the same sum over the right.

    rows is a utility matrix over one scale, and left and right are (integer
    columns, scale) pairs: one integer dot product per action and column,
    the two sides brought to the lcm of their scales and divided once.
    """
    (utility, row_scale), (left, left_scale), (right, right_scale) = rows, left, right
    scale = math.lcm(left_scale, right_scale)

    def total(columns) -> int:
        return sum(max(sum(map(mul, row, c)) for row in utility) for c in columns)

    gap = total(left) * (scale // left_scale) - total(right) * (scale // right_scale)
    return Fraction(gap, row_scale * scale)


def gap_by_fractions(utility, left, right) -> Fraction:
    """sum_c max_a u_a . c over the left Fraction columns, minus the same sum over the right."""

    def total(columns):
        return sum(max(sum(map(mul, row, c)) for row in utility) for c in columns)

    return total(left) - total(right)


# ---------------------------------------------------------------------------
# the Fraction products and checks that integer rows over one scale replaced
# on the valuation path: the joint and atom columns, the likelihoods of the
# recovered experiment and the row-stochastic check; and the distribution's
# constructor and atom columns from before it held the columns it forms
# ---------------------------------------------------------------------------


def columns_by_fractions(prior: Belief, experiment: Experiment) -> list[Coords]:
    """One joint column pi(theta) P(s | theta) per signal, as Fraction products."""
    if experiment.n != prior.n:
        raise ShapeMismatch("experiment rows must match the prior's states")
    weighted = [tuple(p * v for v in row) for p, row in zip(prior.coords, experiment.likelihood)]
    return list(zip(*weighted))


def atom_columns_by_fractions(dist: PosteriorDistribution) -> list[Coords]:
    """One column p_s x_s per atom, as Fraction products."""
    return [tuple(prob * c for c in b.coords) for b, prob in dist.atoms]


def atom_columns_by_scaling(dist: PosteriorDistribution) -> tuple[list, int]:
    """The atom columns as they were formed on every call, before a distribution held them."""
    (probs,), prob_scale = _scaled((tuple(prob for _, prob in dist.atoms),))
    rows, scale = _scaled_points([b for b, _ in dist.atoms])
    return [[p * v for v in row] for p, row in zip(probs, rows)], prob_scale * scale


def distribution_by_pairwise_sort(atoms) -> PosteriorDistribution:
    """PosteriorDistribution's constructor as it was, holding its fields only, as a clone does.

    The atoms are sorted by Belief.__lt__, each probability is added to a
    Fraction zero, and the columns are formed by scaling the atoms.
    """
    self = object.__new__(PosteriorDistribution)
    atoms = [(_belief(b), prob) for b, prob in atoms]
    if len({b.n for b, _ in atoms}) > 1:
        raise ShapeMismatch("every atom's belief must be over the same states")
    merged: dict[Belief, Fraction] = {}
    for belief_point, prob in atoms:
        prob = _frac(prob)
        if prob.numerator < 0:
            raise ValueError("atom probabilities must be nonnegative")
        if not prob.numerator:
            continue
        merged[belief_point] = merged.get(belief_point, ZERO) + prob
    if not merged:
        raise ValueError("a posterior distribution needs positive mass")
    # the beliefs are distinct, so sorting by them alone is the order of the atoms
    object.__setattr__(self, "atoms", tuple(sorted(merged.items(), key=itemgetter(0))))
    columns, scale = atom_columns_by_scaling(self)
    totals = [sum(c) for c in zip(*columns)]
    if sum(totals) != scale:
        raise ValueError(f"atom probabilities must sum to 1, got {sum(merged.values())}")
    object.__setattr__(self, "mean", _exact_belief(totals, scale))
    return self


def experiment_of_by_fractions(prior: Belief, dist: PosteriorDistribution) -> Experiment:
    """experiment_of with each likelihood entry a Fraction column entry divided by a prior one."""
    prior = _require_prior(prior)
    if dist.mean != prior:
        raise MeanMismatch(
            f"distribution mean {dist.mean} does not match the prior {prior}"
        )
    columns = atom_columns_by_fractions(dist)
    rows = tuple(tuple(c / m for c in row) for m, row in zip(prior.coords, zip(*columns)))
    return Experiment(tuple(f"s{i+1}" for i in range(len(columns))), rows)


def stochastic_rows_by_fractions(matrix, width: int | None = None) -> tuple[Coords, ...]:
    """The row-stochastic check with each row's sign and sum read in Fractions."""
    rows = []
    for k, values in enumerate(matrix):
        row = tuple(_frac(v) for v in values)
        if width is None:
            width = len(row)
        if len(row) != width:
            raise ValueError(f"row {k} has length {len(row)} where {width} is expected")
        if any(v < 0 for v in row):
            raise ValueError(f"row {k} has a negative entry")
        if sum(row) != 1:
            raise ValueError(f"row {k} sums to {sum(row)}, not 1")
        rows.append(row)
    if not rows:
        raise ValueError("a row-stochastic matrix needs at least one row")
    return tuple(rows)


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
        forbidden = set(extremes)
        residual, lam = _residual_point(prior, center, forbidden)
        k = len(extremes)
        spread = PosteriorDistribution([(v, lam / k) for v in extremes] + [(residual, 1 - lam)])
        extreme_indices = [i for i, (b, _) in enumerate(spread.atoms) if b in forbidden]
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
            residual, lam = _residual_point(prior, facet_center, {facet_center})
            base = PosteriorDistribution([(facet_center, lam), (residual, 1 - lam)])
        at = next(i for i, (b, _) in enumerate(base.atoms) if b == facet_center)
        spread = split_atom(base, at, (inner_i, lam * w_i), (inner_j, lam * w_j))
        statements.append(OrderedExpectation(spread, base, "gt", PairNonAffine(pair.i, pair.j)))
    return statements


# ---------------------------------------------------------------------------
# the Fraction kernels that integer ones replaced: Halfspace.canonical's shift,
# lcm and gcd, and PiecewiseAffineFn's dominance loop
# ---------------------------------------------------------------------------


def canonical_by_fractions(h: Halfspace) -> Halfspace:
    """Halfspace.canonical in Fractions: shift the least normal entry to 0, then scale."""
    low = min(h.normal)
    shifted = tuple(a - low for a in h.normal)
    offset = h.offset - low
    scale = math.lcm(*(a.denominator for a in shifted))
    ints = [int(a * scale) for a in shifted]
    g = math.gcd(*ints)
    factor = Fraction(scale, g)
    return Halfspace(tuple(a * factor for a in shifted), offset * factor)


def check_dominance_by_fractions(sub: Subdivision, pieces) -> None:
    """PiecewiseAffineFn's check in Fractions: each piece at each vertex of each cell.

    Raises what construction raises: ShapeMismatch from the first piece of
    another length at the first vertex, then InconsistentData for the first
    cell, its first vertex and the lowest piece rising above the cell's own.
    """
    values: dict[Belief, list[Fraction]] = {}
    for i, cell in enumerate(sub.cells):
        for v in cell.geometry.vertices:
            if v not in values:
                values[v] = [piece(v) for piece in pieces]
            for k, value in enumerate(values[v]):
                if value > values[v][i]:
                    raise InconsistentData(f"piece {k} rises above piece {i} on cell {i}")


# ---------------------------------------------------------------------------
# the Fraction sums that integer ones over one denominator (geometry._scaled)
# replaced: barycenter, the posterior mean and the window of a line in a
# polytope
# ---------------------------------------------------------------------------


def barycenter_by_fractions(points) -> Belief:
    """barycenter as one chain of Fraction additions per coordinate."""
    pts = list(points)
    if not pts:
        raise EmptyInput("barycenter of an empty point set is undefined")
    n = len(_coords_of(pts[0]))
    columns = zip(*(_coords_of(p, n) for p in pts))
    return Belief(tuple(Fraction(sum(column), len(pts)) for column in columns))


def held_pair_by_scaling(point: Belief) -> tuple[tuple[int, ...], int]:
    """The (row, scale) a Belief holds, formed by _scaled of its coordinates, as on each use before."""
    (row,), scale = _scaled((point.coords,))
    return tuple(row), scale


def normalized_by_fractions(column) -> Belief:
    """_normalized as Fraction(entry, sum) per coordinate, checked by Belief's constructor."""
    row = _integer_row(column)
    total = sum(row)
    return Belief(tuple(Fraction(c, total) for c in row))


def dimension_by_differences(points) -> int:
    """Affine dimension of a point set as the rank of the differences p - p0, in Fractions."""
    rows = [_coords_of(p) for p in points]
    return rank_by_fractions([tuple(a - b for a, b in zip(p, rows[0])) for p in rows[1:]])


def mean_by_fractions(dist: PosteriorDistribution) -> Belief:
    """The mean of a distribution: the sum of its atom columns p_s x_s, in Fractions."""
    return Belief(tuple(map(sum, zip(*atom_columns_by_fractions(dist)))))


def interval_by_fractions(origin: Belief, direction: Coords, poly: Polytope):
    """interior_interval_on_line with every bound -alpha/beta a Fraction, compared as one."""
    coords = _coords_of(origin, poly.n)
    direction = _coords_of(direction, poly.n)
    conditions = list(zip(coords, direction))
    for h in poly.halfspaces:
        conditions.append((h.value(coords), sum(a * d for a, d in zip(h.normal, direction))))
    lo: Fraction | None = None
    hi: Fraction | None = None
    for alpha, beta in conditions:
        if beta == 0:
            if alpha <= 0:
                return None
            continue
        bound = -alpha / beta
        if beta > 0:
            lo = bound if lo is None else max(lo, bound)
        else:
            hi = bound if hi is None else min(hi, bound)
    if lo is None or hi is None or lo >= hi:
        return None
    return lo, hi


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
    hs = tuple(dict.fromkeys(h.canonical() for h in halfspaces))
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
            h = canonical_by_fractions(Halfspace(w, cut))
        elif all(s <= 0 for s in signs):
            h = canonical_by_fractions(Halfspace(tuple(-a for a in w), -cut))
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
# the hull kernels integer ones replaced: seed rays as kernel lines, one rank
# per claimed vertex, and membership as Fraction slacks
# ---------------------------------------------------------------------------


def extreme_rays_by_kernels(rows: list[list[int]], n: int) -> list[tuple[list[int], int]]:
    """geometry._extreme_rays with each of the n seed rays its own kernel line.

    Ray i is the kernel line of the first n rows but row i, oriented so
    that row i is positive on it; the rest of the double description is
    the library's, copied.
    """
    rays: list[tuple[list[int], int]] = []
    for i in range(n):
        ray = _kernel_ray(rows[:i] + rows[i + 1 : n], n)
        if sum(a * b for a, b in zip(rows[i], ray)) < 0:
            ray = [-v for v in ray]
        rays.append((ray, ((1 << n) - 1) & ~(1 << i)))
    for k in range(n, len(rows)):
        row = rows[k]
        bit = 1 << k
        kept: list[tuple[list[int], int]] = []
        pos: list[tuple[list[int], int, int]] = []
        neg: list[tuple[list[int], int, int]] = []
        for ray, zeros in rays:
            s = sum(a * b for a, b in zip(row, ray))
            if s > 0:
                kept.append((ray, zeros))
                pos.append((ray, zeros, s))
            elif s < 0:
                neg.append((ray, zeros, s))
            else:
                kept.append((ray, zeros | bit))
        masks = [zeros for _, zeros in rays]
        for p, pz, ps in pos:
            for m, mz, ms in neg:
                common = pz & mz
                if common.bit_count() < n - 2:
                    continue
                if any(z & common == common for z in masks if z != pz and z != mz):
                    continue
                ray = [ps * b - ms * a for a, b in zip(p, m)]
                g = math.gcd(*ray)
                kept.append(([v // g for v in ray], common | bit))
        rays = kept
    return rays


def polytope_by_rank_test(points) -> Polytope:
    """Polytope.from_vertices with one rank per point: a vertex's tight facets have rank n-1.

    Every point is tested, so the bits of the zero sets need not follow the
    order of the points _hull returns.
    """
    points = list(points)
    if not points:
        raise EmptyInput("cannot build a polytope from no points")
    pts, rays, facets = _hull(points)
    n = pts[0].n
    for k in range(len(pts)):
        if _rank([ray for ray, zeros in rays if zeros >> k & 1]) != n - 1:
            raise ValueError("points are not the vertex set of their convex hull")
    return Polytope(tuple(facets), tuple(sorted(pts)), n)


def contains_by_fractions(poly: Polytope, point, strict: bool = False) -> bool:
    """Polytope.contains with each halfspace's slack a Fraction."""
    coords = _coords_of(point, poly.n)
    if strict:
        if any(c <= 0 for c in coords):
            return False
        return all(h.value(coords) > 0 for h in poly.halfspaces)
    if any(c < 0 for c in coords):
        return False
    return all(h.value(coords) >= 0 for h in poly.halfspaces)


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
# the rank rule: how the lift chose winners before it read facets off its
# rays' zero sets, kept as an oracle for undominated_actions
# ---------------------------------------------------------------------------


def winners_by_rank(dp: DecisionProblem) -> frozenset[int]:
    """undominated_actions by rank: the tight envelope vertices of a winner span R^n.

    The rule the lift applied before it read facets off its ray sets: one
    rank per action over the x parts of the rays where it is tight, the
    vertical ray dropped, and the lowest index of equal rows.
    """
    n = dp.n
    rows, scale = dp._ints
    lifted = [[int(i == j) for j in range(n + 1)] for i in range(n)]
    lifted += [[-v for v in row] + [scale] for row in rows]
    found = [(ray[:n], zeros) for ray, zeros in _extreme_rays(lifted, n + 1) if any(ray[:n])]
    return frozenset(
        a for a, row in enumerate(rows)
        if row not in rows[:a]
        and _rank([ray for ray, zeros in found if zeros >> (n + a) & 1]) == n
    )


# ---------------------------------------------------------------------------
# pairwise facet scan: the adjacency test Subdivision.from_cells ran before
# geometry.adjacent_facets read vertex incidence in one scan, kept as an oracle
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
    w = _kernel_ray([_integer_row(p.coords) for p in common], n)
    if w is None:
        return None
    sides = [sum(a * c for a, c in zip(w, v.coords)) for v in p2.vertices]
    if min(sides) < 0 < max(sides):
        raise ValueError("shared hyperplane does not support the second cell")
    if max(sides) <= 0:
        w = [-a for a in w]
    h = canonical_by_fractions(Halfspace(tuple(w), ZERO))
    shared = Polytope((*p1.halfspaces, h), tuple(common), n)
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


# ---------------------------------------------------------------------------
# the likelihood-ratio encoding: each cell vertex x at a prior as its ray
# x / prior, and the vertices those rays give at another prior, the second
# form of the prior-free claim that transport_problem carries, kept as the
# oracle of its cells and of the spectral golden digest
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectralElement:
    """One cell's vertices as likelihood-ratio rays, each scaled to maximum one, in sorted order."""

    cell: int
    rays: tuple[Coords, ...]


@dataclass(frozen=True)
class SpectralSubdivision:
    """One spectral element per cell of the source subdivision."""

    elements: tuple[SpectralElement, ...]


def spectral_of(sub: Subdivision, prior) -> SpectralSubdivision:
    """Encode every cell vertex x as the ray x / prior, divided by its largest entry."""
    prior = _require_prior(prior, sub.n)
    elements = []
    for index, cell in enumerate(sub.cells):
        rays = []
        for vertex in cell.geometry.vertices:
            ratios = [x / m for x, m in zip(vertex.coords, prior.coords)]
            top = max(ratios)
            rays.append(tuple(r / top for r in ratios))
        elements.append(SpectralElement(index, tuple(sorted(rays))))
    return SpectralSubdivision(tuple(elements))


def realize(spec: SpectralSubdivision, prior) -> list[tuple[Belief, ...]]:
    """Each element's vertices at an interior prior: x proportional to prior * ray, sorted.

    The prior goes through _require_prior, then each ray through _coords_of
    on its states: BoundaryPrior, then ShapeMismatch. At the encoding prior
    this inverts spectral_of.
    """
    prior = _require_prior(prior)
    return [
        tuple(sorted(
            normalized_by_fractions([m * r for m, r in zip(prior.coords, _coords_of(ray, prior.n))])
            for ray in element.rays
        ))
        for element in spec.elements
    ]
