"""Blackwell experiments, posterior distributions, and the value of information.

An experiment maps states to signal distributions. At an interior prior it
induces a finitely supported distribution over posterior beliefs whose mean
is the prior; that distribution is the only thing the decision maker cares
about, so distributions are kept in a canonical form (atoms with equal
beliefs merged, atoms sorted) and equality is literal.

Joint columns are the one bridge between experiments, posteriors and
values, and they are integer rows over one scale. Signal s at prior pi has
the joint column c_s(theta) = pi(theta) P(s | theta), formed only by
_columns, as the prior's integer row times the likelihood's integer rows;
atom (x_s, p_s) has the column p_s x_s, formed once by the distribution,
as the atom's scaled probability times its belief's integer row. Divided by
its sum (geometry._normalized), a column is the posterior, and its sum over
the scale is the marginal; divided by the prior, state by state, the atom
columns are the likelihoods of the experiment that induces the distribution.

Valuing an experiment needs no posteriors. Observing signal s and acting
optimally earns max_a u_a . c_s, so E[V] = sum_s max_a u_a . c_s, exactly
as on the posterior route: a zero column adds max_a 0 = 0, as a dropped
zero-marginal signal does, and proportional columns share a maximizer, so
merging them adds their maxima. Each comparison of two sides is one gap,
the sum over one set of columns minus the sum over the other, and only _gap
computes it: one integer product per column with the problem's scaled rows
packed into one integer per state (decision._pack), whose digits are every
action's dot product with the column, the largest read off their bytes;
then the two sides over one scale, and one division. Problems, experiments,
priors and distributions hold their integer forms (_ints, geometry._Holder),
so ranking many experiments for one problem scales its matrix once, a
problem alone packs it again when a column needs wider digits
(DecisionProblem._packing), and no valuation scales an atom or a prior.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul

from .decision import DecisionProblem
from .errors import MeanMismatch, ShapeMismatch, UnreadableEntry
from .geometry import (
    ONE, ZERO, Belief, Coords, _belief, _coords_of, _exact_belief, _frac, _Holder, _normalized,
    _require_prior, _require_type, _scaled, _scaled_points,
)

# (integer columns, scale): column c is c[k] / scale for each state k; a
# distribution holds its atom columns as tuples of int tuples
Columns = tuple[Sequence[Sequence[int]], int]


def _stochastic_rows(matrix, width: int | None = None) -> tuple[Coords, ...]:
    """The matrix's rows as Fractions, each a probability vector of the same width.

    The width is the first row's length unless given. One pass converts and
    checks every row; ValueError names the first fault: no rows, a row of
    another width, a negative entry, or a row that does not sum to 1. Sign
    and sum are read off the row over its own denominator.
    """
    rows = []
    for k, values in enumerate(matrix):
        row = _coords_of(values)
        if width is None:
            width = len(row)
        if len(row) != width:
            raise ValueError(f"row {k} has length {len(row)} where {width} is expected")
        (ints,), scale = _scaled((row,))
        if any(v < 0 for v in ints):
            raise ValueError(f"row {k} has a negative entry")
        if sum(ints) != scale:
            raise ValueError(f"row {k} sums to {sum(row)}, not 1")
        rows.append(row)
    if not rows:
        raise ValueError("a row-stochastic matrix needs at least one row")
    return tuple(rows)


@dataclass(frozen=True)
class Experiment(_Holder):
    """A row-stochastic likelihood matrix: row theta gives P(signal | theta).

    It holds the rows over one denominator (_ints), which every valuation reads.
    """

    signal_labels: tuple[str, ...]
    likelihood: tuple[Coords, ...]

    def __post_init__(self):
        object.__setattr__(self, "signal_labels", tuple(self.signal_labels))
        rows = _stochastic_rows(self.likelihood, len(self.signal_labels))
        object.__setattr__(self, "likelihood", rows)

    @cached_property
    def _ints(self) -> tuple[list[list[int]], int]:
        """(rows, scale) with likelihood[k][s] == rows[k][s] / scale, scale the lcm."""
        return _scaled(self.likelihood)

    @property
    def n(self) -> int:
        return len(self.likelihood)

    @property
    def num_signals(self) -> int:
        return len(self.signal_labels)

    @classmethod
    def fully_revealing(cls, n: int) -> "Experiment":
        rows = tuple(
            tuple(ONE if i == j else ZERO for j in range(n))
            for i in range(n)
        )
        return cls(tuple(f"s{i+1}" for i in range(n)), rows)

    @classmethod
    def uninformative(cls, n: int) -> "Experiment":
        return cls(("s1",), tuple((ONE,) for _ in range(n)))


@dataclass(frozen=True)
class PosteriorDistribution(_Holder):
    """A finitely supported distribution over beliefs, in canonical form.

    Atoms with identical beliefs are merged and the list is sorted by belief,
    so equal distributions compare equal syntactically. A raw coordinate
    tuple is read as a Belief. The beliefs are scaled once, to rows over one
    positive scale, so sorting the rows sorts the beliefs, and the same rows
    times the probabilities over their one denominator are the atom columns
    p_s x_s, held as tuples (_ints). The mean is the sum of the columns. The
    probabilities' total is read off the same columns: each belief sums to
    one, so the columns' entries total the columns' scale exactly when the
    probabilities sum to one.
    """

    atoms: tuple[tuple[Belief, Fraction], ...]
    mean: Belief

    def __init__(self, atoms):
        pairs = []
        for index, atom in enumerate(atoms):
            try:  # a Belief is a sequence of coordinates, never a pair
                point, prob = () if isinstance(atom, Belief) else atom
            except (TypeError, ValueError):
                raise UnreadableEntry(
                    f"cannot read {atom!r} as a (belief, probability) pair: atom {index}"
                ) from None
            pairs.append((_belief(point), prob))
        if len({b.n for b, _ in pairs}) > 1:
            raise ShapeMismatch("every atom's belief must be over the same states")
        merged: dict[Belief, Fraction] = {}
        for point, prob in pairs:
            prob = _frac(prob)
            if prob.numerator < 0:
                raise ValueError("atom probabilities must be nonnegative")
            if prob.numerator:
                held = merged.get(point)
                merged[point] = prob if held is None else held + prob
        if not merged:
            raise ValueError("a posterior distribution needs positive mass")
        rows, scale = _scaled_points(merged)
        # the beliefs are distinct, so their rows are, and the sort never compares atoms
        ordered = sorted(zip(map(tuple, rows), merged.items()))
        object.__setattr__(self, "atoms", tuple(atom for _, atom in ordered))
        object.__setattr__(self, "_ints", self._weighted([row for row, _ in ordered], scale))
        columns, scale = self._ints
        totals = [sum(c) for c in zip(*columns)]
        if sum(totals) != scale:
            raise ValueError(f"atom probabilities must sum to 1, got {sum(merged.values())}")
        object.__setattr__(self, "mean", _exact_belief(totals, scale))

    @cached_property
    def _ints(self) -> Columns:
        """One column p_s x_s per atom, the joint column of the signal inducing it.

        The constructor forms the columns; a clone forms them here.
        """
        return self._weighted(*_scaled_points(self.support))

    def _weighted(self, rows, scale: int) -> Columns:
        """The atom columns, given the atoms' belief rows over one scale."""
        (probs,), prob_scale = _scaled((tuple(prob for _, prob in self.atoms),))
        return tuple(tuple(p * v for v in row) for p, row in zip(probs, rows)), prob_scale * scale

    @property
    def support(self) -> tuple[Belief, ...]:
        return tuple(b for b, _ in self.atoms)

    @classmethod
    def point_mass(cls, belief_point: Belief) -> "PosteriorDistribution":
        return cls(((belief_point, ONE),))


class Order(enum.Enum):
    """Exact comparison of two experiments' value to the decision maker."""

    BETTER = "better"
    EQUAL = "equal"
    WORSE = "worse"

    def __str__(self) -> str:
        return {"better": ">", "equal": "=", "worse": "<"}[self.value]


def _columns(prior: Belief, experiment: Experiment) -> Columns:
    """One joint column pi(theta) P(s | theta) per signal, the unnormalized posterior.

    The columns are the prior's integer row times the likelihood's integer
    rows, state by state, over the product of the two scales. The prior is
    one that _require_prior returned, so BoundaryPrior comes first;
    ShapeMismatch unless the experiment's rows match its states.
    """
    if experiment.n != prior.n:
        raise ShapeMismatch("experiment rows must match the prior's states")
    weights, prior_scale = prior._ints
    rows, scale = experiment._ints
    weighted = [[p * v for v in row] for p, row in zip(weights, rows)]
    return list(zip(*weighted)), prior_scale * scale


def bayes_split(prior: Belief, experiment: Experiment) -> PosteriorDistribution:
    """The distribution of posterior beliefs the experiment induces at the prior.

    Each signal's joint column, divided by its sum, is its posterior, and the
    sum over the columns' scale is its marginal probability. Signals with
    zero marginal probability are dropped; signals leading to the same
    posterior are merged. The result's mean is the prior, exactly.
    MalformedData, first, for an experiment that is not an Experiment.
    """
    _require_type("experiment", experiment, Experiment)
    columns, scale = _columns(_require_prior(prior), experiment)
    return PosteriorDistribution(
        (_normalized(c), Fraction(sum(c), scale)) for c in columns if any(c)
    )


def experiment_of(prior: Belief, dist: PosteriorDistribution) -> Experiment:
    """The canonical experiment generating the given posterior distribution.

    One signal per atom, with P(s | theta) = prob_s * x_s(theta) / prior(theta):
    the atom columns divided by the prior, state by state, each entry one
    Fraction of integers over the two scales. Inverse of bayes_split:
    splitting the result at the same prior returns the distribution
    unchanged. The rows are nonnegative, and each sums to one because the
    distribution's mean is the prior, so the Experiment is built without
    Experiment's second scan of its rows. MalformedData, first, for a dist
    that is not a PosteriorDistribution.
    """
    _require_type("dist", dist, PosteriorDistribution)
    prior = _require_prior(prior)
    if dist.mean != prior:
        raise MeanMismatch(
            f"distribution mean {dist.mean} does not match the prior {prior}"
        )
    columns, scale = dist._ints
    weights, prior_scale = prior._ints
    rows = tuple(
        tuple(Fraction(c * prior_scale, scale * p) for c in row)
        for p, row in zip(weights, zip(*columns))
    )
    experiment = object.__new__(Experiment)
    object.__setattr__(experiment, "signal_labels", tuple(f"s{i+1}" for i in range(len(columns))))
    object.__setattr__(experiment, "likelihood", rows)
    return experiment


def garble(experiment: Experiment, matrix) -> Experiment:
    """The experiment's signals passed through a garbling: likelihood @ matrix.

    A garbling is a row-stochastic matrix with one row per signal (Blackwell
    1953), checked once by _stochastic_rows, then ShapeMismatch unless its
    rows match the signals. Composing two garblings is garbling twice.
    """
    rows = _stochastic_rows(matrix)
    _require_type("experiment", experiment, Experiment)
    if len(rows) != experiment.num_signals:
        raise ShapeMismatch(f"{len(rows)} garbling rows for {experiment.num_signals} signals")
    columns = list(zip(*rows))
    likelihood = [[sum(map(mul, row, col)) for col in columns] for row in experiment.likelihood]
    return Experiment(tuple(f"g{i+1}" for i in range(len(columns))), likelihood)


def _gap(dp: DecisionProblem, left: Columns, right: Columns) -> Fraction:
    """sum_c max_a u_a . c over the left columns, minus the same sum over the right.

    dp's integer rows (_ints) value left and right, (integer columns,
    scale) pairs with one entry per state, which callers check. The columns
    must be nonnegative, as joint columns, atom columns and priors are, so
    that no digit borrows. A side's dot products come from one packed
    product per column (decision._pack): sum_k c_k * states[k] holds every
    action's shifted dot product as one digit, the digits compare as
    equal-length big-endian bytes, and low * sum(c) shifts the largest back.
    Every digit is as wide as the held packing's, the widest any column
    valued under dp has needed, so a wide column (generate's difference
    columns reach 850 bits), and every column after it, multiplies mostly
    zero padding and can cost more than the k dot products did. The two
    sides' sums are brought to the lcm of their scales and divided once.
    The max runs over all rows; a dominated row never exceeds it.
    """
    (_, row_scale), (left, left_scale), (right, right_scale) = dp._ints, left, right
    scale = math.lcm(left_scale, right_scale)

    def total(columns) -> int:
        sums = list(map(sum, columns))
        low, _, width, states, cuts = dp._packing(max(sums, default=0))
        size, shifted = width * len(cuts), 0
        for c in columns:
            digits = sum(map(mul, c, states)).to_bytes(size, "big")
            shifted += int.from_bytes(max(map(digits.__getitem__, cuts)), "big")
        return shifted + low * sum(sums)

    gap = total(left) * (scale // left_scale) - total(right) * (scale // right_scale)
    return Fraction(gap, row_scale * scale)


def expected_value(dp: DecisionProblem, dist: PosteriorDistribution) -> Fraction:
    """Expectation of the problem's value function under the distribution.

    sum_s p_s max_a u_a . x_s = sum_s max_a u_a . (p_s x_s), the gap between
    the unnormalized atoms p_s x_s and no columns at all. MalformedData,
    first, names an argument of the wrong type.
    """
    _require_type("dp", dp, DecisionProblem)
    _require_type("dist", dist, PosteriorDistribution)
    dp._require_states(dist.mean.n)
    return _gap(dp, dist._ints, ([], 1))


def value_of_experiment(dp: DecisionProblem, prior: Belief, experiment: Experiment) -> Fraction:
    """Expected gain from observing the experiment before acting.

    Normalized so an uninformative experiment is worth exactly zero:
    sum_s max_a u_a . c_s - max_a u_a . pi, the gap between the joint columns
    c_s(theta) = pi(theta) P(s | theta), which sum to the prior, and the
    prior. This is the posterior route's E[V] - V(pi) exactly. Raises
    MalformedData naming an argument of the wrong type, then BoundaryPrior
    for a prior on the boundary, then ShapeMismatch for experiment rows that
    do not match the prior, then ShapeMismatch for a prior over other states
    than the problem.
    """
    _require_type("dp", dp, DecisionProblem)
    _require_type("experiment", experiment, Experiment)
    prior = _require_prior(prior)
    columns = _columns(prior, experiment)
    dp._require_states(prior.n)
    row, scale = prior._ints
    return _gap(dp, columns, ((row,), scale))


def rank(dp: DecisionProblem, prior: Belief, first: Experiment, second: Experiment) -> Order:
    """Exact comparison of two experiments' value at the prior.

    The uninformed term V(pi) is the same on both sides, so the order is the
    sign of the gap between the two experiments' joint columns. MalformedData,
    first, names an argument of the wrong type; then the first experiment is
    checked in full before the second.
    """
    _require_type("dp", dp, DecisionProblem)
    _require_type("first", first, Experiment)
    _require_type("second", second, Experiment)
    prior = _require_prior(prior)
    columns = _columns(prior, first)
    dp._require_states(prior.n)
    gap = _gap(dp, columns, _columns(prior, second))
    if gap > 0:
        return Order.BETTER
    if gap < 0:
        return Order.WORSE
    return Order.EQUAL
