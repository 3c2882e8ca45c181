"""Blackwell experiments, posterior distributions, and the value of information.

An experiment maps states to signal distributions. At an interior prior it
induces a finitely supported distribution over posterior beliefs whose mean
is the prior; that distribution is the only thing the decision maker cares
about, so distributions are kept in a canonical form (atoms with equal
beliefs merged, atoms sorted) and equality is literal.

Valuing an experiment needs no posteriors, though. Observing signal s and
acting optimally earns max_a u_a . c_s, where c_s(theta) = pi(theta) P(s |
theta) is the signal's joint column, the unnormalized posterior. So
E[V] = sum_s max_a u_a . c_s. With the utility rows and the columns each
scaled to integers over one common denominator, that is one integer matrix
product and a single division at the end, exactly equal to the posterior
route: a zero column adds max_a 0 = 0, as a dropped zero-marginal signal
does, and proportional columns share a maximizer, so merging them adds
their maxima.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .decision import DecisionProblem
from .errors import MeanMismatch, ShapeMismatch
from .geometry import ONE, ZERO, Belief, Coords, _frac, _require_interior


@dataclass(frozen=True)
class Experiment:
    """A row-stochastic likelihood matrix: row theta gives P(signal | theta)."""

    signal_labels: tuple[str, ...]
    likelihood: tuple[Coords, ...]

    def __post_init__(self):
        rows = tuple(tuple(_frac(v) for v in row) for row in self.likelihood)
        object.__setattr__(self, "likelihood", rows)
        object.__setattr__(self, "signal_labels", tuple(self.signal_labels))
        if not rows:
            raise ValueError("an experiment needs at least one state row")
        width = len(self.signal_labels)
        for row in rows:
            if len(row) != width:
                raise ValueError("likelihood rows must match the signal labels")
            if any(v < 0 for v in row):
                raise ValueError("signal probabilities must be nonnegative")
            if sum(row) != 1:
                raise ValueError("each likelihood row must sum to exactly 1")

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
class Garbling:
    """Row-stochastic post-processing of signals."""

    matrix: tuple[Coords, ...]

    def __post_init__(self):
        rows = tuple(tuple(_frac(v) for v in row) for row in self.matrix)
        object.__setattr__(self, "matrix", rows)
        if not rows:
            raise ValueError("a garbling needs at least one row")
        width = len(rows[0])
        for row in rows:
            if len(row) != width:
                raise ValueError("garbling rows must have equal length")
            if any(v < 0 for v in row):
                raise ValueError("garbling entries must be nonnegative")
            if sum(row) != 1:
                raise ValueError("each garbling row must sum to exactly 1")

    @property
    def num_inputs(self) -> int:
        return len(self.matrix)

    @property
    def num_outputs(self) -> int:
        return len(self.matrix[0])

    def compose(self, other: "Garbling") -> "Garbling":
        if self.num_outputs != other.num_inputs:
            raise ShapeMismatch("garbling shapes do not compose")
        return Garbling(_matmul(self.matrix, other.matrix))


def _matmul(left, right) -> tuple[Coords, ...]:
    """The exact product of two matrices held as tuples of rows of matching shapes."""
    columns = list(zip(*right))
    return tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in columns) for row in left)


@dataclass(frozen=True)
class PosteriorDistribution:
    """A finitely supported distribution over beliefs, in canonical form.

    Atoms with identical beliefs are merged and the list is sorted by belief,
    so equal distributions compare equal syntactically. The mean is cached.
    """

    atoms: tuple[tuple[Belief, Fraction], ...]
    mean: Belief

    def __init__(self, atoms):
        atoms = list(atoms)
        if len({b.n for b, _ in atoms}) > 1:
            raise ShapeMismatch("every atom's belief must be over the same states")
        merged: dict[Belief, Fraction] = {}
        for belief_point, prob in atoms:
            prob = _frac(prob)
            if prob < 0:
                raise ValueError("atom probabilities must be nonnegative")
            if prob == 0:
                continue
            merged[belief_point] = merged.get(belief_point, ZERO) + prob
        if not merged:
            raise ValueError("a posterior distribution needs positive mass")
        total = sum(merged.values())
        if total != 1:
            raise ValueError(f"atom probabilities must sum to 1, got {total}")
        canonical = tuple(sorted(merged.items()))
        n = canonical[0][0].n
        mean = tuple(
            sum(prob * b.coords[i] for b, prob in canonical) for i in range(n)
        )
        object.__setattr__(self, "atoms", canonical)
        object.__setattr__(self, "mean", Belief(mean))

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


def _require_split(prior: Belief, experiment: Experiment) -> None:
    """BoundaryPrior unless the prior is interior, then ShapeMismatch unless the rows fit it."""
    _require_interior(prior)
    if experiment.n != prior.n:
        raise ShapeMismatch("experiment rows must match the prior's states")


def bayes_split(prior: Belief, experiment: Experiment) -> PosteriorDistribution:
    """The distribution of posterior beliefs the experiment induces at the prior.

    Signals with zero marginal probability are dropped; signals leading to the
    same posterior are merged. The result's mean is the prior, exactly.
    """
    _require_split(prior, experiment)
    atoms = []
    for s in range(experiment.num_signals):
        marginal = sum(
            prior.coords[t] * experiment.likelihood[t][s] for t in range(prior.n)
        )
        if marginal == 0:
            continue
        posterior = Belief(
            tuple(
                prior.coords[t] * experiment.likelihood[t][s] / marginal
                for t in range(prior.n)
            )
        )
        atoms.append((posterior, marginal))
    return PosteriorDistribution(atoms)


def experiment_of(prior: Belief, dist: PosteriorDistribution) -> Experiment:
    """The canonical experiment generating the given posterior distribution.

    One signal per atom, with P(s | theta) = prob_s * x_s(theta) / prior(theta).
    Inverse of bayes_split: splitting the result at the same prior returns the
    distribution unchanged.
    """
    _require_interior(prior)
    if dist.mean != prior:
        raise MeanMismatch(
            f"distribution mean {dist.mean} does not match the prior {prior}"
        )
    labels = tuple(f"s{i+1}" for i in range(len(dist.atoms)))
    rows = tuple(
        tuple(
            prob * b.coords[t] / prior.coords[t] for b, prob in dist.atoms
        )
        for t in range(prior.n)
    )
    return Experiment(labels, rows)


def garble(experiment: Experiment, garbling: Garbling) -> Experiment:
    """Post-process signals through a row-stochastic map: likelihood @ matrix."""
    if experiment.num_signals != garbling.num_inputs:
        raise ShapeMismatch(
            f"experiment emits {experiment.num_signals} signals but the garbling "
            f"expects {garbling.num_inputs}"
        )
    labels = tuple(f"g{i+1}" for i in range(garbling.num_outputs))
    return Experiment(labels, _matmul(experiment.likelihood, garbling.matrix))


def _maxima(utility: tuple[Coords, ...], columns: list[Coords]) -> tuple[list[int], int]:
    """max_a u_a . c for each column c, as integers over one shared denominator.

    The rows are scaled to integers by the lcm of their denominators and the
    columns by the lcm of theirs, so every dot product is an integer one and
    the product of the two lcms is the denominator of every maximum. The max
    runs over all rows; a dominated row never exceeds it.
    """
    row_scale = math.lcm(*(u.denominator for row in utility for u in row))
    rows = [[u.numerator * (row_scale // u.denominator) for u in row] for row in utility]
    column_scale = math.lcm(*(c.denominator for column in columns for c in column))
    maxima = []
    for column in columns:
        scaled = [c.numerator * (column_scale // c.denominator) for c in column]
        maxima.append(max(sum(map(mul, row, scaled)) for row in rows))
    return maxima, row_scale * column_scale


def _joint_columns(dp: DecisionProblem, prior: Belief, experiment: Experiment) -> list[Coords]:
    """One column pi(theta) P(s | theta) per signal: p_s x_s, the unnormalized posterior.

    Checks the prior's interior, then the experiment's rows, then the
    problem's states.
    """
    _require_split(prior, experiment)
    dp._require_states(prior.n)
    weighted = [tuple(p * v for v in row) for p, row in zip(prior.coords, experiment.likelihood)]
    return list(zip(*weighted))


def expected_value(dp: DecisionProblem, dist: PosteriorDistribution) -> Fraction:
    """Expectation of the problem's value function under the distribution.

    sum_s p_s max_a u_a . x_s = sum_s max_a u_a . (p_s x_s), evaluated on the
    unnormalized atoms p_s x_s as one integer product with a single exact
    division at the end.
    """
    dp._require_states(dist.mean.n)
    columns = [tuple(prob * c for c in b.coords) for b, prob in dist.atoms]
    maxima, denominator = _maxima(dp.utility, columns)
    return Fraction(sum(maxima), denominator)


def value_of_experiment(dp: DecisionProblem, prior: Belief, experiment: Experiment) -> Fraction:
    """Expected gain from observing the experiment before acting.

    Normalized so an uninformative experiment is worth exactly zero:
    sum_s max_a u_a . c_s - max_a u_a . pi over the joint columns
    c_s(theta) = pi(theta) P(s | theta), which sum to the prior. No posterior
    is formed; the value equals the posterior route's E[V] - V(pi) exactly
    (see the module docstring). Raises BoundaryPrior for a prior on the
    boundary, then ShapeMismatch for experiment rows that do not match the
    prior, then ShapeMismatch for a prior over other states than the problem.
    """
    columns = _joint_columns(dp, prior, experiment)
    maxima, denominator = _maxima(dp.utility, columns + [prior.coords])
    return Fraction(sum(maxima[:-1]) - maxima[-1], denominator)


def rank(dp: DecisionProblem, prior: Belief, first: Experiment, second: Experiment) -> Order:
    """Exact comparison of two experiments' value at the prior.

    The uninformed term V(pi) is the same on both sides, so the informed
    sums sum_s max_a u_a . c_s are compared directly, over one shared
    denominator. The first experiment is checked in full before the second.
    """
    columns = _joint_columns(dp, prior, first)
    split = len(columns)
    columns += _joint_columns(dp, prior, second)
    maxima, _ = _maxima(dp.utility, columns)
    w1, w2 = sum(maxima[:split]), sum(maxima[split:])
    if w1 > w2:
        return Order.BETTER
    if w1 < w2:
        return Order.WORSE
    return Order.EQUAL
