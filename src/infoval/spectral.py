"""Prior-free identification as one identity: transport between interior priors.

A signal moves an interior prior p to a posterior x whose likelihood ratio
x / p is all it tells of the signal. So reweighting payoffs to
u'(a, theta) = u(a, theta) * p(theta) / q(theta) (transport_problem) moves
a problem to another interior prior q with the value of every experiment,
and every ranking that identification data state (ranked_experiments_of),
unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

from .decision import DecisionProblem
from .geometry import Belief, _require_prior, _require_type
from .identification import CellAffine, IdentificationData, PairNonAffine
from .information import Experiment, Order, experiment_of, rank


def transport_problem(dp: DecisionProblem, prior: Belief, target: Belief) -> DecisionProblem:
    """The problem that values every experiment at target as dp does at prior.

    Entrywise u'(a, theta) = u(a, theta) * prior(theta) / target(theta). Its
    cells (compute_subdivision) are dp's with each vertex x reweighted to
    x * target / prior and renormalized, since every payoff under u' there
    is the payoff under u at x times one positive factor. Each prior goes
    through _require_prior on the problem's states.
    """
    prior = _require_prior(prior, dp.n)
    target = _require_prior(target, dp.n)
    weights = tuple(m / t for m, t in zip(prior.coords, target.coords))
    utility = tuple(
        tuple(u * w for u, w in zip(row, weights)) for row in dp.utility
    )
    return DecisionProblem(dp.state_labels, dp.action_labels, utility)


@dataclass(frozen=True)
class RankedExperiment:
    """A ranking of two experiments, tagged like its source statement.

    relation, Order.EQUAL or Order.BETTER, is what rank(dp, prior, lhs, rhs)
    must return. An equality carries a CellAffine tag and a strict preference
    a PairNonAffine one, as in OrderedExpectation; MalformedData names a
    field of another type.
    """

    lhs: Experiment
    rhs: Experiment
    relation: Order
    tag: CellAffine | PairNonAffine

    def __post_init__(self):
        _require_type("lhs", self.lhs, Experiment)
        _require_type("rhs", self.rhs, Experiment)
        if self.relation not in (Order.EQUAL, Order.BETTER):
            raise ValueError(f"relation must be Order.EQUAL or Order.BETTER, got {self.relation!r}")
        _require_type("tag", self.tag, CellAffine if self.relation is Order.EQUAL else PairNonAffine)


def ranked_experiments_of(data: IdentificationData) -> list[RankedExperiment]:
    """Translate ordered expectations into rankings of actual experiments.

    Every posterior distribution becomes the canonical experiment generating
    it at the data's prior, which every side averages to; equalities become
    indifferences and strict inequalities become strict preferences for the
    left experiment.
    """
    prior = data.prior
    out = []
    for statement in data.ordinal:
        out.append(
            RankedExperiment(
                experiment_of(prior, statement.lhs),
                experiment_of(prior, statement.rhs),
                Order.EQUAL if statement.relation == "eq" else Order.BETTER,
                statement.tag,
            )
        )
    return out


def satisfies_ranked(dp: DecisionProblem, prior: Belief, ranked: list[RankedExperiment]) -> bool:
    """Whether the problem at this prior ranks every pair as stated.

    MalformedData names, by index, the first item that is not a RankedExperiment.
    """
    prior = _require_prior(prior)
    ranked = list(ranked)
    for index, item in enumerate(ranked):
        _require_type(f"ranked experiment {index}", item, RankedExperiment)
    return all(rank(dp, prior, r.lhs, r.rhs) is r.relation for r in ranked)
