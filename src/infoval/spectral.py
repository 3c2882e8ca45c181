"""Prior-free identification: likelihood-ratio encodings and prior transport.

A belief together with an interior prior determines the ratios of signal
probabilities across states that any experiment must use to produce it, and
those ratios do not depend on the prior once reported. Encoding each cell's
extreme points this way gives a prior-free fingerprint of the subdivision:
realizing it at another interior prior produces the cell geometry a suitably
reweighted problem would induce there, with the value of every experiment
unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

from .decision import DecisionProblem, Subdivision
from .errors import ShapeMismatch
from .geometry import (
    Belief,
    Coords,
    _coords_of,
    _normalized,
    _require_prior,
)
from .identification import CellAffine, IdentificationData, PairNonAffine
from .information import Experiment, Order, experiment_of, rank


@dataclass(frozen=True)
class SpectralElement:
    """One cell's extreme points as likelihood-ratio rays.

    Each ray is a nonnegative vector proportional to belief/prior, scaled so
    its largest coordinate is one. Rays are sorted and pairwise distinct; a
    ray determines the posterior at any interior prior.
    """

    cell: int
    rays: tuple[Coords, ...]

    def __post_init__(self):
        rays = tuple(map(_coords_of, self.rays))
        if not rays:
            raise ValueError("a spectral element needs at least one ray")
        if len({len(ray) for ray in rays}) > 1:
            raise ShapeMismatch("likelihood rays in one element must all have the same length")
        if not all(rays):
            raise ValueError("each likelihood ray needs at least one coordinate")
        object.__setattr__(self, "rays", tuple(sorted(rays)))
        if len(set(self.rays)) != len(self.rays):
            raise ValueError("likelihood rays must be pairwise distinct")
        for ray in self.rays:
            if any(v < 0 for v in ray) or max(ray) != 1:
                raise ValueError("each ray must be nonnegative with maximum 1")


@dataclass(frozen=True)
class SpectralSubdivision:
    """One spectral element per cell of the source subdivision."""

    elements: tuple[SpectralElement, ...]

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))


def _ray_of(point: Belief, prior: Belief) -> Coords:
    ratios = tuple(x / m for x, m in zip(point.coords, prior.coords))
    top = max(ratios)
    return tuple(r / top for r in ratios)


def spectral_of(sub: Subdivision, prior: Belief) -> SpectralSubdivision:
    """Encode every cell vertex as a max-normalized likelihood-ratio ray."""
    prior = _require_prior(prior, sub.n)
    elements = []
    for index, cell in enumerate(sub.cells):
        rays = tuple(_ray_of(v, prior) for v in cell.geometry.vertices)
        elements.append(SpectralElement(index, rays))
    return SpectralSubdivision(tuple(elements))


def realize(spec: SpectralSubdivision, prior: Belief) -> list[tuple[Belief, ...]]:
    """Cell vertex sets the spectral data induces at the given interior prior.

    Each ray L becomes the belief with x(theta) proportional to
    prior(theta) * L(theta). At the encoding prior this inverts spectral_of
    exactly. Only the geometry comes back; payoffs are not part of the data.
    """
    prior = _require_prior(prior)
    cells = []
    for element in spec.elements:
        vertices = [
            _normalized([m * r for m, r in zip(prior.coords, _coords_of(ray, prior.n))])
            for ray in element.rays
        ]
        cells.append(tuple(sorted(vertices)))
    return cells


def transport_problem(dp: DecisionProblem, prior: Belief, target: Belief) -> DecisionProblem:
    """Reweight payoffs so the new prior prices every experiment identically.

    Entrywise u'(a, theta) = u(a, theta) * prior(theta) / target(theta). The
    transported problem's subdivision at the target prior is exactly the
    realization there of the original subdivision's spectral encoding, and
    the value of any experiment is unchanged. Each prior goes through
    _require_prior on the problem's states.
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

    relation, Order.EQUAL or Order.BETTER, is what rank(dp, prior, lhs, rhs) must return.
    """

    lhs: Experiment
    rhs: Experiment
    relation: Order
    tag: CellAffine | PairNonAffine

    def __post_init__(self):
        if self.relation not in (Order.EQUAL, Order.BETTER):
            raise ValueError(f"relation must be Order.EQUAL or Order.BETTER, got {self.relation!r}")


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
    """Whether the problem at this prior ranks every pair as stated."""
    prior = _require_prior(prior)
    return all(rank(dp, prior, r.lhs, r.rhs) is r.relation for r in ranked)
