"""Golden digests of the library's outputs on a fixed corpus.

Each test hashes the repr of one kind of output over the three support
problems and 30 seeded random problems (n = 2-6, at most 6 actions, each
at a seeded interior prior), so a refactor or speed-up that claims to leave
outputs byte-identical is checked here. The valuation outputs also use two
seeded experiments per problem, one of them with a zero signal and two
proportional ones, a second interior prior, and the type and message of
each error a boundary prior, wrong experiment rows or a prior over other
states than the problem's raises. The spectral outputs come from the
likelihood-ratio encoding in tests/support.py (spectral_of, realize), the
oracle of transport_problem's cells, so that digest pins the oracle. Only
a change that declares an output change up front, such as
small-denominator witnesses (ROADMAP item 5), may regenerate these
digests, and it says so in CHANGES.md.
"""

import hashlib
from fractions import Fraction
from functools import cache
from random import Random

import pytest

import support
from infoval.decision import compute_subdivision, undominated_actions
from infoval.geometry import ZERO, Belief, uniform_belief
from infoval.identification import generate_identification, reconstruct_value
from infoval.information import (
    Experiment,
    bayes_split,
    expected_value,
    experiment_of,
    rank,
    value_of_experiment,
)


def _corpus():
    problems = [
        support.two_peak_problem(),
        support.safe_or_bet_problem(),
        support.guess_the_state_problem(),
    ]
    priors = [uniform_belief(dp.n) for dp in problems]
    for seed in range(30):
        rng = Random(seed)
        dp = support.random_problem(rng, n=2 + seed % 5, max_actions=6)
        problems.append(dp)
        priors.append(support.random_interior_prior(rng, dp.n))
    return list(zip(problems, priors))


def _outcome(call, *args):
    """What call returns, or the type name and message of the ValueError it raises."""
    try:
        return call(*args)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def _experiments(rng: Random, n: int) -> tuple[Experiment, Experiment]:
    """A random experiment, and one with a zero signal and two proportional ones."""
    first = support.random_experiment(rng, n)
    share = Fraction(rng.randint(1, 4), 5)
    rows = tuple(
        (row[0] * share, row[0] * (1 - share), ZERO) + row[1:]
        for row in support.random_experiment(rng, n).likelihood
    )
    return first, Experiment(tuple(f"s{i+1}" for i in range(len(rows[0]))), rows)


def _bridge(dp, prior, data, rng: Random) -> dict[str, list]:
    """Valuation and spectral outputs, errors included, for one corpus problem."""
    n = dp.n
    first, second = _experiments(rng, n)
    other = support.random_interior_prior(rng, n)
    boundary = Belief((ZERO,) + prior.coords[1:-1] + (prior.coords[0] + prior.coords[-1],))
    wrong_rows = support.random_experiment(rng, n + 1)
    wide = support.random_interior_prior(rng, n + 1)
    splits = [bayes_split(prior, first), bayes_split(prior, second)]
    sides = [side for s in data.ordinal + data.cardinal for side in (s.lhs, s.rhs)]
    spec = support.spectral_of(compute_subdivision(dp), prior)
    return {
        "bayes_split": splits + [
            _outcome(bayes_split, other, second),
            _outcome(bayes_split, boundary, first),
            _outcome(bayes_split, prior, wrong_rows),
            _outcome(bayes_split, boundary, wrong_rows),
        ],
        "experiment_of": [experiment_of(prior, d) for d in splits + sides] + [
            _outcome(experiment_of, boundary, splits[0]),
            _outcome(experiment_of, other, splits[0]),
        ],
        "expected_value": [expected_value(dp, d) for d in splits + sides] + [
            _outcome(expected_value, dp, bayes_split(wide, wrong_rows)),
        ],
        "value_of_experiment": [
            _outcome(value_of_experiment, dp, p, e)
            for p in (prior, other, boundary, wide)
            for e in (first, second, wrong_rows)
        ],
        "rank": [
            _outcome(rank, dp, p, e1, e2)
            for p in (prior, other, boundary, wide)
            for e1, e2 in (
                (first, second), (second, first), (first, first),
                (first, wrong_rows), (wrong_rows, first), (wrong_rows, wrong_rows),
            )
        ],
        "spectral": [spec] + [
            _outcome(support.realize, spec, p) for p in (prior, other, boundary, wide)
        ],
    }


@cache
def _outputs() -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    for index, (dp, prior) in enumerate(_corpus()):
        data = generate_identification(dp, prior)
        outputs = {
            "compute_subdivision": compute_subdivision(dp),
            "undominated_actions": sorted(undominated_actions(dp)),
            "generate_identification": data,
            "generate_identification_all_edges": generate_identification(
                dp, prior, include_all_edges=True
            ),
            "reconstruct_value": reconstruct_value(data),
        }
        outputs.update(_bridge(dp, prior, data, Random(1000 + index)))
        for name, value in outputs.items():
            out.setdefault(name, []).append(repr(value))
    return out


DIGESTS = {
    "bayes_split": "3a8f01dfc8165b68e2dcec5c3c25b7ef0478feca46f62a422cb4fd2c48c1c555",
    "compute_subdivision": "7bbb3d001e30c297c4c95998d2e64337858d9332d6c4f1c0de0e30e4c8c85506",
    "expected_value": "65e8b042b823d5b8c36f0a99472254d021916df23119cc1fd4752cbf1abd8fde",
    "experiment_of": "40d0223a1c51e0c1e5e96bd15c742cf8ae2795c1c2668ffc5afbb87b3ffde70c",
    "generate_identification": "8bb25f3637fbc1f6dfd41cdb3d0a8c62d138bb730a6db24d2ea3019e697c7799",
    "generate_identification_all_edges": (
        "dbbd31959d95886c1a9c22b91f227cb42a139d88af39e4854e7f6577d4e59787"
    ),
    "rank": "1fb48a4523e30784771e7f901f4afdc635684b90fde99dfb01ce33fcc4d3f35b",
    "reconstruct_value": "ce4268decace943942dca695d78f80be69f821c2491bbb91c5570499c9839793",
    "spectral": "2393a74c7c404ea41054942d05fd6f8d08342d9ed77869adeb838369c7ac8652",
    "undominated_actions": "693724469a7271788c60e3fa2d503ea98097a6c1006249b5cd02836e232f7d1f",
    "value_of_experiment": "b59a5120f9ccd61b73c5d0ddb44a1cc1e553defaa89b45fd5bffbfff6772c168",
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_output_digest(name):
    digest = hashlib.sha256("\n".join(_outputs()[name]).encode()).hexdigest()
    assert digest == DIGESTS[name]
