"""Golden digests of the library's outputs on a fixed corpus.

Each test hashes the repr of one kind of output over the three support
problems and 30 seeded random problems (n = 2-6, at most 6 actions, each
at a seeded interior prior), so a refactor or speed-up that claims to leave
outputs byte-identical is checked here. Only a change that declares an
output change up front, such as small-denominator witnesses (ROADMAP item 5),
may regenerate these digests, and it says so in CHANGES.md.
"""

import hashlib
from functools import cache
from random import Random

import pytest

import support
from infoval.decision import compute_subdivision, undominated_actions
from infoval.geometry import uniform_belief
from infoval.identification import generate_identification, reconstruct_value


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


@cache
def _outputs() -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    for dp, prior in _corpus():
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
        for name, value in outputs.items():
            out.setdefault(name, []).append(repr(value))
    return out


DIGESTS = {
    "compute_subdivision": "1029e248e66c4283fb29b51069a277dea25f402021426986ea63d308c8e593e1",
    "generate_identification": "8bb25f3637fbc1f6dfd41cdb3d0a8c62d138bb730a6db24d2ea3019e697c7799",
    "generate_identification_all_edges": (
        "dbbd31959d95886c1a9c22b91f227cb42a139d88af39e4854e7f6577d4e59787"
    ),
    "reconstruct_value": "2460ab481bb715e3f0ffc48f332df2f425557b20fdce3e3c3f808a0d562e9b30",
    "undominated_actions": "693724469a7271788c60e3fa2d503ea98097a6c1006249b5cd02836e232f7d1f",
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_output_digest(name):
    digest = hashlib.sha256("\n".join(_outputs()[name]).encode()).hexdigest()
    assert digest == DIGESTS[name]
