"""Shared fixtures and random-instance generators for the test suite."""

from fractions import Fraction
from random import Random

from infoval.decision import DecisionProblem, make_problem
from infoval.geometry import Belief
from infoval.information import Experiment, Garbling


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


def random_problem(rng: Random, n: int | None = None, max_actions: int = 8,
                   max_denominator: int = 20) -> DecisionProblem:
    if n is None:
        n = rng.choice([2, 3, 4])
    k = rng.randint(2, max_actions)
    rows: list[tuple[Fraction, ...]] = []
    seen = set()
    while len(rows) < k:
        row = tuple(
            Fraction(rng.randint(-40, 40), rng.randint(1, max_denominator))
            for _ in range(n)
        )
        if row in seen:
            continue
        seen.add(row)
        rows.append(row)
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
