from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from infoval.decision import make_problem
from infoval.errors import BoundaryPrior, MeanMismatch, ShapeMismatch
from infoval.geometry import ZERO, Belief, belief, uniform_belief
from infoval.information import (
    Experiment,
    Garbling,
    Order,
    PosteriorDistribution,
    bayes_split,
    expected_value,
    experiment_of,
    garble,
    rank,
    value_of_experiment,
)


def exp2(row1, row2):
    return Experiment(("s1", "s2"), (tuple(map(Fraction, row1)), tuple(map(Fraction, row2))))


SYMMETRIC_NOISY = exp2(("3/4", "1/4"), ("1/4", "3/4"))


class TestBayesSplit:
    def test_fully_revealing(self):
        got = bayes_split(uniform_belief(2), Experiment.fully_revealing(2))
        assert got.atoms == (
            (belief(0, 1), Fraction(1, 2)),
            (belief(1, 0), Fraction(1, 2)),
        )

    def test_uninformative_merges_to_prior(self):
        prior = uniform_belief(2)
        noise = exp2(("1/2", "1/2"), ("1/2", "1/2"))
        got = bayes_split(prior, noise)
        assert got.atoms == ((prior, Fraction(1)),)

    def test_asymmetric_worked_case(self):
        got = bayes_split(belief("2/5", "3/5"), SYMMETRIC_NOISY)
        assert got.atoms == (
            (belief("2/11", "9/11"), Fraction(11, 20)),
            (belief("2/3", "1/3"), Fraction(9, 20)),
        )
        assert got.mean == belief("2/5", "3/5")

    def test_boundary_prior_rejected(self):
        with pytest.raises(BoundaryPrior, match="interior"):
            bayes_split(belief(1, 0), Experiment.fully_revealing(2))

    def test_zero_probability_signal_dropped(self):
        wasteful = Experiment(("s1", "s2", "dead"), ((1, 0, 0), (0, 1, 0)))
        got = bayes_split(uniform_belief(2), wasteful)
        assert len(got.atoms) == 2


class TestExperimentOf:
    def test_full_information(self):
        dist = PosteriorDistribution(
            [(belief(1, 0), Fraction(1, 2)), (belief(0, 1), Fraction(1, 2))]
        )
        got = experiment_of(uniform_belief(2), dist)
        assert got.likelihood == ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))

    def test_no_information(self):
        prior = uniform_belief(2)
        got = experiment_of(prior, PosteriorDistribution.point_mass(prior))
        assert got.likelihood == ((Fraction(1),), (Fraction(1),))

    def test_roundtrip_of_worked_case(self):
        prior = belief("2/5", "3/5")
        dist = bayes_split(prior, SYMMETRIC_NOISY)
        again = bayes_split(prior, experiment_of(prior, dist))
        assert again == dist

    def test_mean_mismatch_rejected(self):
        dist = PosteriorDistribution.point_mass(belief("1/3", "2/3"))
        with pytest.raises(MeanMismatch):
            experiment_of(uniform_belief(2), dist)


class TestGarble:
    def test_identity(self):
        g = Garbling(((1, 0), (0, 1)))
        assert garble(SYMMETRIC_NOISY, g).likelihood == SYMMETRIC_NOISY.likelihood

    def test_total_noise(self):
        g = Garbling((("1/2", "1/2"), ("1/2", "1/2")))
        got = garble(SYMMETRIC_NOISY, g)
        assert got.likelihood[0] == got.likelihood[1]

    def test_left_identity(self):
        g = Garbling((("3/4", "1/4"), ("1/4", "3/4")))
        got = garble(Experiment.fully_revealing(2), g)
        assert got.likelihood == g.matrix

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            garble(Experiment.uninformative(2), Garbling(((1, 0), (0, 1))))


class TestPosteriorDistribution:
    def test_atoms_over_different_states_rejected(self):
        with pytest.raises(ShapeMismatch):
            PosteriorDistribution([(belief(1, 0, 0), "1/2"), (belief(0, 1), "1/2")])


class TestValues:
    def test_full_information_value(self):
        dp = support.two_peak_problem()
        dist = bayes_split(uniform_belief(2), Experiment.fully_revealing(2))
        assert expected_value(dp, dist) == 1

    def test_no_information_value(self):
        dp = support.two_peak_problem()
        dist = PosteriorDistribution.point_mass(uniform_belief(2))
        assert expected_value(dp, dist) == Fraction(1, 2)

    def test_worked_binary_distribution(self):
        dp = support.safe_or_bet_problem()
        dist = PosteriorDistribution(
            [
                (belief("1/10", "9/10"), Fraction(7, 13)),
                (belief("3/4", "1/4"), Fraction(6, 13)),
            ]
        )
        assert expected_value(dp, dist) == Fraction(28, 65)

    def test_value_of_identity(self):
        dp = support.two_peak_problem()
        got = value_of_experiment(dp, uniform_belief(2), Experiment.fully_revealing(2))
        assert got == Fraction(1, 2)

    def test_value_of_noise_is_zero(self):
        dp = support.safe_or_bet_problem()
        got = value_of_experiment(dp, belief("2/5", "3/5"), Experiment.uninformative(2))
        assert got == 0

    def test_value_of_garbled_identity(self):
        dp = support.two_peak_problem()
        g = Garbling((("3/4", "1/4"), ("1/4", "3/4")))
        noisy = garble(Experiment.fully_revealing(2), g)
        assert value_of_experiment(dp, uniform_belief(2), noisy) == Fraction(1, 4)

    def test_prior_over_other_states_rejected(self):
        dp = make_problem([[1, 0], [0, 1]])
        with pytest.raises(ShapeMismatch):
            value_of_experiment(dp, uniform_belief(3), Experiment.fully_revealing(3))

    def test_distribution_over_other_states_rejected(self):
        dp = support.two_peak_problem()
        dist = PosteriorDistribution.point_mass(uniform_belief(3))
        with pytest.raises(ShapeMismatch, match="belief over 3 states for a problem with 2 states"):
            expected_value(dp, dist)

    def test_experiment_with_an_extra_row_rejected(self):
        dp = support.two_peak_problem()
        with pytest.raises(ShapeMismatch, match="experiment rows must match the prior's states"):
            value_of_experiment(dp, uniform_belief(2), Experiment.fully_revealing(3))

    def test_boundary_prior_reported_before_wrong_rows(self):
        dp = support.two_peak_problem()
        with pytest.raises(BoundaryPrior):
            value_of_experiment(dp, belief(1, 0), Experiment.fully_revealing(3))

    def test_wrong_rows_reported_before_the_problem_states(self):
        dp = support.two_peak_problem()
        with pytest.raises(ShapeMismatch, match="experiment rows must match the prior's states"):
            value_of_experiment(dp, uniform_belief(3), Experiment.fully_revealing(2))


class TestRank:
    def test_identity_beats_noise(self):
        dp = support.two_peak_problem()
        got = rank(dp, uniform_belief(2), Experiment.fully_revealing(2), Experiment.uninformative(2))
        assert got is Order.BETTER

    def test_prior_over_other_states_rejected(self):
        dp = make_problem([[1, 0], [0, 1]])
        full, none = Experiment.fully_revealing(3), Experiment.uninformative(3)
        with pytest.raises(ShapeMismatch):
            rank(dp, uniform_belief(3), full, none)

    def test_only_second_experiment_wrong_shaped(self):
        dp = support.two_peak_problem()
        prior = uniform_belief(2)
        with pytest.raises(ShapeMismatch, match="experiment rows must match the prior's states"):
            rank(dp, prior, SYMMETRIC_NOISY, Experiment.fully_revealing(3))

    def test_first_experiment_checked_in_full_first(self):
        dp = support.two_peak_problem()
        prior = uniform_belief(3)
        with pytest.raises(ShapeMismatch, match="belief over 3 states for a problem with 2 states"):
            rank(dp, prior, Experiment.fully_revealing(3), SYMMETRIC_NOISY)

    def test_self_comparison(self):
        dp = support.two_peak_problem()
        got = rank(dp, uniform_belief(2), SYMMETRIC_NOISY, SYMMETRIC_NOISY)
        assert got is Order.EQUAL

    def test_garbled_never_better(self):
        rng = Random(99)
        for _ in range(15):
            dp = support.random_problem(rng, max_actions=4, max_denominator=6)
            prior = support.random_interior_prior(rng, dp.n)
            pi = support.random_experiment(rng, dp.n)
            g = support.random_garbling(rng, pi.num_signals)
            got = rank(dp, prior, garble(pi, g), pi)
            assert got in (Order.WORSE, Order.EQUAL)


class TestCollapseAndSplit:
    def test_collapse_pair(self):
        z = belief("1/5", "4/5")
        dist = PosteriorDistribution(
            [
                (belief(1, 0), Fraction(1, 4)),
                (belief("1/2", "1/2"), Fraction(1, 4)),
                (z, Fraction(1, 2)),
            ]
        )
        # atoms sort as (1/5,4/5) < (1/2,1/2) < (1,0); the last two carry 1/4 each
        got = support.collapse_to_barycenter(dist, [1, 2])
        assert got.mean == dist.mean
        assert got.atoms == (
            (z, Fraction(1, 2)),
            (belief("3/4", "1/4"), Fraction(1, 2)),
        )

    def test_collapse_explicit(self):
        dist = PosteriorDistribution(
            [
                (belief(1, 0), Fraction(1, 4)),
                (belief("1/2", "1/2"), Fraction(1, 4)),
                (belief("1/4", "3/4"), Fraction(1, 2)),
            ]
        )
        indices = [i for i, (b, _) in enumerate(dist.atoms) if b[0] >= Fraction(1, 2)]
        got = support.collapse_to_barycenter(dist, indices)
        assert got.atoms == (
            (belief("1/4", "3/4"), Fraction(1, 2)),
            (belief("3/4", "1/4"), Fraction(1, 2)),
        )

    def test_collapse_singleton_is_identity(self):
        dist = PosteriorDistribution(
            [(belief(1, 0), Fraction(1, 2)), (belief(0, 1), Fraction(1, 2))]
        )
        assert support.collapse_to_barycenter(dist, [0]) == dist

    def test_unequal_weights_rejected(self):
        dist = PosteriorDistribution(
            [(belief(1, 0), Fraction(1, 3)), (belief(0, 1), Fraction(2, 3))]
        )
        with pytest.raises(support.UnequalWeights):
            support.collapse_to_barycenter(dist, [0, 1])

    def test_split_to_full_information(self):
        dist = PosteriorDistribution.point_mass(uniform_belief(2))
        got = support.split_atom(
            dist, 0, (belief(1, 0), Fraction(1, 2)), (belief(0, 1), Fraction(1, 2))
        )
        assert got.atoms == (
            (belief(0, 1), Fraction(1, 2)),
            (belief(1, 0), Fraction(1, 2)),
        )

    def test_degenerate_split_merges_back(self):
        dist = PosteriorDistribution.point_mass(uniform_belief(2))
        got = support.split_atom(
            dist,
            0,
            (uniform_belief(2), Fraction(1, 2)),
            (uniform_belief(2), Fraction(1, 2)),
        )
        assert got == dist

    def test_split_raises_value_under_curvature(self):
        dp = support.two_peak_problem()
        base = PosteriorDistribution.point_mass(uniform_belief(2))
        spread = support.split_atom(
            base, 0, (belief("3/4", "1/4"), Fraction(1, 2)), (belief("1/4", "3/4"), Fraction(1, 2))
        )
        assert expected_value(dp, spread) == Fraction(3, 4)
        assert expected_value(dp, base) == Fraction(1, 2)

    def test_mean_mismatch_rejected(self):
        dist = PosteriorDistribution.point_mass(uniform_belief(2))
        with pytest.raises(MeanMismatch):
            support.split_atom(
                dist, 0, (belief(1, 0), Fraction(1, 2)), (belief("1/4", "3/4"), Fraction(1, 2))
            )


# ---------------------------------------------------------------------------
# the integer product against the posterior route it replaced
# ---------------------------------------------------------------------------


def _outcome(call, *args):
    """The repr of what call returns, or the type and message of what it raises."""
    try:
        return repr(call(*args))
    except ValueError as exc:
        return type(exc), str(exc)


def _awkward_experiment(rng, states, signals, zero_column, proportional):
    """A random experiment, optionally with a zero column and a signal split in two proportional ones."""
    rows = [list(row) for row in support.random_experiment(rng, states, signals).likelihood]
    if proportional:
        share = Fraction(rng.randint(1, 4), 5)
        rows = [[row[0] * share, row[0] * (1 - share)] + row[1:] for row in rows]
    if zero_column:
        at = rng.randint(0, len(rows[0]))
        rows = [row[:at] + [ZERO] + row[at:] for row in rows]
    return Experiment(tuple(f"s{i+1}" for i in range(len(rows[0]))), tuple(map(tuple, rows)))


experiment_shapes = st.tuples(
    st.integers(min_value=1, max_value=4),
    st.booleans(),
    st.booleans(),
    st.booleans(),
)


class TestValuationAgainstPosteriors:
    @settings(max_examples=150, deadline=None, phases=support.NO_SHRINK)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=2, max_value=6),
        st.booleans(),
        st.booleans(),
        experiment_shapes,
        experiment_shapes,
    )
    def test_values_ranks_and_errors_match(self, seed, n, other_states, boundary, first, second):
        rng = Random(seed)
        dp = support.random_problem(rng, n=n, max_actions=16)
        prior = support.random_interior_prior(rng, n + other_states)
        if boundary:
            coords = list(prior.coords)
            coords[0], coords[-1] = ZERO, coords[0] + coords[-1]
            prior = Belief(tuple(coords))
        experiments = [
            _awkward_experiment(rng, prior.n + extra_row, signals, zero_column, proportional)
            for signals, zero_column, proportional, extra_row in (first, second)
        ]
        for e in experiments:
            assert _outcome(value_of_experiment, dp, prior, e) == _outcome(
                support.value_by_posteriors, dp, prior, e
            )
            if not boundary and e.n == prior.n:
                dist = bayes_split(prior, e)
                assert _outcome(expected_value, dp, dist) == _outcome(
                    support.expected_value_by_posteriors, dp, dist
                )
        assert _outcome(rank, dp, prior, *experiments) == _outcome(
            support.rank_by_posteriors, dp, prior, *experiments
        )


class RepeatingRandom(Random):
    def randint(self, a, b):
        return a


def test_random_problem_gives_up_on_a_repeating_rng():
    with pytest.raises(ValueError, match="distinct rows"):
        support.random_problem(RepeatingRandom(0), n=2)


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

weights = st.lists(st.integers(min_value=1, max_value=9), min_size=2, max_size=3)
rows = st.lists(st.integers(min_value=0, max_value=5), min_size=2, max_size=4)


def _prior_from(ws):
    total = sum(ws)
    return Belief(tuple(Fraction(w, total) for w in ws))


def _experiment_from(table, n):
    fixed = []
    for i in range(n):
        row = table[i % len(table)]
        if sum(row) == 0:
            row = [1] + row[1:]
        total = sum(row)
        fixed.append(tuple(Fraction(w, total) for w in row))
    labels = tuple(f"s{i+1}" for i in range(len(fixed[0])))
    return Experiment(labels, tuple(fixed))


@settings(max_examples=60, deadline=None)
@given(weights, st.lists(rows, min_size=1, max_size=3))
def test_martingale_property(ws, tables):
    prior = _prior_from(ws)
    width = len(tables[0])
    tables = [row[:width] + [0] * (width - len(row)) for row in tables]
    experiment = _experiment_from(tables, prior.n)
    assert bayes_split(prior, experiment).mean == prior


@settings(max_examples=40, deadline=None)
@given(weights, st.lists(rows, min_size=1, max_size=3))
def test_inverse_roundtrip_property(ws, tables):
    prior = _prior_from(ws)
    width = len(tables[0])
    tables = [row[:width] + [0] * (width - len(row)) for row in tables]
    experiment = _experiment_from(tables, prior.n)
    dist = bayes_split(prior, experiment)
    assert bayes_split(prior, experiment_of(prior, dist)) == dist


def test_garbling_composition():
    rng = Random(41)
    for _ in range(20):
        n = rng.choice([2, 3])
        pi = support.random_experiment(rng, n)
        g1 = support.random_garbling(rng, pi.num_signals)
        g2 = support.random_garbling(rng, g1.num_outputs)
        lhs = garble(garble(pi, g1), g2)
        rhs = garble(pi, g1.compose(g2))
        assert lhs.likelihood == rhs.likelihood


def test_blackwell_monotonicity_random_battery():
    rng = Random(43)
    for _ in range(40):
        dp = support.random_problem(rng, max_actions=5, max_denominator=8)
        prior = support.random_interior_prior(rng, dp.n)
        pi = support.random_experiment(rng, dp.n)
        g = support.random_garbling(rng, pi.num_signals)
        assert value_of_experiment(dp, prior, garble(pi, g)) <= value_of_experiment(
            dp, prior, pi
        )
