import copy
import dataclasses
import pickle
from fractions import Fraction
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import support
from infoval import decision, information
from infoval.decision import DecisionProblem, make_problem
from infoval.errors import BoundaryPrior, MeanMismatch, ShapeMismatch
from infoval.geometry import (
    ZERO, Belief, _normalized, _require_prior, _scaled, belief, uniform_belief
)
from infoval.identification import generate_identification
from infoval.information import (
    Experiment,
    Order,
    PosteriorDistribution,
    _columns,
    _gap,
    _stochastic_rows,
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

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=6))
    def test_recovered_experiment_passes_the_public_checks(self, seed, n):
        # experiment_of builds its Experiment without the row scan; the scan accepts it unchanged
        rng = Random(seed)
        prior = support.random_interior_prior(rng, n)
        dist = bayes_split(prior, support.random_experiment(rng, n, rng.randint(1, 5)))
        got = experiment_of(prior, dist)
        checked = Experiment(got.signal_labels, got.likelihood)
        assert got == checked and repr(got) == repr(checked)
        assert got == support.experiment_of_by_fractions(prior, dist)
        assert pickle.dumps(got) == pickle.dumps(checked)


def _experiment(rows):
    return Experiment(("s1", "s2"), rows)


def _garbled(rows):
    return garble(Experiment.fully_revealing(2), rows)


class TestRowStochastic:
    """Experiment and garble, on its garbling matrix, share one row-stochastic check."""

    @pytest.mark.parametrize("build", [_experiment, _garbled])
    @pytest.mark.parametrize(
        "rows, message",
        [
            ((), "needs at least one row"),
            (((1, 0), (1,)), "row 1 has length 1 where 2 is expected"),
            (((2, -1), (0, 1)), "row 0 has a negative entry"),
            (((1, 0), ("1/2", "1/4")), "row 1 sums to 3/4, not 1"),
        ],
    )
    def test_fault_rejected(self, build, rows, message):
        with pytest.raises(ValueError, match=message):
            build(rows)

    def test_rows_must_match_the_signal_labels(self):
        with pytest.raises(ValueError, match="row 0 has length 2 where 1 is expected"):
            Experiment(("s1",), ((1, 0), (0, 1)))

    def test_compose(self):
        # composing two garblings is garbling twice; the second must fit the first's outputs
        swap = ((0, 1), (1, 0))
        swapped = garble(SYMMETRIC_NOISY, swap)
        assert garble(swapped, swap).likelihood == SYMMETRIC_NOISY.likelihood
        with pytest.raises(ShapeMismatch, match="^1 garbling rows for 2 signals$"):
            garble(swapped, ((1,),))


class TestGarble:
    def test_identity(self):
        g = ((1, 0), (0, 1))
        assert garble(SYMMETRIC_NOISY, g).likelihood == SYMMETRIC_NOISY.likelihood

    def test_total_noise(self):
        g = (("1/2", "1/2"), ("1/2", "1/2"))
        got = garble(SYMMETRIC_NOISY, g)
        assert got.likelihood[0] == got.likelihood[1]

    def test_left_identity(self):
        g = (("3/4", "1/4"), ("1/4", "3/4"))
        got = garble(Experiment.fully_revealing(2), g)
        assert got.likelihood == _stochastic_rows(g)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            garble(Experiment.uninformative(2), ((1, 0), (0, 1)))


class TestPosteriorDistribution:
    def test_atoms_over_different_states_rejected(self):
        with pytest.raises(ShapeMismatch):
            PosteriorDistribution([(belief(1, 0, 0), "1/2"), (belief(0, 1), "1/2")])

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            PosteriorDistribution([(belief(1, 0), "3/2"), (belief(0, 1), "-1/2")])

    def test_zero_probability_atom_dropped(self):
        dist = PosteriorDistribution([(belief(1, 0), 0), (uniform_belief(2), 1)])
        assert dist.atoms == ((uniform_belief(2), Fraction(1)),)

    @pytest.mark.parametrize("atoms", [[], [(belief(1, 0), 0)]])
    def test_no_mass_rejected(self, atoms):
        with pytest.raises(ValueError, match="positive mass"):
            PosteriorDistribution(atoms)

    def test_total_other_than_one_rejected(self):
        with pytest.raises(ValueError, match="sum to 1, got 1/2"):
            PosteriorDistribution([(belief(1, 0), "1/4"), (belief(0, 1), "1/4")])

    @settings(max_examples=150, deadline=None)
    @given(st.lists(support.fractions(0, 24, 12), min_size=1, max_size=5))
    def test_bad_total_names_the_fraction_sum(self, probs):
        assume(0 < sum(probs) != 1)
        atoms = [(uniform_belief(2) if k % 2 else belief(1, 0), p) for k, p in enumerate(probs)]
        with pytest.raises(ValueError) as info:
            PosteriorDistribution(atoms)
        assert str(info.value) == f"atom probabilities must sum to 1, got {sum(probs)}"

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(2, 6).flatmap(
            lambda n: st.lists(
                st.tuples(support.mixed_beliefs(n), support.fractions(0, 30, 10)),
                min_size=1,
                max_size=5,
            )
        ),
        st.booleans(),
    )
    def test_mean_matches_atom_columns(self, weighted, repeat):
        # a repeated atom is merged before the mean is taken
        weighted += weighted[:1] if repeat else []
        total = sum(w for _, w in weighted)
        assume(total > 0)
        dist = PosteriorDistribution([(b, w / total) for b, w in weighted])
        assert repr(dist.mean) == repr(support.mean_by_fractions(dist))

    def test_raw_tuple_atom_read_as_belief(self):
        dist = PosteriorDistribution([((1, 0), "1/2"), (belief(0, 1), "1/2")])
        assert dist == PosteriorDistribution([(belief(1, 0), "1/2"), (belief(0, 1), "1/2")])
        assert dist.support == (belief(0, 1), belief(1, 0))


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
        g = (("3/4", "1/4"), ("1/4", "3/4"))
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


# every entry point that takes a prior reads a raw coordinate tuple once as a Belief
PRIOR_ENTRY_POINTS = {
    "bayes_split": lambda prior: bayes_split(prior, SYMMETRIC_NOISY),
    "experiment_of": lambda prior: experiment_of(
        prior, bayes_split(belief("1/3", "2/3"), SYMMETRIC_NOISY)
    ),
    "value_of_experiment": lambda prior: value_of_experiment(
        support.two_peak_problem(), prior, SYMMETRIC_NOISY
    ),
    "rank": lambda prior: rank(
        support.two_peak_problem(), prior, SYMMETRIC_NOISY, Experiment.uninformative(2)
    ),
}


@pytest.mark.parametrize("call", PRIOR_ENTRY_POINTS.values(), ids=PRIOR_ENTRY_POINTS.keys())
def test_raw_tuple_prior_read_as_belief(call):
    assert call((Fraction(1, 3), Fraction(2, 3))) == call(belief("1/3", "2/3"))
    with pytest.raises(BoundaryPrior):
        call((Fraction(1), Fraction(0)))


class TestOrder:
    def test_str(self):
        assert [str(order) for order in Order] == [">", "=", "<"]


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


# ---------------------------------------------------------------------------
# integer columns over one scale against the Fraction products they replaced
# ---------------------------------------------------------------------------


def _fractions_of(columns):
    """(integer columns, scale) read back as one tuple of Fractions per column."""
    ints, scale = columns
    return [tuple(Fraction(v, scale) for v in c) for c in ints]


def _split_by_fractions(prior, experiment):
    """bayes_split with each marginal the Fraction sum of a Fraction joint column."""
    columns = support.columns_by_fractions(_require_prior(prior), experiment)
    return PosteriorDistribution((_normalized(c), sum(c)) for c in columns if any(c))


def _shuffled(rng, experiment):
    """The experiment with its signals, columns and labels alike, in a random order."""
    order = list(range(experiment.num_signals))
    rng.shuffle(order)
    rows = tuple(tuple(row[c] for c in order) for row in experiment.likelihood)
    return Experiment(tuple(experiment.signal_labels[c] for c in order), rows)


class TestIntegerValuationAgainstFractions:
    @settings(max_examples=150, deadline=None, phases=support.NO_SHRINK)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=2, max_value=6),
        st.booleans(),
        experiment_shapes,
        experiment_shapes,
    )
    def test_columns_splits_recoveries_and_gaps_match(self, seed, n, raw, first, second):
        rng = Random(seed)
        dp = support.random_problem(rng, n=n, max_actions=32)
        prior = support.random_interior_prior(rng, n)
        given_prior = prior.coords if raw else prior
        experiments = [
            _shuffled(rng, _awkward_experiment(rng, n + extra_row, signals, zero_column, proportional))
            for signals, zero_column, proportional, extra_row in (first, second)
        ]
        for e in experiments:
            assert _outcome(lambda: _fractions_of(_columns(_require_prior(given_prior), e))) == (
                _outcome(support.columns_by_fractions, prior, e)
            )
            assert _outcome(bayes_split, given_prior, e) == _outcome(_split_by_fractions, given_prior, e)
            if e.n != n:
                continue
            dist = bayes_split(given_prior, e)
            assert repr(_fractions_of(dist._ints)) == repr(
                support.atom_columns_by_fractions(dist)
            )
            for at in (given_prior, support.random_interior_prior(rng, n)):
                assert _outcome(experiment_of, at, dist) == _outcome(
                    support.experiment_of_by_fractions, at, dist
                )
            # a split's atoms merge proportional joint columns, which share a maximizer
            assert _gap(dp, _columns(prior, e), dist._ints) == 0
        if any(e.n != n for e in experiments):
            return
        joint = [_columns(prior, e) for e in experiments]
        atoms = [bayes_split(prior, e)._ints for e in experiments]
        sides = [
            (joint[0], joint[1]),
            (joint[0], _scaled((prior.coords,))),
            (atoms[0], atoms[1]),
            (atoms[0], ([], 1)),
            (joint[1], atoms[0]),
        ]
        for left, right in sides:
            got = _gap(dp, left, right)
            expected = support.gap_by_fractions(dp.utility, _fractions_of(left), _fractions_of(right))
            assert type(got) is Fraction and got == expected


def _nonnegative_side(rng, n, bits):
    """(columns, scale): 0 to 4 nonnegative columns of entries up to 2**bits, some zero."""
    columns = [
        [0] * n if rng.random() < 0.2 else [rng.randint(0, 2**bits) for _ in range(n)]
        for _ in range(rng.randint(0, 4))
    ]
    return columns, rng.choice([1, 3, 2**bits + 1])


class TestPackedGap:
    """_gap's packed product against one integer dot product per action and column."""

    @settings(max_examples=150, deadline=None, phases=support.NO_SHRINK)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=2, max_value=5),
        st.one_of(st.just(1), st.integers(min_value=1, max_value=64)),
        st.sampled_from([0, 4, 200]),
        st.booleans(),
        st.lists(st.sampled_from([0, 1, 8, 50, 60, 200, 250, 260, 600]), min_size=2, max_size=2),
    )
    def test_matches_dot_products(self, seed, n, k, payoff_bits, repeat, column_bits):
        # negative, zero and 200-bit payoffs over a drawn denominator, rows equal
        # when repeated; columns valued at a narrow width and then a wider one
        rng = Random(seed)
        distinct = [
            [Fraction(rng.randint(-(2**payoff_bits), 2**payoff_bits), rng.choice([1, 2, 35]))
             for _ in range(n)]
            for _ in range(k)
        ]
        dp = make_problem([rng.choice(distinct) if repeat else row for row in distinct])
        utility, _ = dp._ints
        spread = max(map(max, utility)) - min(map(min, utility))
        widths = []
        for bits in sorted(column_bits):
            left, right = _nonnegative_side(rng, n, bits), _nonnegative_side(rng, n, bits)
            got = _gap(dp, left, right)
            assert type(got) is Fraction
            assert got == support.gap_by_dot_products(dp._ints, left, right)
            most = max(map(sum, left[0] + right[0]), default=0)
            assert 8 * dp._packed[2] >= (spread * most).bit_length()
            widths.append(dp._packed[2])
        # the held packing only widens
        assert widths == sorted(widths)

    def test_fewest_bytes_at_a_byte_boundary(self):
        # spread 3, so a column summing to s needs the bits of 3 * s
        dp = make_problem([[1, -2, 0], [-2, 1, 1], [0, 0, 1]])
        fits = [(2**256 - 1) // 3, 0, 0]
        wide = [fits[0] + 1, 0, 0]
        for column, width in ((fits, 32), (wide, 33)):
            side = ([column, [1, 2, 3]], 7)
            assert _gap(dp, side, ([], 1)) == support.gap_by_dot_products(
                dp._ints, side, ([], 1)
            )
            assert dp._packed[2] == width

    def test_one_width_packs_once(self, monkeypatch):
        # spread at most 10 and joint columns summing to at most 3 * 8: every
        # digit fits one byte, so one packing serves every valuation
        built, pack = [], decision._pack

        def counted(rows, most, held):
            packing = pack(rows, most, held)
            if packing is not held:
                built.append(packing)
            return packing

        monkeypatch.setattr(decision, "_pack", counted)
        rng = Random(7)
        dp = make_problem([[rng.randint(-5, 5) for _ in range(3)] for _ in range(16)])
        prior = uniform_belief(3)
        experiments = []
        for _ in range(20):
            rows = []
            for _ in range(3):
                cut = sorted(rng.randint(0, 8) for _ in range(2))
                rows.append([Fraction(v, 8) for v in (cut[0], cut[1] - cut[0], 8 - cut[1])])
            experiments.append(Experiment(("s1", "s2", "s3"), rows))
        prior_side = _scaled((prior.coords,))
        for first, second in zip(experiments, experiments[1:]):
            value = support.gap_by_dot_products(dp._ints, _columns(prior, first), prior_side)
            assert value_of_experiment(dp, prior, first) == value
            gap = support.gap_by_dot_products(
                dp._ints, _columns(prior, first), _columns(prior, second)
            )
            order = Order.BETTER if gap > 0 else Order.WORSE if gap < 0 else Order.EQUAL
            assert rank(dp, prior, first, second) is order
        assert len(built) == 1 and dp._packed is built[0]


@st.composite
def faulty_matrices(draw):
    """Row-stochastic matrices of ints, strings and Fractions, with faults drawn row by row.

    The faults are those TestRowStochastic pins: no rows, a row of another
    width, a negative entry and a sum other than 1, plus a float entry.
    """
    width = draw(st.integers(1, 5))
    matrix = []
    for _ in range(draw(st.integers(0, 4))):
        weights = draw(st.lists(st.integers(0, 6), min_size=width, max_size=width).filter(any))
        row = [Fraction(w, sum(weights)) for w in weights]
        fault = draw(st.sampled_from([None, None, "negative", "sum", "short", "long", "float"]))
        j = draw(st.integers(0, width - 1))
        if fault == "negative":
            moved = row[j] + draw(support.fractions(1, 6, 6))
            row[j] -= moved
            row[(j + 1) % width] += moved
        elif fault == "sum":
            row[j] += draw(support.fractions(1, 6, 6)) * draw(st.sampled_from([-1, 1]))
        elif fault == "short":
            del row[j]
        elif fault == "long":
            row.append(ZERO)
        written = []
        for v in row:
            form = draw(st.sampled_from(["fraction", "string", "int"]))
            if form == "string":
                v = str(v)
            elif form == "int" and v.denominator == 1:
                v = int(v)
            written.append(v)
        if fault == "float":
            written[j] = float(row[j])
        matrix.append(tuple(written))
    return tuple(matrix)


def _row_outcome(call, *args):
    """_outcome, with the float TypeError as one more outcome to compare."""
    try:
        return _outcome(call, *args)
    except TypeError as exc:
        return type(exc), str(exc)


class TestRowStochasticAgainstFractions:
    @settings(max_examples=300, deadline=None)
    @given(faulty_matrices(), st.integers(0, 2))
    def test_checks_match(self, matrix, labels):
        labels = tuple(f"s{i + 1}" for i in range(len(matrix[0]) + labels - 1 if matrix else labels))
        assert _row_outcome(_stochastic_rows, matrix) == _row_outcome(
            support.stochastic_rows_by_fractions, matrix
        )
        # garble checks its matrix first; garbling full revelation then returns it
        full = Experiment.fully_revealing(max(len(matrix), 1))
        assert _row_outcome(lambda: garble(full, matrix).likelihood) == _row_outcome(
            support.stochastic_rows_by_fractions, matrix
        )
        assert _row_outcome(lambda: Experiment(labels, matrix).likelihood) == _row_outcome(
            support.stochastic_rows_by_fractions, matrix, len(labels)
        )

    @pytest.mark.parametrize("matrix", [(), ((),), ((), ()), ((1, 0), ())])
    def test_empty_rows_match(self, matrix):
        assert _row_outcome(_stochastic_rows, matrix) == _row_outcome(
            support.stochastic_rows_by_fractions, matrix
        )


class TestHeldRows:
    """DecisionProblem holds its scaled utility rows as Belief holds its hash."""

    @staticmethod
    def built():
        dp = make_problem([[1, "1/3", 0], ["1/2", 0, "2/5"], [0, "3/4", "1/6"]])
        prior = belief("1/6", "1/3", "1/2")
        e = Experiment(("s1", "s2"), (("1/3", "2/3"), ("3/4", "1/4"), (1, 0)))
        return dp, prior, e

    def test_held_rows_are_the_scaled_utility(self):
        dp, prior, e = self.built()
        value_of_experiment(dp, prior, e)
        assert dp._ints == _scaled(dp.utility)
        assert dp._ints is dp._ints

    def test_fields_and_repr_are_unchanged_by_valuation(self):
        dp, prior, e = self.built()
        before = repr(dp)
        value_of_experiment(dp, prior, e)
        assert repr(dp) == before
        names = [f.name for f in dataclasses.fields(DecisionProblem)]
        assert names == ["state_labels", "action_labels", "utility"]

    def test_pickle_bytes_do_not_hold_the_rows(self):
        dp, prior, e = self.built()
        before = pickle.dumps(dp)
        value_of_experiment(dp, prior, e)
        assert pickle.dumps(dp) == before == pickle.dumps(self.built()[0])

    @pytest.mark.parametrize("valued", [False, True])
    def test_pickle_and_copy_round_trips_value_alike(self, valued):
        dp, prior, e = self.built()
        expected = value_of_experiment(*self.built())
        if valued:
            assert value_of_experiment(dp, prior, e) == expected
        for clone in (lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy):
            copied = clone(dp)
            assert copied == dp and repr(copied) == repr(dp)
            assert "_ints" not in vars(copied)
            assert value_of_experiment(copied, prior, e) == expected
            assert rank(copied, prior, e, Experiment.uninformative(3)) == Order.BETTER


class TestHeldLikelihood:
    """An Experiment scales its likelihood on first use and holds the rows."""

    @staticmethod
    def built() -> Experiment:
        return Experiment(("s1", "s2"), (("1/3", "2/3"), ("3/4", "1/4"), (1, 0)))

    def test_formed_on_first_use_and_held(self):
        dp, prior, e = make_problem([[1, 0, 0], [0, 1, 1]]), uniform_belief(3), self.built()
        assert "_ints" not in vars(e)
        value_of_experiment(dp, prior, e)
        held = vars(e)["_ints"]
        assert held == _scaled(e.likelihood)
        value_of_experiment(dp, prior, e)
        assert e._ints is held

    def test_recovered_experiment_forms_its_rows_on_first_use(self):
        prior = belief("1/6", "1/3", "1/2")
        recovered = experiment_of(prior, bayes_split(prior, self.built()))
        assert "_ints" not in vars(recovered)
        assert recovered._ints == _scaled(recovered.likelihood)

    def test_fields_repr_and_pickle_leave_the_rows_out(self):
        e, fresh = self.built(), self.built()
        before = repr(e), pickle.dumps(e)
        value_of_experiment(make_problem([[1, 0, 0], [0, 1, 1]]), uniform_belief(3), e)
        assert (repr(e), pickle.dumps(e)) == before == (repr(fresh), pickle.dumps(fresh))
        assert [f.name for f in dataclasses.fields(Experiment)] == ["signal_labels", "likelihood"]
        for clone in (lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy):
            copied = clone(e)
            assert copied == e and "_ints" not in vars(copied)
            assert copied._ints == e._ints

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**6), st.integers(2, 5))
    def test_held_rows_are_the_scaled_likelihood(self, seed, n):
        e = support.random_experiment(Random(seed), n)
        assert e._ints == _scaled(e.likelihood)


@st.composite
def drawn_atoms(draw):
    """Atoms with repeated beliefs, zero probabilities and raw coordinate tuples.

    A repeat is the same Belief, an equal one built again or its raw tuple.
    Each probability is a Fraction of its own, weight over a total that is
    the weights' sum, or one more, so the probabilities may miss one.
    """
    n = draw(st.integers(1, 5))
    beliefs = draw(st.lists(support.mixed_beliefs(n), min_size=1, max_size=4))
    picks = draw(
        st.lists(
            st.tuples(
                st.integers(0, len(beliefs) - 1),
                st.integers(0, 6),
                st.sampled_from(["same", "rebuilt", "raw"]),
            ),
            min_size=1,
            max_size=7,
        )
    )
    total = sum(w for _, w, _ in picks) + draw(st.sampled_from([0, 0, 0, 1]))
    assume(total > 0)
    forms = {"same": lambda b: b, "rebuilt": lambda b: Belief(b.coords), "raw": lambda b: b.coords}
    return [(forms[form](beliefs[k]), Fraction(w, total)) for k, w, form in picks]


class TestHeldAtomColumns:
    """A distribution forms its atom columns once, when it is built, and holds them."""

    @staticmethod
    def check(dist: PosteriorDistribution, old: PosteriorDistribution) -> None:
        """dist holds the columns old's constructor formed, and a clone forms them again."""
        assert (dist.atoms, dist.mean) == (old.atoms, old.mean)
        assert repr(dist) == repr(old) and hash(dist) == hash(old)
        columns, scale = support.atom_columns_by_scaling(old)
        held = vars(dist)["_ints"]
        assert held == (tuple(map(tuple, columns)), scale)
        for clone in (lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy):
            copied = clone(dist)
            assert copied == old and "_ints" not in vars(copied)
            assert copied._ints == held

    @settings(max_examples=300, deadline=None)
    @given(drawn_atoms())
    def test_constructor_matches_the_pairwise_sort(self, atoms):
        expected = _outcome(support.distribution_by_pairwise_sort, atoms)
        assert _outcome(PosteriorDistribution, atoms) == expected
        if isinstance(expected, tuple):
            return
        dist = PosteriorDistribution(atoms)
        old = support.distribution_by_pairwise_sort(atoms)
        self.check(dist, old)
        assert pickle.dumps(dist) == pickle.dumps(old)

    @settings(max_examples=25, deadline=None, phases=support.NO_SHRINK)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=4))
    def test_splits_and_generated_sides_match(self, seed, n):
        rng = Random(seed)
        dp = support.random_problem(rng, n=n, max_actions=5)
        prior = support.random_interior_prior(rng, n)
        data = generate_identification(dp, prior, include_all_edges=True)
        sides = [bayes_split(prior, support.random_experiment(rng, n))]
        sides += [side for item in data.ordinal + data.cardinal for side in (item.lhs, item.rhs)]
        # no pickle bytes here: a side may give one Fraction object to several
        # atoms, which its pickle then writes once
        for dist in sides:
            self.check(dist, support.distribution_by_pairwise_sort(dist.atoms))

    def test_reading_a_built_distribution_scales_no_atom(self, monkeypatch):
        dp = make_problem([[1, "1/3", 0], ["1/2", 0, "2/5"], [0, "3/4", "1/6"]])
        prior = belief("1/6", "1/3", "1/2")
        e = Experiment(("s1", "s2", "s3"), (("1/3", "2/3", 0), ("1/4", "1/4", "1/2"), (1, 0, 0)))
        other = Experiment(("s1", "s2"), (("1/2", "1/2"), (0, 1), ("3/4", "1/4")))
        dist = bayes_split(prior, e)

        def read():
            return (
                expected_value(dp, dist),
                experiment_of(prior, dist),
                value_of_experiment(dp, prior, e),
                rank(dp, prior, e, other),
            )

        expected = read()
        calls = []

        def counted(name):
            scale = getattr(information, name)

            def call(*args):
                calls.append((name, args))
                return scale(*args)

            return call

        for name in ("_scaled_points", "_scaled"):
            monkeypatch.setattr(information, name, counted(name))
        assert read() == expected
        # the atoms', the prior's and the experiments' rows are held
        assert calls == []


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
        outputs = tuple(f"s{i + 1}" for i in range(len(g1[0])))
        g2 = support.random_garbling(rng, len(outputs))
        lhs = garble(garble(pi, g1), g2)
        # g1 @ g2 is g1, its rows read as an experiment's, garbled by g2
        rhs = garble(pi, garble(Experiment(outputs, g1), g2).likelihood)
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
