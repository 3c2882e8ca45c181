from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from infoval.decision import compute_subdivision, make_problem, scale_problem
from infoval.errors import BoundaryPrior, ShapeMismatch
from infoval.geometry import belief, uniform_belief
from infoval.identification import (
    CellAffine,
    PairNonAffine,
    generate_identification,
    reconstruct_value,
)
from infoval.information import Experiment, Order, bayes_split, expected_value, value_of_experiment
from infoval.spectral import (
    RankedExperiment,
    ranked_experiments_of,
    satisfies_ranked,
    transport_problem,
)
from support import SpectralElement, SpectralSubdivision, realize, spectral_of


def cell_vertex_sets(sub):
    return {tuple(c.geometry.vertices) for c in sub.cells}


class TestSpectralOf:
    def test_uniform_prior_rays_follow_beliefs(self):
        sub = compute_subdivision(support.two_peak_problem())
        spec = spectral_of(sub, uniform_belief(2))
        assert spec.elements[0].rays == ((Fraction(1), Fraction(0)), (Fraction(1), Fraction(1)))

    def test_asymmetric_prior(self):
        sub = compute_subdivision(support.two_peak_problem())
        spec = spectral_of(sub, belief("1/4", "3/4"))
        # vertices (1,0) and (1/2,1/2) divide by (1/4,3/4) and renormalize
        assert spec.elements[0].rays == (
            (Fraction(1), Fraction(0)),
            (Fraction(1), Fraction(1, 3)),
        )

    def test_single_cell_gives_coordinate_rays(self):
        sub = compute_subdivision(make_problem([[1, 2, 3]]))
        spec = spectral_of(sub, uniform_belief(3))
        assert set(spec.elements[0].rays) == {
            (Fraction(1), Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(0), Fraction(1)),
        }

    def test_boundary_prior_rejected(self):
        sub = compute_subdivision(support.two_peak_problem())
        with pytest.raises(BoundaryPrior):
            spectral_of(sub, belief(1, 0))

    def test_prior_over_other_states_rejected(self):
        sub = compute_subdivision(support.two_peak_problem())
        for prior in (uniform_belief(3), belief(1, 0, 0)):  # the shape is checked first
            with pytest.raises(ShapeMismatch):
                spectral_of(sub, prior)


class TestRealize:
    def test_roundtrip_at_same_prior(self):
        rng = Random(31)
        for _ in range(6):
            dp = support.random_problem(rng, max_actions=4, max_denominator=8)
            prior = support.random_interior_prior(rng, dp.n)
            sub = compute_subdivision(dp)
            realized = realize(spectral_of(sub, prior), prior)
            assert set(realized) == cell_vertex_sets(sub)

    def test_formula(self):
        element = SpectralElement(0, ((1, 0), (1, 1)))
        got = realize(
            type("S", (), {"elements": (element,)})(), belief("1/4", "3/4")
        )
        assert got[0] == (belief("1/4", "3/4"), belief("1", "0"))

    def test_single_cell_realizes_to_simplex(self):
        sub = compute_subdivision(make_problem([[1, 2]]))
        spec = spectral_of(sub, uniform_belief(2))
        got = realize(spec, belief("1/5", "4/5"))
        assert got[0] == (belief("0", "1"), belief("1", "0"))

    @pytest.mark.parametrize("rays, prior", [
        (((1, 0), (1, 1)), uniform_belief(3)),
        (((1, 0, 0), (0, 1, 1)), uniform_belief(2)),
    ])
    def test_prior_over_other_states_rejected(self, rays, prior):
        spec = SpectralSubdivision((SpectralElement(0, rays),))
        with pytest.raises(ShapeMismatch):
            realize(spec, prior)


class TestTransport:
    def test_identity_transport(self):
        dp = support.two_peak_problem()
        prior = uniform_belief(2)
        assert transport_problem(dp, prior, prior) == dp

    def test_entrywise_reweighting(self):
        dp = support.two_peak_problem()
        moved = transport_problem(dp, uniform_belief(2), belief("1/4", "3/4"))
        assert moved.utility == (
            (Fraction(2), Fraction(0)),
            (Fraction(0), Fraction(2, 3)),
            (Fraction(4, 5), Fraction(4, 15)),
        )

    def test_value_preserved_for_identity_experiment(self):
        dp = support.two_peak_problem()
        prior, target = uniform_belief(2), belief("1/4", "3/4")
        moved = transport_problem(dp, prior, target)
        full = Experiment.fully_revealing(2)
        assert value_of_experiment(moved, target, full) == value_of_experiment(
            dp, prior, full
        )

    @pytest.mark.parametrize("prior, target", [
        (uniform_belief(3), uniform_belief(3)),
        (uniform_belief(2), uniform_belief(3)),
        (belief(1, 0, 0), uniform_belief(2)),  # the shape is checked before the interior
    ])
    def test_prior_over_other_states_rejected(self, prior, target):
        with pytest.raises(ShapeMismatch, match="3 coordinates where 2 are expected"):
            transport_problem(support.two_peak_problem(), prior, target)

    def test_transported_subdivision_is_the_realization(self):
        rng = Random(53)
        for _ in range(5):
            dp = support.random_problem(rng, max_actions=4, max_denominator=8)
            prior = support.random_interior_prior(rng, dp.n)
            target = support.random_interior_prior(rng, dp.n)
            moved = transport_problem(dp, prior, target)
            realized = realize(spectral_of(compute_subdivision(dp), prior), target)
            assert set(realized) == cell_vertex_sets(compute_subdivision(moved))

    def test_value_invariance_random_battery(self):
        rng = Random(59)
        for _ in range(20):
            dp = support.random_problem(rng, max_actions=4, max_denominator=8)
            prior = support.random_interior_prior(rng, dp.n)
            target = support.random_interior_prior(rng, dp.n)
            pi = support.random_experiment(rng, dp.n)
            moved = transport_problem(dp, prior, target)
            assert value_of_experiment(moved, target, pi) == value_of_experiment(
                dp, prior, pi
            )

    @settings(max_examples=60, deadline=None, phases=support.NO_SHRINK)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=5))
    def test_transports_compose_exactly(self, seed, n):
        # p to q then q to r is p to r, and p to q then back is the identity
        rng = Random(seed)
        dp = support.random_problem(rng, n=n, max_actions=5)
        p, q, r = (support.random_interior_prior(rng, n) for _ in range(3))
        moved = transport_problem(dp, p, q)
        assert transport_problem(moved, q, r) == transport_problem(dp, p, r)
        assert transport_problem(moved, q, p) == dp

    def test_reconstructions_rank_experiments_alike_across_priors(self):
        # F is reconstructed from the data of dp at p, G from the data of its
        # transport at q. Both are known only up to an affine part, which the
        # gap between two experiments' expected values cancels, so F at p and
        # G at q must give every pair of experiments the same gap.
        def gap(fn, prior, first, second):
            pieces = make_problem([piece.coeffs for piece in fn.pieces])
            return expected_value(pieces, bayes_split(prior, first)) - expected_value(
                pieces, bayes_split(prior, second)
            )

        rng = Random(71)
        for _ in range(30):
            n = rng.randint(2, 5)
            dp = support.random_problem(rng, n=n, max_actions=5)
            p, q = support.random_interior_prior(rng, n), support.random_interior_prior(rng, n)
            source = reconstruct_value(generate_identification(dp, p))
            moved = reconstruct_value(generate_identification(transport_problem(dp, p, q), q))
            for _ in range(3):
                first, second = support.random_experiment(rng, n), support.random_experiment(rng, n)
                assert gap(source, p, first, second) == gap(moved, q, first, second)

    def test_spectral_invariance_of_transport(self):
        rng = Random(61)
        dp = support.random_problem(rng, n=3, max_actions=4)
        prior = support.random_interior_prior(rng, 3)
        target = support.random_interior_prior(rng, 3)
        moved = transport_problem(dp, prior, target)
        spec_before = spectral_of(compute_subdivision(dp), prior)
        spec_after = spectral_of(compute_subdivision(moved), target)
        assert {e.rays for e in spec_before.elements} == {
            e.rays for e in spec_after.elements
        }


# every entry point that takes a prior reads a raw coordinate tuple once as a Belief
def _ranked(prior):
    data = generate_identification(support.safe_or_bet_problem(), belief("2/5", "3/5"))
    return ranked_experiments_of(type(data)(prior, data.ordinal, data.cardinal))


PRIOR_ENTRY_POINTS = {
    "transport_problem": lambda prior: transport_problem(
        support.two_peak_problem(), prior, belief("1/4", "3/4")
    ),
    "transport_problem target": lambda target: transport_problem(
        support.two_peak_problem(), uniform_belief(2), target
    ),
    "ranked_experiments_of": _ranked,
    "satisfies_ranked": lambda prior: satisfies_ranked(
        support.safe_or_bet_problem(), prior, _ranked(belief("2/5", "3/5"))
    ),
}


@pytest.mark.parametrize("call", PRIOR_ENTRY_POINTS.values(), ids=PRIOR_ENTRY_POINTS.keys())
def test_raw_tuple_prior_read_as_belief(call):
    assert call((Fraction(2, 5), Fraction(3, 5))) == call(belief("2/5", "3/5"))
    with pytest.raises(BoundaryPrior):
        call((Fraction(1), Fraction(0)))


class TestRankedExperiments:
    def test_counts_and_shapes(self):
        dp = support.two_peak_problem()
        data = generate_identification(dp, uniform_belief(2))
        ranked = ranked_experiments_of(data)
        assert len(ranked) == len(data.ordinal)
        affine = ranked[0]
        assert affine.relation is Order.EQUAL
        assert affine.lhs.num_signals == 3
        assert affine.rhs.num_signals == 2
        strict = ranked[-1]
        assert strict.relation is Order.BETTER
        assert strict.lhs.num_signals == 2
        assert strict.rhs.num_signals == 1

    def test_empty_data(self):
        data = generate_identification(support.two_peak_problem(), uniform_belief(2))
        stripped = type(data)(data.prior, (), (), data.root_cell)
        assert ranked_experiments_of(stripped) == []

    def test_generator_satisfies_its_rankings(self):
        dp = support.two_peak_problem()
        prior = uniform_belief(2)
        ranked = ranked_experiments_of(generate_identification(dp, prior))
        assert satisfies_ranked(dp, prior, ranked)

    def test_transport_satisfies_the_same_rankings(self):
        # the rankings are statements about experiments, so they transfer to
        # the reweighted problem at its own prior
        dp = support.safe_or_bet_problem()
        prior = belief("2/5", "3/5")
        target = belief("3/4", "1/4")
        ranked = ranked_experiments_of(generate_identification(dp, prior))
        moved = transport_problem(dp, prior, target)
        assert satisfies_ranked(moved, target, ranked)

    def test_scaled_problem_satisfies_rankings(self):
        dp = support.safe_or_bet_problem()
        prior = belief("2/5", "3/5")
        ranked = ranked_experiments_of(generate_identification(dp, prior))
        assert satisfies_ranked(scale_problem(dp, 5), prior, ranked)

    def test_unknown_relation_rejected(self):
        none = Experiment.uninformative(2)
        for relation in ("indifferent", "better", Order.WORSE):
            with pytest.raises(ValueError, match="relation must be Order.EQUAL or Order.BETTER"):
                RankedExperiment(none, none, relation, CellAffine(0))

    def test_each_relation_can_fail(self):
        # full information is worth 1/2 here, so it is neither equal to nor worse than none
        dp = support.two_peak_problem()
        full, none = Experiment.fully_revealing(2), Experiment.uninformative(2)
        for ranked in (
            RankedExperiment(full, none, Order.EQUAL, CellAffine(0)),
            RankedExperiment(none, full, Order.BETTER, PairNonAffine(0, 1)),
        ):
            assert not satisfies_ranked(dp, uniform_belief(2), [ranked])
            # the items are read once more after their types are checked
            assert not satisfies_ranked(dp, uniform_belief(2), iter([ranked]))

    def test_different_subdivision_violates(self):
        dp = support.safe_or_bet_problem()
        prior = belief("2/5", "3/5")
        ranked = ranked_experiments_of(generate_identification(dp, prior))
        rival = make_problem([[0, 0], [-2, 1]])
        assert not satisfies_ranked(rival, prior, ranked)

    def test_within_cell_experiment_is_worthless_even_garbled(self):
        from infoval.information import bayes_split, garble

        dp = support.safe_or_bet_problem()
        prior = belief("1/4", "3/4")  # interior of the betting cell
        # both posteriors stay inside the x(t2) >= 1/2 cell
        pi = Experiment(
            ("s1", "s2"),
            ((Fraction(3, 5), Fraction(2, 5)), (Fraction(2, 5), Fraction(3, 5))),
        )
        split = [b.coords[1] for b, _ in bayes_split(prior, pi).atoms]
        assert all(v >= Fraction(1, 2) for v in split)
        assert value_of_experiment(dp, prior, pi) == 0
        g = (("1/2", "1/2"), ("1/2", "1/2"))
        assert value_of_experiment(dp, prior, garble(pi, g)) == 0
