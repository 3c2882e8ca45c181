import pickle
import re
from fractions import Fraction
from random import Random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import support
from infoval import geometry
from infoval.decision import (
    AdjacentPair,
    AffineFn,
    Cell,
    PiecewiseAffineFn,
    Subdivision,
    compute_subdivision,
    equal_up_to_affine,
    equal_up_to_state_transfer,
    evaluate_value,
    make_problem,
    scale_problem,
    undominated_actions,
    value_function,
)
from infoval.errors import (
    BoundaryPrior,
    InconsistentData,
    MalformedData,
    MeanMismatch,
    ShapeMismatch,
    SingularSolve,
    UnreadableEntry,
)
from infoval.geometry import (
    Belief,
    Halfspace,
    Polytope,
    _line_window,
    adjacent_facets,
    barycenter,
    belief,
    interior_point,
    uniform_belief,
)
from infoval.identification import (
    CellAffine,
    IdentificationData,
    OrderedExpectation,
    PairNonAffine,
    UtilityDifference,
    extract_subdivision,
    gen_affineness_equalities,
    gen_nonaffineness_inequalities,
    gen_utility_differences,
    generate_identification,
    reconstruct_value,
    satisfies_ordinal,
    _halvings,
    _line,
    _on_line,
    _residual_difference,
    _residual_point,
)
from infoval.information import (
    Experiment,
    Order,
    PosteriorDistribution,
    bayes_split,
    expected_value,
    experiment_of,
    garble,
    rank,
    value_of_experiment,
)
from infoval.spectral import (
    RankedExperiment,
    ranked_experiments_of,
    satisfies_ranked,
    transport_problem,
)


def atoms_of(dist):
    return {(b.coords, p) for b, p in dist.atoms}


class TestAffinenessEqualities:
    def test_two_peak_first_cell(self):
        sub = compute_subdivision(support.two_peak_problem())
        statements = gen_affineness_equalities(sub, uniform_belief(2))
        first = statements[0]
        assert first.tag == CellAffine(0)
        assert atoms_of(first.lhs) == {
            ((Fraction(1), Fraction(0)), Fraction(1, 4)),
            ((Fraction(1, 2), Fraction(1, 2)), Fraction(1, 4)),
            ((Fraction(1, 4), Fraction(3, 4)), Fraction(1, 2)),
        }
        assert atoms_of(first.rhs) == {
            ((Fraction(3, 4), Fraction(1, 4)), Fraction(1, 2)),
            ((Fraction(1, 4), Fraction(3, 4)), Fraction(1, 2)),
        }

    def test_residual_weight_halving(self):
        # at this prior the first residual attempt leaves the simplex
        sub = compute_subdivision(support.two_peak_problem())
        statements = gen_affineness_equalities(sub, belief("1/5", "4/5"))
        first = statements[0]
        assert atoms_of(first.lhs) == {
            ((Fraction(1), Fraction(0)), Fraction(1, 8)),
            ((Fraction(1, 2), Fraction(1, 2)), Fraction(1, 8)),
            ((Fraction(1, 60), Fraction(59, 60)), Fraction(3, 4)),
        }
        assert first.lhs.mean == belief("1/5", "4/5")

    def test_single_cell_problem(self):
        from infoval.decision import make_problem

        sub = compute_subdivision(make_problem([[1, 2]]))
        statements = gen_affineness_equalities(sub, uniform_belief(2))
        assert len(statements) == 1
        assert statements[0].relation == "eq"
        # an affine candidate satisfies the equality
        flat = make_problem([[3, 7]])
        data = IdentificationData(uniform_belief(2), tuple(statements), ())
        assert satisfies_ordinal(flat, data)

    def test_boundary_prior_rejected(self):
        sub = compute_subdivision(support.two_peak_problem())
        with pytest.raises(BoundaryPrior):
            gen_affineness_equalities(sub, belief(1, 0))

    def test_prior_over_other_states_rejected(self):
        for prior in (uniform_belief(3), belief(1, 0, 0)):  # the shape is checked first
            with pytest.raises(ShapeMismatch):
                generate_identification(support.two_peak_problem(), prior)

    def test_raw_tuple_prior_read_as_belief(self):
        dp, prior = support.safe_or_bet_problem(), (Fraction(2, 5), Fraction(3, 5))
        sub = compute_subdivision(dp)
        for generate in (
            lambda prior: gen_affineness_equalities(sub, prior),
            lambda prior: gen_nonaffineness_inequalities(sub, prior),
            lambda prior: gen_utility_differences(dp, prior),
            lambda prior: generate_identification(dp, prior),
        ):
            assert generate(prior) == generate(Belief(prior))

    @pytest.mark.parametrize(
        "generate",
        [
            lambda dp, prior: gen_affineness_equalities(compute_subdivision(dp), prior),
            lambda dp, prior: gen_nonaffineness_inequalities(compute_subdivision(dp), prior),
            gen_utility_differences,
        ],
        ids=["affineness", "nonaffineness", "differences"],
    )
    def test_generators_reject_a_prior_over_other_states(self, generate):
        # the single cell has no facet, where a late check would never run
        for dp in (support.two_peak_problem(), make_problem([[1, 2]])):
            for prior in (uniform_belief(3), belief(1, 0, 0)):  # the shape is checked first
                with pytest.raises(ShapeMismatch):
                    generate(dp, prior)


class TestNonaffinenessInequalities:
    def test_two_peak_edge(self):
        sub = compute_subdivision(support.two_peak_problem())
        statements = gen_nonaffineness_inequalities(sub, uniform_belief(2))
        assert len(statements) == 1
        only = statements[0]
        assert only.tag == PairNonAffine(0, 1)
        assert atoms_of(only.rhs) == {
            ((Fraction(1, 2), Fraction(1, 2)), Fraction(1)),
        }
        assert atoms_of(only.lhs) == {
            ((Fraction(3, 4), Fraction(1, 4)), Fraction(1, 2)),
            ((Fraction(1, 4), Fraction(3, 4)), Fraction(1, 2)),
        }

    def test_flat_candidate_fails_the_inequality(self):
        from infoval.decision import make_problem

        sub = compute_subdivision(support.two_peak_problem())
        statements = gen_nonaffineness_inequalities(sub, uniform_belief(2))
        data = IdentificationData(uniform_belief(2), tuple(statements), ())
        flat = make_problem([[0, 0], [-10, -10]])
        assert not satisfies_ordinal(flat, data)

    def test_three_cells_three_edges(self):
        sub = compute_subdivision(support.guess_the_state_problem())
        statements = gen_nonaffineness_inequalities(sub, uniform_belief(3))
        assert {(s.tag.i, s.tag.j) for s in statements} == {(0, 1), (0, 2), (1, 2)}


def _generated_and_oracle(sub, prior):
    """The reprs of both ordinal generators' statements and of the collapse-and-split oracle's."""
    generated = gen_affineness_equalities(sub, prior) + gen_nonaffineness_inequalities(sub, prior)
    oracle = support.affineness_by_collapse(sub, prior) + support.nonaffineness_by_split(sub, prior)
    return repr(generated), repr(oracle)


class TestGeneratorsAgainstCollapseAndSplit:
    @settings(max_examples=150, deadline=None, phases=support.NO_SHRINK)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=6))
    def test_random_problems(self, seed, n):
        rng = Random(seed)
        dp = support.random_problem(rng, n=n, max_actions=8)
        generated, oracle = _generated_and_oracle(
            compute_subdivision(dp), support.random_interior_prior(rng, n)
        )
        assert generated == oracle

    def test_prior_at_a_facet_center(self):
        sub = compute_subdivision(support.guess_the_state_problem())
        prior = interior_point(sub.adjacency[0].shared)
        assert gen_nonaffineness_inequalities(sub, prior)[0].rhs.atoms == ((prior, 1),)
        generated, oracle = _generated_and_oracle(sub, prior)
        assert generated == oracle

    def test_prior_at_a_cell_barycenter(self):
        sub = compute_subdivision(support.guess_the_state_problem())
        prior = barycenter(sub.cells[0].geometry.vertices)
        assert gen_affineness_equalities(sub, prior)[0].rhs.atoms == ((prior, 1),)
        generated, oracle = _generated_and_oracle(sub, prior)
        assert generated == oracle


class TestSatisfiesOrdinal:
    def test_generator_satisfies_its_own_data(self):
        dp = support.two_peak_problem()
        data = generate_identification(dp, uniform_belief(2))
        assert satisfies_ordinal(dp, data)

    def test_scaled_problem_satisfies_the_same_data(self):
        dp = support.two_peak_problem()
        data = generate_identification(dp, uniform_belief(2))
        assert satisfies_ordinal(scale_problem(dp, 7), data)

    def test_same_subdivision_different_payoffs_still_satisfies(self):
        # the two-peak and safe-or-bet problems both split the simplex at its
        # midpoint, so the ordinal data cannot tell them apart
        dp_a = support.two_peak_problem()
        data = generate_identification(dp_a, uniform_belief(2))
        assert satisfies_ordinal(support.safe_or_bet_problem(), data)

    def test_different_subdivision_fails(self):
        from infoval.decision import make_problem

        dp_a = support.two_peak_problem()
        data = generate_identification(dp_a, uniform_belief(2))
        shifted_split = make_problem([[0, 0], [-2, 1]])  # indifferent at x(t2) = 2/3
        assert not satisfies_ordinal(shifted_split, data)

    def test_problem_over_fewer_states_than_the_data_rejected(self):
        # the gap zips payoff rows with atom columns, which must not truncate
        data = generate_identification(support.guess_the_state_problem(), uniform_belief(3))
        with pytest.raises(ShapeMismatch, match="belief over 3 states for a problem with 2 states"):
            satisfies_ordinal(support.two_peak_problem(), data)


class TestExtractSubdivision:
    def test_roundtrip_two_peak(self):
        dp = support.two_peak_problem()
        data = generate_identification(dp, uniform_belief(2))
        extracted = extract_subdivision(data)
        assert extracted.match_cells(compute_subdivision(dp)) is not None

    def test_roundtrip_single_cell(self):
        from infoval.decision import make_problem

        dp = make_problem([[1, 2]])
        data = generate_identification(dp, belief("1/3", "2/3"))
        extracted = extract_subdivision(data)
        assert len(extracted.cells) == 1
        assert list(extracted.cells[0].geometry.vertices) == [
            belief(0, 1),
            belief(1, 0),
        ]

    def test_roundtrip_three_cells(self):
        dp = support.guess_the_state_problem()
        data = generate_identification(dp, uniform_belief(3))
        extracted = extract_subdivision(data)
        reference = compute_subdivision(dp)
        assert extracted.match_cells(reference) is not None
        assert {(p.i, p.j) for p in extracted.adjacency} == {
            (p.i, p.j) for p in reference.adjacency
        }

    def test_missing_cell_statement_rejected(self):
        dp = support.two_peak_problem()
        data = generate_identification(dp, uniform_belief(2))
        broken = IdentificationData(data.prior, data.ordinal[1:], data.cardinal)
        with pytest.raises(MalformedData):
            extract_subdivision(broken)

    def test_overlapping_cells_are_malformed(self):
        # both cells have the edge from (1, 0, 0) to (0, 1/2, 1/2) on the line
        # x2 = x3, but the second cell has vertices on both sides of it
        edge = [belief(1, 0, 0), belief(0, "1/2", "1/2")]
        a = Polytope.from_vertices(edge + [belief(0, 0, 1)])
        b = Polytope.from_vertices(edge + [belief(0, 1, 0), belief("1/2", 0, "1/2")])
        overlapping = Subdivision((Cell(0, a), Cell(1, b)), ())
        prior = uniform_belief(3)
        data = IdentificationData(prior, gen_affineness_equalities(overlapping, prior), ())
        with pytest.raises(MalformedData, match="cells 0 and 1"):
            reconstruct_value(data)

    def test_cells_on_one_side_of_their_shared_hyperplane_are_malformed(self):
        # the cells share the edge x3 = 0, and the second lies inside the first
        edge = [belief(1, 0, 0), belief(0, 1, 0)]
        outer = Polytope.from_vertices(edge + [belief(0, 0, 1)])
        inner = Polytope.from_vertices(edge + [belief("1/3", "1/3", "1/3")])
        prior = belief("1/5", "2/5", "2/5")
        cells = gen_affineness_equalities(Subdivision((Cell(0, outer), Cell(1, inner)), ()), prior)
        point = PosteriorDistribution([(prior, 1)])
        pair = OrderedExpectation(point, point, "gt", PairNonAffine(0, 1))
        with pytest.raises(MalformedData, match="cells 0 and 1 lie on the same side"):
            extract_subdivision(IdentificationData(prior, (*cells, pair), ()))

    def test_missing_pair_statement_rejected(self):
        dp = support.two_peak_problem()
        data = generate_identification(dp, uniform_belief(2))
        only_cells = tuple(
            s for s in data.ordinal if isinstance(s.tag, CellAffine)
        )
        broken = IdentificationData(data.prior, only_cells, data.cardinal)
        with pytest.raises(MalformedData):
            extract_subdivision(broken)

    def test_cell_without_interior_is_malformed(self):
        # only (0, 1) leaves the left side, and one point's hull has no interior
        lhs = PosteriorDistribution([(belief(1, 0), "1/2"), (belief(0, 1), "1/2")])
        rhs = PosteriorDistribution([(belief(1, 0), "1/4"), (belief("1/3", "2/3"), "3/4")])
        equality = OrderedExpectation(lhs, rhs, "eq", CellAffine(0))
        data = IdentificationData(uniform_belief(2), (equality,), ())
        with pytest.raises(MalformedData, match="cell 0: the point set does not span"):
            extract_subdivision(data)


class TestUtilityDifferences:
    def test_worked_two_cell_instance(self):
        # the canonical hand-checked case: prior x(t2) = 3/5, support points
        # x_i = 1/4, x_j = 9/10, x_hat = 2/5 in x(t2) coordinates
        dp = support.safe_or_bet_problem()
        prior = belief("2/5", "3/5")
        differences = gen_utility_differences(dp, prior)
        assert len(differences) == 1
        d = differences[0]
        assert d.edge == (0, 1)
        assert atoms_of(d.lhs) == {
            ((Fraction(1, 10), Fraction(9, 10)), Fraction(7, 13)),
            ((Fraction(3, 4), Fraction(1, 4)), Fraction(6, 13)),
        }
        assert atoms_of(d.rhs) == {
            ((Fraction(1, 10), Fraction(9, 10)), Fraction(2, 5)),
            ((Fraction(3, 5), Fraction(2, 5)), Fraction(3, 5)),
        }
        assert d.gap == Fraction(36, 325)

    def test_two_peak_at_uniform_prior(self):
        # here the prior sits exactly on the shared facet
        dp = support.two_peak_problem()
        differences = gen_utility_differences(dp, uniform_belief(2))
        assert len(differences) == 1
        d = differences[0]
        lhs = {b.coords: p for b, p in d.lhs.atoms}
        rhs = {b.coords: p for b, p in d.rhs.atoms}
        anchor = (Fraction(3, 16), Fraction(13, 16))
        assert lhs[anchor] == Fraction(4, 9)
        assert rhs[anchor] == Fraction(2, 7)
        assert d.gap == Fraction(25, 252)

    def test_single_cell_is_empty(self):
        from infoval.decision import make_problem

        assert gen_utility_differences(make_problem([[1, 2]]), uniform_belief(2)) == []

    def test_remote_edge_uses_shared_residual(self):
        # three cells in a row with the prior deep inside the last one; the
        # first edge cannot put the prior between the two cells, so both
        # sides share a residual atom that cancels from the difference
        from infoval.decision import make_problem

        dp = make_problem([[0, 0], [-1, 1], [-3, 2]])
        prior = belief("1/10", "9/10")
        differences = gen_utility_differences(dp, prior)
        assert [d.edge for d in differences] == [(0, 1), (1, 2)]
        far = differences[0]
        assert far.gap == Fraction(1, 192)
        shared_beliefs = {b.coords for b, _ in far.lhs.atoms} & {
            b.coords for b, _ in far.rhs.atoms
        }
        assert (Fraction(3, 70), Fraction(67, 70)) in shared_beliefs
        # all means are the prior
        assert far.lhs.mean == prior and far.rhs.mean == prior


class TestReconstruction:
    def test_worked_instance_recovers_slope_two(self):
        dp = support.safe_or_bet_problem()
        prior = belief("2/5", "3/5")
        data = generate_identification(dp, prior)
        fn = reconstruct_value(data)
        assert fn.pieces[0] == AffineFn((0, 0))
        assert fn.pieces[1] == AffineFn((-1, 1))  # equals 2*x(t2) - 1 on the simplex
        shift = equal_up_to_affine(fn, value_function(dp))
        assert shift == AffineFn((0, 0))

    def test_six_state_roundtrip(self):
        # the six-state instance of the benchmark corpus: four cells of 20-28
        # vertices and 8-9 facets each, out of reach for any hull method that
        # tries every (n-1)-subset of vertices
        dp = make_problem(
            [
                ["-21/11", "16/17", "-6/5", "-3/13", "-17/11", "20/7"],
                ["-30/19", "23/16", "0", "13/9", "-10", "4"],
                ["-3/4", "4", "-39/8", "-19/9", "12/11", "9/16"],
                ["13/10", "-25/14", "-3", "-8/9", "3/7", "-8"],
            ]
        )
        prior = belief("1/11", "5/33", "1/33", "8/33", "4/33", "4/11")
        fn = reconstruct_value(generate_identification(dp, prior))
        assert len(fn.pieces) == 4
        assert equal_up_to_affine(fn, value_function(dp)) is not None

    def test_scaled_problem_reconstruction(self):
        dp = support.safe_or_bet_problem()
        scaled = scale_problem(dp, 3)
        data = generate_identification(scaled, belief("2/5", "3/5"))
        fn = reconstruct_value(data)
        assert fn.pieces[1] == AffineFn((-3, 3))
        assert equal_up_to_affine(fn, value_function(dp)) is None
        assert equal_up_to_affine(fn, value_function(scaled)) == AffineFn((0, 0))

    def test_two_peak_reconstruction(self):
        dp = support.two_peak_problem()
        data = generate_identification(dp, uniform_belief(2))
        fn = reconstruct_value(data)
        assert equal_up_to_affine(fn, value_function(dp)) == AffineFn((1, 0))

    def test_single_cell_reconstruction(self):
        from infoval.decision import make_problem

        dp = make_problem([[1, 2]])
        data = generate_identification(dp, uniform_belief(2))
        fn = reconstruct_value(data)
        assert fn.pieces == (AffineFn((0, 0)),)

    def test_three_cell_chain_roundtrip(self):
        from infoval.decision import make_problem

        dp = make_problem([[0, 0], [-1, 1], [-3, 2]])
        prior = belief("1/10", "9/10")
        data = generate_identification(dp, prior, include_all_edges=True)
        fn = reconstruct_value(data)
        assert equal_up_to_affine(fn, value_function(dp)) == AffineFn((0, 0))

    def test_redundant_edges_check_out(self):
        dp = support.guess_the_state_problem()
        data = generate_identification(dp, uniform_belief(3), include_all_edges=True)
        assert len(data.cardinal) == 3
        fn = reconstruct_value(data)
        assert equal_up_to_affine(fn, value_function(dp)) is not None

    def test_tampered_redundant_edge_detected(self):
        dp = support.guess_the_state_problem()
        data = generate_identification(dp, uniform_belief(3), include_all_edges=True)
        last = data.cardinal[-1]
        tampered = IdentificationData(
            data.prior,
            data.ordinal,
            data.cardinal[:-1]
            + (UtilityDifference(last.lhs, last.rhs, last.gap + 1, last.edge),),
        )
        with pytest.raises(InconsistentData):
            reconstruct_value(tampered)

    def test_extra_difference_over_more_states_rejected(self):
        # a difference the tree does not use is checked by a gap over the
        # pieces' rows, which must not truncate four-state atoms: the data
        # rejects such a difference, whose sides are over other states than the prior
        dp = support.guess_the_state_problem()
        data = generate_identification(dp, uniform_belief(3), include_all_edges=True)
        wide = PosteriorDistribution.point_mass(uniform_belief(4))
        extra = UtilityDifference(wide, wide, 0, data.cardinal[0].edge)
        with pytest.raises(ShapeMismatch, match="4 coordinates where 3 are expected"):
            IdentificationData(data.prior, data.ordinal, data.cardinal + (extra,))

    def test_swapped_sides_with_negated_gap_are_equivalent(self):
        # E[lhs] = E[rhs] + gap says the same thing as E[rhs] = E[lhs] - gap
        dp = support.safe_or_bet_problem()
        data = generate_identification(dp, belief("2/5", "3/5"))
        d = data.cardinal[0]
        mirrored = IdentificationData(
            data.prior,
            data.ordinal,
            (UtilityDifference(d.rhs, d.lhs, -d.gap, d.edge),),
        )
        fn = reconstruct_value(mirrored)
        assert equal_up_to_affine(fn, value_function(dp)) == AffineFn((0, 0))

    def test_negated_gap_breaks_the_envelope(self):
        dp = support.safe_or_bet_problem()
        data = generate_identification(dp, belief("2/5", "3/5"))
        d = data.cardinal[0]
        tampered = IdentificationData(
            data.prior,
            data.ordinal,
            (UtilityDifference(d.lhs, d.rhs, -d.gap, d.edge),),
        )
        with pytest.raises(InconsistentData):
            reconstruct_value(tampered)

    @pytest.mark.parametrize("edge", [(0, 5), (5, 0), (0, -1)])
    def test_edge_out_of_range_is_malformed(self, edge):
        data = generate_identification(support.safe_or_bet_problem(), uniform_belief(2))
        d = data.cardinal[0]
        broken = IdentificationData(
            data.prior, data.ordinal, (UtilityDifference(d.lhs, d.rhs, d.gap, edge),)
        )
        with pytest.raises(MalformedData, match="difference 0"):
            reconstruct_value(broken)

    @pytest.mark.parametrize("root", [-1, 2])
    def test_root_out_of_range_is_malformed(self, root):
        data = generate_identification(support.safe_or_bet_problem(), uniform_belief(2))
        moved = IdentificationData(data.prior, data.ordinal, data.cardinal, root)
        with pytest.raises(MalformedData, match=f"root cell {root} is out of range"):
            reconstruct_value(moved)

    @pytest.mark.parametrize("root", ["x", None, 0.0, True, False])
    def test_root_that_is_not_an_index_is_malformed(self, root):
        data = generate_identification(support.safe_or_bet_problem(), uniform_belief(2))
        moved = IdentificationData(data.prior, data.ordinal, data.cardinal, root)
        with pytest.raises(MalformedData, match="is not a cell index"):
            reconstruct_value(moved)

    def test_anchor_outside_the_child_cell_is_malformed(self):
        # the anchor is inside cell 1; the reversed edge names cell 0 as the child
        data = generate_identification(support.safe_or_bet_problem(), uniform_belief(2))
        d = data.cardinal[0]
        reversed_edge = UtilityDifference(d.lhs, d.rhs, d.gap, (1, 0))
        broken = IdentificationData(data.prior, data.ordinal, (reversed_edge,))
        with pytest.raises(MalformedData, match="anchor atom is not in cell 0"):
            reconstruct_value(broken)

    def test_edge_between_cells_that_do_not_meet_is_malformed(self):
        # a chain of three cells: the (1, 2) difference's anchor is in cell 2,
        # which does not meet cell 0
        dp = make_problem([[0, 0], [-1, 1], [-3, 2]])
        data = generate_identification(dp, belief("1/10", "9/10"))
        first, second = data.cardinal
        skipping = UtilityDifference(second.lhs, second.rhs, second.gap, (0, 2))
        broken = IdentificationData(data.prior, data.ordinal, (first, skipping))
        with pytest.raises(MalformedData, match=r"edge \(0, 2\) does not join adjacent cells"):
            reconstruct_value(broken)

    def test_anchor_on_the_facet_is_singular(self):
        # the two cells of two_peak_problem meet at the uniform belief
        data = generate_identification(support.two_peak_problem(), uniform_belief(2))
        facet = uniform_belief(2)
        lhs = PosteriorDistribution([(facet, "1/2"), (belief(1, 0), "1/4"), (belief(0, 1), "1/4")])
        rhs = PosteriorDistribution.point_mass(facet)
        singular = UtilityDifference(lhs, rhs, 1, (0, 1))
        broken = IdentificationData(data.prior, data.ordinal, (singular,))
        with pytest.raises(SingularSolve, match="anchor on the facet"):
            reconstruct_value(broken)

    ENDS = PosteriorDistribution([(belief(1, 0), "1/2"), (belief(0, 1), "1/2")])

    @pytest.mark.parametrize(
        "rhs",
        [
            ENDS,
            # both ends stay, with other weights
            PosteriorDistribution(
                [(belief(1, 0), "1/4"), (belief(0, 1), "1/4"), (uniform_belief(2), "1/2")]
            ),
        ],
    )
    def test_other_than_one_differing_atom_is_malformed(self, rhs):
        data = generate_identification(support.two_peak_problem(), uniform_belief(2))
        difference = UtilityDifference(self.ENDS, rhs, 1, (0, 1))
        broken = IdentificationData(data.prior, data.ordinal, (difference,))
        with pytest.raises(MalformedData, match="exactly one shared atom"):
            reconstruct_value(broken)

    def test_non_spanning_data_rejected(self):
        from infoval.decision import make_problem

        dp = make_problem([[0, 0], [-1, 1], [-3, 2]])
        data = generate_identification(dp, belief("1/2", "1/2"))
        broken = IdentificationData(data.prior, data.ordinal, data.cardinal[:1])
        with pytest.raises(MalformedData):
            reconstruct_value(broken)


class TestWalkOrder:
    """The pieces do not depend on the order of the differences or the root."""

    @staticmethod
    def cyclic_data(seed):
        # three states and up to eight actions: cells often meet around a
        # vertex, so the differences close cycles and the walk decides which
        # of them solve a piece and which are checked
        rng = Random(seed)
        dp = support.random_problem(rng, n=3, max_actions=8, max_denominator=10)
        prior = support.random_interior_prior(rng, dp.n)
        return generate_identification(dp, prior, include_all_edges=True)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32), st.data())
    def test_permuted_differences_give_the_same_pieces(self, seed, choices):
        data = self.cyclic_data(seed)
        t = len(data.cardinal)
        assume(t)
        order = [data.cardinal[k] for k in choices.draw(st.permutations(range(t)))]
        permuted = IdentificationData(data.prior, data.ordinal, order)
        assert reconstruct_value(permuted).pieces == reconstruct_value(data).pieces
        d = data.cardinal[choices.draw(st.integers(0, t - 1))]
        duplicate = UtilityDifference(d.lhs, d.rhs, d.gap + 1, d.edge)
        order.insert(choices.draw(st.integers(0, t)), duplicate)
        with pytest.raises(InconsistentData):
            reconstruct_value(IdentificationData(data.prior, data.ordinal, order))

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**32), st.data())
    def test_moving_the_root_shifts_every_piece_alike(self, seed, choices):
        # from another root the walk crosses differences against their edge
        data = self.cyclic_data(seed)
        pieces = reconstruct_value(data).pieces
        root = choices.draw(st.integers(0, len(pieces) - 1))
        moved = IdentificationData(data.prior, data.ordinal, data.cardinal, root)
        assert reconstruct_value(moved).pieces == tuple(p - pieces[root] for p in pieces)


class TestOrderedExpectationFields:
    @pytest.mark.parametrize(
        "relation, tag, message",
        [
            ("ge", CellAffine(0), "relation must be 'eq' or 'gt'"),
            ("eq", PairNonAffine(0, 1), "equalities must carry a cell tag"),
            ("gt", CellAffine(0), "strict inequalities must carry a pair tag"),
        ],
    )
    def test_relation_and_tag_checked(self, relation, tag, message):
        d = PosteriorDistribution.point_mass(uniform_belief(2))
        with pytest.raises(ValueError, match=message):
            OrderedExpectation(d, d, relation, tag)

    def test_sides_with_other_means_rejected(self):
        d = PosteriorDistribution.point_mass(uniform_belief(2))
        other = PosteriorDistribution.point_mass(belief("1/3", "2/3"))
        with pytest.raises(ValueError, match="ordered expectation must share their mean"):
            OrderedExpectation(d, other, "eq", CellAffine(0))


class TestUtilityDifferenceFields:
    def test_sides_with_other_means_rejected(self):
        d = PosteriorDistribution.point_mass(uniform_belief(2))
        other = PosteriorDistribution.point_mass(belief("1/3", "2/3"))
        with pytest.raises(ValueError, match="utility difference must share their mean"):
            UtilityDifference(d, other, 1, (0, 1))

    def test_float_gap_rejected(self):
        d = PosteriorDistribution([(uniform_belief(2), 1)])
        with pytest.raises(TypeError):
            UtilityDifference(d, d, 0.1, (0, 1))
        assert UtilityDifference(d, d, "1/10", (0, 1)).gap == Fraction(1, 10)

    @pytest.mark.parametrize("edge", [(0, 1, 7), (0,), (), None, 3])
    def test_edge_of_other_than_two_cells_rejected(self, edge):
        d = PosteriorDistribution([(uniform_belief(2), 1)])
        with pytest.raises(MalformedData, match="names two cells"):
            UtilityDifference(d, d, 1, edge)

    @pytest.mark.parametrize("edge", [(0.7, 1.9), ("x", 1), (0, "1"), (True, 0), (0, Fraction(1))])
    def test_edge_of_other_than_int_indices_rejected(self, edge):
        # a float edge was truncated to (0, 1), and a string one raised a bare ValueError
        d = PosteriorDistribution([(uniform_belief(2), 1)])
        with pytest.raises(MalformedData, match="names two cells by int index"):
            UtilityDifference(d, d, 1, edge)


class TestIdentificationDataFields:
    """Identification data is at one prior, read by _require_prior, which every side averages to."""

    @staticmethod
    def data() -> IdentificationData:
        return generate_identification(support.two_peak_problem(), uniform_belief(2))

    def test_other_prior_rejected(self):
        # reconstruct_value reads no prior, so it accepted such data, which
        # ranked_experiments_of rejected
        data = self.data()
        message = "statement 0 averages to (1/2, 1/2), not to the prior (1/3, 2/3)"
        with pytest.raises(MeanMismatch, match=f"^{re.escape(message)}$"):
            IdentificationData(belief("1/3", "2/3"), data.ordinal, data.cardinal)

    def test_difference_off_the_prior_named_by_index(self):
        data = self.data()
        off = PosteriorDistribution.point_mass(belief("1/3", "2/3"))
        extra = UtilityDifference(off, off, 0, (0, 1))
        with pytest.raises(MeanMismatch, match=f"^difference {len(data.cardinal)} averages to"):
            IdentificationData(data.prior, data.ordinal, data.cardinal + (extra,))

    @pytest.mark.parametrize(
        "prior, error",
        [("x", UnreadableEntry), ((1, 0), BoundaryPrior), ((0.5, "1/2"), TypeError)],
        ids=["unreadable", "boundary", "float"],
    )
    def test_prior_read_by_require_prior(self, prior, error):
        with pytest.raises(error):
            IdentificationData(prior, (), ())

    def test_raw_tuple_prior_read_as_belief(self):
        data = self.data()
        raw = IdentificationData(data.prior.coords, data.ordinal, data.cardinal)
        assert raw == data and type(raw.prior) is Belief


POINT = PosteriorDistribution.point_mass(uniform_belief(2))
CLEAR = Experiment.fully_revealing(2)
PRIOR = uniform_belief(2)

# every part that holds a distribution or a statement, and every argument
# that is a polytope, a cell, a problem, a subdivision, a value function,
# data, an experiment or a distribution, each given an int
WRONG_TYPED_PARTS = {
    "OrderedExpectation.lhs": (
        lambda: OrderedExpectation(5, 5, "eq", CellAffine(0)),
        "lhs must be of type PosteriorDistribution, got 5",
    ),
    "OrderedExpectation.rhs": (
        lambda: OrderedExpectation(POINT, 5, "eq", CellAffine(0)),
        "rhs must be of type PosteriorDistribution, got 5",
    ),
    "UtilityDifference.lhs": (
        lambda: UtilityDifference(5, 5, 1, (0, 1)),
        "lhs must be of type PosteriorDistribution, got 5",
    ),
    "IdentificationData.ordinal": (
        lambda: IdentificationData(uniform_belief(2), (5,), ()),
        "statement 0 must be of type OrderedExpectation, got 5",
    ),
    "IdentificationData.cardinal": (
        lambda: IdentificationData(uniform_belief(2), (), (5,)),
        "difference 0 must be of type UtilityDifference, got 5",
    ),
    "RankedExperiment.lhs": (
        lambda: satisfies_ranked(
            support.two_peak_problem(),
            uniform_belief(2),
            [RankedExperiment(5, 5, Order.EQUAL, CellAffine(0))],
        ),
        "lhs must be of type Experiment, got 5",
    ),
    "satisfies_ranked item": (
        lambda: satisfies_ranked(support.two_peak_problem(), uniform_belief(2), [5]),
        "ranked experiment 0 must be of type RankedExperiment, got 5",
    ),
    "RankedExperiment.tag-equal": (
        lambda: RankedExperiment(*[Experiment.uninformative(2)] * 2, Order.EQUAL, 5),
        "tag must be of type CellAffine, got 5",
    ),
    "RankedExperiment.tag-better": (
        lambda: RankedExperiment(*[Experiment.uninformative(2)] * 2, Order.BETTER, CellAffine(0)),
        "tag must be of type PairNonAffine, got CellAffine(cell=0)",
    ),
    "expected_value.dp": (
        lambda: expected_value(5, POINT), "dp must be of type DecisionProblem, got 5"
    ),
    "expected_value.dist": (
        lambda: expected_value(support.two_peak_problem(), 5),
        "dist must be of type PosteriorDistribution, got 5",
    ),
    "experiment_of.dist": (
        lambda: experiment_of(uniform_belief(2), 5),
        "dist must be of type PosteriorDistribution, got 5",
    ),
    "bayes_split.experiment": (
        lambda: bayes_split(uniform_belief(2), 5), "experiment must be of type Experiment, got 5"
    ),
    "value_of_experiment.dp": (
        lambda: value_of_experiment(5, uniform_belief(2), CLEAR),
        "dp must be of type DecisionProblem, got 5",
    ),
    "value_of_experiment.experiment": (
        lambda: value_of_experiment(support.two_peak_problem(), uniform_belief(2), 5),
        "experiment must be of type Experiment, got 5",
    ),
    "rank.dp": (
        lambda: rank(5, uniform_belief(2), CLEAR, CLEAR),
        "dp must be of type DecisionProblem, got 5",
    ),
    "rank.first": (
        lambda: rank(support.two_peak_problem(), uniform_belief(2), 5, CLEAR),
        "first must be of type Experiment, got 5",
    ),
    "rank.second": (
        lambda: rank(support.two_peak_problem(), uniform_belief(2), CLEAR, 5),
        "second must be of type Experiment, got 5",
    ),
    "garble.experiment": (
        lambda: garble(5, [[1]]), "experiment must be of type Experiment, got 5"
    ),
    "interior_point": (lambda: interior_point(5), "poly must be of type Polytope, got 5"),
    "adjacent_facets": (lambda: adjacent_facets([5]), "cell 0 must be of type Polytope, got 5"),
    "Subdivision.from_cells": (
        lambda: Subdivision.from_cells([5]), "cell 0 must be of type Cell, got 5"
    ),
    "compute_subdivision": (
        lambda: compute_subdivision(5), "dp must be of type DecisionProblem, got 5"
    ),
    "undominated_actions": (
        lambda: undominated_actions(5), "dp must be of type DecisionProblem, got 5"
    ),
    "value_function": (lambda: value_function(5), "dp must be of type DecisionProblem, got 5"),
    "evaluate_value": (
        lambda: evaluate_value(5, PRIOR), "dp must be of type DecisionProblem, got 5"
    ),
    "scale_problem": (lambda: scale_problem(5, 2), "dp must be of type DecisionProblem, got 5"),
    "equal_up_to_affine": (
        lambda: equal_up_to_affine(5, 5), "first must be of type PiecewiseAffineFn, got 5"
    ),
    "equal_up_to_affine.second": (
        lambda: equal_up_to_affine(value_function(support.two_peak_problem()), 5),
        "second must be of type PiecewiseAffineFn, got 5",
    ),
    "equal_up_to_state_transfer": (
        lambda: equal_up_to_state_transfer(5, support.two_peak_problem()),
        "dp1 must be of type DecisionProblem, got 5",
    ),
    "equal_up_to_state_transfer.dp2": (
        lambda: equal_up_to_state_transfer(support.two_peak_problem(), 5),
        "dp2 must be of type DecisionProblem, got 5",
    ),
    "PiecewiseAffineFn": (
        lambda: PiecewiseAffineFn(5, ()), "subdivision must be of type Subdivision, got 5"
    ),
    "gen_affineness_equalities": (
        lambda: gen_affineness_equalities(5, PRIOR), "sub must be of type Subdivision, got 5"
    ),
    "gen_nonaffineness_inequalities": (
        lambda: gen_nonaffineness_inequalities(5, PRIOR),
        "sub must be of type Subdivision, got 5",
    ),
    "gen_utility_differences": (
        lambda: gen_utility_differences(5, PRIOR), "dp must be of type DecisionProblem, got 5"
    ),
    "gen_utility_differences.subdivision": (
        lambda: gen_utility_differences(support.two_peak_problem(), PRIOR, subdivision=5),
        "subdivision must be of type Subdivision, got 5",
    ),
    "generate_identification": (
        lambda: generate_identification(5, PRIOR), "dp must be of type DecisionProblem, got 5"
    ),
    "satisfies_ordinal.dp": (
        lambda: satisfies_ordinal(5, generate_identification(support.two_peak_problem(), PRIOR)),
        "dp must be of type DecisionProblem, got 5",
    ),
    "satisfies_ordinal.data": (
        lambda: satisfies_ordinal(support.two_peak_problem(), 5),
        "data must be of type IdentificationData, got 5",
    ),
    "extract_subdivision": (
        lambda: extract_subdivision(5), "data must be of type IdentificationData, got 5"
    ),
    "reconstruct_value": (
        lambda: reconstruct_value(5), "data must be of type IdentificationData, got 5"
    ),
    "transport_problem": (
        lambda: transport_problem(5, PRIOR, PRIOR), "dp must be of type DecisionProblem, got 5"
    ),
    "ranked_experiments_of": (
        lambda: ranked_experiments_of(5), "data must be of type IdentificationData, got 5"
    ),
    # an empty list never reaches rank, so the problem is checked first
    "satisfies_ranked.dp": (
        lambda: satisfies_ranked(5, PRIOR, []), "dp must be of type DecisionProblem, got 5"
    ),
}


@pytest.mark.parametrize("call, message", WRONG_TYPED_PARTS.values(), ids=WRONG_TYPED_PARTS.keys())
def test_wrong_typed_part_is_malformed(call, message):
    with pytest.raises(MalformedData, match=f"^{re.escape(message)}$"):
        call()


class TestEqualUpToAffine:
    def test_constant_shift(self):
        dp = support.safe_or_bet_problem()
        fn = value_function(dp)
        from infoval.decision import PiecewiseAffineFn

        lifted = PiecewiseAffineFn(
            fn.subdivision,
            tuple(p + AffineFn((5, 5)) for p in fn.pieces),
        )
        assert equal_up_to_affine(fn, lifted) == AffineFn((5, 5))

    def test_linear_shift(self):
        dp = support.safe_or_bet_problem()
        fn = value_function(dp)
        from infoval.decision import PiecewiseAffineFn

        lifted = PiecewiseAffineFn(
            fn.subdivision,
            tuple(p + AffineFn((3, 0)) for p in fn.pieces),
        )
        assert equal_up_to_affine(fn, lifted) == AffineFn((3, 0))

    def test_other_geometry_is_not_affine(self):
        fn = value_function(support.two_peak_problem())
        assert equal_up_to_affine(fn, value_function(make_problem([[2, 0], [0, 1]]))) is None

    def test_scaling_is_not_affine(self):
        dp = support.safe_or_bet_problem()
        assert (
            equal_up_to_affine(
                value_function(dp), value_function(scale_problem(dp, 2))
            )
            is None
        )


class TestRandomRoundtrips:
    def test_small_random_battery(self):
        rng = Random(2024)
        for _ in range(12):
            dp = support.random_problem(rng, max_actions=5, max_denominator=10)
            prior = support.random_interior_prior(rng, dp.n)
            data = generate_identification(dp, prior)
            assert satisfies_ordinal(dp, data)
            assert satisfies_ordinal(scale_problem(dp, Fraction(1, 2)), data)
            assert extract_subdivision(data).match_cells(compute_subdivision(dp)) is not None
            fn = reconstruct_value(data)
            assert equal_up_to_affine(fn, value_function(dp)) is not None

    @pytest.mark.parametrize("n", [7, 8])
    def test_seven_and_eight_state_battery(self, n):
        rng = Random(n)
        for _ in range(3):
            dp = support.random_problem(rng, n=n, max_actions=5)
            prior = support.random_interior_prior(rng, n)
            fn = reconstruct_value(generate_identification(dp, prior))
            assert equal_up_to_affine(fn, value_function(dp)) is not None

    def test_ordinal_statements_have_prior_mean(self):
        rng = Random(77)
        dp = support.random_problem(rng, n=3, max_actions=4)
        prior = support.random_interior_prior(rng, 3)
        data = generate_identification(dp, prior, include_all_edges=True)
        for s in data.ordinal:
            assert s.lhs.mean == prior and s.rhs.mean == prior
        for d in data.cardinal:
            assert d.lhs.mean == prior and d.rhs.mean == prior
            assert d.gap > 0


class TestEquivalences:
    """The data depend only on what the paper identifies (ROADMAP item 14, first stage).

    A problem is identified up to a state-dependent payoff transfer, and
    only its undominated actions count, each once. So adding one transfer
    to every action, inserting a strictly dominated action anywhere, or
    repeating an action after itself leaves the pickled data byte-identical.
    Relabeling is left out: cells are ordered by action index.
    """

    @staticmethod
    def drawn(seed: int, n: int):
        """A seeded problem (at most 6 actions), its prior, and the rng to alter it with."""
        rng = Random(seed)
        dp = support.random_problem(rng, n, max_actions=6)
        return dp, support.random_interior_prior(rng, n), rng

    @staticmethod
    def data(rows, prior) -> bytes:
        data = generate_identification(make_problem(rows), prior, include_all_edges=True)
        return pickle.dumps(data)

    @settings(max_examples=80, deadline=None, phases=support.NO_SHRINK)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 5))
    def test_state_dependent_transfer(self, seed, n):
        dp, prior, rng = self.drawn(seed, n)
        transfer = [Fraction(rng.randint(-40, 40), rng.randint(1, 20)) for _ in range(n)]
        moved = [[u + t for u, t in zip(row, transfer)] for row in dp.utility]
        assert self.data(moved, prior) == self.data(dp.utility, prior)

    @settings(max_examples=80, deadline=None, phases=support.NO_SHRINK)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 5))
    def test_strictly_dominated_action_inserted(self, seed, n):
        dp, prior, rng = self.drawn(seed, n)
        rows = list(dp.utility)
        below = [u - Fraction(rng.randint(1, 40), rng.randint(1, 20)) for u in rng.choice(rows)]
        rows.insert(rng.randint(0, len(rows)), below)
        assert self.data(rows, prior) == self.data(dp.utility, prior)

    @settings(max_examples=80, deadline=None, phases=support.NO_SHRINK)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 5))
    def test_duplicated_action(self, seed, n):
        dp, prior, rng = self.drawn(seed, n)
        rows = list(dp.utility)
        a = rng.randrange(len(rows))
        rows.insert(rng.randint(a + 1, len(rows)), rows[a])
        assert self.data(rows, prior) == self.data(dp.utility, prior)


class TestClosedFormWitnesses:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 10**12),
        st.integers(1, 10**12),
        st.integers(1, 10**12),
        st.integers(1, 10**12),
    )
    @example(1, 1, 1, 1)
    @example(8, 1, 1, 1)
    @example(1, 1, 1, 2**40)
    @example(3, 4, 3, 8)
    def test_halvings_match_the_search(self, dn, dd, bn, bd):
        d, b = Fraction(dn, dd), Fraction(bn, bd)
        assert _halvings(d, b) == support.halvings_by_search(d, b)

    def test_residual_steps_past_a_cell_vertex(self):
        # at this prior the first residual weight 1/2 lands the residual on
        # the cell vertex (1/2, 1/2), so the weight is halved once more
        sub = compute_subdivision(support.two_peak_problem())
        first = gen_affineness_equalities(sub, belief("5/8", "3/8"))[0]
        assert atoms_of(first.lhs) == {
            ((Fraction(1, 2), Fraction(1, 2)), Fraction(1, 8)),
            ((Fraction(7, 12), Fraction(5, 12)), Fraction(3, 4)),
            ((Fraction(1), Fraction(0)), Fraction(1, 8)),
        }

    def test_round_trip_at_a_prior_410_halvings_from_the_boundary(self):
        dp = support.two_peak_problem()
        tiny = Fraction(1, 2**410)
        data = generate_identification(dp, Belief((tiny, 1 - tiny)))
        assert satisfies_ordinal(dp, data)
        assert equal_up_to_affine(reconstruct_value(data), value_function(dp)) is not None


def _outcome(call, *args):
    """What call returns, or the type and message of the MalformedData it raises."""
    try:
        return call(*args)
    except MalformedData as exc:
        return type(exc), str(exc)


class TestWitnessesAgainstFractions:
    """The integer witness kernels against the Fraction arithmetic they replaced."""

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.integers(2, 5))
    def test_residual_point(self, data, n):
        prior = data.draw(support.mixed_beliefs(n).filter(Belief.is_interior))
        anchor = data.draw(support.mixed_beliefs(n) | st.just(prior))
        # the residuals of the first halvings, so that forbidding them forces more
        residuals = []
        for _ in range(3):
            found = _outcome(support.residual_point_by_fractions, prior, anchor, set(residuals))
            if not isinstance(found[0], Belief):
                break
            residuals.append(found[0])
        others = data.draw(st.lists(support.mixed_beliefs(n), max_size=2))
        forbidden = {b for b in residuals + [prior, anchor] + others if data.draw(st.booleans())}
        got = _outcome(_residual_point, prior, anchor, forbidden)
        expected = _outcome(support.residual_point_by_fractions, prior, anchor, forbidden)
        assert got == expected and repr(got) == repr(expected)

    @pytest.mark.parametrize("prior", [uniform_belief(2), belief("1/7", "2/7", "4/7")])
    def test_residual_at_a_forbidden_prior_is_malformed(self, prior):
        for residual in (_residual_point, support.residual_point_by_fractions):
            with pytest.raises(MalformedData, match="every residual falls on a point of the cell"):
                residual(prior, prior, {prior})

    @settings(max_examples=40, deadline=None, phases=support.NO_SHRINK)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(2, 5))
    def test_residual_difference(self, seed, n):
        rng = Random(seed)
        dp = support.random_problem(rng, n, max_actions=6)
        prior = support.random_interior_prior(rng, n)
        sub = compute_subdivision(dp)
        for pair in sub.adjacency:
            for parent, child in ((pair.i, pair.j), (pair.j, pair.i)):
                got = _outcome(_residual_difference, sub, prior, parent, child)
                expected = _outcome(
                    support.residual_difference_by_fractions, sub, prior, parent, child
                )
                assert got == expected and repr(got) == repr(expected)

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.integers(2, 5))
    def test_point_on_line(self, data, n):
        origin, toward = data.draw(support.mixed_beliefs(n)), data.draw(support.mixed_beliefs(n))
        t = data.draw(support.fractions(-16, 16, 16))
        line = _line(origin, toward)
        o, d, e = line
        direction = tuple(Fraction(v, e) for v in d)
        assert tuple(Fraction(v, e) for v in o) == origin.coords
        assert direction == tuple(h - x for h, x in zip(toward.coords, origin.coords))
        normals = st.lists(st.integers(-3, 3), min_size=n, max_size=n).filter(
            lambda g: len(set(g)) > 1
        )
        cuts = data.draw(st.lists(st.tuples(normals, support.fractions(-1, 1, 6)), max_size=3))
        poly = Polytope(tuple(Halfspace(tuple(g), c) for g, c in cuts), (), n)
        window = _line_window(*line, poly)
        assert window == support.interval_by_fractions(origin, direction, poly)
        expected = support.point_on_line(origin, direction, t)
        assume(min(expected) >= 0)
        got = _on_line(line, t)
        assert got == Belief(expected) and repr(got) == repr(Belief(expected))


class TestCentersOnce:
    """generate_identification averages each cell and each shared face once."""

    @pytest.mark.parametrize(
        "dp",
        [
            support.two_peak_problem(),
            support.safe_or_bet_problem(),
            support.guess_the_state_problem(),
            *(support.random_problem(Random(seed), n=2 + seed % 4, max_actions=6) for seed in range(6)),
        ],
    )
    def test_one_barycenter_per_cell_and_shared_face(self, dp, monkeypatch):
        averaged = []

        def counted(points):
            averaged.append(points)
            return barycenter(points)

        monkeypatch.setattr(geometry, "barycenter", counted)
        generate_identification(dp, uniform_belief(dp.n), include_all_edges=True)
        sub = compute_subdivision(dp)
        faces = [cell.geometry for cell in sub.cells] + [pair.shared for pair in sub.adjacency]
        assert sorted(averaged) == sorted(face.vertices for face in faces)


def spanning_tree_of(sub, prior):
    return sub.spanning_tree()


def differences_on(sub, prior):
    return gen_utility_differences(support.safe_or_bet_problem(), prior, subdivision=sub)


class TestForeignSubdivision:
    def test_disconnected_subdivision_is_malformed(self):
        dp = support.safe_or_bet_problem()
        cut = Subdivision(compute_subdivision(dp).cells, ())
        with pytest.raises(MalformedData):
            gen_utility_differences(dp, uniform_belief(2), subdivision=cut)

    @pytest.mark.parametrize("n, other", [(3, 2), (2, 3)])
    def test_subdivision_over_other_states_is_a_shape_mismatch(self, n, other):
        problems = {2: support.two_peak_problem(), 3: support.guess_the_state_problem()}
        sub = compute_subdivision(problems[other])
        with pytest.raises(ShapeMismatch, match=f"^{n} coordinates where {other} are expected$"):
            gen_utility_differences(problems[n], uniform_belief(n), subdivision=sub)

    def test_subdivision_of_another_problem_is_inconsistent(self):
        flat = make_problem([[0, 0], [-5, -5]])
        other = compute_subdivision(support.safe_or_bet_problem())
        with pytest.raises(InconsistentData):
            gen_utility_differences(flat, uniform_belief(2), subdivision=other)

    @pytest.mark.parametrize(
        "generate",
        [
            gen_affineness_equalities,
            gen_nonaffineness_inequalities,
            spanning_tree_of,
            differences_on,
        ],
    )
    def test_subdivision_without_cells_is_malformed(self, generate):
        with pytest.raises(MalformedData, match="at least one cell"):
            generate(Subdivision((), ()), uniform_belief(2))

    def test_point_cell_at_the_prior_is_malformed(self):
        point = Polytope((), (uniform_belief(2),), 2)
        with pytest.raises(MalformedData):
            gen_affineness_equalities(Subdivision((Cell(0, point),), ()), uniform_belief(2))

    def test_facet_over_other_states_is_a_shape_mismatch(self):
        dp = support.safe_or_bet_problem()
        sub = compute_subdivision(dp)
        pair = sub.adjacency[0]
        wide = Halfspace(pair.halfspace.normal + (0,), pair.halfspace.offset)
        foreign = Subdivision(sub.cells, (AdjacentPair(pair.i, pair.j, pair.shared, wide),))
        with pytest.raises(ShapeMismatch, match="^3 coordinates where 2 are expected$"):
            gen_utility_differences(dp, uniform_belief(2), subdivision=foreign)

    def test_pair_not_across_its_facet_is_malformed(self):
        sub = compute_subdivision(support.safe_or_bet_problem())
        pair = sub.adjacency[0]
        looped = Subdivision(sub.cells, (AdjacentPair(0, 0, pair.shared, pair.halfspace),))
        with pytest.raises(MalformedData):
            gen_nonaffineness_inequalities(looped, uniform_belief(2))
