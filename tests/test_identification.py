from fractions import Fraction
from random import Random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import support
from infoval.decision import (
    AdjacentPair,
    AffineFn,
    Cell,
    Subdivision,
    compute_subdivision,
    make_problem,
    scale_problem,
    value_function,
)
from infoval.errors import (
    BoundaryPrior,
    InconsistentData,
    MalformedData,
    ShapeMismatch,
    SingularSolve,
)
from infoval.geometry import Belief, Polytope, barycenter, belief, interior_point, uniform_belief
from infoval.identification import (
    CellAffine,
    IdentificationData,
    OrderedExpectation,
    PairNonAffine,
    UtilityDifference,
    equal_up_to_affine,
    extract_subdivision,
    gen_affineness_equalities,
    gen_nonaffineness_inequalities,
    gen_utility_differences,
    generate_identification,
    reconstruct_value,
    satisfies_ordinal,
    _halvings,
)
from infoval.information import PosteriorDistribution, expected_value
from infoval.spectral import spectral_of


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


class TestExtractSubdivision:
    def test_roundtrip_two_peak(self):
        dp = support.two_peak_problem()
        data = generate_identification(dp, uniform_belief(2))
        extracted = extract_subdivision(data)
        assert extracted.same_geometry(compute_subdivision(dp))

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
        assert extracted.same_geometry(reference)
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

    @pytest.mark.parametrize("edge", [(0, 1, 7), (0,), ()])
    def test_edge_of_other_than_two_cells_rejected(self, edge):
        d = PosteriorDistribution([(uniform_belief(2), 1)])
        with pytest.raises(MalformedData, match="names two cells"):
            UtilityDifference(d, d, 1, edge)


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
            assert extract_subdivision(data).same_geometry(compute_subdivision(dp))
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


class TestForeignSubdivision:
    def test_disconnected_subdivision_is_malformed(self):
        dp = support.safe_or_bet_problem()
        cut = Subdivision(compute_subdivision(dp).cells, ())
        with pytest.raises(MalformedData):
            gen_utility_differences(dp, uniform_belief(2), subdivision=cut)

    def test_subdivision_of_another_problem_is_inconsistent(self):
        flat = make_problem([[0, 0], [-5, -5]])
        other = compute_subdivision(support.safe_or_bet_problem())
        with pytest.raises(InconsistentData):
            gen_utility_differences(flat, uniform_belief(2), subdivision=other)

    @pytest.mark.parametrize(
        "generate", [gen_affineness_equalities, gen_nonaffineness_inequalities, spectral_of]
    )
    def test_subdivision_without_cells_is_malformed(self, generate):
        with pytest.raises(MalformedData, match="at least one cell"):
            generate(Subdivision((), ()), uniform_belief(2))

    def test_point_cell_at_the_prior_is_malformed(self):
        point = Polytope((), (uniform_belief(2),), 2)
        with pytest.raises(MalformedData):
            gen_affineness_equalities(Subdivision((Cell(0, point),), ()), uniform_belief(2))

    def test_pair_not_across_its_facet_is_malformed(self):
        sub = compute_subdivision(support.safe_or_bet_problem())
        pair = sub.adjacency[0]
        looped = Subdivision(sub.cells, (AdjacentPair(0, 0, pair.shared, pair.halfspace),))
        with pytest.raises(MalformedData):
            gen_nonaffineness_inequalities(looped, uniform_belief(2))
