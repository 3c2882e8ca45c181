from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import support
from infoval.decision import (
    AffineFn,
    Cell,
    PiecewiseAffineFn,
    Subdivision,
    _breadth_first,
    compute_subdivision,
    equal_up_to_state_transfer,
    evaluate_value,
    make_problem,
    scale_problem,
    undominated_actions,
    value_function,
)
from infoval.errors import InconsistentData, NonpositiveScale, ShapeMismatch
from infoval.geometry import Polytope, belief, interior_point, uniform_belief
from infoval.identification import extract_subdivision, generate_identification


class TestProblemValidation:
    def test_duplicate_rows_rejected(self):
        with pytest.raises(ValueError, match="duplicate action"):
            make_problem([[1, 0], [1, 0]])

    def test_single_state_rejected(self):
        with pytest.raises(ValueError, match="two states"):
            make_problem([[1], [2]])

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            make_problem([[0.5, 0.5], [0, 1]])


class TestEvaluateValue:
    def test_symmetric_peak(self):
        dp = support.two_peak_problem()
        assert evaluate_value(dp, belief("1/2", "1/2")) == Fraction(1, 2)

    def test_vertex(self):
        dp = support.two_peak_problem()
        assert evaluate_value(dp, belief("1", "0")) == 1

    def test_bet_problem(self):
        dp = support.safe_or_bet_problem()
        assert evaluate_value(dp, belief("2/5", "3/5")) == Fraction(1, 5)

    def test_belief_over_other_states_rejected(self):
        with pytest.raises(ShapeMismatch):
            evaluate_value(support.two_peak_problem(), uniform_belief(3))

    def test_payoff_at_belief_over_other_states_rejected(self):
        dp = make_problem([[1, 0], [0, 1]])
        with pytest.raises(ShapeMismatch):
            dp.payoff(0, belief("1/3", "1/3", "1/3"))

    def test_grid_matches_brute_force(self):
        rng = Random(7)
        for _ in range(5):
            dp = support.random_problem(rng, n=2, max_actions=5, max_denominator=6)
            for x in support.grid_beliefs(2, 12):
                brute = max(
                    sum(u * c for u, c in zip(row, x.coords)) for row in dp.utility
                )
                assert evaluate_value(dp, x) == brute


class TestUndominated:
    def test_flat_action_dominated(self):
        dp = support.two_peak_problem()
        assert undominated_actions(dp) == frozenset({0, 1})

    def test_single_action(self):
        dp = make_problem([[1, 2]])
        assert undominated_actions(dp) == frozenset({0})

    def test_bet_problem(self):
        dp = support.safe_or_bet_problem()
        assert undominated_actions(dp) == frozenset({0, 1})

    def test_tie_only_action_is_dominated(self):
        # the middle action equals the envelope only at x = (1/2, 1/2)
        dp = make_problem([[1, 0], [0, 1], ["1/2", "1/2"]])
        assert undominated_actions(dp) == frozenset({0, 1})

    def test_matches_dense_grid_maximin(self):
        rng = Random(21)
        for _ in range(8):
            dp = support.random_problem(rng, n=2, max_actions=4, max_denominator=5)
            lp_winners = undominated_actions(dp)
            grid = support.grid_beliefs(2, 240)
            grid_winners = set()
            for a in range(dp.num_actions):
                best = max(
                    min(
                        dp.payoff(a, x) - dp.payoff(b, x)
                        for b in range(dp.num_actions)
                        if b != a
                    )
                    for x in grid
                )
                if best > 0:
                    grid_winners.add(a)
            # the grid can only under-approximate strict optimality
            assert grid_winners <= lp_winners
            for a in lp_winners - grid_winners:
                # a thin winning region must still show up on a finer grid line
                assert any(
                    all(
                        dp.payoff(a, x) > dp.payoff(b, x)
                        for b in range(dp.num_actions)
                        if b != a
                    )
                    for x in support.grid_beliefs(2, 1201)
                )


@st.composite
def payoff_problems(draw, entries, states, max_actions):
    """Decision problems with distinct rows of the given entries."""
    n = draw(states)
    rows = draw(st.lists(st.tuples(*[entries] * n), min_size=1, max_size=max_actions, unique=True))
    return make_problem(rows)


small_fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


class TestLiftAgainstLP:
    """The lifted double description against the LP dominance and facet scan it replaced."""

    @staticmethod
    def check(dp):
        oracle = support.subdivision_by_lp(dp)
        assert undominated_actions(dp) == {cell.action_index for cell in oracle.cells}
        assert compute_subdivision(dp) == oracle

    @settings(max_examples=20, deadline=None)
    @given(payoff_problems(small_fractions, st.integers(2, 6), max_actions=16))
    def test_random_payoffs(self, dp):
        self.check(dp)

    @settings(max_examples=30, deadline=None)
    @given(payoff_problems(st.sampled_from([0, 1, 2]), st.integers(2, 4), max_actions=12))
    # flat actions that touch the envelope only at one vertex of the subdivision
    @example(make_problem([[1, 0], [0, 1], ["1/2", "1/2"]]))
    @example(make_problem([[1, 0, 0], [0, 1, 0], [0, 0, 1], ["1/3", "1/3", "1/3"]]))
    def test_tie_heavy_payoffs(self, dp):
        self.check(dp)

    def test_cells_sharing_n_minus_1_vertices_of_a_lower_face(self):
        # the cells of actions 4 and 5 share four vertices of a 2-face, which
        # is not a facet in five states, so they are not adjacent
        dp = make_problem(
            [
                [0, 0, 3, 2, 2], [0, 1, 3, 2, 2], [0, 2, 0, 0, 2], [2, 0, 3, 0, 2],
                [3, 0, 0, 3, 0], [3, 1, 0, 1, 2], [3, 2, 0, 2, 1], [3, 3, 0, 0, 0],
            ]
        )
        sub = compute_subdivision(dp)
        i, j = (k for k, cell in enumerate(sub.cells) if cell.action_index in (4, 5))
        common = set(sub.cells[i].geometry.vertices) & set(sub.cells[j].geometry.vertices)
        assert len(common) == 4 and sub.oriented_facet(i, j) is None
        self.check(dp)

    def test_seven_states(self):
        # seeded so that three of the eight actions are dominated
        dp = support.random_problem(Random(2), n=7, max_actions=8)
        assert dp.num_actions == 8 and len(undominated_actions(dp)) == 5
        self.check(dp)


class TestAdjacencyAgainstPairwiseScan:
    """Subdivision.from_cells against the pairwise facet scan kept in support."""

    @staticmethod
    def check(cells):
        assert Subdivision.from_cells(cells) == support.subdivision_by_pairs(cells)

    @settings(max_examples=15, deadline=None)
    @given(
        payoff_problems(small_fractions, st.integers(2, 5), max_actions=8)
        | payoff_problems(st.sampled_from([0, 1, 2]), st.integers(2, 4), max_actions=8),
        st.randoms(use_true_random=False),
    )
    def test_forward_and_extracted_cells(self, dp, rng):
        sub = compute_subdivision(dp)
        self.check(sub.cells)
        data = generate_identification(dp, support.random_interior_prior(rng, dp.n))
        self.check(extract_subdivision(data).cells)

    def test_overlapping_cells_rejected_by_both(self):
        edge = [belief(1, 0, 0), belief(0, "1/2", "1/2")]
        a = Polytope.from_vertices(edge + [belief(0, 0, 1)])
        b = Polytope.from_vertices(edge + [belief(0, 1, 0), belief("1/2", 0, "1/2")])
        cells = (Cell(0, a), Cell(1, b))
        for scan in (Subdivision.from_cells, support.subdivision_by_pairs):
            with pytest.raises(ValueError, match="does not support"):
                scan(cells)


class TestSubdivision:
    def test_two_peak_cells(self):
        sub = compute_subdivision(support.two_peak_problem())
        assert [c.action_index for c in sub.cells] == [0, 1]
        assert list(sub.cells[0].geometry.vertices) == [
            belief("1/2", "1/2"),
            belief("1", "0"),
        ]
        assert list(sub.cells[1].geometry.vertices) == [
            belief("0", "1"),
            belief("1/2", "1/2"),
        ]
        assert len(sub.adjacency) == 1

    def test_bet_cells(self):
        sub = compute_subdivision(support.safe_or_bet_problem())
        assert list(sub.cells[0].geometry.vertices) == [
            belief("1/2", "1/2"),
            belief("1", "0"),
        ]
        assert list(sub.cells[1].geometry.vertices) == [
            belief("0", "1"),
            belief("1/2", "1/2"),
        ]

    def test_three_state_cells_pairwise_adjacent(self):
        sub = compute_subdivision(support.guess_the_state_problem())
        assert len(sub.cells) == 3
        center = belief("1/3", "1/3", "1/3")
        for cell in sub.cells:
            assert center in cell.geometry.vertices
        assert {(p.i, p.j) for p in sub.adjacency} == {(0, 1), (0, 2), (1, 2)}
        assert sub.spanning_tree() == [(0, 1), (0, 2)]

    def test_breadth_first_takes_the_lowest_neighbor_first(self):
        # a four-cycle 0-1-3-2-0 with links given in either orientation
        links = [(2, 3), (0, 2), (1, 0), (3, 1)]
        assert _breadth_first(links, 0) == [(0, 1), (0, 2), (1, 3)]
        assert _breadth_first(links, 3) == [(3, 1), (3, 2), (1, 0)]
        assert _breadth_first(links[:2], 1) == []

    def test_cells_cover_grid(self):
        rng = Random(3)
        for _ in range(4):
            dp = support.random_problem(rng, n=3, max_actions=4, max_denominator=6)
            sub = compute_subdivision(dp)
            for x in support.grid_beliefs(3, 7):
                hits = sub.cells_containing(x)
                assert hits, f"{x} not covered"
                strict = [
                    i
                    for i in hits
                    if sub.cells[i].geometry.contains(x, strict=True)
                ]
                if strict:
                    assert len(strict) == 1

    def test_cell_actions_equal_undominated(self):
        rng = Random(11)
        for _ in range(6):
            dp = support.random_problem(rng, max_actions=5, max_denominator=8)
            sub = compute_subdivision(dp)
            assert {c.action_index for c in sub.cells} == set(undominated_actions(dp))

    def test_cells_full_dimensional_with_a_unique_optimum_inside(self):
        rng = Random(5)
        for _ in range(8):
            dp = support.random_problem(rng, max_actions=6, max_denominator=8)
            for cell in compute_subdivision(dp).cells:
                assert cell.geometry.is_full_dimensional()
                center = interior_point(cell.geometry)
                best = evaluate_value(dp, center)
                optimal = [a for a in range(dp.num_actions) if dp.payoff(a, center) == best]
                assert optimal == [cell.action_index]


class TestScaling:
    def test_entries(self):
        dp = scale_problem(support.safe_or_bet_problem(), 2)
        assert dp.utility == ((Fraction(0), Fraction(0)), (Fraction(-2), Fraction(2)))

    def test_identity(self):
        dp = support.two_peak_problem()
        assert scale_problem(dp, 1) == dp

    def test_subdivision_invariant(self):
        dp = support.two_peak_problem()
        scaled = scale_problem(dp, 3)
        assert scaled.utility[2] == (Fraction(6, 5), Fraction(6, 5))
        assert compute_subdivision(dp).same_geometry(compute_subdivision(scaled))

    def test_nonpositive_rejected(self):
        with pytest.raises(NonpositiveScale):
            scale_problem(support.two_peak_problem(), 0)

    def test_random_scaling_preserves_geometry(self):
        rng = Random(5)
        for _ in range(5):
            dp = support.random_problem(rng, max_actions=4, max_denominator=6)
            factor = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            assert compute_subdivision(dp).same_geometry(
                compute_subdivision(scale_problem(dp, factor))
            )


class TestStateTransfer:
    def test_pure_transfer_found(self):
        dp1 = support.two_peak_problem()
        shifted = make_problem([[6, 0], [5, 1], ["27/5", "2/5"]])
        got = equal_up_to_state_transfer(dp1, shifted)
        assert got is not None
        relabeling, transfer = got
        assert relabeling == {0: 0, 1: 1}
        assert transfer == AffineFn((5, 0))

    def test_scaling_is_not_a_transfer(self):
        dp = support.safe_or_bet_problem()
        assert equal_up_to_state_transfer(dp, scale_problem(dp, 2)) is None

    def test_relabeled_actions(self):
        dp1 = support.two_peak_problem()
        reversed_dp = make_problem([["2/5", "2/5"], [0, 1], [1, 0]])
        got = equal_up_to_state_transfer(dp1, reversed_dp)
        assert got is not None
        relabeling, transfer = got
        assert relabeling == {0: 2, 1: 1}
        assert transfer == AffineFn((0, 0))

    def test_transfer_invariance_of_subdivision(self):
        rng = Random(13)
        for _ in range(5):
            dp = support.random_problem(rng, max_actions=4, max_denominator=6)
            gamma = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(dp.n))
            moved = make_problem(
                [tuple(u + g for u, g in zip(row, gamma)) for row in dp.utility]
            )
            assert compute_subdivision(dp).same_geometry(compute_subdivision(moved))
            got = equal_up_to_state_transfer(dp, moved)
            assert got is not None
            assert got[1] == AffineFn(gamma)

    def test_equivalence_relation(self):
        rng = Random(17)
        dp = support.random_problem(rng, n=3, max_actions=4, max_denominator=5)
        self_rel = equal_up_to_state_transfer(dp, dp)
        assert self_rel is not None and self_rel[1] == AffineFn((0, 0, 0))

        gamma1 = (Fraction(1), Fraction(-2), Fraction(3))
        step1 = make_problem(
            [tuple(u + g for u, g in zip(row, gamma1)) for row in dp.utility]
        )
        forward = equal_up_to_state_transfer(dp, step1)
        backward = equal_up_to_state_transfer(step1, dp)
        assert forward is not None and backward is not None
        assert backward[1] == AffineFn(tuple(-g for g in gamma1))

        gamma2 = (Fraction(0), Fraction(5), Fraction(-1))
        step2 = make_problem(
            [tuple(u + g for u, g in zip(row, gamma2)) for row in step1.utility]
        )
        combined = equal_up_to_state_transfer(dp, step2)
        assert combined is not None
        assert combined[1] == AffineFn(tuple(a + b for a, b in zip(gamma1, gamma2)))


class TestValueFunction:
    def test_pieces_are_the_winning_rows(self):
        dp = support.safe_or_bet_problem()
        fn = value_function(dp)
        assert fn.pieces[0] == AffineFn((0, 0))
        assert fn.pieces[1] == AffineFn((-1, 1))
        assert fn(belief("2/5", "3/5")) == Fraction(1, 5)

    def test_point_over_other_states_rejected(self):
        fn = value_function(make_problem([[1, 0], [0, 1]]))
        with pytest.raises(ShapeMismatch):
            fn(belief("1/3", "1/3", "1/3"))
        with pytest.raises(ShapeMismatch):
            fn.pieces[0]((Fraction(1),))

    @pytest.mark.parametrize("combine", [AffineFn.__add__, AffineFn.__sub__])
    def test_sum_with_other_state_count_rejected(self, combine):
        with pytest.raises(ShapeMismatch):
            combine(AffineFn((1, 2)), AffineFn((1, 2, 3)))
        with pytest.raises(ShapeMismatch):
            combine(AffineFn((1, 2, 3)), AffineFn((1, 2)))

    def test_envelope_matches_evaluate_value(self):
        rng = Random(29)
        dp = support.random_problem(rng, n=3, max_actions=5, max_denominator=6)
        fn = value_function(dp)
        for x in support.grid_beliefs(3, 6):
            assert fn(x) == evaluate_value(dp, x)

    def test_pieces_disagreeing_on_a_shared_facet_rejected(self):
        # the third piece is lifted by one util, so it leaves the facets it
        # shares with the other two cells and rises above them at the corners
        # those facets share with its own cell
        sub = compute_subdivision(support.guess_the_state_problem())
        pieces = (AffineFn((1, 0, 0)), AffineFn((0, 1, 0)), AffineFn((1, 1, 2)))
        with pytest.raises(InconsistentData, match="piece 2 rises above piece 0 on cell 0"):
            PiecewiseAffineFn(sub, pieces)

    def test_continuous_pieces_that_are_not_convex_rejected(self):
        # both pieces vanish at the shared point (1/2, 1/2), but the kink
        # there bends down: a concave tent, not a convex function
        sub = compute_subdivision(support.safe_or_bet_problem())
        pieces = (AffineFn((0, 0)), AffineFn((1, -1)))
        with pytest.raises(InconsistentData, match="piece 1 rises above piece 0 on cell 0"):
            PiecewiseAffineFn(sub, pieces)
