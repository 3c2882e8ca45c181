import copy
import dataclasses
import pickle
import re
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import support
from infoval import geometry
from infoval.errors import EmptyInput, EmptyPolytope, ShapeMismatch
from infoval.geometry import (
    Belief,
    Halfspace,
    Polytope,
    _coords_of,
    _extreme_rays,
    _facet,
    _facet_halfspace,
    _integer_row,
    _kernel_ray,
    _normalized,
    _row_reduce,
    adjacent_facets,
    barycenter,
    belief,
    dimension,
    facet_between,
    hull_halfspaces,
    interior_interval_on_line,
    interior_point,
    vertices_of,
)
from infoval.information import PosteriorDistribution


def hs(normal, offset):
    return Halfspace(tuple(Fraction(v) for v in normal), Fraction(offset))


def corners(n):
    return [Belief(tuple(Fraction(int(i == j)) for j in range(n))) for i in range(n)]


class TestBelief:
    def test_valid(self):
        b = belief("1/2", "1/2")
        assert b.coords == (Fraction(1, 2), Fraction(1, 2))
        assert b.is_interior()

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            belief("3/2", "-1/2")

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            belief("1/2", "1/3")

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            Belief((0.5, 0.5))

    def test_lexicographic_order(self):
        assert belief("0", "1") < belief("1/2", "1/2") < belief("1", "0")

    def test_not_equal_to_its_coordinate_tuple(self):
        # Belief.__eq__ returns NotImplemented, so either operand order compares unequal
        assert Belief((1, 0)) != (1, 0)
        assert (1, 0) != Belief((1, 0))

    def test_not_ordered_against_its_coordinate_tuple(self):
        # Belief.__lt__ returns NotImplemented, so Python raises its own TypeError
        with pytest.raises(TypeError, match="not supported between instances"):
            Belief((1, 0)) < (1, 0)
        with pytest.raises(TypeError, match="not supported between instances"):
            (1, 0) > Belief((1, 0))

    def test_rejects_no_coordinates(self):
        with pytest.raises(ValueError, match="at least one coordinate"):
            Belief(())

    @settings(max_examples=150, deadline=None)
    @given(st.lists(support.fractions(0, 24, 12), min_size=1, max_size=6))
    @example([Fraction(1, 2), Fraction(1, 3)])
    @example([Fraction(0)])
    def test_bad_sum_names_the_fraction_sum(self, coords):
        assume(sum(coords) != 1)
        with pytest.raises(ValueError) as info:
            Belief(tuple(coords))
        assert str(info.value) == f"belief coordinates must sum to 1, got {sum(coords)}"


class TestBeliefHash:
    def test_equal_beliefs_built_apart_hash_equal_and_find_each_other(self):
        a = belief("1/3", "2/3")
        b = Belief((Fraction(2, 6), Fraction(4, 6)))
        assert a is not b and a == b and hash(a) == hash(b)
        assert {a: "found"}[b] == "found" and b in {a}

    def test_hash_is_the_coordinates_and_does_not_change(self):
        a = belief("1/4", "1/4", "1/2")
        first = hash(a)
        assert first == hash(a._ints)
        assert [hash(a) for _ in range(3)] == [first] * 3

    def test_repr_and_fields_are_the_coordinates_alone(self):
        a = belief("1/2", "1/2")
        hash(a)
        assert repr(a) == "Belief(coords=(Fraction(1, 2), Fraction(1, 2)))"
        assert [field.name for field in dataclasses.fields(Belief)] == ["coords"]

    @pytest.mark.parametrize("hashed", [False, True])
    def test_pickle_and_copy_round_trips(self, hashed):
        a = belief("1/5", "3/5", "1/5")
        if hashed:
            hash(a)
        assert pickle.dumps(a) == pickle.dumps(Belief(a.coords))  # the cached hash stays out
        for clone in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
            assert clone == a and hash(clone) == hash(a)
            assert repr(clone) == repr(a)


@st.composite
def built_beliefs(draw, n: int) -> tuple[Belief, Belief | None]:
    """(belief, oracle) for a belief built one of the library's ways, over n states.

    The oracle is the same belief built through Fractions and Belief's own
    checks, or None for a plain Belief or a clone, which the pair check alone
    covers. _normalized columns are ints or Fractions.
    """
    how = draw(st.sampled_from(["Belief", "normalized", "barycenter", "mean", "pickle", "copy"]))
    if how == "normalized":
        entries = support.fractions(0, 30, 9) | st.integers(0, 30)
        column = draw(st.lists(entries, min_size=n, max_size=n).filter(any))
        return _normalized(column), support.normalized_by_fractions(column)
    points = draw(st.lists(support.mixed_beliefs(n), min_size=1, max_size=4))
    if how == "barycenter":
        return barycenter(points), support.barycenter_by_fractions(points)
    if how == "mean":
        weights = draw(st.lists(st.integers(1, 9), min_size=len(points), max_size=len(points)))
        dist = PosteriorDistribution(
            (p, Fraction(w, sum(weights))) for p, w in zip(points, weights)
        )
        return dist.mean, support.mean_by_fractions(dist)
    clone = {"Belief": lambda b: b, "pickle": lambda b: pickle.loads(pickle.dumps(b)),
             "copy": copy.copy}[how]
    return clone(points[0]), None


class TestHeldRowAgainstScaling:
    """Each Belief's held (row, scale) against _scaled of its coordinates.

    Equality and order read the held rows; they must agree with the
    comparisons of the coordinate tuples they replaced, beliefs over
    different numbers of states included.
    """

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 2), st.data())
    def test_pairs_equality_and_order_match_the_coordinates(self, n, other, data):
        a, oracle_a = data.draw(built_beliefs(n))
        b, oracle_b = data.draw(built_beliefs(n if other else n + 1))
        for point, oracle in ((a, oracle_a), (b, oracle_b)):
            assert point._ints == support.held_pair_by_scaling(point)
            if oracle is not None:
                assert repr(point) == repr(oracle)
            for clone in (Belief(point.coords), copy.deepcopy(point)):
                assert clone == point and not clone < point and not point < clone
        assert (a == b) == (a.coords == b.coords)
        assert (a < b) == (a.coords < b.coords)
        assert (b < a) == (b.coords < a.coords)

    def test_rows_are_held_from_construction_and_formed_again_on_clones(self):
        a = belief("1/6", "1/3", "1/2")
        assert vars(a)["_ints"] == ((1, 2, 3), 6)
        for clone in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
            assert "_ints" not in vars(clone)
            assert clone._ints == ((1, 2, 3), 6) and "_ints" in vars(clone)

    @pytest.mark.parametrize(
        "row, scale, message",
        [
            ((), 1, "^belief needs at least one coordinate$"),
            ((3, -1), 2, "^belief has a negative coordinate: "
             + re.escape("(Fraction(3, 2), Fraction(-1, 2))") + "$"),
            ((1, 1), 3, "^belief coordinates must sum to 1, got 2/3$"),
        ],
    )
    def test_integer_maker_keeps_the_checks_and_messages(self, row, scale, message):
        with pytest.raises(ValueError, match=message):
            geometry._exact_belief(row, scale)
        with pytest.raises(ValueError, match=message):
            Belief(tuple(Fraction(v, scale) for v in row))


class TestHalfspaceHash:
    def test_equal_halfspaces_built_apart_hash_equal_and_find_each_other(self):
        a = hs([1, 0, "1/2"], "1/3")
        b = Halfspace((Fraction(2, 2), 0, Fraction(2, 4)), Fraction(3, 9))
        assert a is not b and a == b and hash(a) == hash(b)
        assert {a: "found"}[b] == "found" and b in {a}

    def test_hash_is_the_normal_and_offset_and_does_not_change(self):
        a = hs([0, 1, 2], "-1/2")
        first = hash(a)
        assert first == hash((a.normal, a.offset))
        assert [hash(a) for _ in range(3)] == [first] * 3

    def test_repr_and_fields_are_the_normal_and_offset_alone(self):
        a = hs([1, 0], "1/2")
        hash(a)
        assert repr(a) == (
            "Halfspace(normal=(Fraction(1, 1), Fraction(0, 1)), offset=Fraction(1, 2))"
        )
        assert [field.name for field in dataclasses.fields(Halfspace)] == ["normal", "offset"]

    def test_pickle_bytes_do_not_hold_the_hash(self):
        a = hs([2, 0, 1], "-1/3")
        before = pickle.dumps(a)
        hash(a)
        assert pickle.dumps(a) == before == pickle.dumps(Halfspace(a.normal, a.offset))

    @pytest.mark.parametrize("hashed", [False, True])
    def test_pickle_and_copy_round_trips(self, hashed):
        a = hs([2, 0, 1], "-1/3")
        if hashed:
            hash(a)
        for clone in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
            assert clone == a and hash(clone) == hash(a)
            assert repr(clone) == repr(a)


class TestHeldHalfspaceRow:
    def test_row_is_the_normal_and_offset_over_one_scale(self):
        a = hs(["1/2", 0, "-1/3"], "1/5")
        assert a._ints == (15, 0, -10, 6)
        assert a._ints is a._ints

    def test_repr_eq_hash_and_pickle_are_unchanged_by_the_held_row(self):
        a = hs([2, 0, "1/3"], "-1/4")
        fresh = hs([2, 0, "1/3"], "-1/4")
        before = repr(a), hash(a), pickle.dumps(a)
        row = a._ints
        assert (repr(a), hash(a), pickle.dumps(a)) == before
        assert before == (repr(fresh), hash(fresh), pickle.dumps(fresh))
        assert a == fresh and fresh == a
        for clone in (lambda h: pickle.loads(pickle.dumps(h)), copy.copy, copy.deepcopy):
            copied = clone(a)
            assert copied == a and "_ints" not in vars(copied)
            assert copied._ints == row


rationals = st.fractions(min_value=-30, max_value=30, max_denominator=12)


class TestCanonicalAgainstFractions:
    """_facet and Halfspace.canonical against the Fraction canonical they replaced, by repr."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-60, 60), min_size=2, max_size=8))
    @example([0, 0, 1])
    def test_facet_maker_matches_the_public_constructor(self, g):
        assume(len(set(g)) > 1)
        made, built = _facet_halfspace(*_facet(g)), Halfspace(*_facet(g))
        assert repr(made) == repr(built) and made == built and hash(made) == hash(built)
        assert pickle.dumps(made) == pickle.dumps(built)

    def test_facet_maker_rejects_a_zero_normal_as_the_constructor_does(self):
        message = r"^halfspace normal is constant on the simplex \(degenerate\)$"
        with pytest.raises(ValueError, match=message):
            _facet_halfspace((0, 0), Fraction(1))
        with pytest.raises(ValueError, match=message):
            Halfspace((0, 0), 1)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-60, 60), min_size=2, max_size=8))
    @example([0, 0, 1])
    @example([-3, -3, -6, 0])
    def test_integer_vectors(self, g):
        assume(len(set(g)) > 1)
        expected = repr(support.canonical_by_fractions(Halfspace(tuple(g), 0)))
        assert repr(Halfspace(*_facet(g))) == expected
        assert repr(Halfspace(tuple(g), 0).canonical()) == expected

    @settings(max_examples=200, deadline=None)
    @given(st.lists(rationals, min_size=2, max_size=8), rationals)
    @example([Fraction(-1, 2), Fraction(0)], Fraction(0))
    @example([Fraction(2, 3), Fraction(-4, 9), Fraction(0)], Fraction(-5, 6))
    def test_rational_halfspaces(self, normal, offset):
        assume(len(set(normal)) > 1)
        h = Halfspace(tuple(normal), offset)
        assert repr(h.canonical()) == repr(support.canonical_by_fractions(h))


class TestHalfspaceCanonical:
    def test_gauge_and_scale_quotient(self):
        # -x1 >= -1/2 and x2 >= 1/2 cut the simplex identically
        a = hs([-1, 0], "-1/2").canonical()
        b = hs([0, 1], "1/2").canonical()
        assert (a.normal, a.offset) == (b.normal, b.offset)

    def test_primitive_integer_normal(self):
        h = hs(["-1", "1"], 0).canonical()
        assert h.normal == (Fraction(0), Fraction(1))
        assert h.offset == Fraction(1, 2)

    def test_degenerate_normal_rejected(self):
        message = r"^halfspace normal is constant on the simplex \(degenerate\)$"
        for normal in ([2, 2], ["1/2", "2/4", "1/2"], [5], [-1, -1, -1, -1]):
            with pytest.raises(ValueError, match=message):
                hs(normal, 1)

    def test_repeated_entries_that_vary_accepted(self):
        assert hs([1, 1, 0], 0).normal == (1, 1, 0)

    def test_empty_normal_rejected(self):
        with pytest.raises(ValueError, match="at least one coordinate"):
            Halfspace((), 0)

    def test_value_at_point_over_other_states_rejected(self):
        with pytest.raises(ShapeMismatch):
            hs([1, 0], 0).value(belief("1/3", "1/3", "1/3"))


class TestVerticesOf:
    def test_interval_endpoints(self):
        got = vertices_of([hs([1, 0], "1/2")], 2)
        assert got == [belief("1/2", "1/2"), belief("1", "0")]

    def test_whole_simplex(self):
        got = vertices_of([], 2)
        assert got == [belief("0", "1"), belief("1", "0")]

    def test_three_state_dominance_cell(self):
        # x1 >= x2 and x1 >= x3; solved by hand from the boundary systems
        got = vertices_of([hs([1, -1, 0], 0), hs([1, 0, -1], 0)], 3)
        expected = sorted(
            [
                belief("1", "0", "0"),
                belief("1/2", "1/2", "0"),
                belief("1/2", "0", "1/2"),
                belief("1/3", "1/3", "1/3"),
            ]
        )
        assert got == expected

    def test_band_and_infeasible(self):
        got = vertices_of([hs([1, 0], "1/3"), hs([-1, 0], "-2/3")], 2)
        assert got == [belief("1/3", "2/3"), belief("2/3", "1/3")]
        got = vertices_of([hs([1, 0], "2/3"), hs([-1, 0], "-1/2")], 2)
        assert got == []

    def test_redundant_halfspace_changes_nothing(self):
        base = [hs([1, -1, 0], 0), hs([1, 0, -1], 0)]
        redundant = base + [hs([2, -1, -1], 0)]  # the sum of the two
        assert vertices_of(base, 3) == vertices_of(redundant, 3)

    def test_seven_states_give_the_seven_corners(self):
        got = vertices_of([], 7)
        assert got == sorted(corners(7))
        assert got == support.vertices_by_brute_force([], 7)

    def test_halfspace_over_other_states_rejected(self):
        with pytest.raises(ShapeMismatch):
            vertices_of([hs([1, 0], 0)], 3)


class TestDimension:
    def test_segment(self):
        assert dimension([belief(1, 0), belief(0, 1)]) == 1

    def test_point(self):
        assert dimension([belief("1/2", "1/2")]) == 0

    def test_full_simplex(self):
        assert dimension([belief(1, 0, 0), belief(0, 1, 0), belief(0, 0, 1)]) == 2

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            dimension([])

    def test_points_over_mixed_state_counts_rejected(self):
        with pytest.raises(ShapeMismatch):
            dimension([belief(0, 1), belief(1, 0, 0)])

    def test_raw_tuple_first(self):
        assert dimension([(1, 0), belief(0, 1)]) == 1
        assert dimension([(Fraction(1, 2), Fraction(1, 2))]) == 0

    @pytest.mark.parametrize("points", [[(0.5, 0.5)], [belief(1, 0), (0.5, 0.5)]])
    def test_raw_float_rejected(self, points):
        with pytest.raises(TypeError, match="floating point"):
            dimension(points)

    def test_points_off_the_simplex(self):
        # two distinct points on the line x1 = x2 through the origin: a rank of 1 read 0
        assert dimension([(2, 2), (3, 3)]) == 1
        assert dimension([(0, 0), (1, 0), (0, 1)]) == 2

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(support.fractions(-6, 6, 4), min_size=n, max_size=n).map(tuple)
            | support.mixed_beliefs(n),
            min_size=1,
            max_size=5,
        )
    ))
    def test_matches_the_rank_of_differences(self, points):
        assert dimension(points) == support.dimension_by_differences(points)


class TestBarycenter:
    def test_endpoints(self):
        assert barycenter([belief(1, 0), belief(0, 1)]) == belief("1/2", "1/2")

    def test_uneven_pair(self):
        assert barycenter([belief("1/2", "1/2"), belief(1, 0)]) == belief("3/4", "1/4")

    def test_four_vertices(self):
        pts = [
            belief("1", "0", "0"),
            belief("1/2", "1/2", "0"),
            belief("1/2", "0", "1/2"),
            belief("1/3", "1/3", "1/3"),
        ]
        assert barycenter(pts) == belief("7/12", "5/24", "5/24")

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            barycenter([])

    def test_points_over_mixed_state_counts_rejected(self):
        with pytest.raises(ShapeMismatch):
            barycenter([belief(0, 1), belief(1, 0, 0)])

    def test_raw_tuples_in_any_position(self):
        assert barycenter([(1, 0), belief(0, 1)]) == belief("1/2", "1/2")
        assert barycenter([(1, 0), (0, 1)]) == belief("1/2", "1/2")

    def test_raw_float_rejected(self):
        with pytest.raises(TypeError, match="floating point"):
            barycenter([belief(1, 0), (0.5, 0.5)])

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(2, 6).flatmap(
            lambda n: st.lists(
                st.tuples(support.mixed_beliefs(n), st.booleans()), min_size=1, max_size=6
            )
        )
    )
    def test_matches_fraction_sums(self, drawn):
        # some points as raw coordinate tuples
        pts = [p.coords if raw else p for p, raw in drawn]
        assert repr(barycenter(pts)) == repr(support.barycenter_by_fractions(pts))


class TestInteriorPoint:
    def test_interval(self):
        poly = Polytope.from_halfspaces([hs([1, 0], "1/2")], 2)
        assert interior_point(poly) == belief("3/4", "1/4")

    def test_single_point(self):
        poly = Polytope.from_halfspaces(
            [hs([1, 0], "1/2"), hs([-1, 0], "-1/2")], 2
        )
        assert interior_point(poly) == belief("1/2", "1/2")

    def test_triangle_cell(self):
        poly = Polytope.from_halfspaces([hs([1, -1, 0], 0), hs([1, 0, -1], 0)], 3)
        assert interior_point(poly) == barycenter(poly.vertices)

    def test_strictly_inside_when_full_dimensional(self):
        poly = Polytope.from_halfspaces([hs([1, -1, 0], 0), hs([1, 0, -1], 0)], 3)
        p = interior_point(poly)
        assert poly.contains(p, strict=True)

    def test_empty_rejected(self):
        poly = Polytope.from_halfspaces(
            [hs([1, 0], "2/3"), hs([-1, 0], "-1/2")], 2
        )
        with pytest.raises(EmptyPolytope):
            interior_point(poly)
        with pytest.raises(EmptyPolytope):
            interior_point(poly)

    def test_held_after_the_first_call(self, monkeypatch):
        poly = Polytope.from_halfspaces([hs([1, -1, 0], 0), hs([1, 0, -1], 0)], 3)
        calls = []

        def counted(points):
            calls.append(points)
            return barycenter(points)

        monkeypatch.setattr(geometry, "barycenter", counted)
        assert interior_point(poly) is interior_point(poly)
        assert calls == [poly.vertices]

    def test_repr_eq_hash_and_pickle_are_unchanged_by_the_held_point(self):
        poly = Polytope.from_halfspaces([hs([1, -1, 0], 0), hs([1, 0, -1], 0)], 3)
        fresh = Polytope.from_halfspaces([hs([1, -1, 0], 0), hs([1, 0, -1], 0)], 3)
        before = repr(poly), hash(poly), pickle.dumps(poly)
        center = interior_point(poly)
        assert (repr(poly), hash(poly), pickle.dumps(poly)) == before
        assert before == (repr(fresh), hash(fresh), pickle.dumps(fresh))
        assert poly == fresh and fresh == poly
        names = [field.name for field in dataclasses.fields(Polytope)]
        assert names == ["halfspaces", "vertices", "n"]
        for clone in (lambda p: pickle.loads(pickle.dumps(p)), copy.copy, copy.deepcopy):
            copied = clone(poly)
            assert copied == poly and "_center" not in vars(copied)
            assert interior_point(copied) == center


class TestContains:
    @pytest.mark.parametrize("halfspaces", [[], [hs([1, 0], 0)]])
    @pytest.mark.parametrize("strict", [False, True])
    def test_point_over_other_states_rejected(self, halfspaces, strict):
        poly = Polytope.from_halfspaces(halfspaces, 2)
        with pytest.raises(ShapeMismatch):
            poly.contains(belief("1/3", "1/3", "1/3"), strict=strict)
        with pytest.raises(ShapeMismatch):
            poly.contains(belief(0, 0, 1), strict=strict)

    @pytest.mark.parametrize("strict", [False, True])
    def test_halfspace_over_other_states_rejected(self, strict):
        poly = Polytope((hs([1, 0], 0),), (), 3)
        with pytest.raises(ShapeMismatch, match="^3 coordinates where 2 are expected$"):
            poly.contains(belief("1/3", "1/3", "1/3"), strict=strict)

    @pytest.mark.parametrize("strict", [False, True])
    def test_raw_float_rejected(self, strict):
        simplex = Polytope.from_halfspaces([], 2)
        with pytest.raises(TypeError, match="floating point"):
            simplex.contains((0.5, 0.5), strict=strict)

    @pytest.mark.parametrize("strict", [False, True])
    def test_negative_coordinate_outside(self, strict):
        # no halfspace is stored, so only the coordinate check can say no
        simplex = Polytope.from_halfspaces([], 2)
        assert not simplex.contains((Fraction(-1, 2), Fraction(3, 2)), strict=strict)

    @pytest.mark.parametrize("point", [(2, 2), (Fraction(1, 2), Fraction(1, 4))])
    @pytest.mark.parametrize("strict", [False, True])
    def test_point_off_the_simplex_outside(self, point, strict):
        # nonnegative rows summing to 4 and to 3/4, and no halfspace stored to say no
        simplex = Polytope.from_halfspaces([], 2)
        assert not simplex.contains(point, strict=strict)


class TestFacetBetween:
    def cells_2(self):
        left = Polytope.from_halfspaces([hs([1, -1], 0)], 2)  # x1 >= x2
        right = Polytope.from_halfspaces([hs([-1, 1], 0)], 2)
        return left, right

    def test_split_interval(self):
        left, right = self.cells_2()
        got = facet_between(left, right)
        assert got is not None
        shared, h = got
        assert shared.vertices == (belief("1/2", "1/2"),)
        # oriented toward the second cell; same halfspace as -x1 >= -1/2
        assert (h.normal, h.offset) == (
            hs([-1, 0], "-1/2").canonical().normal,
            hs([-1, 0], "-1/2").canonical().offset,
        )
        assert h.value(interior_point(right)) > 0

    def test_swap_flips_orientation(self):
        left, right = self.cells_2()
        _, h1 = facet_between(left, right)
        _, h2 = facet_between(right, left)
        assert h2 == Halfspace(tuple(-a for a in h1.normal), -h1.offset).canonical()

    def test_vertex_touch_is_not_a_facet(self):
        # two cells of the three-way dominance subdivision meet in dim 1,
        # but a cell and the "far corner" region only share a vertex
        a = Polytope.from_halfspaces([hs([1, -1, 0], 0), hs([1, 0, -1], 0)], 3)
        b = Polytope.from_halfspaces([hs([-1, 1, 0], 0), hs([0, 1, -1], 0)], 3)
        got = facet_between(a, b)
        assert got is not None
        shared, _ = got
        assert dimension(shared.vertices) == 1

    def test_shared_face_of_a_hand_built_cell_is_sorted(self):
        # Polytope keeps a hand-built cell's vertices in the order given
        a = Polytope.from_halfspaces([hs([1, -1, 0], 0), hs([1, 0, -1], 0)], 3)
        b = Polytope.from_halfspaces([hs([-1, 1, 0], 0), hs([0, 1, -1], 0)], 3)
        backwards = Polytope(a.halfspaces, a.vertices[::-1], 3)
        shared, h = facet_between(backwards, b)
        assert len(shared.vertices) == 2
        assert list(shared.vertices) == sorted(shared.vertices)
        assert shared == Polytope.from_halfspaces(shared.halfspaces, 3)
        assert (shared, h) == facet_between(a, b)

    def test_disjoint_cells(self):
        a = Polytope.from_halfspaces([hs([1, 0], "2/3")], 2)
        b = Polytope.from_halfspaces([hs([-1, 0], "-1/3")], 2)
        assert facet_between(a, b) is None

    def test_lower_dimensional_cell_rejected(self):
        full = Polytope.from_halfspaces([hs([1, -1, 0], 0)], 3)
        edge = Polytope((), (belief(1, 0, 0), belief("1/2", "1/2", 0)), 3)
        with pytest.raises(ValueError, match="full-dimensional"):
            facet_between(full, edge)

    def test_cells_over_different_state_counts_rejected(self):
        line = Polytope.from_halfspaces([hs([1, -1], 0)], 2)
        triangle = Polytope.from_halfspaces([hs([1, -1, 0], 0)], 3)
        for call in (lambda: facet_between(line, triangle), lambda: adjacent_facets([line, triangle])):
            with pytest.raises(ShapeMismatch, match="over the same states"):
                call()

    def test_cells_on_one_side_of_their_shared_hyperplane_rejected(self):
        # the cells share the edge x3 = 0, and the second lies inside the first
        edge = [belief(1, 0, 0), belief(0, 1, 0)]
        outer = Polytope.from_vertices(edge + [belief(0, 0, 1)])
        inner = Polytope.from_vertices(edge + [belief("1/3", "1/3", "1/3")])
        for cells in ([outer, inner], [inner, outer]):
            with pytest.raises(ValueError, match="cells 0 and 1 lie on the same side"):
                adjacent_facets(cells)
            with pytest.raises(ValueError, match="cells 0 and 1 lie on the same side"):
                facet_between(*cells)

    def test_cell_straddling_the_shared_hyperplane_rejected(self):
        # both cells have the edge from (1, 0, 0) to (0, 1/2, 1/2) on the line
        # x2 = x3, but the second cell has vertices on both sides of it
        edge = [belief(1, 0, 0), belief(0, "1/2", "1/2")]
        a = Polytope.from_vertices(edge + [belief(0, 0, 1)])
        b = Polytope.from_vertices(edge + [belief(0, 1, 0), belief("1/2", 0, "1/2")])
        with pytest.raises(ValueError, match="does not support"):
            facet_between(a, b)


class TestHull:
    def test_hull_roundtrip_triangle_cell(self):
        pts = [
            belief("1", "0", "0"),
            belief("1/2", "1/2", "0"),
            belief("1/2", "0", "1/2"),
            belief("1/3", "1/3", "1/3"),
        ]
        poly = Polytope.from_vertices(pts)
        assert list(poly.vertices) == sorted(pts)

    def test_non_vertex_point_rejected(self):
        pts = [belief(1, 0), belief(0, 1), belief("1/2", "1/2")]
        with pytest.raises(ValueError):
            Polytope.from_vertices(pts)

    @pytest.mark.parametrize(
        "extra",
        [
            # the midpoint of a triangle's edge
            belief("1/2", "1/2", 0),
            # the centre of a facet at n = 4: one facet is tight there, and
            # each of the facet's three corners is tight on it too
            belief("1/3", "1/3", "1/3", 0),
            # an interior point, where no facet is tight
            belief("1/3", "1/3", "1/3"),
        ],
    )
    def test_point_on_a_face_or_inside_rejected(self, extra):
        pts = corners(extra.n) + [extra]
        with pytest.raises(ValueError, match="^points are not the vertex set of their convex hull$"):
            Polytope.from_vertices(pts)
        with pytest.raises(ValueError, match="not the vertex set"):
            support.polytope_by_rank_test(pts)

    def test_single_point_at_one_state(self):
        # the one point is the whole simplex, so the hull has no facet
        poly = Polytope.from_vertices([belief(1)])
        assert poly == Polytope((), (belief(1),), 1)
        assert poly == support.polytope_by_rank_test([belief(1)])
        assert hull_halfspaces([(1,)]) == []

    def test_hull_of_interval(self):
        pts = [belief("1/4", "3/4"), belief("3/4", "1/4")]
        hsides = hull_halfspaces(pts)
        poly = Polytope.from_halfspaces(hsides, 2)
        assert list(poly.vertices) == sorted(pts)

    def test_seven_corners_give_the_seven_coordinate_facets(self):
        got = hull_halfspaces(corners(7))
        assert [(h.normal, h.offset) for h in got] == sorted(
            (tuple(Fraction(int(i == j)) for j in range(7)), Fraction(0)) for i in range(7)
        )
        assert got == support.hull_by_brute_force(corners(7))

    def test_points_over_mixed_state_counts_rejected(self):
        with pytest.raises(ShapeMismatch):
            hull_halfspaces([belief(0, 1), belief(1, 0), belief(1, 0, 0)])

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            hull_halfspaces([])

    def test_hull_of_raw_tuple_first(self):
        got = hull_halfspaces([(Fraction(1, 4), Fraction(3, 4)), belief("3/4", "1/4")])
        assert got == hull_halfspaces([belief("1/4", "3/4"), belief("3/4", "1/4")])

    def test_beliefs_mixed_with_tuples(self):
        corners3 = [belief(1, 0, 0), belief(0, 1, 0), belief(0, 0, 1)]
        assert hull_halfspaces([corners3[0], (0, 1, 0), (0, 0, 1)]) == hull_halfspaces(corners3)

    def test_polytope_from_raw_tuple_first(self):
        poly = Polytope.from_vertices([(1, 0), belief("1/2", "1/2")])
        assert poly.vertices == (belief("1/2", "1/2"), belief(1, 0))

    def test_one_double_description_per_polytope(self, monkeypatch):
        runs = []

        def counted(rows, n):
            runs.append(n)
            return _extreme_rays(rows, n)

        hull_vertices = vertices_of(hull_halfspaces(NON_ADJACENT_RAYS_CLOUD), 5)
        monkeypatch.setattr(geometry, "_extreme_rays", counted)
        for pts in (hull_vertices, corners(4)):
            runs.clear()
            Polytope.from_vertices(pts)
            assert len(runs) == 1
        runs.clear()
        with pytest.raises(ValueError, match="not the vertex set"):
            Polytope.from_vertices(HULL_SEED_SKIPS_A_POINT)
        assert len(runs) == 1

    def test_vertices_over_mixed_state_counts_rejected(self):
        with pytest.raises(ShapeMismatch):
            Polytope.from_vertices([belief(0, 1), belief(1, 0), belief(1, 0, 0)])

    def test_lower_dimensional_points_rejected_for_the_point_set(self):
        with pytest.raises(ValueError, match="does not span the simplex") as caught:
            Polytope.from_vertices([belief(1, 0, 0), belief(0, 1, 0)])
        assert "hull_halfspaces" not in str(caught.value)


small_fractions = support.fractions(-3, 3, 4)


@st.composite
def halfspace_systems(draw):
    """Random halfspaces, some paired with a partner that makes them redundant,
    repeated, tight as an equality (lower-dimensional) or contradicted (empty)."""
    n = draw(st.integers(2, 5))
    out = []
    for _ in range(draw(st.integers(0, 4))):
        normal = tuple(draw(small_fractions) for _ in range(n))
        assume(len(set(normal)) > 1)
        h = Halfspace(normal, draw(small_fractions))
        out.append(h)
        partner = draw(st.sampled_from(["none", "redundant", "repeated", "equality", "empty"]))
        if partner == "redundant":
            out.append(Halfspace(normal, h.offset - 1))
        elif partner == "repeated":
            out.append(Halfspace(tuple(2 * a for a in normal), 2 * h.offset))
        elif partner == "equality":
            out.append(Halfspace(tuple(-a for a in normal), -h.offset).canonical())
        elif partner == "empty":
            out.append(Halfspace(tuple(-a for a in normal), 1 - h.offset))
    return out, n


def _belief_from_weights(weights) -> Belief:
    return Belief(tuple(Fraction(w, sum(weights)) for w in weights))


@st.composite
def point_clouds(draw):
    """Full-dimensional point sets, with extra points inside the hull and in
    the relative interior of some of its facets."""
    n = draw(st.integers(2, 5))
    weights = st.lists(st.integers(0, 4), min_size=n, max_size=n).filter(any)
    pts = [_belief_from_weights(w) for w in draw(st.lists(weights, min_size=n, max_size=n + 3))]
    assume(dimension(pts) == n - 1)
    extra = []
    if draw(st.booleans()):
        extra.append(barycenter(pts))
    facets = hull_halfspaces(pts)
    for i in draw(st.sets(st.integers(0, len(facets) - 1), max_size=3)):
        extra.append(barycenter([p for p in pts if facets[i].value(p) == 0]))
    return pts + extra


@st.composite
def claimed_vertex_sets(draw):
    """Point sets offered as a polytope's vertices: exact vertex sets, clouds
    with points at the barycenter and inside facets, duplicated points,
    lower-dimensional sets and a point over another state count."""
    kind = draw(st.sampled_from(["vertices", "cloud", "duplicates", "lower", "mixed"]))
    if kind == "lower":
        # every point misses the last state, so the set lies in a face
        n = draw(st.integers(2, 5))
        weights = st.lists(st.integers(0, 4), min_size=n - 1, max_size=n - 1).filter(any)
        rows = draw(st.lists(weights, min_size=1, max_size=n + 2))
        return [_belief_from_weights(w + [0]) for w in rows]
    pts = draw(point_clouds())
    n = pts[0].n
    if kind == "vertices":
        return vertices_of(hull_halfspaces(pts), n)
    if kind == "duplicates":
        return pts + draw(st.lists(st.sampled_from(pts), min_size=1, max_size=3))
    if kind == "mixed":
        return pts + [corners(n + 1)[draw(st.integers(0, n))]]
    return pts


@st.composite
def rational_matrices(draw):
    """Small rational matrices whose rows are often combinations of a few others."""
    n = draw(st.integers(1, 6))
    base = draw(st.lists(st.tuples(*[small_fractions] * n), min_size=1, max_size=4))
    rows = []
    for _ in range(draw(st.integers(1, 7))):
        if draw(st.booleans()):
            rows.append(draw(st.tuples(*[small_fractions] * n)))
        else:
            weights = [draw(small_fractions) for _ in base]
            rows.append(tuple(sum(w * b[j] for w, b in zip(weights, base)) for j in range(n)))
    return rows


@st.composite
def integer_systems(draw):
    """Integer rows for double description: n independent rows first, then
    fresh rows, repeats, positive multiples and sums of two earlier rows
    (redundant), in any order."""
    n = draw(st.integers(1, 7))
    row = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=n, max_size=n))
    assume(support.rank_by_fractions(rows) == n)
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["fresh", "repeated", "multiple", "sum"]))
        if kind == "fresh":
            rows.append(draw(row))
        elif kind == "repeated":
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "multiple":
            rows.append([draw(st.integers(2, 3)) * v for v in draw(st.sampled_from(rows))])
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            rows.append([x + y for x, y in zip(a, b)])
    return rows, n


@st.composite
def membership_cases(draw):
    """A polytope (stored canonical, or with its raw rational halfspaces) and
    a point: one of its vertices, the barycenter of some of them (often on a
    facet), a point on a coordinate face, a drawn belief, as a Belief or a
    raw tuple, or a point over one state more."""
    halfspaces, n = draw(halfspace_systems())
    poly = Polytope.from_halfspaces(halfspaces, n)
    if draw(st.booleans()):
        poly = Polytope(tuple(halfspaces), poly.vertices, n)
    kind = draw(st.sampled_from(["vertex", "face", "coordinate face", "drawn", "other states"]))
    if kind in ("vertex", "face") and poly.vertices:
        chosen = draw(st.lists(st.sampled_from(poly.vertices), min_size=1, max_size=3))
        point = chosen[0] if kind == "vertex" else barycenter(chosen)
    elif kind == "coordinate face":
        coords = list(draw(support.mixed_beliefs(n - 1)).coords)
        coords.insert(draw(st.integers(0, n - 1)), 0)
        point = Belief(tuple(coords))
    elif kind == "other states":
        point = draw(support.mixed_beliefs(n + 1))
    else:
        point = draw(support.mixed_beliefs(n))
    return poly, point.coords if draw(st.booleans()) else point


# small inputs on which combining a non-adjacent pair of rays gives a wrong answer
NON_ADJACENT_RAYS_SYSTEM = (
    [hs([2, 2, -2, 2, 2], 2), hs([1, 2, -2, 1, -1], "1/2"), hs([-3, -2, 3, 0, 2], 0)],
    5,
)
NON_ADJACENT_RAYS_CLOUD = [
    belief(*coords)
    for coords in [
        (0, 0, 0, 0, 1),
        ("1/9", 0, "2/9", "1/3", "1/3"),
        ("1/7", 0, "1/7", "2/7", "3/7"),
        ("1/6", "1/4", "1/4", "1/4", "1/12"),
        ("1/5", 0, "1/5", "2/5", "1/5"),
        ("1/4", 0, "3/8", 0, "3/8"),
        ("1/2", "1/2", 0, 0, 0),
        ("3/4", "1/4", 0, 0, 0),
    ]
]

# the first three sorted points lie on one edge, so the hull's simplicial seed
# must skip the third point and take the fourth, which is inside the hull
HULL_SEED_SKIPS_A_POINT = [
    belief(0, 0, 1),
    belief(0, "1/2", "1/2"),
    belief(0, 1, 0),
    belief("1/2", "1/4", "1/4"),
    belief(1, 0, 0),
]


class TestBruteForceOracle:
    """Double description against the subset enumeration it replaced."""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(halfspace_systems())
    @example(NON_ADJACENT_RAYS_SYSTEM)
    @example(([hs([1, -1, 0], 0), hs([-1, 1, 0], 0)], 3))  # a segment
    @example(([hs([1, 0, 0], "1/2"), hs([-1, 0, 0], "-1/3")], 3))  # empty
    def test_vertices_of(self, system):
        halfspaces, n = system
        assert vertices_of(halfspaces, n) == support.vertices_by_brute_force(halfspaces, n)

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(point_clouds())
    @example(NON_ADJACENT_RAYS_CLOUD)
    @example(HULL_SEED_SKIPS_A_POINT)
    def test_hull_halfspaces(self, points):
        assert hull_halfspaces(points) == support.hull_by_brute_force(points)

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(claimed_vertex_sets())
    @example(NON_ADJACENT_RAYS_CLOUD)
    @example(HULL_SEED_SKIPS_A_POINT)
    @example([])
    def test_from_vertices(self, points):
        """One double description against the hull-then-re-enumerate path it replaced."""

        def outcome(build):
            try:
                return build(points)
            except ValueError as exc:
                return type(exc), str(exc)

        assert outcome(Polytope.from_vertices) == outcome(support.polytope_by_reenumeration)

    @settings(max_examples=200, deadline=None)
    @given(rational_matrices())
    def test_rank(self, rows):
        """Rank and kernel line of the row reduction, on the rows scaled to
        integers, against Fraction elimination on the rational rows."""
        n = len(rows[0])
        ints = [_integer_row(_coords_of(row)) for row in rows]
        assert len(_row_reduce(ints)[0]) == support.rank_by_fractions(rows)
        ray = _kernel_ray(ints, n)
        assert (None if ray is None else tuple(ray)) == support._unique_kernel_vector(rows, n)


class TestHullKernelsAgainstReplaced:
    """The integer hull kernels against the code they replaced, in tests/support.py."""

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(integer_systems())
    @example(([[1]], 1))
    @example(([[1, 0], [0, 1], [1, 0], [2, 0], [1, 1], [-1, 1]], 2))
    def test_seeded_double_description(self, system):
        rows, n = system
        assert _extreme_rays(rows, n) == support.extreme_rays_by_kernels(rows, n)

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(claimed_vertex_sets())
    @example(NON_ADJACENT_RAYS_CLOUD)
    @example(HULL_SEED_SKIPS_A_POINT)
    @example([])
    def test_vertex_test(self, points):
        def outcome(build):
            try:
                return build(points)
            except ValueError as exc:
                return type(exc), str(exc)

        assert outcome(Polytope.from_vertices) == outcome(support.polytope_by_rank_test)

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(membership_cases(), st.booleans())
    def test_contains(self, case, strict):
        poly, point = case

        def outcome(test):
            try:
                return test(point, strict=strict)
            except ShapeMismatch as exc:
                return str(exc)

        assert outcome(poly.contains) == outcome(
            lambda p, strict: support.contains_by_fractions(poly, p, strict)
        )


class TestLineInterval:
    def test_interval_through_cell(self):
        poly = Polytope.from_halfspaces([hs([1, -1], 0)], 2)  # x1 >= 1/2 region
        origin = belief("1/4", "3/4")
        direction = (Fraction(1, 4), Fraction(-1, 4))
        got = interior_interval_on_line(origin, direction, poly)
        assert got == (Fraction(1), Fraction(3))

    def test_missing_line(self):
        poly = Polytope.from_halfspaces([hs([1, -1], 0)], 2)
        origin = belief("1/4", "3/4")
        direction = (Fraction(-1, 4), Fraction(1, 4))
        got = interior_interval_on_line(origin, direction, poly)
        assert got == (Fraction(-3), Fraction(-1))

    def test_direction_parallel_to_a_facet(self):
        # (1, 1, -2) runs parallel to the facet x1 = x2 of the cell x1 >= x2
        poly = Polytope.from_halfspaces([hs([1, -1, 0], 0)], 3)
        direction = (Fraction(1), Fraction(1), Fraction(-2))
        inside = interior_interval_on_line(belief("1/2", "1/6", "1/3"), direction, poly)
        assert inside == (Fraction(-1, 6), Fraction(1, 6))
        assert interior_interval_on_line(belief("1/6", "1/2", "1/3"), direction, poly) is None

    def test_zero_direction_has_no_interval(self):
        poly = Polytope.from_halfspaces([hs([1, -1], 0)], 2)
        assert interior_interval_on_line(belief("3/4", "1/4"), (0, 0), poly) is None

    def test_line_that_misses(self):
        # x2 reaches zero at t = 1/6, before x1 reaches the cell x1 >= 1/2 at t = 1/3
        poly = Polytope.from_halfspaces([hs([1, 0, 0], "1/2")], 3)
        direction = (Fraction(1), Fraction(-1), Fraction(0))
        assert interior_interval_on_line(belief("1/6", "1/6", "2/3"), direction, poly) is None

    @pytest.mark.parametrize(
        "origin, direction, halfspaces",
        [
            # beta = 0 with alpha = 0: a zero coordinate the direction leaves alone
            (belief(0, "1/2", "1/2"), (0, 1, -1), []),
            # beta = 0 with alpha < 0: parallel to the cell's facet, on its far side
            (belief("1/6", "1/2", "1/3"), (1, 1, -2), [hs([1, -1, 0], 0)]),
            # lo > hi: the line leaves the simplex before it reaches the cell
            (belief("1/6", "1/6", "2/3"), (1, -1, 0), [hs([1, 0, 0], "1/2")]),
            # lo == hi: the cell is the single point (1/2, 1/2), reached at t = 1/4
            (belief("1/4", "3/4"), (1, -1), [hs([1, 0], "1/2"), hs([-1, 0], "-1/2")]),
        ],
    )
    def test_empty_windows_match_fraction_bounds(self, origin, direction, halfspaces):
        poly = Polytope(tuple(halfspaces), (), origin.n)
        assert interior_interval_on_line(origin, direction, poly) is None
        assert support.interval_by_fractions(origin, direction, poly) is None

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(halfspace_systems(), st.data())
    def test_matches_fraction_bounds(self, system, data):
        halfspaces, n = system
        poly = Polytope(tuple(halfspaces), (), n)
        origin = data.draw(support.mixed_beliefs(n))
        entries = small_fractions | st.integers(-2, 2)
        steps = data.draw(st.lists(entries, min_size=n - 1, max_size=n - 1))
        direction = (*steps, -sum(steps))
        got = interior_interval_on_line(origin, direction, poly)
        assert repr(got) == repr(support.interval_by_fractions(origin, direction, poly))

    @pytest.mark.parametrize(
        "origin, direction",
        [
            (belief("1/3", "1/3", "1/3"), (1, -1, 0)),
            # a zero coordinate the direction leaves alone: its own bound says None
            (belief(0, "1/2", "1/2"), (0, 1, -1)),
        ],
    )
    @pytest.mark.parametrize("first", [[], [hs([1, 0, 0], 0)]])
    def test_halfspace_over_other_states_rejected(self, origin, direction, first):
        # a zip over (1, 0) and three coordinates read the window (-1/3, 1/3)
        poly = Polytope((*first, hs([1, 0], 0)), (), 3)
        message = "^3 coordinates where 2 are expected$"
        with pytest.raises(ShapeMismatch, match=message):
            poly.contains(origin)
        with pytest.raises(ShapeMismatch, match=message):
            interior_interval_on_line(origin, direction, poly)

    def test_line_over_other_states_rejected(self):
        simplex = Polytope.from_halfspaces([], 3)
        with pytest.raises(ShapeMismatch):
            interior_interval_on_line(belief("1/3", "1/3", "1/3"), (1, -1), simplex)
        with pytest.raises(ShapeMismatch):
            interior_interval_on_line(belief("1/2", "1/2"), (1, -1, 0), simplex)

    @pytest.mark.parametrize(
        "origin, shown",
        [
            # the raw origin (2, 2) read the window (-2, 2)
            ((2, 2), "(2, 2)"),
            ((2, -1), "(2, -1)"),
            (("1/2", "1/3"), "(1/2, 1/3)"),
        ],
    )
    def test_origin_off_the_simplex_rejected(self, origin, shown):
        simplex = Polytope.from_halfspaces([], 2)
        message = "^the origin must be a point of the simplex, got " + re.escape(shown) + "$"
        with pytest.raises(ValueError, match=message):
            interior_interval_on_line(origin, (1, -1), simplex)

    def test_raw_origin_on_the_simplex_matches_its_belief(self):
        poly = Polytope.from_halfspaces([hs([1, -1], 0)], 2)
        direction = (Fraction(1, 4), Fraction(-1, 4))
        expected = interior_interval_on_line(belief("1/4", "3/4"), direction, poly)
        assert interior_interval_on_line(("1/4", "3/4"), direction, poly) == expected

    def test_direction_off_the_simplex_rejected(self):
        # (1, -2) leaves the plane sum(x) = 1: the window (-1/2, 1/4) was read off it
        simplex = Polytope.from_halfspaces([], 2)
        with pytest.raises(ValueError, match="^the direction must sum to zero, got -1$"):
            interior_interval_on_line(belief("1/2", "1/2"), (1, -2), simplex)

    @pytest.mark.parametrize(
        "direction, halfspaces, error",
        [
            ((1, -2, 0), [], ShapeMismatch),
            ((0.5, -2), [], TypeError),
            ((1, -2), [hs([1, 0, 0], 0)], ShapeMismatch),
        ],
    )
    def test_direction_sum_checked_last(self, direction, halfspaces, error):
        # the shape and float checks keep their place ahead of the new sum check
        poly = Polytope(tuple(halfspaces), (), 2)
        with pytest.raises(error):
            interior_interval_on_line(belief("1/2", "1/2"), direction, poly)
