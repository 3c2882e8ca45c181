from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import support
from infoval.errors import EmptyInput, EmptyPolytope, ShapeMismatch
from infoval.geometry import (
    Belief,
    Halfspace,
    Polytope,
    _kernel_ray,
    _row_reduce,
    barycenter,
    belief,
    dimension,
    facet_between,
    hull_halfspaces,
    interior_interval_on_line,
    interior_point,
    vertices_of,
)


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

    def test_flip_roundtrip(self):
        h = hs([0, 1], "1/2")
        assert h.flipped().flipped() == h.canonical()

    def test_degenerate_normal_rejected(self):
        with pytest.raises(ValueError):
            hs([2, 2], 1)

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


class TestContains:
    @pytest.mark.parametrize("halfspaces", [[], [hs([1, 0], 0)]])
    @pytest.mark.parametrize("strict", [False, True])
    def test_point_over_other_states_rejected(self, halfspaces, strict):
        poly = Polytope.from_halfspaces(halfspaces, 2)
        with pytest.raises(ShapeMismatch):
            poly.contains(belief("1/3", "1/3", "1/3"), strict=strict)
        with pytest.raises(ShapeMismatch):
            poly.contains(belief(0, 0, 1), strict=strict)


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
        assert h2 == h1.flipped()

    def test_vertex_touch_is_not_a_facet(self):
        # two cells of the three-way dominance subdivision meet in dim 1,
        # but a cell and the "far corner" region only share a vertex
        a = Polytope.from_halfspaces([hs([1, -1, 0], 0), hs([1, 0, -1], 0)], 3)
        b = Polytope.from_halfspaces([hs([-1, 1, 0], 0), hs([0, 1, -1], 0)], 3)
        got = facet_between(a, b)
        assert got is not None
        shared, _ = got
        assert dimension(shared.vertices) == 1

    def test_disjoint_cells(self):
        a = Polytope.from_halfspaces([hs([1, 0], "2/3")], 2)
        b = Polytope.from_halfspaces([hs([-1, 0], "-1/3")], 2)
        assert facet_between(a, b) is None

    def test_lower_dimensional_cell_rejected(self):
        full = Polytope.from_halfspaces([hs([1, -1, 0], 0)], 3)
        edge = Polytope((), (belief(1, 0, 0), belief("1/2", "1/2", 0)), 3)
        with pytest.raises(ValueError, match="full-dimensional"):
            facet_between(full, edge)

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

    def test_vertices_over_mixed_state_counts_rejected(self):
        with pytest.raises(ShapeMismatch):
            Polytope.from_vertices([belief(0, 1), belief(1, 0), belief(1, 0, 0)])


small_fractions = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))


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
            out.append(h.flipped())
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

    @settings(max_examples=200, deadline=None)
    @given(rational_matrices())
    def test_rank(self, rows):
        """Rank and kernel line of the row reduction against Fraction elimination."""
        n = len(rows[0])
        assert len(_row_reduce(rows)[0]) == support.rank_by_fractions(rows)
        ray = _kernel_ray(rows, n)
        assert (None if ray is None else tuple(ray)) == support._unique_kernel_vector(rows, n)


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

    def test_line_over_other_states_rejected(self):
        simplex = Polytope.from_halfspaces([], 3)
        with pytest.raises(ShapeMismatch):
            interior_interval_on_line(belief("1/3", "1/3", "1/3"), (1, -1), simplex)
        with pytest.raises(ShapeMismatch):
            interior_interval_on_line(belief("1/2", "1/2"), (1, -1, 0), simplex)
