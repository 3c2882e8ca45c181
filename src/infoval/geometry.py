"""Exact rational geometry on the probability simplex.

Everything here runs on arbitrary-precision rationals; no floating point.
Points live on the simplex {x >= 0, sum(x) = 1} and polytopes are stored as
halfspace intersections (implicitly cut with the simplex) together with their
exact vertex sets. Vertices and hull facets come from one incremental
double-description routine on integer rows, which touches only adjacent
pairs of extreme rays rather than every subset of constraints or points;
decision._lift runs the same routine on a problem's lifted payoff rows to
find the vertices of its upper envelope and the faces they lie on. All
exact linear algebra (its seed rays, rank and affine dimension, the
independent points that seed a hull, the kernel line that spans a facet)
comes from one fraction-free row reduction on integer rows. Every facet
halfspace (of a hull, between two adjacent cells, between two actions'
payoff rows) and the order of a hull's facets come from one integer
routine, _facet. A raw row becomes exact in one
place, _coords_of, which rejects floats. _scaled, which puts rational rows
over one denominator, is the one home of common-denominator integer sums:
barycenters, line windows, membership and the value kernels add integers
and divide once. A point is scaled once, when built: a Belief holds its
integer row, which its equality, hash and order (the one order of points)
read and _scaled_points brings to a common scale. A cut is scaled once, on
first read: a Halfspace holds its affine row a (the cut is a . x >= 0),
which every reader of a cut reads, and a polytope its interior point, the
vertex barycenter (each a _Holder). Beliefs and facets built from integers
in hand are checked once, on those integers. Each polytope costs one
double description, whose zero sets also tell which of a hull's points are
vertices. Which cells share a facet is
read off the lift's zero sets on the forward path, and off vertex incidence
by one scan, adjacent_facets, for cells given by their vertices; a shared
face is one cell cut by the facet halfspace that holds on the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from operator import mul

from .errors import (
    BoundaryPrior, EmptyInput, EmptyPolytope, MalformedData, ShapeMismatch, UnreadableEntry,
)

Coords = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def _frac(value) -> Fraction:
    """The entry as a Fraction: TypeError for a float, UnreadableEntry for anything unreadable."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError("floating point values are not allowed; pass Fraction, int or str")
    try:
        return Fraction(value)
    except (ValueError, TypeError, ArithmeticError) as exc:
        raise UnreadableEntry(f"cannot read {value!r} as an exact rational") from exc


def _require_prior(prior, n: int | None = None) -> "Belief":
    """The prior as a Belief: ShapeMismatch unless over n states, if given, then BoundaryPrior."""
    _coords_of(prior, n)
    prior = _belief(prior)
    if not prior.is_interior():
        raise BoundaryPrior()
    return prior


def _coords_of(point, n: int | None = None) -> Coords:
    """A Belief's coordinates, or a raw row made exact by _frac, so a float raises TypeError.

    UnreadableEntry when the point is not a sequence, or is a string, whose
    characters are no coordinates; ShapeMismatch unless there are n
    coordinates, when n is given.
    """
    if isinstance(point, Belief):
        coords = point.coords
    else:
        try:
            entries = iter(point)
        except TypeError:
            entries = None
        if entries is None or isinstance(point, str):
            raise UnreadableEntry(f"cannot read {point!r} as a sequence of coordinates")
        coords = tuple(_frac(v) for v in entries)
    if n is not None and len(coords) != n:
        raise ShapeMismatch(f"{len(coords)} coordinates where {n} are expected")
    return coords


def _require_type(what: str, value, kind: type) -> None:
    """MalformedData naming what (an argument, a field, an item by index) unless value is a kind."""
    if not isinstance(value, kind):
        raise MalformedData(f"{what} must be of type {kind.__name__}, got {value!r}")


class _Holder:
    """A frozen dataclass whose held forms (cached_property) stay out of pickles and copies."""

    def __getstate__(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class Belief(_Holder):
    """A probability vector over states, held exactly.

    Coordinates must be nonnegative rationals summing to one. Instances are
    immutable, hashable, and ordered lexicographically by coordinates, which
    gives every vertex listing in this library a canonical order. Each holds
    its integer row over the lcm of its denominators (_ints), formed when
    the belief is checked; equality, order, hash and sums read it.
    """

    coords: Coords

    def __post_init__(self):
        object.__setattr__(self, "coords", _coords_of(self.coords))
        self._ints  # forms the row, checking the coordinates

    @cached_property
    def _ints(self) -> tuple[tuple[int, ...], int]:
        """(row, scale) with coords[k] == row[k] / scale, scale the lcm of the denominators."""
        (row,), scale = _scaled((self.coords,))
        return self._checked(tuple(row), scale)

    def _checked(self, row: tuple[int, ...], scale: int) -> tuple[tuple[int, ...], int]:
        """(row, scale), once row / scale is checked to be a probability vector."""
        if not row:
            raise ValueError("belief needs at least one coordinate")
        if min(row) < 0:
            raise ValueError(f"belief has a negative coordinate: {self.coords}")
        if sum(row) != scale:
            raise ValueError(f"belief coordinates must sum to 1, got {sum(self.coords)}")
        return row, scale

    def __hash__(self) -> int:
        return hash(self._ints)

    def __eq__(self, other) -> bool:
        if other.__class__ is not Belief:
            return NotImplemented
        return self._ints == other._ints

    def __lt__(self, other: "Belief") -> bool:
        """The order of the coordinate tuples: row_a * scale_b against row_b * scale_a.

        NotImplemented for a non-Belief, as in __eq__, so Python raises TypeError.
        """
        if other.__class__ is not Belief:
            return NotImplemented
        (a, s), (b, t) = self._ints, other._ints
        if s == t:
            return a < b
        return [x * t for x in a] < [y * s for y in b]

    @property
    def n(self) -> int:
        return len(self.coords)

    def __getitem__(self, idx: int) -> Fraction:
        return self.coords[idx]

    def is_interior(self) -> bool:
        return all(self._ints[0])

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


def _exact_belief(row, scale: int) -> Belief:
    """The Belief row / scale, scale positive, with Belief's checks run once, on the integers.

    Divided by its gcd, the pair is the one Belief holds: the row over the
    lcm of the coordinates' denominators.
    """
    g = math.gcd(scale, *row)
    row, scale = tuple(v // g for v in row), scale // g
    point = object.__new__(Belief)
    object.__setattr__(point, "coords", tuple(Fraction(v, scale) for v in row))
    object.__setattr__(point, "_ints", point._checked(row, scale))
    return point


def _belief(point) -> Belief:
    """point itself when it is a Belief, else the Belief of its coordinates."""
    return point if isinstance(point, Belief) else Belief(point)


def belief(*values) -> Belief:
    """Shorthand constructor: belief("1/2", "1/2")."""
    return Belief(values)


def uniform_belief(n: int) -> Belief:
    return Belief(tuple(Fraction(1, n) for _ in range(n)))


def _normalized(column) -> Belief:
    """The belief proportional to a nonnegative int or Fraction column with a positive sum."""
    row = _integer_row(column)
    return _exact_belief(row, sum(row))


@dataclass(frozen=True)
class Halfspace(_Holder):
    """The set {x : normal . x >= offset}, read within the simplex.

    Two pairs (a, c) and (a + t*1, c + t) cut the simplex identically because
    coordinates sum to one, and positive rescaling changes nothing either.
    canonical() quotients both freedoms out: it shifts the smallest normal
    coordinate to zero and scales the normal to a primitive integer vector.
    Its one integer form is the affine row a (_ints), read as a . x >= 0.
    Equality, hash and repr are the dataclass's own: a shared face holds
    one cell's halfspaces and its facet's, so no two lists are merged.
    """

    normal: Coords
    offset: Fraction

    def __post_init__(self):
        object.__setattr__(self, "normal", _coords_of(self.normal))
        object.__setattr__(self, "offset", _frac(self.offset))
        if not self.normal:
            raise ValueError("halfspace normal needs at least one coordinate")
        if all(a == self.normal[0] for a in self.normal):
            raise ValueError("halfspace normal is constant on the simplex (degenerate)")

    @cached_property
    def _ints(self) -> tuple[int, ...]:
        """The affine row a: (normal, offset) over one lcm, each normal entry less the offset's."""
        *row, c = _integer_row(self.normal + (self.offset,))
        return tuple(v - c for v in row)

    @property
    def n(self) -> int:
        return len(self.normal)

    def value(self, point) -> Fraction:
        """Signed slack normal . x - offset at a Belief or raw coordinate tuple."""
        return sum(a * x for a, x in zip(self.normal, _coords_of(point, self.n))) - self.offset

    def canonical(self) -> "Halfspace":
        """_facet of (normal - offset) . x >= 0, the same cut, scaled to integers."""
        return _facet_halfspace(*_facet(self._ints))

    def as_affine_coords(self) -> Coords:
        """Coefficients of x -> normal . x - offset as a pure linear form on the simplex."""
        return tuple(a - self.offset for a in self.normal)


def _facet_halfspace(normal: tuple[int, ...], offset: Fraction) -> Halfspace:
    """The Halfspace of one of _facet's (primitive integer normal, offset) pairs.

    Halfspace's own check, once, on the integers: _facet's normal has least
    entry 0, so it is constant on the simplex exactly when it is zero.
    """
    if not any(normal):
        raise ValueError("halfspace normal is constant on the simplex (degenerate)")
    h = object.__new__(Halfspace)
    object.__setattr__(h, "normal", tuple(map(Fraction, normal)))
    object.__setattr__(h, "offset", offset)
    return h


@dataclass(frozen=True)
class Polytope(_Holder):
    """Halfspace intersection inside the simplex, with its exact vertex set.

    The stored vertices are always the full, deduplicated, lexicographically
    sorted list of extreme points of (halfspaces cut with the simplex).
    An empty vertex tuple means the intersection is empty.
    """

    halfspaces: tuple[Halfspace, ...]
    vertices: tuple[Belief, ...]
    n: int

    @cached_property
    def _center(self) -> Belief:
        """The barycenter of the vertices (interior_point)."""
        if self.is_empty():
            raise EmptyPolytope("polytope has no points")
        return barycenter(self.vertices)

    @classmethod
    def from_halfspaces(cls, halfspaces, n: int) -> "Polytope":
        hs = tuple(dict.fromkeys(h.canonical() for h in halfspaces))
        verts = tuple(vertices_of(hs, n))
        return cls(hs, verts, n)

    @classmethod
    def from_vertices(cls, points) -> "Polytope":
        """Build a full-dimensional polytope from its claimed vertex set.

        One double description gives the hull's facets and, for each point,
        the set of facets tight at it. Those cut out the least face holding
        the point, the hull of the points on it, so a point is a vertex
        exactly when no other point's set contains its own (an interior
        point's is empty); any other point is rejected.
        """
        points = list(points)
        if not points:
            raise EmptyInput("cannot build a polytope from no points")
        pts, rays, facets = _hull(points)
        tight = [sum(1 << r for r, (_, z) in enumerate(rays) if z >> k & 1)
                 for k in range(len(pts))]
        if any(sum(s & t == t for s in tight) > 1 for t in tight):
            raise ValueError("points are not the vertex set of their convex hull")
        return cls(tuple(facets), tuple(pts), pts[0].n)

    def is_empty(self) -> bool:
        return not self.vertices

    def contains(self, point, strict: bool = False) -> bool:
        """Membership test; strict=True tests the relative interior.

        For a full-dimensional polytope the relative interior is exactly the
        set of points with every stored halfspace strict and every coordinate
        positive. Each is an integer dot product over the point's scale. A raw
        row off the simplex (a negative entry, or a sum other than one) is
        not contained.
        """
        (x,), scale = _scaled_points([point], self.n)
        floor = 1 if strict else 0  # an integer is > 0 when it is >= 1
        if any(v < floor for v in x) or sum(x) != scale:
            return False
        for h in self.halfspaces:
            if h.n != self.n:
                _coords_of(point, h.n)  # the ShapeMismatch h.value raises
        return all(sum(map(mul, h._ints, x)) >= floor for h in self.halfspaces)


def _facet(g) -> tuple[tuple[int, ...], Fraction]:
    """(integer normal, offset) of the canonical halfspace of g . x >= 0, g integer, nonconstant.

    On the simplex, g . x >= 0 is (g - low) . x >= -low with low = min(g);
    dividing by d, the gcd of g - low, leaves a primitive normal whose least
    entry is 0, and the offset -low/d. The pair also sorts facets.
    """
    low = min(g)
    shifted = [a - low for a in g]
    d = math.gcd(*shifted)
    return tuple(a // d for a in shifted), Fraction(-low, d)


# ---------------------------------------------------------------------------
# exact linear algebra: one fraction-free row reduction
# ---------------------------------------------------------------------------


def _scaled(rows) -> tuple[list[list[int]], int]:
    """(ints, scale) with rows[i][k] == ints[i][k] / scale, scale the lcm of all denominators."""
    scale = math.lcm(*[v.denominator for row in rows for v in row])
    return [[v.numerator * (scale // v.denominator) for v in row] for row in rows], scale


def _scaled_points(points, n: int | None = None) -> tuple[list, int]:
    """_scaled of the points' coordinates, a Belief's read off its held row (do not mutate).

    Each point passes _coords_of's float and shape checks.
    """
    pairs = []
    for p in points:
        coords = _coords_of(p, n)
        if isinstance(p, Belief):
            pairs.append(p._ints)
        else:
            (row,), scale = _scaled((coords,))
            pairs.append((row, scale))
    scale = math.lcm(*[s for _, s in pairs])
    return [row if s == scale else [v * (scale // s) for v in row] for row, s in pairs], scale


def _integer_row(values) -> list[int]:
    """A rational vector scaled by the lcm of its denominators: same direction, integer entries."""
    return _scaled((values,))[0][0]


def _primitive(row: list[int]) -> list[int]:
    """A nonzero integer vector divided by its gcd, its first nonzero entry made positive."""
    g = math.gcd(*row)
    if next(v for v in row if v) < 0:
        g = -g
    return [v // g for v in row]


def _row_reduce(rows) -> tuple[list[int], list[tuple[int, list[int]]]]:
    """Fraction-free row reduction of integer rows, taken in input order.

    Returns the indices of the rows that are independent of the rows before
    them (so their count is the rank) and a reduced basis of the span: one
    (pivot column, row) pair per independent row, where the row is a
    primitive integer vector whose first nonzero entry is its positive pivot
    and which is zero in every other pair's pivot column. Each elimination
    step is an integer combination of two rows divided by its gcd, so no
    fraction is formed. Rows after the rank reaches the column count are
    dependent and are not looked at.
    """
    independent: list[int] = []
    basis: list[tuple[int, list[int]]] = []
    for index, row in enumerate(rows):
        for col, b in basis:
            if row[col]:
                row = [b[col] * x - row[col] * y for x, y in zip(row, b)]
        pivot = next((c for c, x in enumerate(row) if x), None)
        if pivot is None:
            continue
        row = _primitive(row)
        basis = [
            (col, _primitive([row[pivot] * y - b[pivot] * x for x, y in zip(row, b)]))
            if b[pivot]
            else (col, b)
            for col, b in basis
        ]
        basis.append((pivot, row))
        independent.append(index)
        if len(basis) == len(row):
            break
    return independent, basis


def _rank(rows) -> int:
    """The rank of a list of integer rows."""
    return len(_row_reduce(rows)[0])


def _kernel_ray(rows, n: int) -> list[int] | None:
    """The kernel of an integer system of rows of length n, when it is a line.

    Read off the reduced basis: the one non-pivot column is free, and each
    basis row fixes its pivot coordinate against it. Returns the primitive
    integer vector with its first nonzero entry positive, or None when the
    nullity is not exactly 1.
    """
    _, basis = _row_reduce(rows)
    if len(basis) != n - 1:
        return None
    pivots = {col for col, _ in basis}
    free = next(c for c in range(n) if c not in pivots)
    scale = math.lcm(*(b[col] for col, b in basis))
    ray = [0] * n
    ray[free] = scale
    for col, b in basis:
        ray[col] = -b[free] * (scale // b[col])
    return _primitive(ray)


def _extreme_rays(rows: list[list[int]], n: int) -> list[tuple[list[int], int]]:
    """Extreme rays of the pointed cone {r : row . r >= 0 for every row}.

    Incremental double description (Motzkin et al. 1953; Fukuda & Prodon
    1996). The first n rows A must be linearly independent: they cut out a
    simplicial cone whose ray i, column i of A^-1 (row i is positive on it,
    the other n-1 vanish), comes from one reduction of [A | I]. Each further
    row splits the current rays into positive, zero and negative ones; the
    negative rays leave, and every adjacent positive/negative pair is
    combined into a new ray on the row's hyperplane. Each ray carries its
    zero set as a bitmask over the rows so far (bit k set exactly when
    row k . r = 0), and is returned with it. Two rays are adjacent when
    their common zero set has at least n-2 rows and no third ray's zero set
    contains it. Rays are primitive integer vectors, all distinct.
    """
    seed = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(rows[:n])]
    _, basis = _row_reduce(seed)  # the row with pivot c is b[c] times row c of [I | A^-1]
    scale = math.lcm(*(b[col] for col, b in basis))
    inverse = [[v * (scale // b[col]) for v in b[n:]] for col, b in sorted(basis)]
    rays: list[tuple[list[int], int]] = []
    for i, ray in enumerate(zip(*inverse)):
        g = math.gcd(*ray)
        rays.append(([v // g for v in ray], ((1 << n) - 1) & ~(1 << i)))
    for k in range(n, len(rows)):
        row = rows[k]
        bit = 1 << k
        kept: list[tuple[list[int], int]] = []
        pos: list[tuple[list[int], int, int]] = []
        neg: list[tuple[list[int], int, int]] = []
        for ray, zeros in rays:
            s = sum(map(mul, row, ray))
            if s > 0:
                kept.append((ray, zeros))
                pos.append((ray, zeros, s))
            elif s < 0:
                neg.append((ray, zeros, s))
            else:
                kept.append((ray, zeros | bit))
        masks = [zeros for _, zeros in rays]
        for p, pz, ps in pos:
            for m, mz, ms in neg:
                common = pz & mz
                if common.bit_count() < n - 2:
                    continue
                if any(z & common == common for z in masks if z != pz and z != mz):
                    continue
                ray = [ps * b - ms * a for a, b in zip(p, m)]
                g = math.gcd(*ray)
                kept.append(([v // g for v in ray], common | bit))
        rays = kept
    return rays


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def vertices_of(halfspaces, n: int) -> list[Belief]:
    """All extreme points of the halfspace intersection cut with the simplex.

    On the simplex, normal . x >= offset is the linear inequality
    (normal - offset) . x >= 0, so the intersection is a slice of the cone
    {x >= 0, (normal - offset) . x >= 0}. Its extreme rays, found by double
    description with the n coordinate rows first, are the vertices once each
    is divided by its sum; a repeated or rescaled halfspace only repeats a
    row, which changes no ray. Sorted lexicographically; the empty list
    means an empty intersection.
    """
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for h in halfspaces:
        _coords_of(h.normal, n)  # ShapeMismatch unless every halfspace is over n states
        rows.append(h._ints)
    return sorted(_normalized(ray) for ray, _ in _extreme_rays(rows, n))


def dimension(points) -> int:
    """Affine dimension of a point set (0 for a single point), on the simplex or off it.

    One less than the rank of the rows with a column of ones appended, here
    the integer rows with their scale.
    """
    pts = list(points)
    if not pts:
        raise EmptyInput("dimension of an empty point set is undefined")
    rows, scale = _scaled_points(pts, len(_coords_of(pts[0])))
    return _rank([[*row, scale] for row in rows]) - 1


def barycenter(points) -> Belief:
    """Unweighted average of the points, exact."""
    pts = list(points)
    if not pts:
        raise EmptyInput("barycenter of an empty point set is undefined")
    rows, scale = _scaled_points(pts, len(_coords_of(pts[0])))
    return _exact_belief([sum(column) for column in zip(*rows)], len(pts) * scale)


def interior_point(poly: Polytope) -> Belief:
    """A deterministic relative-interior point: the barycenter of the vertices.

    Formed on the first call and held by the polytope, so a cell or a shared
    face that several witnesses start from is averaged once.
    """
    _require_type("poly", poly, Polytope)
    return poly._center


def _hull(points) -> tuple[list[Belief], list[tuple[list[int], int]], list[Halfspace]]:
    """One double description of the hull of a full-dimensional point set.

    The facets of the hull are the extreme rays g of the dual cone
    {g : g . p >= 0 for every point p}: on the simplex, g . x >= 0 is the
    facet halfspace (none at n = 1, where g is constant). Double description
    runs on the distinct points, sorted as Beliefs and scaled to integers,
    with n affinely independent points first. Returns the sorted points, the
    rays with their zero sets over the points (in the run's row order), and
    the canonical facets sorted by _facet's (integer normal, offset). Raw
    coordinate tuples are read as beliefs. Raises ValueError when the points
    do not span the simplex.
    """
    pts = sorted(dict.fromkeys(map(_belief, points)))
    if not pts:
        raise EmptyInput("hull of an empty point set is undefined")
    n = pts[0].n
    for p in pts:
        _coords_of(p, n)  # ShapeMismatch unless every point is over n states
    rows = [p._ints[0] for p in pts]
    first, _ = _row_reduce(rows)
    if len(first) != n:
        raise ValueError("the point set does not span the simplex, so its hull has no interior")
    order = first + [i for i in range(len(pts)) if i not in first]
    rays = _extreme_rays([rows[i] for i in order], n)
    facets = [_facet_halfspace(*key) for key in sorted(_facet(ray) for ray, _ in rays if n > 1)]
    return pts, rays, facets


def hull_halfspaces(points) -> list[Halfspace]:
    """Facet halfspaces of the convex hull of a full-dimensional point set.

    Canonical and sorted by (normal, offset), from one double description
    (see _hull). Raises ValueError when the points do not span the simplex.
    """
    return _hull(points)[2]


def adjacent_facets(cells) -> list[tuple[int, int, Polytope, Halfspace]]:
    """Every pair of cells that meets in a facet, read off vertex incidence.

    The cells are full-dimensional polytopes over one number of states
    (ShapeMismatch otherwise) that meet face to face, as the cells of one
    subdivision do. Their distinct vertices are indexed in the order first
    seen, each kept as its integer row, and each cell is checked to be
    full-dimensional by the rank of its own rows. Cells i < j are adjacent
    exactly when the kernel of their common rows is a line g, that is, when
    the common vertices span an (n-2)-face; the kernel does not depend on
    the order of the rows. g . x >= 0 is the facet halfspace, oriented by
    g's signs on cell j's other vertices, and mixed signs (g does not
    support cell j) raise ValueError, as does a vertex of cell i where it is
    positive: cell i lies on its other side. Returns (i, j, shared face,
    canonical halfspace) per adjacent pair. The shared face is cell i cut by
    that halfspace, which is exactly the face of the common vertices. Its
    vertices are cell i's own, sorted as Beliefs.
    """
    for k, p in enumerate(cells):
        _require_type(f"cell {k}", p, Polytope)
    if len({p.n for p in cells}) > 1:
        raise ShapeMismatch("facets are found only between cells over the same states")
    index: dict[Belief, int] = {}
    incidence = [frozenset(index.setdefault(v, len(index)) for v in p.vertices) for p in cells]
    rows = [v._ints[0] for v in index]
    for p, own in zip(cells, incidence):
        if not own or _rank([rows[r] for r in own]) != p.n:
            raise ValueError("facets are found only between full-dimensional cells")
    out = []
    for i, j in combinations(range(len(cells)), 2):
        n = cells[i].n
        common = incidence[i] & incidence[j]
        g = _kernel_ray([rows[r] for r in common], n) if len(common) >= n - 1 else None
        if g is None:
            continue
        sides = [sum(map(mul, g, rows[r])) for r in incidence[j] - common]
        if min(sides) < 0 < max(sides):
            raise ValueError(f"the hyperplane cells {i} and {j} share does not support cell {j}")
        if max(sides) <= 0:
            g = [-a for a in g]
        if any(sum(map(mul, g, rows[r])) > 0 for r in incidence[i] - common):
            raise ValueError(f"cells {i} and {j} lie on the same side of the hyperplane they share")
        facet = _facet_halfspace(*_facet(g))
        face = tuple(sorted(v for v in cells[i].vertices if index[v] in common))
        out.append((i, j, Polytope((*cells[i].halfspaces, facet), face, n), facet))
    return out


def facet_between(p1: Polytope, p2: Polytope):
    """(shared face, facet halfspace holding on p2) of two cells by adjacent_facets, or None."""
    found = adjacent_facets([p1, p2])
    return found[0][2:] if found else None


# ---------------------------------------------------------------------------
# small affine helpers used by the construction code
# ---------------------------------------------------------------------------


def interior_interval_on_line(origin: Belief, direction: Coords, poly: Polytope):
    """Open parameter interval {t : origin + t*direction in relint(poly)}.

    Returns an exact (lo, hi) pair with lo < hi, or None when the line misses
    the relative interior. The origin must be a point of the simplex, and the
    direction must sum to zero so the line stays in the simplex's affine
    hull: ValueError otherwise, the origin checked first. A halfspace over
    other states raises the ShapeMismatch that Polytope.contains raises,
    before either value check. The window itself is _line_window's.
    """
    (coords, direction), scale = _scaled_points((origin, direction), poly.n)
    for h in poly.halfspaces:
        if h.n != poly.n:
            _coords_of(origin, h.n)  # the ShapeMismatch Polytope.contains raises
    if min(coords) < 0 or sum(coords) != scale:
        point = ", ".join(str(Fraction(v, scale)) for v in coords)
        raise ValueError(f"the origin must be a point of the simplex, got ({point})")
    if sum(direction):
        raise ValueError(f"the direction must sum to zero, got {Fraction(sum(direction), scale)}")
    return _line_window(coords, direction, scale, poly)


def _line_window(origin: list[int], direction: list[int], scale: int, poly: Polytope):
    """interior_interval_on_line of the line (origin + t*direction) / scale, unchecked.

    Both rows are integers over the one scale, the origin a point of the
    simplex and the direction summing to zero, and every halfspace is over
    poly.n states. Each coordinate and halfspace bounds t by -alpha/beta,
    kept as an integer pair over the line's and its own scale.
    """
    conditions = list(zip(origin, direction))
    for h in poly.halfspaces:
        conditions.append((sum(map(mul, h._ints, origin)), sum(map(mul, h._ints, direction))))
    lo = hi = None
    for alpha, beta in conditions:
        if beta == 0:
            if alpha <= 0:
                return None
            continue
        if beta > 0:
            if lo is None or -alpha * lo[1] > lo[0] * beta:
                lo = (-alpha, beta)
        elif hi is None or alpha * hi[1] < hi[0] * -beta:
            hi = (alpha, -beta)
    # a zero-sum direction always hits coordinate bounds on both sides
    if lo is None or hi is None or lo[0] * hi[1] >= hi[0] * lo[1]:
        return None
    return Fraction(*lo), Fraction(*hi)
