"""Exact rational geometry on the probability simplex.

Everything here runs on arbitrary-precision rationals; no floating point.
Points live on the simplex {x >= 0, sum(x) = 1} and polytopes are stored as
halfspace intersections (implicitly cut with the simplex) together with their
exact vertex sets. Vertices, hull facets and the vertices of an upper
envelope all come from one incremental double-description routine on
integer rows, which touches only adjacent pairs of extreme rays rather than
every subset of constraints or points. All other exact linear algebra
(rank and affine dimension, the independent points that seed a hull, the
kernel line that spans a facet) comes from one fraction-free row reduction
on integer rows. Each polytope costs one double description: a hull's run
also tells which of its points are vertices. Which cells share a facet, on
the forward and the backward path alike, is read off vertex incidence by
one scan, adjacent_facets, which indexes the cells' vertices itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import BoundaryPrior, EmptyInput, EmptyPolytope, ShapeMismatch

Coords = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def _frac(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError("floating point values are not allowed; pass Fraction, int or str")
    return Fraction(value)


def _require_interior(prior: "Belief") -> None:
    if not prior.is_interior():
        raise BoundaryPrior()


def _require_prior(prior: "Belief", n: int) -> None:
    """A prior over n states that is interior: ShapeMismatch first, then BoundaryPrior."""
    _coords_of(prior, n)
    _require_interior(prior)


def _coords(values) -> Coords:
    return tuple(_frac(v) for v in values)


def _coords_of(point, n: int) -> Coords:
    """The coordinates of a Belief or raw tuple, which must number n."""
    coords = point.coords if isinstance(point, Belief) else point
    if len(coords) != n:
        raise ShapeMismatch(f"{len(coords)} coordinates where {n} are expected")
    return coords


@dataclass(frozen=True)
class Belief:
    """A probability vector over states, held exactly.

    Coordinates must be nonnegative rationals summing to one. Instances are
    immutable, hashable, and ordered lexicographically by coordinates, which
    gives every vertex listing in this library a canonical order.
    """

    coords: Coords

    def __post_init__(self):
        coords = _coords(self.coords)
        object.__setattr__(self, "coords", coords)
        if not coords:
            raise ValueError("belief needs at least one coordinate")
        if any(c < 0 for c in coords):
            raise ValueError(f"belief has a negative coordinate: {coords}")
        if sum(coords) != 1:
            raise ValueError(f"belief coordinates must sum to 1, got {sum(coords)}")

    @property
    def n(self) -> int:
        return len(self.coords)

    def __getitem__(self, idx: int) -> Fraction:
        return self.coords[idx]

    def __lt__(self, other: "Belief") -> bool:
        return self.coords < other.coords

    def is_interior(self) -> bool:
        return all(c > 0 for c in self.coords)

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


def belief(*values) -> Belief:
    """Shorthand constructor: belief("1/2", "1/2")."""
    return Belief(_coords(values))


def uniform_belief(n: int) -> Belief:
    return Belief(tuple(Fraction(1, n) for _ in range(n)))


def _normalized(column) -> Belief:
    """The belief proportional to a nonnegative int or Fraction column with a positive sum."""
    total = sum(column)
    return Belief(tuple(Fraction(c, total) for c in column))


@dataclass(frozen=True)
class Halfspace:
    """The set {x : normal . x >= offset}, read within the simplex.

    Two pairs (a, c) and (a + t*1, c + t) cut the simplex identically because
    coordinates sum to one, and positive rescaling changes nothing either.
    canonical() quotients both freedoms out: it shifts the smallest normal
    coordinate to zero and scales the normal to a primitive integer vector.
    """

    normal: Coords
    offset: Fraction

    def __post_init__(self):
        object.__setattr__(self, "normal", _coords(self.normal))
        object.__setattr__(self, "offset", _frac(self.offset))
        if len(set(self.normal)) == 1:
            raise ValueError("halfspace normal is constant on the simplex (degenerate)")

    @property
    def n(self) -> int:
        return len(self.normal)

    def value(self, point) -> Fraction:
        """Signed slack normal . x - offset at a Belief or raw coordinate tuple."""
        return sum(a * x for a, x in zip(self.normal, _coords_of(point, self.n))) - self.offset

    def canonical(self) -> "Halfspace":
        low = min(self.normal)
        shifted = tuple(a - low for a in self.normal)
        offset = self.offset - low
        scale = math.lcm(*(a.denominator for a in shifted))
        ints = [int(a * scale) for a in shifted]
        g = math.gcd(*ints)
        factor = Fraction(scale, g)
        return Halfspace(tuple(a * factor for a in shifted), offset * factor)

    def flipped(self) -> "Halfspace":
        """The opposite halfspace, canonicalized."""
        return Halfspace(tuple(-a for a in self.normal), -self.offset).canonical()

    def as_affine_coords(self) -> Coords:
        """Coefficients of x -> normal . x - offset as a pure linear form on the simplex."""
        return tuple(a - self.offset for a in self.normal)


@dataclass(frozen=True)
class Polytope:
    """Halfspace intersection inside the simplex, with its exact vertex set.

    The stored vertices are always the full, deduplicated, lexicographically
    sorted list of extreme points of (halfspaces cut with the simplex).
    An empty vertex tuple means the intersection is empty.
    """

    halfspaces: tuple[Halfspace, ...]
    vertices: tuple[Belief, ...]
    n: int

    @classmethod
    def from_halfspaces(cls, halfspaces, n: int) -> "Polytope":
        hs = _dedupe_canonical(halfspaces)
        verts = tuple(vertices_of(hs, n))
        return cls(hs, verts, n)

    @classmethod
    def from_vertices(cls, points) -> "Polytope":
        """Build a full-dimensional polytope from its claimed vertex set.

        One double description gives the hull's facets and, for each point,
        the facets tight at it. A point is a vertex of the hull exactly when
        the normals of its tight facets have rank n-1, so that they pin it
        down; any other point lies inside the hull or inside one of its
        faces, and the input is rejected.
        """
        points = list(points)
        if not points:
            raise EmptyInput("cannot build a polytope from no points")
        pts, rays, facets = _hull(points)
        n = pts[0].n
        for k in range(len(pts)):
            if _rank([ray for ray, zeros in rays if zeros >> k & 1]) != n - 1:
                raise ValueError("points are not the vertex set of their convex hull")
        return cls(tuple(facets), tuple(sorted(pts)), n)

    def is_empty(self) -> bool:
        return not self.vertices

    def contains(self, point, strict: bool = False) -> bool:
        """Membership test; strict=True tests the relative interior.

        For a full-dimensional polytope the relative interior is exactly the
        set of points with every stored halfspace strict and every coordinate
        positive.
        """
        coords = _coords_of(point, self.n)
        if strict:
            if any(c <= 0 for c in coords):
                return False
            return all(h.value(coords) > 0 for h in self.halfspaces)
        if any(c < 0 for c in coords):
            return False
        return all(h.value(coords) >= 0 for h in self.halfspaces)


def _dedupe_canonical(halfspaces) -> tuple[Halfspace, ...]:
    return tuple(dict.fromkeys(h.canonical() for h in halfspaces))


# ---------------------------------------------------------------------------
# exact linear algebra: one fraction-free row reduction
# ---------------------------------------------------------------------------


def _integer_row(values) -> list[int]:
    """A rational vector scaled by the lcm of its denominators: same direction, integer entries."""
    scale = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values]


def _primitive(row: list[int]) -> list[int]:
    """A nonzero integer vector divided by its gcd, its first nonzero entry made positive."""
    g = math.gcd(*row)
    if next(v for v in row if v) < 0:
        g = -g
    return [v // g for v in row]


def _row_reduce(rows) -> tuple[list[int], list[tuple[int, list[int]]]]:
    """Fraction-free row reduction of rational rows, taken in input order.

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
    for index, values in enumerate(rows):
        row = _integer_row(values)
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
    """The rank of a list of rational rows."""
    return len(_row_reduce(rows)[0])


def _kernel_ray(rows, n: int) -> list[int] | None:
    """The kernel of a rational system of rows of length n, when it is a line.

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
    1996). The first n rows must be linearly independent: they cut out a
    simplicial cone whose n rays are kernel vectors of n-1 of them. Each
    further row splits the current rays into positive, zero and negative
    ones; the negative rays leave, and every adjacent positive/negative pair
    is combined into a new ray on the row's hyperplane. Each ray carries its
    zero set as a bitmask over the rows so far (bit k set exactly when
    row k . r = 0), and is returned with it. Two rays are adjacent when
    their common zero set has at least n-2 rows and no third ray's zero set
    contains it. Rays are primitive integer vectors, all distinct.
    """
    rays: list[tuple[list[int], int]] = []
    for i in range(n):
        ray = _kernel_ray(rows[:i] + rows[i + 1 : n], n)
        if sum(a * b for a, b in zip(rows[i], ray)) < 0:
            ray = [-v for v in ray]
        rays.append((ray, ((1 << n) - 1) & ~(1 << i)))
    for k in range(n, len(rows)):
        row = rows[k]
        bit = 1 << k
        kept: list[tuple[list[int], int]] = []
        pos: list[tuple[list[int], int, int]] = []
        neg: list[tuple[list[int], int, int]] = []
        for ray, zeros in rays:
            s = sum(a * b for a, b in zip(row, ray))
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
    rows += [_integer_row(_coords_of(h.as_affine_coords(), n)) for h in halfspaces]
    return sorted(_normalized(ray) for ray, _ in _extreme_rays(rows, n))


def envelope_rays(rows) -> tuple[list[tuple[int, ...]], list[frozenset[int]]]:
    """The vertices of the upper envelope x -> max_a rows[a] . x over the simplex.

    One lift: double description on the cone {(x, z) : x >= 0, z >= rows[a] . x}
    with rows (e_i, 0), then (-L*rows[a], L) with L the lcm of the row's
    denominators. Every extreme ray but the dropped vertical one lies on the
    envelope above a vertex of the regular subdivision the rows induce.
    Returns the rays' x-parts, vertices once divided by their sums, and per
    row the indices of the rays on which it attains the envelope: those whose
    zero set holds the row's lifted index n + a.
    """
    n = len(rows[0])
    lifted = [[int(i == j) for j in range(n + 1)] for i in range(n)]
    lifted += [_integer_row([-v for v in row] + [ONE]) for row in rows]
    rays = [(ray, zeros) for ray, zeros in _extreme_rays(lifted, n + 1) if any(ray[:n])]
    tight = [
        frozenset(r for r, (_, zeros) in enumerate(rays) if zeros >> (n + a) & 1)
        for a in range(len(rows))
    ]
    return [tuple(ray[:n]) for ray, _ in rays], tight


def dimension(points) -> int:
    """Affine dimension of a point set (0 for a single point)."""
    pts = list(points)
    if not pts:
        raise EmptyInput("dimension of an empty point set is undefined")
    # beliefs lie on the hyperplane sum(x) = 1, which misses the origin
    return _rank([_coords_of(p, pts[0].n) for p in pts]) - 1


def barycenter(points) -> Belief:
    """Unweighted average of the points, exact."""
    pts = list(points)
    if not pts:
        raise EmptyInput("barycenter of an empty point set is undefined")
    columns = zip(*(_coords_of(p, pts[0].n) for p in pts))
    return Belief(tuple(sum(column) / len(pts) for column in columns))


def interior_point(poly: Polytope) -> Belief:
    """A deterministic relative-interior point: the barycenter of the vertices."""
    if poly.is_empty():
        raise EmptyPolytope("polytope has no points")
    return barycenter(poly.vertices)


def _hull(points) -> tuple[list[Belief], list[tuple[list[int], int]], list[Halfspace]]:
    """One double description of the hull of a full-dimensional point set.

    The facets of the hull are the extreme rays g of the dual cone
    {g : g . p >= 0 for every point p}: on the simplex, g . x >= 0 is the
    facet halfspace. Double description runs on the distinct points scaled
    to integers, with n affinely independent points first. Returns the
    points in that row order, the rays with their zero sets over those rows
    (bit k set when g vanishes at point k), and the canonical facets sorted
    by (normal, offset). Raises ValueError when the points do not span the
    simplex.
    """
    pts = sorted(set(points))
    if not pts:
        raise EmptyInput("hull of an empty point set is undefined")
    n = pts[0].n
    rows = [_integer_row(_coords_of(p, n)) for p in pts]
    first, _ = _row_reduce(rows)
    if len(first) != n:
        raise ValueError("the point set does not span the simplex, so its hull has no interior")
    order = first + [i for i in range(len(pts)) if i not in first]
    rays = _extreme_rays([rows[i] for i in order], n)
    facets = [Halfspace(tuple(ray), ZERO).canonical() for ray, _ in rays]
    return [pts[i] for i in order], rays, sorted(facets, key=lambda h: (h.normal, h.offset))


def hull_halfspaces(points) -> list[Halfspace]:
    """Facet halfspaces of the convex hull of a full-dimensional point set.

    Canonical and sorted by (normal, offset), from one double description
    (see _hull). Raises ValueError when the points do not span the simplex.
    """
    return _hull(points)[2]


def adjacent_facets(cells) -> list[tuple[int, int, Polytope, Halfspace]]:
    """Every pair of cells that meets in a facet, read off vertex incidence.

    The cells are full-dimensional polytopes that meet face to face, as the
    cells of one subdivision do. Their vertices are indexed in one pass, each
    kept as its coordinate row scaled to integers, and each cell is checked
    to be full-dimensional by the rank of its own rows. Cells i < j are
    adjacent exactly when the kernel of their common rows is a line g, that
    is, when the common vertices span an (n-2)-face: g . x >= 0 is the facet
    halfspace, oriented by g's signs on cell j's other vertices, and mixed
    signs (g does not support cell j) raise ValueError. Returns (i, j, shared
    face, canonical halfspace) per adjacent pair.
    """
    index: dict[Belief, int] = {}
    incidence = [frozenset(index.setdefault(v, len(index)) for v in p.vertices) for p in cells]
    vertices = list(index)
    rows = [_integer_row(v.coords) for v in vertices]
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
        sides = [sum(a * b for a, b in zip(g, rows[r])) for r in incidence[j] - common]
        if min(sides) < 0 < max(sides):
            raise ValueError(f"the hyperplane cells {i} and {j} share does not support cell {j}")
        if max(sides) <= 0:
            g = [-a for a in g]
        halfspaces = tuple(dict.fromkeys(cells[i].halfspaces + cells[j].halfspaces))
        shared = Polytope(halfspaces, tuple(sorted(vertices[r] for r in common)), n)
        out.append((i, j, shared, Halfspace(tuple(g), ZERO).canonical()))
    return out


def facet_between(p1: Polytope, p2: Polytope):
    """(shared face, facet halfspace holding on p2) of two cells by adjacent_facets, or None."""
    found = adjacent_facets([p1, p2])
    return found[0][2:] if found else None


# ---------------------------------------------------------------------------
# small affine helpers used by the construction code
# ---------------------------------------------------------------------------


def point_on_line(origin: Belief, direction: Coords, t: Fraction) -> Coords:
    """Raw coordinates of origin + t * direction (direction sums to zero)."""
    return tuple(o + t * d for o, d in zip(origin.coords, direction))


def interior_interval_on_line(origin: Belief, direction: Coords, poly: Polytope):
    """Open parameter interval {t : origin + t*direction in relint(poly)}.

    Returns an exact (lo, hi) pair with lo < hi, or None when the line misses
    the relative interior. The direction must sum to zero so the line stays
    in the simplex's affine hull.
    """
    coords = _coords_of(origin, poly.n)
    direction = _coords_of(direction, poly.n)
    conditions = list(zip(coords, direction))
    for h in poly.halfspaces:
        conditions.append((h.value(coords), sum(a * d for a, d in zip(h.normal, direction))))
    lo: Fraction | None = None
    hi: Fraction | None = None
    for alpha, beta in conditions:
        if beta == 0:
            if alpha <= 0:
                return None
            continue
        bound = -alpha / beta
        if beta > 0:
            lo = bound if lo is None else max(lo, bound)
        else:
            hi = bound if hi is None else min(hi, bound)
    if lo is None or hi is None:
        # a zero-sum direction always hits coordinate bounds on both sides
        return None
    if lo >= hi:
        return None
    return lo, hi
