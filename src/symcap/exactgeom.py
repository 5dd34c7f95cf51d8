"""Exact rational polytope geometry for moment images.

Everything here is a pure value: vectors are tuples of Fractions,
polytopes are canonical H-representations with coprime integer normals,
and the transform group is SL_n(Z) acting together with rational
translations.  No floating point enters any predicate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .linprog import INFEASIBLE, OPTIMAL, solve_lp
from .rationals import fmt, is_infinite, rat

Vector = tuple[Fraction, ...]

# Work budget of `Polytope.vertices`, in checks of a candidate against a
# halfspace: C(m, n - 1) recession rays and C(m, n) vertices, each against
# all m halfspaces, C(m + 1, n) * m in all for m halfspaces in dimension n.
# On a 2-vCPU Xeon with Python 3.11 a check costs 0.7-1.3 us, so the
# largest admitted enumeration takes about a second: 125 halfspaces in
# dimension 2, 49 in dimension 3.  Every polytope of the verbs and the
# acceptance suite has at most 8 halfspaces, a few thousand checks.
VERTEX_BUDGET = 10**6


class DimensionMismatch(ValueError):
    """Operands live in different ambient dimensions."""


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def int_det(matrix) -> int:
    """Determinant of a square integer matrix (the empty matrix gives 1).

    Fraction-free Bareiss elimination: every intermediate entry is an
    integer minor, so each division is exact and entries stay small.
    """
    m = [list(row) for row in matrix]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot_row = m[k]
        pivot = pivot_row[k]
        for i in range(k + 1, n):
            row = m[i]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - row[k] * pivot_row[j]) // prev
        prev = pivot
    return sign * m[-1][-1] if n else 1


def cofactor_vector(rows) -> list[int]:
    """The integer vector v with det([*rows, x]) = v . x, for n - 1 integer
    rows of length n: the cofactors of a last row, a normal of the rows."""
    n = len(rows) + 1
    return [
        (-1) ** (n - 1 + k) * int_det([row[:k] + row[k + 1 :] for row in rows])
        for k in range(n)
    ]


def inward_facets(vertices) -> list[tuple[tuple[int, ...], int]]:
    """Inward halfspaces nu . x > beta, one per facet, of a full-dimensional
    simplex with integer vertices (as every SimplexImage is, see
    `interiors_disjoint`): their strict intersection is the open simplex."""
    n = len(vertices[0])
    facets = []
    for i, excluded in enumerate(vertices):
        others = vertices[:i] + vertices[i + 1 :]
        base = others[0]
        edges = [[p[axis] - base[axis] for axis in range(n)] for p in others[1:]]
        normal = cofactor_vector(edges)
        offset = _dot(normal, base)
        if _dot(normal, excluded) < offset:
            normal = [-c for c in normal]
            offset = -offset
        facets.append((tuple(normal), offset))
    return facets


# ---------------------------------------------------------------------------
# Special affine transforms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpecialAffineTransform:
    """An element (M, tau) of SL_n(Z) x R^n acting by x -> Mx + tau."""

    matrix: tuple[tuple[int, ...], ...]
    translation: Vector

    def __post_init__(self):
        object.__setattr__(self, "translation", tuple(map(rat, self.translation)))
        n = len(self.matrix)
        if any(len(row) != n for row in self.matrix) or len(self.translation) != n:
            raise DimensionMismatch("matrix and translation sizes disagree")
        if any(type(e) is not int for row in self.matrix for e in row):
            raise ValueError("matrix entries must be integers")
        if int_det(self.matrix) != 1:
            raise ValueError("matrix determinant must be +1")
        if any(is_infinite(t) for t in self.translation):
            raise ValueError("translation entries must be finite")

    @property
    def dimension(self) -> int:
        return len(self.matrix)

    @staticmethod
    def identity(n: int) -> "SpecialAffineTransform":
        matrix = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        return SpecialAffineTransform(matrix, tuple(Fraction(0) for _ in range(n)))

    def apply(self, point: Vector) -> Vector:
        if len(point) != self.dimension:
            raise DimensionMismatch("point dimension mismatch")
        return tuple(
            sum((m * x for m, x in zip(row, point)), t)
            for row, t in zip(self.matrix, self.translation)
        )

    def compose(self, other: "SpecialAffineTransform") -> "SpecialAffineTransform":
        """Return self o other, i.e. x -> self(other(x))."""
        if self.dimension != other.dimension:
            raise DimensionMismatch("cannot compose transforms of different dimension")
        n = self.dimension
        matrix = tuple(
            tuple(sum(self.matrix[i][k] * other.matrix[k][j] for k in range(n)) for j in range(n))
            for i in range(n)
        )
        translation = self.apply(other.translation)
        return SpecialAffineTransform(matrix, translation)

    def inverse(self) -> "SpecialAffineTransform":
        # The adjugate of an SL_n(Z) matrix is its integer inverse.  Its
        # column j is the cofactor vector of the other rows, signed by the
        # n - 1 - j swaps that move row j to the bottom.
        n, rows = self.dimension, self.matrix
        columns = [
            [(-1) ** (n - 1 - j) * c for c in cofactor_vector(rows[:j] + rows[j + 1 :])]
            for j in range(n)
        ]
        matrix = tuple(zip(*columns))
        translation = tuple(-_dot(row, self.translation) for row in matrix)
        return SpecialAffineTransform(matrix, translation)


# ---------------------------------------------------------------------------
# H-representation polytopes
# ---------------------------------------------------------------------------


def _normalize_constraint(normal, offset) -> tuple[tuple[int, ...], Fraction]:
    """Scale a halfspace nu . x <= beta so nu has coprime integer entries."""
    normal = [rat(c) for c in normal]
    offset = rat(offset)
    if any(is_infinite(c) for c in (*normal, offset)):
        raise ValueError("halfspace entries must be finite")
    if all(c == 0 for c in normal):
        raise ValueError("zero normal in halfspace")
    denom = math.lcm(*(c.denominator for c in normal))
    ints = [int(c * denom) for c in normal]
    g = math.gcd(*(abs(i) for i in ints))
    scale = Fraction(denom, g)
    return tuple(i // g for i in ints), offset * scale


@dataclass(frozen=True)
class Polytope:
    """Intersection of closed halfspaces nu . x <= beta, in canonical form."""

    constraints: tuple[tuple[tuple[int, ...], Fraction], ...]

    @staticmethod
    def from_halfspaces(halfspaces) -> "Polytope":
        normalized = sorted(set(_normalize_constraint(nu, beta) for nu, beta in halfspaces))
        dims = {len(nu) for nu, _ in normalized}
        if len(dims) != 1:
            raise DimensionMismatch("halfspaces of mixed dimension")
        return Polytope(tuple(normalized))

    @property
    def dimension(self) -> int:
        return len(self.constraints[0][0])

    def transform(self, g: SpecialAffineTransform) -> "Polytope":
        """The image polytope g(P) = {Mx + tau : x in P}."""
        inv = g.inverse()
        columns = list(zip(*inv.matrix))
        # nu . g^{-1}(y) <= beta  becomes  (nu M^{-1}) . y <= beta - nu . tau',
        # where tau' = -M^{-1} tau is the translation of g^{-1}.
        return Polytope.from_halfspaces(
            (tuple([_dot(nu, column) for column in columns]), beta - _dot(nu, inv.translation))
            for nu, beta in self.constraints
        )

    def scale(self, factor: Fraction) -> "Polytope":
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return Polytope.from_halfspaces(
            [(nu, beta * factor) for nu, beta in self.constraints]
        )

    def vertices(self) -> list[Vector]:
        """The distinct vertices, each found once, in a fixed order.

        Works on integers, with the offsets scaled by the lcm of their
        denominators.  The polytope is bounded iff its recession cone
        {d : nu . d <= 0} is {0}; every extreme ray of that cone is the null
        vector of n - 1 independent normals, so those are tested first.  A
        bounded polytope is the hull of its vertices, the feasible points
        where n independent constraints are tight (Cramer's rule).

        Raises ValueError when the polytope is empty or unbounded, and,
        before any enumeration, when it would check more than VERTEX_BUDGET
        candidates against halfspaces.
        """
        n = self.dimension
        normals = [nu for nu, _ in self.constraints]
        checks = math.comb(len(normals) + 1, n) * len(normals)
        if checks > VERTEX_BUDGET:
            raise ValueError(
                f"vertex enumeration of {len(normals)} halfspaces in dimension {n} "
                f"makes {checks} checks, above the budget of {VERTEX_BUDGET}"
            )
        for tight in combinations(normals, n - 1):
            ray = cofactor_vector(tight)
            dots = [_dot(nu, ray) for nu in normals]
            if any(ray) and (max(dots) <= 0 or min(dots) >= 0):
                raise ValueError("polytope is unbounded")
        scale = math.lcm(*[beta.denominator for _, beta in self.constraints])
        rows = [(nu, int(beta * scale)) for nu, beta in self.constraints]
        vertices = {}
        for tight in combinations(rows, n):
            det = int_det([nu for nu, _ in tight])
            if det == 0:
                continue
            point = [
                int_det([nu[:k] + (b,) + nu[k + 1 :] for nu, b in tight]) for k in range(n)
            ]
            if det < 0:
                det, point = -det, [-x for x in point]
            if all(_dot(nu, point) <= det * b for nu, b in rows):
                vertices[tuple(Fraction(x, det * scale) for x in point)] = None
        if not vertices:
            raise ValueError("polytope is empty or unbounded")
        return list(vertices)

    def bounding_box(self) -> list[tuple[Fraction, Fraction]]:
        """Exact per-axis extents: the coordinate ranges of the vertices.

        Raises ValueError when the polytope is empty or unbounded, or has
        too many halfspaces to enumerate (`vertices`).
        """
        return [(min(axis), max(axis)) for axis in zip(*self.vertices())]


# ---------------------------------------------------------------------------
# Toric domains
# ---------------------------------------------------------------------------

ELLIPSOID = "ellipsoid"
POLYDISK = "polydisk"
POLYTOPE = "polytope"


@dataclass(frozen=True)
class ToricDomain:
    """An ellipsoid E(a), polydisk P(a), or general moment polytope.

    Ellipsoid and polydisk parameters are stored sorted nondecreasing;
    ellipsoid entries may be the +inf sentinel (cylinder factors).
    """

    kind: str
    params: tuple = ()
    polytope: Polytope | None = None

    def __post_init__(self):
        if self.kind not in (ELLIPSOID, POLYDISK, POLYTOPE):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if self.kind == POLYTOPE:
            if self.polytope is None:
                raise ValueError("polytope kind requires an H-rep")
            self.polytope.bounding_box()  # raises for unbounded or empty polytopes
            return
        if not self.params:
            raise ValueError("at least one parameter required")
        if any(not is_infinite(a) and a <= 0 for a in self.params):
            raise ValueError("parameters must be positive")
        if list(self.params) != sorted(self.params):
            raise ValueError("parameters must be sorted nondecreasing")
        if is_infinite(self.params[0]):
            raise ValueError("smallest parameter must be finite")
        if self.kind == POLYDISK and any(is_infinite(a) for a in self.params):
            raise ValueError("polydisk factors must be finite")

    @property
    def dimension(self) -> int:
        if self.kind == POLYTOPE:
            return self.polytope.dimension
        return len(self.params)

    def describe(self) -> str:
        if self.kind == POLYTOPE:
            return f"polytope in dimension {self.dimension}"
        letter = "E" if self.kind == ELLIPSOID else "P"
        return f"{letter}({', '.join(fmt(a) for a in self.params)})"


def ellipsoid(*params) -> ToricDomain:
    values = sorted(rat(p) for p in params)
    return ToricDomain(ELLIPSOID, tuple(values))


def polydisk(*params) -> ToricDomain:
    values = sorted(rat(p) for p in params)
    return ToricDomain(POLYDISK, tuple(values))


def ball(capacity) -> ToricDomain:
    return ellipsoid(capacity, capacity)


def polytope_domain(polytope: Polytope) -> ToricDomain:
    return ToricDomain(POLYTOPE, polytope=polytope)


def moment_polytope(domain: ToricDomain) -> Polytope:
    """Image of the domain under z -> (pi |z_1|^2, ..., pi |z_n|^2)."""
    n = domain.dimension
    if domain.kind == POLYTOPE:
        return domain.polytope
    halfspaces = [(tuple(-1 if j == i else 0 for j in range(n)), Fraction(0)) for i in range(n)]
    if domain.kind == ELLIPSOID:
        normal = tuple(
            Fraction(0) if is_infinite(a) else 1 / a for a in domain.params
        )
        halfspaces.append((normal, Fraction(1)))
    else:
        for i, a in enumerate(domain.params):
            halfspaces.append((tuple(1 if j == i else 0 for j in range(n)), a))
    return Polytope.from_halfspaces(halfspaces)


def scale_domain(domain: ToricDomain, factor) -> ToricDomain:
    """Rescale moment coordinates by factor (the area rescaling sqrt(factor) U)."""
    factor = rat(factor)
    if is_infinite(factor) or factor <= 0:
        raise ValueError("scale factor must be a positive rational")
    if domain.kind == POLYTOPE:
        return polytope_domain(domain.polytope.scale(factor))
    params = tuple(a if is_infinite(a) else a * factor for a in domain.params)
    return ToricDomain(domain.kind, params)


# ---------------------------------------------------------------------------
# Simplex images
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimplexImage:
    """The image of the standard simplex of a given capacity under g."""

    capacity: Fraction
    transform: SpecialAffineTransform

    def __post_init__(self):
        object.__setattr__(self, "capacity", rat(self.capacity))
        if is_infinite(self.capacity) or self.capacity <= 0:
            raise ValueError("capacity must be a positive rational")

    @property
    def dimension(self) -> int:
        return self.transform.dimension


def simplex_vertices(simplex: SimplexImage) -> list[Vector]:
    a = simplex.capacity
    g = simplex.transform
    columns = [
        tuple([t + a * row[j] for row, t in zip(g.matrix, g.translation)])
        for j in range(simplex.dimension)
    ]
    return [g.translation, *columns]


def contains(polytope: Polytope, simplex: SimplexImage) -> bool:
    """True iff the closed simplex lies in the closed polytope.

    By convexity it suffices to test the vertices.  The vertices and the
    offsets share one scale L, the lcm of all their denominators, so each
    test nu . (L v) <= L beta runs on integers.
    """
    if polytope.dimension != simplex.dimension:
        raise DimensionMismatch("polytope and simplex dimensions disagree")
    normals = [nu for nu, _ in polytope.constraints]
    # The offsets ride along as one more "point", so they get the same scale.
    *points, offsets = _integer_points(
        [*simplex_vertices(simplex), [beta for _, beta in polytope.constraints]]
    )
    return all(
        _dot(nu, p) <= beta for p in points for nu, beta in zip(normals, offsets)
    )


def _integer_points(points) -> list[tuple[int, ...]]:
    """The points scaled by the lcm of their coordinate denominators."""
    # Lists, not generator expressions, here and in simplex_vertices: on
    # this hot path generator garbage measurably raised the search's peak RSS.
    scale = math.lcm(*[c.denominator for p in points for c in p])
    return [tuple([c.numerator * (scale // c.denominator) for c in p]) for p in points]


def interiors_disjoint(s1: SimplexImage, s2: SimplexImage) -> bool:
    """True iff the open simplices do not meet.

    Both simplices are full-dimensional, so no degeneracy check is needed:
    the edge vectors of a SimplexImage are the columns of c * M, with
    c > 0 (checked by SimplexImage) and det M = 1 (checked by
    SpecialAffineTransform), so their determinant is c^n != 0.

    Integer pre-checks (bounding boxes, facet hyperplanes) on the vertices
    at a common scale settle most pairs.  The rest is decided exactly: the
    interiors of two full-dimensional convex bodies intersect iff the LP
    max{t : sum l_i v_i = sum m_j w_j, coordinates >= t, barycentric
    sums = 1} has a positive optimum.
    """
    if s1.dimension != s2.dimension:
        raise DimensionMismatch("simplex dimensions disagree")
    n = s1.dimension
    k = n + 1
    scaled = _integer_points(simplex_vertices(s1) + simplex_vertices(s2))
    iv, iw = scaled[:k], scaled[k:]
    if _boxes_disjoint(iv, iw):
        return True
    if _separated_by_facet(iv, iw) or _separated_by_facet(iw, iv):
        return True

    # Variables: l_0..l_n, m_0..m_n, t (all >= 0), with the true
    # barycentric weights being l_i + t and m_j + t.  The point rows use the
    # vertices at their common scale: scaling every vertex by one positive
    # factor scales those rows, whose right-hand side is 0, so the feasible
    # set and the optimum t are those of the unscaled LP.
    a_eq = [[*a, *[-x for x in b], sum(a) - sum(b)] for a, b in zip(zip(*iv), zip(*iw))]
    a_eq.append([1] * k + [0] * k + [k])
    a_eq.append([0] * k + [1] * k + [k])
    status, _, value = solve_lp([0] * (2 * k) + [1], a_eq, [0] * n + [1, 1])
    if status == INFEASIBLE:
        return True
    assert status == OPTIMAL
    return value == 0


def _boxes_disjoint(v, w) -> bool:
    n = len(v[0])
    for axis in range(n):
        if max(p[axis] for p in v) <= min(p[axis] for p in w):
            return True
        if max(p[axis] for p in w) <= min(p[axis] for p in v):
            return True
    return False


def _separated_by_facet(v, w) -> bool:
    """Some facet hyperplane of hull(v) has all of w on its outer side."""
    return any(
        all(_dot(nu, p) <= beta for p in w) for nu, beta in inward_facets(v)
    )
