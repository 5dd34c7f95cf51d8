import math
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symcap import exactgeom
from symcap.exactgeom import (
    DimensionMismatch,
    Polytope,
    SimplexImage,
    SpecialAffineTransform,
    ball,
    contains,
    ellipsoid,
    int_det,
    interiors_disjoint,
    moment_polytope,
    polydisk,
    scale_domain,
    simplex_vertices,
    _integer_points,
)
from symcap.linprog import OPTIMAL
from symcap.rationals import INF

from lp_reference import interiors_disjoint_lp, maximize_over_polytope
from test_packing import _EDGE_PAIR, _TOUCHING_EDGE_PAIR

F = Fraction


def standard_simplex(capacity, n):
    return SimplexImage(F(capacity), SpecialAffineTransform.identity(n))


def shear(n=2):
    """The canonical shear along the last axis of E(1, 2)."""
    return SpecialAffineTransform(((1, 0), (-1, 1)), (F(0), F(1)))


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------


def test_determinant_must_be_one():
    with pytest.raises(ValueError):
        SpecialAffineTransform(((1, 0), (0, -1)), (F(0), F(0)))
    with pytest.raises(ValueError):
        SpecialAffineTransform(((2, 0), (0, 1)), (F(0), F(0)))


def test_apply_and_compose():
    g = shear()
    assert g.apply((F(1), F(0))) == (F(1), F(0))
    assert g.apply((F(0), F(1))) == (F(0), F(2))
    gg = g.compose(g.inverse())
    assert gg == SpecialAffineTransform.identity(2)


# Product of an upper and a lower shear: always determinant one.
unimodular_2x2 = st.tuples(st.integers(-5, 5), st.integers(-5, 5)).map(
    lambda t: (1 + t[0] * t[1], t[0], t[1], 1)
)
translations = st.tuples(st.fractions(-5, 5), st.fractions(-5, 5))


@given(unimodular_2x2, translations, unimodular_2x2, translations)
@settings(max_examples=60)
def test_group_laws(m1, t1, m2, t2):
    g1 = SpecialAffineTransform(((m1[0], m1[1]), (m1[2], m1[3])), t1)
    g2 = SpecialAffineTransform(((m2[0], m2[1]), (m2[2], m2[3])), t2)
    product = g1.compose(g2)  # determinant +1 is checked on construction
    assert product.compose(product.inverse()) == SpecialAffineTransform.identity(2)
    assert g1.inverse().compose(g1) == SpecialAffineTransform.identity(2)


def test_inverse_in_three_dimensions():
    identity = SpecialAffineTransform.identity(3)
    for flat in product(range(-1, 2), repeat=9):
        matrix = (flat[0:3], flat[3:6], flat[6:9])
        if int_det(matrix) != 1:
            continue
        g = SpecialAffineTransform(matrix, (F(1, 2), F(-2), F(3, 7)))
        assert g.compose(g.inverse()) == identity
        assert g.inverse().compose(g) == identity


def leibniz_det(matrix) -> Fraction:
    """Reference determinant: the signed sum over all permutations."""
    n = len(matrix)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction(-1 if inversions % 2 else 1)
        for row, col in enumerate(perm):
            term *= matrix[row][col]
        total += term
    return total


square_matrices = st.integers(0, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n
    )
)


@given(square_matrices)
@settings(max_examples=300)
def test_int_det_matches_leibniz(matrix):
    assert int_det(matrix) == leibniz_det(matrix)


# ---------------------------------------------------------------------------
# Moment polytopes and containment
# ---------------------------------------------------------------------------


def test_halfspace_normalization_is_canonical():
    a = Polytope.from_halfspaces([((F(1, 2), F(1, 4)), F(1, 2))])
    b = Polytope.from_halfspaces([((F(2), F(1)), F(2))])
    assert a == b
    assert a.constraints[0][0] == (2, 1)


def contains_point(polytope, point) -> bool:
    """Closed membership of one point, in Fraction arithmetic."""
    if len(point) != polytope.dimension:
        raise DimensionMismatch("point dimension mismatch")
    return all(sum(a * x for a, x in zip(nu, point)) <= beta for nu, beta in polytope.constraints)


def reference_contains(polytope, simplex) -> bool:
    """Closed containment tested vertex by vertex in Fraction arithmetic:
    the reference for the integer test of `contains`."""
    return all(contains_point(polytope, v) for v in simplex_vertices(simplex))


def test_moment_polytope_shapes():
    tri = moment_polytope(ball(1))
    assert contains_point(tri, (F(1, 2), F(1, 2)))
    assert not contains_point(tri, (F(3, 4), F(3, 4)))
    square = moment_polytope(polydisk(1, 1))
    assert contains_point(square, (F(1), F(1)))
    assert not contains_point(square, (F(1), F(11, 10)))


def test_cylinder_moment_polytope_is_a_slab():
    slab = moment_polytope(ellipsoid(1, "inf"))
    assert contains_point(slab, (F(1, 2), F(1000)))
    assert not contains_point(slab, (F(11, 10), F(0)))


def test_contains_examples():
    e12 = moment_polytope(ellipsoid(1, 2))
    assert contains(e12, SimplexImage(F(1), shear()))
    assert contains(moment_polytope(polydisk(1, 1)), standard_simplex(1, 2))
    assert not contains(moment_polytope(ball(1)), standard_simplex(2, 2))


def test_containment_invariant_under_transform():
    e12 = moment_polytope(ellipsoid(1, 2))
    s = standard_simplex(1, 2)
    g = SpecialAffineTransform(((1, 1), (0, 1)), (F(3), F(-2)))
    moved = SimplexImage(s.capacity, g.compose(s.transform))
    assert contains(e12, s) == contains(e12.transform(g), moved)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        contains(moment_polytope(ball(1)), standard_simplex(1, 3))
    with pytest.raises(DimensionMismatch):
        contains(moment_polytope(ellipsoid(1, 2, 3)), standard_simplex(1, 2))


# ---------------------------------------------------------------------------
# Disjointness
# ---------------------------------------------------------------------------


def test_disjoint_examples():
    s = standard_simplex(1, 2)
    sheared = SimplexImage(F(1), shear())
    assert interiors_disjoint(s, sheared)
    assert interiors_disjoint(sheared, s)  # symmetric
    assert not interiors_disjoint(s, s)
    far = SimplexImage(F(1), SpecialAffineTransform(((1, 0), (0, 1)), (F(5), F(5))))
    assert interiors_disjoint(s, far)


def test_touching_boundaries_are_disjoint():
    s = standard_simplex(1, 2)
    flipped = SimplexImage(
        F(1), SpecialAffineTransform(((-1, 0), (0, -1)), (F(1), F(1)))
    )
    # The two triangles tile the unit square, meeting along a diagonal.
    assert interiors_disjoint(s, flipped)


def test_overlap_detected():
    s = standard_simplex(2, 2)
    inner = SimplexImage(
        F(1), SpecialAffineTransform(((1, 0), (0, 1)), (F(1, 4), F(1, 4)))
    )
    assert not interiors_disjoint(s, inner)


def test_simplex_capacity_must_be_positive():
    for capacity in (F(0), F(-1), INF):
        with pytest.raises(ValueError):
            SimplexImage(capacity, SpecialAffineTransform.identity(2))


def test_values_are_rationals_from_construction_on():
    # A string translation once passed construction and then broke
    # `contains` with a TypeError; both values are now Fractions.
    g = SpecialAffineTransform(((1, 0), (0, 1)), ("1/4", 0))
    assert g.translation == (F(1, 4), F(0))
    assert all(type(t) is Fraction for t in g.translation)
    simplex = SimplexImage("1/2", g)
    assert simplex.capacity == F(1, 2) and type(simplex.capacity) is Fraction
    assert contains(moment_polytope(ball(1)), simplex)
    assert simplex == SimplexImage(F(1, 2), SpecialAffineTransform(g.matrix, (F(1, 4), F(0))))
    with pytest.raises(ValueError):
        SpecialAffineTransform(((1, 0), (0, 1)), (0.25, 0))


@st.composite
def unimodular(draw, n):
    """A product of elementary shears: an element of SL_n(Z)."""
    matrix = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 3)) if n > 1 else 0):
        i, j = draw(st.permutations(range(n)))[:2]
        k = draw(st.sampled_from([-1, 1]))
        matrix[i] = [a + k * b for a, b in zip(matrix[i], matrix[j])]
    return tuple(tuple(row) for row in matrix)


@st.composite
def simplex_pairs(draw, dimensions=st.integers(2, 3)):
    """Two simplices on a half-integer grid, so touching and overlapping
    pairs are common, plus a common move g in SL_n(Z) x Z^n."""
    n = draw(dimensions)
    half_integers = st.integers(-2, 2).map(lambda k: F(k, 2))

    def transform(translations):
        return SpecialAffineTransform(
            draw(unimodular(n)), tuple(draw(translations) for _ in range(n))
        )

    pair = tuple(
        SimplexImage(draw(st.sampled_from([F(1, 2), F(1), F(3, 2)])), transform(half_integers))
        for _ in range(2)
    )
    return pair, transform(st.integers(-3, 3).map(F))


@st.composite
def simplex_images(draw):
    """An SL_n(Z) image, n = 1..4, of a positive rational capacity."""
    n = draw(st.integers(1, 4))
    capacity = draw(st.fractions(min_value=0, max_value=10, max_denominator=30).filter(bool))
    translation = tuple(draw(st.fractions(-5, 5, max_denominator=12)) for _ in range(n))
    return SimplexImage(capacity, SpecialAffineTransform(draw(unimodular(n)), translation))


@given(simplex_images())
@settings(max_examples=200, deadline=None)
def test_simplex_images_are_full_dimensional(simplex):
    # Why interiors_disjoint needs no degeneracy check: at the shared integer
    # scale L the edge matrix is L c M, of determinant (L c)^n != 0.
    vertices = simplex_vertices(simplex)
    scale = math.lcm(*[x.denominator for v in vertices for x in v])
    base, *rest = _integer_points(vertices)
    edges = [[b - a for a, b in zip(base, v)] for v in rest]
    assert int_det(edges) == (scale * simplex.capacity) ** simplex.dimension


# Denominators with no common factor, up to 2^61 - 1, so the shared scale of
# `contains` is a product of several of them.
_DENOMINATORS = [1, 2, 3, 7, 1009, 65537, 2**31 - 1, 2**61 - 1]


@st.composite
def rationals(draw, low, high):
    d = draw(st.sampled_from(_DENOMINATORS))
    return F(draw(st.integers(low * d, high * d)), d)


@st.composite
def containment_cases(draw):
    """A simplex, n = 1..4, and a polytope it often touches.

    The polytope is the moment polytope of an ellipsoid (cylinder factors
    give 0 normal entries) or polydisk, or halfspaces drawn tight at a
    vertex of the simplex, some pushed off by 1/d.  Also drawn: a common
    move g in SL_n(Z) x Q^n, which keeps the verdict.
    """
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["ellipsoid", "polydisk", "tight"]))
    if kind == "tight":
        capacity = draw(rationals(0, 4).filter(bool))
    else:
        params = [draw(rationals(0, 6).filter(bool)) for _ in range(n)]
        if kind == "ellipsoid" and n > 1:
            params[1:] = [draw(st.sampled_from([a, INF])) for a in params[1:]]
        domain = ellipsoid(*params) if kind == "ellipsoid" else polydisk(*params)
        # The smallest parameter puts a vertex of the standard simplex on a facet.
        capacity = draw(st.sampled_from([domain.params[0], draw(rationals(0, 3).filter(bool))]))
    translation = tuple(
        draw(st.sampled_from([F(0), draw(rationals(-1, 1))])) for _ in range(n)
    )
    simplex = SimplexImage(capacity, SpecialAffineTransform(draw(unimodular(n)), translation))
    if kind == "tight":
        vertices = simplex_vertices(simplex)
        halfspaces = []
        for _ in range(draw(st.integers(1, n + 3))):
            normal = draw(st.tuples(*[st.integers(-3, 3)] * n).filter(any))
            slack = draw(st.sampled_from([0, 0, 1, -1])) * F(1, draw(st.sampled_from(_DENOMINATORS)))
            beta = max(sum(a * x for a, x in zip(normal, v)) for v in vertices)
            halfspaces.append((normal, beta + slack))
        polytope = Polytope.from_halfspaces(halfspaces)
    else:
        polytope = moment_polytope(domain)
    g = SpecialAffineTransform(draw(unimodular(n)), tuple(draw(rationals(-3, 3)) for _ in range(n)))
    return polytope, simplex, g


@given(containment_cases())
@settings(max_examples=300, deadline=None)
def test_contains_matches_fraction_reference(case):
    polytope, simplex, g = case
    expected = reference_contains(polytope, simplex)
    assert contains(polytope, simplex) == expected
    moved = SimplexImage(simplex.capacity, g.compose(simplex.transform))
    assert contains(polytope.transform(g), moved) == expected


@given(simplex_pairs())
@settings(max_examples=150, deadline=None)
def test_disjointness_is_symmetric(case):
    (s1, s2), _ = case
    assert interiors_disjoint(s1, s2) == interiors_disjoint(s2, s1)


@given(simplex_pairs())
@settings(max_examples=150, deadline=None)
def test_disjointness_invariant_under_common_move(case):
    (s1, s2), g = case
    moved = [SimplexImage(s.capacity, g.compose(s.transform)) for s in (s1, s2)]
    assert interiors_disjoint(s1, s2) == interiors_disjoint(*moved)


def _at_scale_2(pair):
    """The simplices of a pair of one-placement lists of `test_packing`."""
    return tuple(
        SimplexImage(c, SpecialAffineTransform(m, tuple(F(t, 2) for t in tau)))
        for c, (((tau,), (m,)),) in pair
    )


@given(simplex_pairs(st.integers(1, 4)))
@settings(max_examples=400, deadline=None)
@example(case=(_at_scale_2(_EDGE_PAIR), None))
@example(case=(_at_scale_2(_TOUCHING_EDGE_PAIR), None))
def test_disjointness_matches_the_lp_alone(case):
    # The box and facet pre-checks, and the LP on integer vertices, give
    # the verdict of the LP alone on the Fraction vertices.  The two
    # examples are separated only by an edge pair, so only the LP decides them.
    (s1, s2), _ = case
    assert interiors_disjoint(s1, s2) == interiors_disjoint_lp(s1, s2)


def test_disjointness_in_three_dimensions():
    s = standard_simplex(1, 3)
    far = SimplexImage(
        F(1),
        SpecialAffineTransform(
            ((1, 0, 0), (0, 1, 0), (0, 0, 1)), (F(2), F(0), F(0))
        ),
    )
    assert interiors_disjoint(s, far)
    assert not interiors_disjoint(s, standard_simplex(1, 3))


# ---------------------------------------------------------------------------
# Scaling
# ---------------------------------------------------------------------------


def test_scale_domain_examples():
    assert scale_domain(ellipsoid(1, 2), 3).params == (F(3), F(6))
    assert scale_domain(polydisk(1, 1), 1).params == (F(1), F(1))
    assert scale_domain(ball(1), 2).params == (F(2), F(2))
    with pytest.raises(ValueError):
        scale_domain(ball(1), 0)


@given(st.fractions(min_value="1/7", max_value=9))
@settings(max_examples=40)
def test_scaled_moment_polytope_matches(lam):
    domain = ellipsoid(1, 2)
    direct = moment_polytope(scale_domain(domain, lam))
    scaled = moment_polytope(domain).scale(lam)
    assert direct == scaled


def test_bounding_box():
    assert moment_polytope(ellipsoid(1, 2)).bounding_box() == [
        (F(0), F(1)),
        (F(0), F(2)),
    ]
    with pytest.raises(ValueError):
        moment_polytope(ellipsoid(1, "inf")).bounding_box()


def test_vertices_are_distinct():
    # Three facets meet at (2, 0) and four at (0, 0) and (0, 2): each is
    # the solution of several tight pairs but is listed once.
    polytope = Polytope.from_halfspaces(
        [
            ((-1, 0), 0),
            ((0, -1), 0),
            ((1, 1), 2),
            ((1, 0), 2),
            ((-1, -1), 0),
            ((-1, 1), 2),
        ]
    )
    assert sorted(polytope.vertices()) == [(0, 0), (0, 2), (2, 0)]
    box = moment_polytope(polydisk(1, 2, 3))
    assert sorted(box.vertices()) == list(product((0, 1), (0, 2), (0, 3)))


def _fan(m):
    """x, y >= 0 and (k + 1) x + (m - k) y <= 3 (m + 1) for k < m: a
    quadrilateral whose m slanted halfspaces all hold (3, 3) on their
    boundary."""
    halfspaces = [((-1, 0), F(0)), ((0, -1), F(0))]
    halfspaces += [((k + 1, m - k), F(3 * (m + 1))) for k in range(m)]
    return Polytope.from_halfspaces(halfspaces)


def test_vertices_refuse_too_many_halfspaces_up_front(monkeypatch):
    # The square's 4 halfspaces in dimension 2 make C(5, 2) * 4 = 40
    # checks: the budget admits them at 40 and refuses them at 39.
    square = moment_polytope(polydisk(1, 1))
    assert sorted(_fan(3).vertices()) == [(0, 0), (0, 4), (3, 3), (4, 0)]
    monkeypatch.setattr(exactgeom, "VERTEX_BUDGET", 40)
    assert sorted(square.vertices()) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def enumeration_started(*args):
        raise AssertionError("the vertex enumeration started")

    monkeypatch.setattr(exactgeom, "VERTEX_BUDGET", 39)
    monkeypatch.setattr(exactgeom, "cofactor_vector", enumeration_started)
    with pytest.raises(ValueError, match="budget"):
        square.vertices()
    # At the real budget, 2,002 halfspaces in the plane make 4.0e9 checks.
    monkeypatch.undo()
    monkeypatch.setattr(exactgeom, "cofactor_vector", enumeration_started)
    with pytest.raises(ValueError, match="budget"):
        _fan(2000).bounding_box()


def _lp_bounding_box(polytope):
    """Per-axis extents by linear programming, or None when the polytope is
    empty or unbounded: the reference for the vertex-based bounding box."""
    n = polytope.dimension
    # Free variables split as x = u - v with u, v >= 0.
    a_ub = [[F(c) for c in nu] + [-F(c) for c in nu] for nu, _ in polytope.constraints]
    b_ub = [beta for _, beta in polytope.constraints]
    box = []
    for axis in range(n):
        extents = []
        for sign in (1, -1):
            objective = [F(sign if j == axis else 0) for j in range(n)]
            status, value = maximize_over_polytope(
                objective + [-c for c in objective], a_ub, b_ub
            )
            if status != OPTIMAL:
                return None
            extents.append(sign * value)
        box.append((extents[1], extents[0]))
    return box


def _halfspace_lists(n):
    halfspace = st.tuples(
        st.tuples(*[st.integers(-2, 2)] * n).filter(any),
        st.fractions(-4, 6, max_denominator=3),
    )
    return st.lists(halfspace, min_size=1, max_size=n + 4)


# Half the examples are cut by the box [-5, 5]^n, so that most of those
# are bounded; most of the others are unbounded or empty.
@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(_halfspace_lists), st.booleans())
def test_bounding_box_matches_linear_programming(halfspaces, boxed):
    n = len(halfspaces[0][0])
    if boxed:
        for axis in range(n):
            for sign in (1, -1):
                halfspaces.append((tuple(sign * (j == axis) for j in range(n)), F(5)))
    polytope = Polytope.from_halfspaces(halfspaces)
    expected = _lp_bounding_box(polytope)
    if expected is None:
        with pytest.raises(ValueError):
            polytope.bounding_box()
    else:
        assert polytope.bounding_box() == expected


def reference_transform(polytope, g):
    """g(P) by the Fraction formula: nu . g^{-1}(y) <= beta becomes
    (nu M^{-1}) . y <= beta + nu . M^{-1} tau."""
    n = polytope.dimension
    inverse = g.inverse().matrix
    shift = [sum((m * t for m, t in zip(row, g.translation)), F(0)) for row in inverse]
    return Polytope.from_halfspaces(
        (
            tuple(sum(F(nu[i]) * F(inverse[i][j]) for i in range(n)) for j in range(n)),
            beta + sum((F(a) * t for a, t in zip(nu, shift)), F(0)),
        )
        for nu, beta in polytope.constraints
    )


@st.composite
def polytope_moves(draw):
    """Halfspaces in dimension 2..4, bounded or not, and g in SL_n(Z) x Q^n."""
    n = draw(st.integers(2, 4))
    polytope = Polytope.from_halfspaces(draw(_halfspace_lists(n)))
    translation = tuple(draw(rationals(-3, 3)) for _ in range(n))
    return polytope, SpecialAffineTransform(draw(unimodular(n)), translation)


@given(polytope_moves())
@settings(max_examples=300, deadline=None)
def test_transform_round_trips_and_matches_the_fraction_formula(case):
    polytope, g = case
    image = polytope.transform(g)
    assert image.constraints == reference_transform(polytope, g).constraints
    assert image.transform(g.inverse()) == polytope
