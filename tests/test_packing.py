import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symcap.exactgeom import (
    Polytope,
    SimplexImage,
    SpecialAffineTransform,
    ball,
    contains,
    ellipsoid,
    int_det,
    interiors_disjoint,
    inward_facets,
    moment_polytope,
    polydisk,
    polytope_domain,
)
from symcap import packing
from symcap.packing import (
    PackingCertificate,
    SearchConfig,
    _annotate,
    _build_simplex,
    _contained_placements,
    _find_disjoint_pair,
    _separated,
    _unimodular_matrices,
    canonical_certificate,
    search_two_balls,
    verify_certificate,
)

F = Fraction

SEARCH = SearchConfig(
    matrix_entry_bound=2,
    translation_grid=20,
    bisection_tolerance=F(1, 100),
    equal_balls=False,
)


# ---------------------------------------------------------------------------
# Canonical certificates
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "domain",
    [ellipsoid(1, 2), polydisk(1, 1), ellipsoid(1, 2, 7), polydisk(1, 1, 2), ellipsoid(1, "inf")],
    ids=lambda d: d.describe(),
)
def test_canonical_certificates_verify(domain):
    cert = canonical_certificate(domain, F(1, 100))
    assert cert.total == F(199, 100)
    assert verify_certificate(cert)


def test_canonical_epsilon_splits_evenly():
    cert = canonical_certificate(ellipsoid(1, 2), F(1, 50))
    assert cert.simplices[0].capacity == F(99, 100)
    assert cert.simplices[1].capacity == F(99, 100)
    assert cert.total == F(99, 50)


def test_canonical_preconditions():
    with pytest.raises(ValueError):
        canonical_certificate(ellipsoid(1, F(3, 2)), F(1, 100))  # short ellipsoid
    with pytest.raises(ValueError):
        canonical_certificate(polydisk(2), F(1, 100))  # one factor
    with pytest.raises(ValueError):
        canonical_certificate(ellipsoid(1, 2), 0)  # no slack


def test_verify_rejects_overlap_and_escape():
    domain = ellipsoid(1, 2)
    delta = SimplexImage(F(1), SpecialAffineTransform.identity(2))
    overlapping = PackingCertificate((delta, delta), domain, F(2))
    assert not verify_certificate(overlapping)
    big = SimplexImage(F(3), SpecialAffineTransform.identity(2))
    escaping = PackingCertificate((delta, big), domain, F(4))
    assert not verify_certificate(escaping)


def test_total_must_match_capacities():
    delta = SimplexImage(F(1), SpecialAffineTransform.identity(2))
    with pytest.raises(ValueError):
        PackingCertificate((delta, delta), ellipsoid(1, 2), F(3))


def test_certificate_survives_global_transform():
    cert = canonical_certificate(ellipsoid(1, 2), F(1, 100))
    g = SpecialAffineTransform(((1, 1), (0, 1)), (F(2), F(-1)))
    moved = tuple(
        SimplexImage(s.capacity, g.compose(s.transform)) for s in cert.simplices
    )
    image = moment_polytope(cert.domain).transform(g)
    domain = polytope_domain(image)
    moved_cert = PackingCertificate(moved, domain, cert.total)
    assert verify_certificate(moved_cert)


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "domain,floor",
    [
        (ellipsoid(1, 2), F(199, 100)),
        (polydisk(1, 1), F(199, 100)),
        (ball(1), F(99, 100)),
    ],
    ids=lambda v: v.describe() if hasattr(v, "describe") else str(v),
)
def test_search_reaches_known_totals(domain, floor):
    from symcap.capacities import c2b_closed_form

    cert = search_two_balls(domain, SEARCH)
    assert cert is not None
    assert verify_certificate(cert)
    assert floor <= cert.total <= c2b_closed_form(domain).value


def test_search_is_deterministic():
    first = search_two_balls(ellipsoid(1, 2), SEARCH)
    second = search_two_balls(ellipsoid(1, 2), SEARCH)
    assert first == second


def test_search_on_general_polytope():
    # Right triangle with legs 2: same as the moment image of B(2).
    triangle = polytope_domain(
        Polytope.from_halfspaces([((-1, 0), F(0)), ((0, -1), F(0)), ((1, 1), F(2))])
    )
    cert = search_two_balls(triangle, SEARCH)
    assert cert is not None
    assert cert.total >= F(99, 50)
    assert verify_certificate(cert)


_ORTHANT = [((-1, 0), 0), ((0, -1), 0)]


@pytest.mark.parametrize(
    "halfspaces,total,placements",
    [
        (
            _ORTHANT + [((1, 1), 2)],
            F(2),
            ((((-2, -1), (1, 0)), (2, 0)), (((-1, -2), (1, 1)), (2, 0))),
        ),
        (
            _ORTHANT + [((1, 2), 3), ((2, 1), 3)],
            F(1023, 512),
            ((((-1, -1), (0, -1)), (1, 1)), (((1, 1), (0, 1)), (0, 0))),
        ),
        (
            _ORTHANT + [((3, 1), 6), ((1, 2), 6)],
            F(3),
            (
                (((-1, -1), (0, -1)), (F(3, 2), F(3, 2))),
                (((-1, -1), (1, 0)), (F(3, 2), F(3, 2))),
            ),
        ),
    ],
    ids=["triangle", "quadrilateral", "wide-quadrilateral"],
)
def test_search_2d_certificates_are_pinned(halfspaces, total, placements):
    # Found with the default configuration by the LP-based scan this search
    # replaced; the separating-axis scan must find the same pairs.
    domain = polytope_domain(Polytope.from_halfspaces(halfspaces))
    cert = search_two_balls(domain, SearchConfig())
    assert cert.total == total
    assert [s.capacity for s in cert.simplices] == [total / 2, total / 2]
    found = tuple((s.transform.matrix, s.transform.translation) for s in cert.simplices)
    assert found == placements


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(packing, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(packing, name, counted)
    return calls


_RECTANGLE = polytope_domain(Polytope.from_halfspaces(_ORTHANT + [((1, 0), 1), ((0, 1), 2)]))


@pytest.mark.parametrize("equal_balls", [True, False])
def test_search_stops_at_a_reachable_ceiling(equal_balls, monkeypatch):
    # The rectangle's least width is 1, so no total above 2 packs; the
    # search packs 2 at once and stops there, on either split setting.
    calls = _count_calls(monkeypatch, "_contained_placements")
    cert = search_two_balls(_RECTANGLE, SearchConfig(equal_balls=equal_balls))
    assert len(calls) == 1
    found = tuple((s.transform.matrix, s.transform.translation) for s in cert.simplices)
    assert cert.total == 2
    assert found == ((((-1, -1), (-1, -2)), (1, 2)), (((-1, -1), (0, -1)), (1, 2)))


def test_search_verifies_its_certificate_once(monkeypatch):
    calls = _count_calls(monkeypatch, "verify_certificate")
    domain = polytope_domain(Polytope.from_halfspaces(_ORTHANT + [((1, 2), 3), ((2, 1), 3)]))
    cert = search_two_balls(domain, SearchConfig())
    assert cert.total == F(1023, 512)
    assert calls == [(cert,)]


def test_search_on_flat_polytope_finds_nothing():
    # The segment {0} x [0, 1] has least width 0: no simplex fits.
    flat = Polytope.from_halfspaces([((1, 0), 0), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)])
    assert search_two_balls(polytope_domain(flat), SEARCH) is None


def test_search_dimension_cap():
    with pytest.raises(ValueError):
        search_two_balls(ellipsoid(1, 1, 1, 1, 1), SEARCH)
    with pytest.raises(ValueError):
        search_two_balls(ellipsoid(1, 1, 1, 1), SEARCH)


# ---------------------------------------------------------------------------
# SL_n(Z) enumeration and grid placements
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,bound", [(1, 2), (2, 1), (2, 2), (2, 3), (3, 1)])
def test_unimodular_matrices_match_brute_force(n, bound):
    entries = range(-bound, bound + 1)
    brute = []
    for flat in product(entries, repeat=n * n):
        matrix = tuple(tuple(flat[i * n : (i + 1) * n]) for i in range(n))
        if int_det(matrix) == 1:
            brute.append(matrix)
    assert list(_unimodular_matrices(n, bound)) == brute


def test_unimodular_matrices_sl3_bound_2():
    matrices = _unimodular_matrices(3, 2)
    assert len(matrices) == 67704
    assert matrices[0] == ((-2, -2, -1), (-2, -1, -2), (-1, -2, 0))
    assert matrices[-1] == ((2, 2, 1), (2, 1, 2), (1, 2, -1))


@pytest.mark.parametrize("n,bound", [(3, 3), (4, 1), (2, 50)])
def test_enumeration_budget_refuses_up_front(n, bound):
    with pytest.raises(ValueError, match="budget"):
        _unimodular_matrices(n, bound)


def _scale(polytope, box, q, *capacities):
    """The least scale that makes the grid, the offsets, the box and the
    simplex vertices integral."""
    offsets = [beta for _, beta in polytope.constraints]
    values = [*offsets, *(x for side in box for x in side), *capacities]
    return math.lcm(q, *(x.denominator for x in values))


def _grid(box, q):
    """Every translation lo + k/q inside the box, per axis."""
    axes = [
        [lo + F(k, q) for k in range(int((hi - lo) * q) + 1)] for lo, hi in box
    ]
    return product(*axes)


_QUADRILATERAL = Polytope.from_halfspaces(
    [((-1, 0), F(0)), ((0, -1), F(1)), ((1, 1), F(2)), ((1, -2), F(3, 2))]
)


@pytest.mark.parametrize(
    "polytope,capacities,enumeration,q",
    [
        (moment_polytope(ellipsoid(1, 2)), [F(1), F(1, 3), F(2, 3)], (2, 2), 3),
        (_QUADRILATERAL, [F(1, 2), F(1, 3), F(2, 3)], (2, 1), 4),
        (moment_polytope(polydisk(1, 1, 2)), [F(1, 2), F(1, 3), F(2, 3)], (3, 1), 1),
        (moment_polytope(ellipsoid(1, 2, 3)), [F(1), F(1, 2), F(2, 3)], (3, 1), 2),
    ],
    ids=["E(1,2)", "quadrilateral", "P(1,1,2)", "E(1,2,3)"],
)
def test_contained_placements_agree_with_contains(polytope, capacities, enumeration, q):
    # Every returned placement is contained; every other grid placement of
    # a matrix that has one is not.
    box = polytope.bounding_box()
    matrices = _unimodular_matrices(*enumeration)
    if polytope.dimension == 3:
        matrices = matrices[::37]  # a spread-out sample keeps the test fast
    for capacity in capacities:
        scale = _scale(polytope, box, q, capacity)
        placements = _contained_placements(polytope, box, capacity, matrices, q, scale)
        found = {}
        for matrix, tau in placements:
            found.setdefault(matrix, set()).add(tuple(F(t, scale) for t in tau))
        assert found
        for matrix, taus in found.items():
            for tau in _grid(box, q):
                simplex = SimplexImage(capacity, SpecialAffineTransform(matrix, tau))
                assert contains(polytope, simplex) == (tau in taus)


@pytest.mark.parametrize(
    "domain,capacity,expected",
    [
        (ellipsoid(1, 2), F(1), True),  # least width 1
        (ellipsoid(1, 2), F(21, 20), False),
        (ellipsoid(1, 2), F(0), False),
        (polydisk(1, 1, 2), F(1), True),
        (polydisk(1, 1, 2), F(3, 2), False),
    ],
)
def test_contained_placements_empty_above_least_width(domain, capacity, expected):
    polytope = moment_polytope(domain)
    box = polytope.bounding_box()
    matrices = _unimodular_matrices(polytope.dimension, 1)
    scale = _scale(polytope, box, 4, capacity)
    placements = _contained_placements(polytope, box, capacity, matrices, 4, scale)
    assert isinstance(placements, list)
    assert bool(placements) == expected


def test_contained_placements_ignore_a_larger_scale():
    # A multiple of the least scale gives the same placements, scaled.
    polytope = _QUADRILATERAL
    box = polytope.bounding_box()
    matrices = _unimodular_matrices(2, 2)
    scale = _scale(polytope, box, 4, F(1, 3))
    small = _contained_placements(polytope, box, F(1, 3), matrices, 4, scale)
    large = _contained_placements(polytope, box, F(1, 3), matrices, 4, 6 * scale)
    assert small
    assert large == [(m, tuple(6 * t for t in tau)) for m, tau in small]


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(matrix_entry_bound=0)
    with pytest.raises(ValueError):
        SearchConfig(translation_grid=0)
    with pytest.raises(ValueError):
        SearchConfig(bisection_tolerance=F(0))


# ---------------------------------------------------------------------------
# The search's separating-axis test
# ---------------------------------------------------------------------------


def _placement(n):
    """A simplex image with SL_n(Z) entries in [-1, 1], a translation in
    (1/2)Z within [-1, 1]^n (as halves) and a capacity in {1/2, 1, 3/2}."""
    return st.tuples(
        st.sampled_from(_unimodular_matrices(n, 1)),
        st.tuples(*[st.integers(-2, 2)] * n),
        st.sampled_from([F(1, 2), F(1), F(3, 2)]),
    )


def _entry(placement):
    matrix, tau, capacity = placement
    (entry,) = _annotate([(matrix, tau)], 2, capacity)
    return entry


# Separated only by the cross product of an edge of each.
_EDGE_PAIR = (
    (((-1, 0, -1), (-1, 1, -1), (0, 0, -1)), (2, -2, -1), F(1)),
    (((0, 1, 0), (0, -1, 1), (1, 0, 1)), (0, 1, -2), F(1)),
)
# Separated only by an edge pair, with a vertex of one on the other's boundary.
_TOUCHING_EDGE_PAIR = (
    (((0, -1, 1), (0, -1, 0), (1, 1, -1)), (-2, 2, -1), F(1)),
    (((-1, -1, 0), (1, 1, -1), (0, -1, -1)), (-1, 0, -1), F(1, 2)),
)
# Touching along a facet plane of the first.
_TOUCHING_FACET_PAIR = (
    (((0, -1, 0), (1, 1, 0), (1, -1, 1)), (1, 0, -1), F(3, 2)),
    (((0, 0, 1), (0, 1, 0), (-1, 0, -1)), (0, 0, 2), F(1, 2)),
)


@settings(max_examples=600, deadline=None)
@given(
    pair=st.integers(1, 3).flatmap(lambda n: st.tuples(_placement(n), _placement(n)))
)
@example(pair=_EDGE_PAIR)
@example(pair=_TOUCHING_EDGE_PAIR)
@example(pair=_TOUCHING_FACET_PAIR)
def test_separating_axis_test_matches_interiors_disjoint(pair):
    # Tight translations make overlapping and touching pairs common; in
    # dimension 3 about 2 % of pairs are separated only by an edge pair.
    first, second = (_entry(p) for p in pair)
    expected = interiors_disjoint(_build_simplex(first), _build_simplex(second))
    assert _separated(first, second) == expected
    assert _separated(second, first) == expected


def test_edge_pairs_separate_what_facets_cannot():
    first, second = (_entry(p) for p in _EDGE_PAIR)
    assert interiors_disjoint(_build_simplex(first), _build_simplex(second))
    assert _separated(first, second) and _separated(second, first)
    # Without the edge data only the boxes and the facets are tried.
    no_edges = [entry[:3] + ((),) + entry[4:] for entry in (first, second)]
    assert not _separated(*no_edges)


def test_separating_axis_test_refuses_dimension_4():
    identity = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
    first, second = _annotate([(identity, (0, 0, 0, 0))] * 2, 1, F(1))
    with pytest.raises(ValueError, match="dimension"):
        _separated(first, second)


def _has_point_strictly_inside(points, facets, weight=1):
    return any(
        all(sum(a * x for a, x in zip(nu, p)) > beta * weight for nu, beta in facets)
        for p in points
    )


def test_scan_has_no_pair_budget():
    # More than 200 placements overlap the capacity-2 triangle without a
    # vertex or centroid of either simplex strictly inside the other; a scan
    # that spent one LP on each such pair and stopped after 200 of them
    # missed the disjoint placement listed after them.
    identity = ((1, 0), (0, 1))
    (triangle,) = _annotate([(identity, (0, 0))], 1, F(2))
    overlapping, disjoint = [], None
    for matrix in _unimodular_matrices(2, 2):
        for tau in product(range(-3, 4), repeat=2):
            (entry,) = _annotate([(matrix, tau)], 1, F(2))
            if any(
                hi1 <= lo2 or hi2 <= lo1
                for (lo1, hi1), (lo2, hi2) in zip(triangle[1], entry[1])
            ):
                continue
            vertices = [triangle[0], entry[0]]
            facets = [inward_facets(v) for v in vertices]
            centroids = [[tuple(map(sum, zip(*v)))] for v in vertices]
            if (
                _has_point_strictly_inside(vertices[1], facets[0])
                or _has_point_strictly_inside(vertices[0], facets[1])
                or _has_point_strictly_inside(centroids[1], facets[0], 3)
                or _has_point_strictly_inside(centroids[0], facets[1], 3)
            ):
                continue
            if not interiors_disjoint(_build_simplex(triangle), _build_simplex(entry)):
                overlapping.append((matrix, tau))
            elif len(overlapping) > 200:
                disjoint = (matrix, tau)
                break
        if disjoint is not None:
            break
    assert disjoint is not None
    second = _annotate(overlapping + [disjoint], 1, F(2))
    pair = _find_disjoint_pair([triangle], second)
    assert pair == (_build_simplex(triangle), _build_simplex(second[-1]))
