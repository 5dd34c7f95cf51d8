from fractions import Fraction
from itertools import product

import pytest

from symcap.exactgeom import (
    Polytope,
    SimplexImage,
    SpecialAffineTransform,
    ball,
    contains,
    ellipsoid,
    int_det,
    moment_polytope,
    polydisk,
    polytope_domain,
)
from symcap.packing import (
    PackingCertificate,
    SearchConfig,
    _contained_placements,
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
        placements, scale = _contained_placements(polytope, box, capacity, matrices, q)
        found = {}
        for matrix, tau in placements:
            found.setdefault(matrix, set()).add(tuple(F(t, scale) for t in tau))
        assert found
        for matrix, taus in found.items():
            for tau in _grid(box, q):
                simplex = SimplexImage(capacity, SpecialAffineTransform(matrix, tau))
                assert contains(polytope, simplex) == (tau in taus)


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(matrix_entry_bound=0)
    with pytest.raises(ValueError):
        SearchConfig(translation_grid=0)
    with pytest.raises(ValueError):
        SearchConfig(bisection_tolerance=F(0))
