import dataclasses
import functools
import math
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product
from operator import mul

import placement_reference
import pytest
import sweep_reference
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
    _contained_placements,
    _find_disjoint_pair,
    _fitting_spreads,
    _height_groups,
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


def test_verified_is_computed_once_and_never_passed(monkeypatch):
    delta = SimplexImage(F(1), SpecialAffineTransform.identity(2))
    with pytest.raises(TypeError):
        PackingCertificate((delta, delta), ellipsoid(1, 2), F(2), verified=True)
    assert "verified" not in {f.name for f in dataclasses.fields(PackingCertificate)}

    calls = _count_calls(monkeypatch, "verify_certificate")
    overlapping = PackingCertificate((delta, delta), ellipsoid(1, 2), F(2))
    assert overlapping.verified is False and overlapping.verified is False
    assert calls == [(overlapping,)]

    # The verdict takes no part in equality or hashing.
    cert = canonical_certificate(ellipsoid(1, 2), F(1, 100))
    fresh = PackingCertificate(cert.simplices, cert.domain, cert.total)
    assert "verified" in vars(cert) and "verified" not in vars(fresh)
    assert fresh == cert and hash(fresh) == hash(cert)


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
            ((((-1, -1), (1, 0)), (2, 0)), (((-1, -1), (1, 0)), (1, 0))),
        ),
        (
            _ORTHANT + [((1, 2), 3), ((2, 1), 3)],
            F(1023, 512),
            ((((-1, 0), (0, -1)), (1, 1)), (((1, 0), (0, 1)), (0, 0))),
        ),
        (
            _ORTHANT + [((3, 1), 6), ((1, 2), 6)],
            F(3),
            (
                (((-1, 0), (1, -1)), (F(3, 2), F(3, 2))),
                (((-1, -1), (1, 0)), (F(3, 2), 0)),
            ),
        ),
    ],
    ids=["triangle", "quadrilateral", "wide-quadrilateral"],
)
def test_search_2d_certificates_are_pinned(halfspaces, total, placements):
    # Found with the default configuration by the direction sweep: the
    # first separating direction in sorted order, then the first placement
    # in list order at each extreme.  The totals are those of the earlier
    # LP-based and trimmed pair scans.
    domain = polytope_domain(Polytope.from_halfspaces(halfspaces))
    cert = search_two_balls(domain, SearchConfig())
    assert cert.total == total
    assert [s.capacity for s in cert.simplices] == [total / 2, total / 2]
    found = tuple((s.transform.matrix, s.transform.translation) for s in cert.simplices)
    assert found == placements


@pytest.mark.parametrize(
    "halfspaces,config,total,placements",
    [
        (
            _ORTHANT + [((1, 2), 3), ((2, 1), 3)],
            SearchConfig(translation_grid=660),
            F(1023, 512),
            ((((-1, 0), (0, -1)), (1, 1)), (((1, 0), (0, 1)), (0, 0))),
        ),
        (
            _ORTHANT + [((1, 1), 2)],
            SearchConfig(translation_grid=120, equal_balls=False),
            F(2),
            ((((-1, -1), (1, 0)), (2, 0)), (((-1, -1), (1, 0)), (1, 0))),
        ),
    ],
    ids=["quadrilateral-660", "triangle-120-unequal"],
)
def test_fine_grid_certificates_are_pinned(halfspaces, config, total, placements):
    # Long grid lines: hundreds of contained translations share each
    # prefix, so every family is mostly run interiors.
    domain = polytope_domain(Polytope.from_halfspaces(halfspaces))
    cert = search_two_balls(domain, config)
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
    assert found == ((((-1, 0), (0, -1)), (1, 2)), (((-1, -1), (1, 0)), (1, 0)))


def test_search_verifies_its_certificate_once(monkeypatch):
    calls = _count_calls(monkeypatch, "verify_certificate")
    domain = polytope_domain(Polytope.from_halfspaces(_ORTHANT + [((1, 2), 3), ((2, 1), 3)]))
    cert = search_two_balls(domain, SearchConfig())
    assert cert.total == F(1023, 512)
    assert calls == [(cert,)]


def test_search_on_flat_polytope_finds_nothing(monkeypatch):
    # The segment {0} x [0, 1] has least width 0: no simplex fits.  Its
    # ceiling is 0, so every probe has capacity 0 and lists no matrix.
    calls = _count_calls(monkeypatch, "_unimodular_matrices")
    flat = Polytope.from_halfspaces([((1, 0), 0), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)])
    with pytest.raises(ValueError, match="ceiling 0"):
        search_two_balls(polytope_domain(flat), SEARCH)
    assert calls == []


@pytest.mark.parametrize(
    "domain,ceiling",
    [(ellipsoid(F(1, 1000), 1), F(1, 500)), (ellipsoid(F(1, 150), 1), F(1, 75))],
)
def test_search_probes_half_an_unpacked_ceiling(domain, ceiling, monkeypatch):
    # Neither ceiling packs.  1/500 is below the default tolerance 1/100,
    # and 1/75 lies between it and twice it; either way the search makes
    # one probe below the ceiling, at half of it, and that probe packs.
    calls = _count_calls(monkeypatch, "_find_disjoint_pair")
    cert = search_two_balls(domain, SearchConfig())
    assert [cap_a + cap_b for cap_a, _, cap_b, *_ in calls] == [ceiling, ceiling / 2]
    assert cert.total == ceiling / 2


def test_search_recovers_trimmed_packing():
    # Total 3 packs on the default grid; a probe that kept only the first
    # and last 80 placements of each capacity missed it and ended at 1227/512.
    cert = search_two_balls(ellipsoid(2, 3), SearchConfig())
    assert cert.total == 3
    assert verify_certificate(cert)


@pytest.mark.parametrize("equal_balls", [True, False])
def test_search_in_dimension_1_starts_at_the_width(equal_balls, monkeypatch):
    # Two segments with disjoint interiors in [0, 3] have total at most 3,
    # and 3 packs, so the first probe ends the search.
    calls = _count_calls(monkeypatch, "_contained_placements")
    segment = polytope_domain(Polytope.from_halfspaces([((-1,), 0), ((1,), 3)]))
    cert = search_two_balls(segment, SearchConfig(equal_balls=equal_balls))
    assert cert.total == 3
    assert len(calls) == 1


def test_search_dimension_cap():
    with pytest.raises(ValueError):
        search_two_balls(ellipsoid(1, 1, 1, 1, 1), SEARCH)
    with pytest.raises(ValueError):
        search_two_balls(ellipsoid(1, 1, 1, 1), SEARCH)


def test_search_grid_budget_counts_the_box_grid(monkeypatch):
    # The rectangle [0, 1] x [0, 2] holds 21 * 41 points of step 1/20.
    monkeypatch.setattr(packing, "GRID_BUDGET", 861)
    assert search_two_balls(_RECTANGLE, SearchConfig()).total == 2
    monkeypatch.setattr(packing, "GRID_BUDGET", 860)
    with pytest.raises(ValueError, match="budget"):
        search_two_balls(_RECTANGLE, SearchConfig())


# ---------------------------------------------------------------------------
# SL_n(Z) enumeration and grid placements
# ---------------------------------------------------------------------------


@functools.cache
def _even_permutations(n):
    return [
        p for p in permutations(range(n))
        if int_det([[int(p[i] == j) for j in range(n)] for i in range(n)]) == 1
    ]


def _twins(matrix):
    """The matrix under every even column permutation: one simplex image."""
    return {
        tuple(tuple(row[j] for j in p) for row in matrix)
        for p in _even_permutations(len(matrix))
    }


@pytest.mark.parametrize("n,bound", [(1, 2), (2, 1), (2, 2), (2, 3), (3, 1)])
def test_unimodular_matrices_match_brute_force(n, bound):
    # Each SL_n(Z) matrix is an even column permutation of exactly one
    # listed matrix, the lexicographically first of its class; the list is
    # in lexicographic order.
    entries = range(-bound, bound + 1)
    brute = []
    for flat in product(entries, repeat=n * n):
        matrix = tuple(tuple(flat[i * n : (i + 1) * n]) for i in range(n))
        if int_det(matrix) == 1:
            brute.append(matrix)
    listed = _unimodular_matrices(n, bound)
    assert all(a < b for a, b in zip(listed, listed[1:]))
    members = set(listed)
    assert members <= set(brute)
    for matrix in brute:
        twins = _twins(matrix)
        assert twins & members == {min(twins)}
    if n < 3:
        assert list(listed) == brute


def test_unimodular_matrices_sl3_bound_2():
    matrices = _unimodular_matrices(3, 2)
    assert len(matrices) == 22568
    assert len({twin for matrix in matrices for twin in _twins(matrix)}) == 67704
    assert matrices[0] == ((-2, -2, -1), (-2, -1, -2), (-1, -2, 0))
    assert matrices[-1] == ((1, 2, 2), (2, 2, 1), (2, 1, -1))


def _spread_cases():
    for bound in (1, 2, 3):
        yield from ((2, bound, spreads) for spreads in product(range(2 * bound + 1), repeat=2))
    yield from ((3, 1, spreads) for spreads in product(range(3), repeat=3))
    yield from ((3, 2, spreads) for spreads in [(1, 2, 3), (2, 2, 4), (4, 4, 4), (0, 4, 4)])


@pytest.mark.parametrize("n,bound,spreads", list(_spread_cases()), ids=str)
def test_unimodular_matrices_within_spreads_filter_the_full_list(n, bound, spreads):
    # The spread-limited walk lists exactly the matrices of the full list
    # whose row i spans at most spreads[i], in the same order.
    def fits(matrix):
        return all(
            max(max(row), 0) - min(min(row), 0) <= limit for row, limit in zip(matrix, spreads)
        )

    expected = tuple(filter(fits, _unimodular_matrices(n, bound)))
    assert _unimodular_matrices(n, bound, spreads) == expected


def test_fitting_spreads_select_only_what_fits_the_box(monkeypatch):
    # E(1,2,3)'s box has widths 1, 2, 3: at capacity 1 the rows may span
    # 1, 2 and 3, which leaves 3,272 of the 22,568 matrices at B = 2.
    box = moment_polytope(ellipsoid(1, 2, 3)).bounding_box()
    assert _fitting_spreads(2, box, F(1)) == (1, 2, 3)
    assert len(_fitting(2, box, F(1))) == 3272
    # At capacity 1/4 every limit reaches 2B = 4: the unlimited list.
    assert _fitting_spreads(2, box, F(1, 4)) == (4, 4, 4)
    assert _fitting(2, box, F(1, 4)) == _unimodular_matrices(3, 2)
    calls = _count_calls(monkeypatch, "_unimodular_matrices")
    assert _fitting_spreads(2, box, F(0)) is None
    assert _fitting_spreads(2, box, F(21, 20)) is None
    assert calls == []


def _returns(monkeypatch, name):
    """The results of every call of packing.`name`, in order."""
    results = []
    original = getattr(packing, name)

    def recorded(*args):
        results.append(original(*args))
        return results[-1]

    monkeypatch.setattr(packing, name, recorded)
    return results


@pytest.mark.parametrize(
    "domain",
    [
        polytope_domain(Polytope.from_halfspaces(_ORTHANT + [((1, 2), 3), ((2, 1), 3)])),
        ellipsoid(1, F(5, 4), F(7, 4)),
    ],
    ids=["quadrilateral", "E(1,5/4,7/4)"],
)
def test_search_enumerates_and_groups_each_fitting_list_once(domain, monkeypatch):
    # Both searches bisect, and their probes ask for more lists than there
    # are distinct ones; each distinct list is enumerated and grouped once.
    # (E(1,2,3) packs at its ceiling, so its one probe would show nothing.)
    spreads = _returns(monkeypatch, "_fitting_spreads")
    enumerations = _count_calls(monkeypatch, "_unimodular_matrices")
    groupings = _count_calls(monkeypatch, "_height_groups")
    config = SearchConfig(translation_grid=2, equal_balls=False)
    assert search_two_balls(domain, config) is not None
    distinct = set(spreads) - {None}
    assert len(spreads) > len(distinct) > 1
    assert len(enumerations) == len(groupings) == len(distinct)


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


def _fitting(bound, box, capacity):
    """The matrices that a search probe at `capacity` lists."""
    return _unimodular_matrices(len(box), bound, _fitting_spreads(bound, box, capacity))


def _flat(families):
    """The (matrix, translation) placements of a list of families, in order."""
    return [(matrix, tau) for taus, matrices in families for matrix in matrices for tau in taus]


def _filled(families, step):
    """The families with each pair of run ends that share a prefix filled
    in at `step`, after checking that each family's translations are
    distinct, in lexicographic order, and at most two per prefix."""
    filled = []
    for taus, matrices in families:
        assert taus == sorted(set(taus))
        assert max(Counter(tau[:-1] for tau in taus).values()) <= 2
        full = []
        for tau in taus:
            if full and full[-1][:-1] == tau[:-1]:
                full += [(*tau[:-1], t) for t in range(full[-1][-1] + step, tau[-1] + 1, step)]
            else:
                full.append(tau)
        filled.append((full, matrices))
    return filled


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
    # Every placement of the filled runs is contained; every other grid
    # placement of a matrix that has one is not.
    box = polytope.bounding_box()
    matrices = _unimodular_matrices(*enumeration)
    if polytope.dimension == 3:
        matrices = matrices[::12]  # a spread-out sample keeps the test fast
    groups = _height_groups(polytope, matrices)
    for capacity in capacities:
        scale = _scale(polytope, box, q, capacity)
        families = _contained_placements(polytope, box, capacity, groups, q, scale)
        found = {}
        for matrix, tau in _flat(_filled(families, scale // q)):
            found.setdefault(matrix, set()).add(tuple(F(t, scale) for t in tau))
        assert found
        for matrix, taus in found.items():
            for tau in _grid(box, q):
                simplex = SimplexImage(capacity, SpecialAffineTransform(matrix, tau))
                assert contains(polytope, simplex) == (tau in taus)


# A pentagon with a facet x <= 3/2 whose last coefficient is 0, on a box
# that starts at x = 1/2.
_PENTAGON = Polytope.from_halfspaces(
    [((-1, 0), F(-1, 2)), ((0, -1), F(0)), ((1, 0), F(3, 2)), ((0, 1), F(2)), ((1, 1), F(3))]
)


# A prism with a facet x + y <= 3/2 whose last coefficient is 0 and that
# the bounding box does not imply, so it drops whole grid lines.
_PRISM = Polytope.from_halfspaces(
    [((-1, 0, 0), F(0)), ((0, -1, 0), F(0)), ((0, 0, -1), F(0)), ((1, 1, 0), F(3, 2)),
     ((0, 0, 1), F(1)), ((1, 0, 1), F(2))]
)


@pytest.mark.parametrize(
    "polytope,bound",
    [
        (moment_polytope(ellipsoid(1, 2)), 2),
        (_QUADRILATERAL, 2),
        (_PENTAGON, 2),
        (moment_polytope(polydisk(1, 1, 2)), 1),
        (moment_polytope(ellipsoid(1, 2, 3)), 1),
        (moment_polytope(ellipsoid(1, F(5, 4), F(7, 4))), 1),
        (_PRISM, 1),
    ],
    ids=["E(1,2)", "quadrilateral", "pentagon", "P(1,1,2)", "E(1,2,3)", "E(1,5/4,7/4)", "prism"],
)
def test_contained_placements_match_the_per_matrix_scan(polytope, bound):
    # Once each run's ends are filled in, the same families, matrices and
    # translations, in the same order, as the scan of every leading grid
    # point per slack vector; the unfiltered list holds matrices that do
    # not fit the box.
    box = polytope.bounding_box()
    for capacity in [F(1), F(1, 2), F(1, 3), F(2, 3), F(3, 4)]:
        lists = [_unimodular_matrices(polytope.dimension, bound)]
        lists.append(_fitting(bound, box, capacity))
        for matrices, q in product(lists, range(1, 9)):
            scale = _scale(polytope, box, q, capacity)
            expected = placement_reference.contained_placements(
                polytope, box, capacity, matrices, q, scale
            )
            groups = _height_groups(polytope, matrices)
            found = _contained_placements(polytope, box, capacity, groups, q, scale)
            assert _filled(found, scale // q) == expected


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
    groups = _height_groups(polytope, _unimodular_matrices(polytope.dimension, 1))
    scale = _scale(polytope, box, 4, capacity)
    placements = _contained_placements(polytope, box, capacity, groups, 4, scale)
    assert isinstance(placements, list)
    assert bool(placements) == expected


def test_contained_placements_ignore_a_larger_scale():
    # A multiple of the least scale gives the same placements, scaled.
    polytope = _QUADRILATERAL
    box = polytope.bounding_box()
    groups = _height_groups(polytope, _unimodular_matrices(2, 2))
    scale = _scale(polytope, box, 4, F(1, 3))
    small = _flat(_contained_placements(polytope, box, F(1, 3), groups, 4, scale))
    large = _flat(_contained_placements(polytope, box, F(1, 3), groups, 4, 6 * scale))
    assert small
    assert large == [(m, tuple(6 * t for t in tau)) for m, tau in small]


def test_contained_placements_share_one_list_per_slack_vector():
    # Matrices with the same slacks share one (taus, matrices) family.  No
    # family is empty, and every matrix with a contained placement is in
    # exactly one, with the translations it has on its own, in the order
    # of the enumeration.
    polytope = moment_polytope(ellipsoid(1, 2, 3))
    box = polytope.bounding_box()
    scale = _scale(polytope, box, 2, F(1, 2))
    matrices = _unimodular_matrices(3, 1)
    groups = _height_groups(polytope, matrices)
    families = _contained_placements(polytope, box, F(1, 2), groups, 2, scale)
    assert all(taus and members for taus, members in families)
    assert any(len(members) > 1 for _, members in families)
    listed = [matrix for _, members in families for matrix in members]
    assert len(listed) == len(set(listed))
    for _, members in families:
        assert list(members) == sorted(members, key=matrices.index)
    family_of = {matrix: taus for taus, members in families for matrix in members}
    for matrix in matrices:
        alone = _contained_placements(
            polytope, box, F(1, 2), _height_groups(polytope, [matrix]), 2, scale
        )
        assert alone == ([(family_of[matrix], [matrix])] if matrix in family_of else [])


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(matrix_entry_bound=0)
    with pytest.raises(ValueError):
        SearchConfig(translation_grid=0)
    with pytest.raises(ValueError):
        SearchConfig(bisection_tolerance=F(0))
    with pytest.raises(ValueError):
        SearchConfig(bisection_tolerance="-1/100")
    with pytest.raises(ValueError, match="bisection tolerance must be finite"):
        SearchConfig(bisection_tolerance="inf")


def test_search_config_stores_a_rational_tolerance():
    config = SearchConfig(bisection_tolerance="1/100")
    assert config.bisection_tolerance == F(1, 100)
    assert type(config.bisection_tolerance) is Fraction
    assert config == SearchConfig()


# ---------------------------------------------------------------------------
# The search's direction sweep
# ---------------------------------------------------------------------------


def _simplex(capacity, matrix, tau, scale=1):
    return SimplexImage(
        capacity, SpecialAffineTransform(matrix, tuple(F(t, scale) for t in tau))
    )


def _elementary_product(n, steps):
    """The product of the elementary matrices I + s E_ij, an SL_n(Z) matrix."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, j, s in steps:
        rows[i] = [a + s * b for a, b in zip(rows[i], rows[j])]
    return tuple(map(tuple, rows))


def _matrix(n):
    if n == 1:
        return st.just(((1,),))
    steps = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1), st.sampled_from([-1, 1]))
    # Adding j = i + k (mod n) with k >= 1 keeps i != j.
    steps = steps.map(lambda step: (step[0], (step[0] + step[1]) % n, step[2]))
    return st.lists(steps, max_size=5).map(lambda ss: _elementary_product(n, ss))


@st.composite
def _probe(draw):
    """(first, second) placement lists of (taus, matrices) families, as
    `_contained_placements` returns them, at scale 2: translations are
    halves in [-1, 1]^n and capacities lie in {1/2, 1, 3/2}.  Matrices that
    draw the same taus share a family, and in dimension >= 3 a matrix may
    come twice, the second time with its first three columns rotated (the
    same simplex)."""
    n = draw(st.integers(1, 4))
    point = st.tuples(*[st.integers(-2, 2)] * n)
    pool = draw(st.lists(st.lists(point, min_size=1, max_size=2, unique=True), min_size=1, max_size=2))

    def placements():
        capacity = draw(st.sampled_from([F(1, 2), F(1), F(3, 2)]))
        # Dimension 4 takes a cofactor vector per triple of edge directions.
        picks = st.tuples(_matrix(n), st.integers(0, len(pool) - 1))
        families = {}
        for matrix, k in draw(st.lists(picks, min_size=1, max_size=3 if n < 4 else 1)):
            matrices = families.setdefault(k, [])
            matrices.append(matrix)
            if n >= 3 and draw(st.booleans()):
                matrices.append(tuple((row[1], row[2], row[0], *row[3:]) for row in matrix))
        return capacity, [(pool[k], matrices) for k, matrices in families.items()]

    first = placements()
    second = first if draw(st.booleans()) else placements()
    return first, second


# Pairs of one-placement lists, at scale 2 as in `_probe`.
# Separated only by the cross product of an edge of each.
_EDGE_PAIR = (
    (F(1), [([(2, -2, -1)], [((-1, 0, -1), (-1, 1, -1), (0, 0, -1))])]),
    (F(1), [([(0, 1, -2)], [((0, 1, 0), (0, -1, 1), (1, 0, 1))])]),
)
# Separated only by an edge pair, with a vertex of one on the other's boundary.
_TOUCHING_EDGE_PAIR = (
    (F(1), [([(-2, 2, -1)], [((0, -1, 1), (0, -1, 0), (1, 1, -1))])]),
    (F(1, 2), [([(-1, 0, -1)], [((-1, -1, 0), (1, 1, -1), (0, -1, -1))])]),
)
# Touching along a facet plane of the first.
_TOUCHING_FACET_PAIR = (
    (F(3, 2), [([(1, 0, -1)], [((0, -1, 0), (1, 1, 0), (1, -1, 1))])]),
    (F(1, 2), [([(0, 0, 2)], [((0, 0, 1), (0, 1, 0), (-1, 0, -1))])]),
)
# Separated first along u = (-1, -1), along which both lists hold two
# translations at their extreme: the sweep returns the first of each.
_TIED_PAIR = (
    (F(1, 2), [([(1, 1), (2, 0)], [((1, 0), (0, 1))])]),
    (F(1, 2), [([(-1, 0), (0, -1)], [((1, 0), (0, 1))])]),
)


@st.composite
def _placement(draw, n):
    """A one-placement list (capacity, [([tau], [matrix])]) at scale 2."""
    capacity = draw(st.sampled_from([F(1, 2), F(1), F(3, 2)]))
    tau = draw(st.tuples(*[st.integers(-2, 2)] * n))
    return capacity, [([tau], [draw(_matrix(n))])]


def _vertices(capacity, families):
    """The integer vertices, at scale 2, of a one-placement list."""
    (((tau,), (matrix,)),) = families
    step = int(2 * capacity)
    return [tau, *(tuple(t + step * c for t, c in zip(tau, col)) for col in zip(*matrix))]


@settings(max_examples=600, deadline=None)
@given(
    pair=st.integers(1, 3).flatmap(lambda n: st.tuples(_placement(n), _placement(n)))
)
@example(pair=_EDGE_PAIR)
@example(pair=_TOUCHING_EDGE_PAIR)
@example(pair=_TOUCHING_FACET_PAIR)
def test_separating_axis_test_matches_interiors_disjoint(pair):
    # On two one-placement lists the sweep is a separating-axis test of one
    # pair.  Tight translations make overlapping and touching pairs common;
    # in dimension 3 about 2 % of pairs are separated only by an edge pair.
    first, second = pair
    expected = interiors_disjoint(
        *(_simplex(c, m, tau, 2) for c, families in pair for m, tau in _flat(families))
    )
    assert (_find_disjoint_pair(*first, *second, 2, {}) is not None) == expected
    assert (_find_disjoint_pair(*second, *first, 2, {}) is not None) == expected


def test_edge_pairs_separate_what_facets_cannot():
    first, second = _EDGE_PAIR
    vertices = [_vertices(*first), _vertices(*second)]
    # Neither a coordinate axis nor a facet normal of either simplex
    # separates them: the sweep needs the cross products of edge pairs.
    for a, b in (vertices, vertices[::-1]):
        assert not any(max(p) <= min(q) for p, q in zip(zip(*a), zip(*b)))
        for nu, beta in inward_facets(a):
            assert max(sum(x * y for x, y in zip(nu, v)) for v in b) > beta
    assert interiors_disjoint(*(_simplex(c, *_flat(fams)[0], 2) for c, fams in _EDGE_PAIR))
    assert _find_disjoint_pair(*first, *second, 2, {}) is not None


@settings(max_examples=300, deadline=None)
@given(probe=_probe())
def test_sweep_matches_interiors_disjoint(probe):
    # Tight translations make overlapping and touching pairs common.  The
    # sweep finds a pair iff some pair of the lists (of two distinct
    # placements, for one list) has disjoint interiors by the LP.
    first, second = probe
    flat = [[_simplex(c, m, tau, 2) for m, tau in _flat(families)] for c, families in probe]
    pairs = combinations(flat[0], 2) if second is first else product(*flat)
    expected = any(interiors_disjoint(a, b) for a, b in pairs)
    pair = _find_disjoint_pair(*first, *second, 2, {})
    assert (pair is not None) == expected
    if pair is not None:
        assert pair[0] in flat[0] and pair[1] in flat[1]
        assert interiors_disjoint(*pair)


@settings(max_examples=300, deadline=None)
@given(probe=_probe())
@example(probe=_EDGE_PAIR)
@example(probe=_TOUCHING_EDGE_PAIR)
@example(probe=_TOUCHING_FACET_PAIR)
@example(probe=_TIED_PAIR)
def test_sweep_matches_the_reference_sweep(probe):
    # The same pair, or None, as the sweep with one sum of products per
    # dot and a second pass for the winning translation.
    first, second = probe
    expected = sweep_reference.find_disjoint_pair(*first, *second, 2)
    assert _find_disjoint_pair(*first, *second, 2, {}) == expected


@pytest.mark.parametrize(
    "polytope,q",
    [
        (moment_polytope(ellipsoid(1, 2)), 4),
        (_QUADRILATERAL, 6),
        (_PENTAGON, 4),
        (moment_polytope(ellipsoid(1, 2, 3)), 2),
        (moment_polytope(ellipsoid(1, F(5, 4), F(7, 4))), 2),
    ],
    ids=["E(1,2)", "quadrilateral", "pentagon", "E(1,2,3)", "E(1,5/4,7/4)"],
)
def test_sweep_matches_the_reference_sweep_on_search_lists(polytope, q):
    # Whole probes of a search, with many tied translations per family,
    # at equal and unequal splits that pack and that do not.
    box = polytope.bounding_box()
    for cap_a, cap_b in [(F(1, 2), F(1, 2)), (F(1, 3), F(2, 3)), (F(1, 4), F(3, 4)), (F(1), F(1))]:
        scale = _scale(polytope, box, q, cap_a, cap_b)
        lists = [
            _contained_placements(
                polytope, box, c, _height_groups(polytope, _fitting(2, box, c)), q, scale
            )
            for c in (cap_a, cap_b)
        ]
        first, second = lists if cap_a != cap_b else (lists[0], lists[0])
        expected = sweep_reference.find_disjoint_pair(cap_a, first, cap_b, second, scale)
        assert _find_disjoint_pair(cap_a, first, cap_b, second, scale, {}) == expected


@pytest.mark.parametrize(
    "polytope,q",
    [
        (moment_polytope(ellipsoid(1, 2)), 4),
        (_QUADRILATERAL, 6),
        (_PENTAGON, 4),
        (moment_polytope(ellipsoid(1, 2, 3)), 2),
        (moment_polytope(ellipsoid(1, F(5, 4), F(7, 4))), 2),
    ],
    ids=["E(1,2)", "quadrilateral", "pentagon", "E(1,2,3)", "E(1,5/4,7/4)"],
)
def test_sweep_on_run_ends_matches_the_reference_sweep_on_full_lists(polytope, q):
    # Keeping only the ends of each grid line loses no pair the sweep
    # returns: the same pair, or None, as the reference sweep on every
    # contained translation.
    box = polytope.bounding_box()
    for cap_a, cap_b in [(F(1, 2), F(1, 2)), (F(1, 3), F(2, 3)), (F(1, 4), F(3, 4)), (F(1), F(1))]:
        scale = _scale(polytope, box, q, cap_a, cap_b)
        lists, full = [], []
        for c in (cap_a, cap_b):
            matrices = _fitting(2, box, c)
            groups = _height_groups(polytope, matrices)
            lists.append(_contained_placements(polytope, box, c, groups, q, scale))
            full.append(
                placement_reference.contained_placements(polytope, box, c, matrices, q, scale)
            )
        if cap_a == cap_b:
            lists[1], full[1] = lists[0], full[0]
        expected = sweep_reference.find_disjoint_pair(cap_a, full[0], cap_b, full[1], scale)
        assert _find_disjoint_pair(cap_a, lists[0], cap_b, lists[1], scale, {}) == expected


def test_a_fine_grid_lists_two_translations_per_grid_line():
    # At q = 660 the quadrilateral's grid lines hold hundreds of contained
    # translations each; a family lists at most the two ends of each.
    polytope = Polytope.from_halfspaces(_ORTHANT + [((1, 2), 3), ((2, 1), 3)])
    box = polytope.bounding_box()
    q = 660
    lengths = []
    for capacity in [F(3, 2), F(1023, 1024), F(1, 2)]:
        scale = _scale(polytope, box, q, capacity)
        groups = _height_groups(polytope, _fitting(2, box, capacity))
        families = _contained_placements(polytope, box, capacity, groups, q, scale)
        assert families
        for taus, _ in families:
            assert max(Counter(tau[:-1] for tau in taus).values()) <= 2
            lengths += [
                (b[-1] - a[-1]) // (scale // q) for a, b in zip(taus, taus[1:]) if a[:-1] == b[:-1]
            ]
    assert max(lengths) == q


@settings(max_examples=300, deadline=None)
@given(
    data=st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.lists(st.sampled_from([0, 1, -1, 2, -2, 3, -5]), min_size=n, max_size=n).filter(any),
            st.lists(st.tuples(*[st.integers(-9, 9)] * n), min_size=1, max_size=6),
        )
    )
)
def test_dots_match_sums_of_products(data):
    u, vectors = data
    assert list(packing._dots(u, list(zip(*vectors)))) == [sum(map(mul, u, v)) for v in vectors]


def test_scan_has_no_pair_budget():
    # More than 200 placements overlap the capacity-2 triangle without a
    # vertex or centroid of either simplex strictly inside the other; a scan
    # that spent one LP on each such pair and stopped after 200 of them
    # missed the disjoint placement listed after them.  The sweep finds it.
    identity = ((1, 0), (0, 1))
    triangle = _simplex(F(2), identity, (0, 0))
    corners = [(0, 0), (2, 0), (0, 2)]
    overlapping, disjoint = [], None
    for matrix in _unimodular_matrices(2, 2):
        for tau in product(range(-3, 4), repeat=2):
            vertices = [tau, *(tuple(t + 2 * c for t, c in zip(tau, col)) for col in zip(*matrix))]
            if any(
                max(a) <= min(b) or max(b) <= min(a)
                for a, b in zip(zip(*corners), zip(*vertices))
            ):
                continue
            points = [corners, vertices]
            facets = [inward_facets(v) for v in points]
            centroids = [[tuple(map(sum, zip(*v)))] for v in points]
            if (
                _has_point_strictly_inside(points[1], facets[0])
                or _has_point_strictly_inside(points[0], facets[1])
                or _has_point_strictly_inside(centroids[1], facets[0], 3)
                or _has_point_strictly_inside(centroids[0], facets[1], 3)
            ):
                continue
            if not interiors_disjoint(triangle, _simplex(F(2), matrix, tau)):
                overlapping.append((matrix, tau))
            elif len(overlapping) > 200:
                disjoint = (matrix, tau)
                break
        if disjoint is not None:
            break
    assert disjoint is not None
    second = [([tau], [matrix]) for matrix, tau in overlapping + [disjoint]]
    pair = _find_disjoint_pair(F(2), [([(0, 0)], [identity])], F(2), second, 1, {})
    assert pair == (triangle, _simplex(F(2), *disjoint))


def _has_point_strictly_inside(points, facets, weight=1):
    return any(
        all(sum(a * x for a, x in zip(nu, p)) > beta * weight for nu, beta in facets)
        for p in points
    )
