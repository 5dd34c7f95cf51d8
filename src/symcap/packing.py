"""Two-ball packings of moment polytopes.

A packing certificate exhibits two simplex images with disjoint
interiors inside a moment polytope; the sum of their capacities is an
exact lower bound for the two-ball capacity of the domain.  Canonical
certificates reproduce the standard decompositions of long ellipsoids
and polydisks; the search is a certified lower-bound engine over a
bounded slice of the special affine group, never an exact optimizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from operator import mul

from .capacities import c2b_closed_form
from .exactgeom import (
    ELLIPSOID,
    POLYDISK,
    Polytope,
    SimplexImage,
    SpecialAffineTransform,
    ToricDomain,
    cofactor_vector,
    contains,
    interiors_disjoint,
    inward_facets,
    moment_polytope,
)
from .rationals import is_infinite, rat

# Work budget of the SL_n(Z) enumeration, in (2B+1)^(n^2-1) walked tuples,
# so that an admitted enumeration takes well under a second.  On a 2-vCPU
# Xeon with Python 3.11, n = 3, B = 2 walks 390,625 tuples in 0.25 s
# (67,704 matrices); n = 3, B = 3 would walk 5.8M tuples in 2.5 s (640,824
# matrices, each then scanned for placements) and n = 4, B = 1 14.3M, so
# both are refused.  In dimension 2 the budget admits B <= 49.
ENUMERATION_BUDGET = 10**6


@dataclass(frozen=True)
class PackingCertificate:
    simplices: tuple[SimplexImage, SimplexImage]
    domain: ToricDomain
    total: Fraction

    def __post_init__(self):
        if self.total != self.simplices[0].capacity + self.simplices[1].capacity:
            raise ValueError("total must equal the sum of the two capacities")


@dataclass(frozen=True)
class SearchConfig:
    """Bounds for the packing search.

    Matrix entries range over [-B, B]; translations run on a grid of
    step 1/q over the polytope's bounding box.  When ``equal_balls`` is
    false the search also probes the coarse unequal splits (t/3, 2t/3)
    and (t/4, 3t/4) of each candidate total.  The SL_n(Z) enumeration
    walks (2B+1)^(n^2-1) integer tuples, and a search that would walk
    more than ENUMERATION_BUDGET of them is refused: the budget admits
    B = 2 in dimension 3 and B <= 49 in dimension 2, and no search in
    dimension 4 or more.
    """

    matrix_entry_bound: int = 2
    translation_grid: int = 20
    bisection_tolerance: Fraction = Fraction(1, 100)
    equal_balls: bool = True

    def __post_init__(self):
        if self.matrix_entry_bound < 1:
            raise ValueError("matrix entry bound must be >= 1")
        if self.translation_grid < 1:
            raise ValueError("translation grid must be >= 1")
        if rat(self.bisection_tolerance) <= 0:
            raise ValueError("bisection tolerance must be positive")


def verify_certificate(certificate: PackingCertificate) -> bool:
    """Recompute both containments and the interior disjointness exactly."""
    polytope = moment_polytope(certificate.domain)
    s1, s2 = certificate.simplices
    if certificate.total != s1.capacity + s2.capacity:
        return False
    return (
        contains(polytope, s1)
        and contains(polytope, s2)
        and interiors_disjoint(s1, s2)
    )


def canonical_certificate(domain: ToricDomain, slack) -> PackingCertificate:
    """The standard two-simplex decomposition, with capacities a_1 - slack/2.

    For a long ellipsoid (a_n >= 2 a_1) the second simplex is the shear
    of the first along the long axis; for a polydisk (n >= 2) it is the
    reflection of the first into the opposite corner.
    """
    eps = rat(slack)
    if eps <= 0:
        raise ValueError("slack must be positive")
    n = domain.dimension
    a1 = None if domain.kind == "polytope" else domain.params[0]
    if domain.kind == ELLIPSOID:
        a_top = domain.params[-1]
        if not is_infinite(a_top) and a_top < 2 * a1:
            raise ValueError(
                "no canonical two-ball certificate: largest axis below twice the smallest"
            )
        second = _ellipsoid_shear(n, a1)
    elif domain.kind == POLYDISK:
        if n < 2:
            raise ValueError("polydisk certificate needs at least two factors")
        second = _corner_reflection(n, domain.params)
    else:
        raise ValueError("canonical certificates exist only for ellipsoids and polydisks")
    if eps >= 2 * a1:
        raise ValueError("slack must be below twice the smallest parameter")
    capacity = a1 - eps / 2
    simplices = (
        SimplexImage(capacity, SpecialAffineTransform.identity(n)),
        SimplexImage(capacity, second),
    )
    certificate = PackingCertificate(simplices, domain, 2 * capacity)
    if not verify_certificate(certificate):
        raise AssertionError("canonical certificate failed its own verification")
    return certificate


def _ellipsoid_shear(n: int, a1: Fraction) -> SpecialAffineTransform:
    # Last row (-1, ..., -1, 1): shifts every short axis off the long one,
    # then translate one simplex width along the long axis.
    matrix = tuple(
        tuple(
            (1 if i == j else 0) if i < n - 1 else (1 if j == n - 1 else -1)
            for j in range(n)
        )
        for i in range(n)
    )
    translation = tuple(Fraction(0) if i < n - 1 else a1 for i in range(n))
    return SpecialAffineTransform(matrix, translation)


def _corner_reflection(n: int, corner) -> SpecialAffineTransform:
    # Point reflection into the far corner; for odd n the determinant is
    # fixed up by swapping the first two axes, which maps the standard
    # simplex to the same reflected vertex set.
    if n % 2 == 0:
        matrix = tuple(tuple(-1 if i == j else 0 for j in range(n)) for i in range(n))
    else:
        perm = [1, 0] + list(range(2, n))
        matrix = tuple(
            tuple(-1 if perm[i] == j else 0 for j in range(n)) for i in range(n)
        )
    return SpecialAffineTransform(matrix, tuple(corner))


# ---------------------------------------------------------------------------
# Bounded search
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _unimodular_matrices(n: int, bound: int) -> tuple:
    """All SL_n(Z) matrices with entries in [-bound, bound], lexicographic.

    Expanding det along the last row gives det = sum_j r_j C_j, where the
    cofactors C depend only on the first n - 1 rows.  So those rows and the
    first n - 1 entries of the last row are walked in lexicographic order,
    and det = 1 is solved for the last entry; a prefix whose cofactors have
    gcd != 1 admits no last row.  Rows are shared between matrices.
    Raises ValueError, before any enumeration, when the walk would exceed
    ENUMERATION_BUDGET tuples.
    """
    tuples = (2 * bound + 1) ** (n * n - 1)
    if tuples > ENUMERATION_BUDGET:
        raise ValueError(
            f"SL_{n}(Z) enumeration with entry bound {bound} walks {tuples} "
            f"tuples, above the budget of {ENUMERATION_BUDGET}"
        )
    entries = range(-bound, bound + 1)
    width = len(entries)
    rows = list(product(entries, repeat=n))
    matrices = []
    for prefix in product(rows, repeat=n - 1):
        *cofactors, c_last = cofactor_vector(prefix)
        if math.gcd(*cofactors, c_last) != 1:
            continue
        # rems[index] = 1 - sum_{j<n} r_j C_j for the index-th choice of the
        # last row's leading entries, in lexicographic order; that choice
        # completed by r is the row rows[index * width + bound + r].
        rems = [1]
        for c in cofactors:
            rems = [rem - r * c for rem in rems for r in entries]
        for index, rem in enumerate(rems):
            base = index * width + bound
            if c_last == 0:
                if rem == 0:
                    matrices.extend((*prefix, rows[base + r]) for r in entries)
            elif rem % c_last == 0 and -bound <= rem // c_last <= bound:
                matrices.append((*prefix, rows[base + rem // c_last]))
    return tuple(matrices)


def _contained_placements(
    polytope: Polytope,
    box,
    capacity: Fraction,
    matrices,
    q: int,
) -> tuple[list, int]:
    """All grid placements of a capacity-`capacity` simplex inside the
    polytope, as raw (matrix, scaled-translation) pairs in lexicographic
    order, together with the integer scale of the translations.

    Works in integer arithmetic over a common denominator: containment of
    g = (M, tau) reduces to nu . tau <= beta - max_j nu . (c M e_j) per
    halfspace, which is linear in tau.
    """
    n = polytope.dimension
    denominators = [q, capacity.denominator]
    denominators += [beta.denominator for _, beta in polytope.constraints]
    for lo, hi in box:
        denominators += [lo.denominator, hi.denominator]
    scale = math.lcm(*denominators)
    step = scale // q
    c_scaled = int(capacity * scale)
    widths = [int((hi - lo) * scale) for lo, hi in box]

    axis_ranges = []
    for (lo, _), width in zip(box, widths):
        start = int(lo * scale)
        count = width // step  # number of whole grid steps in the width
        axis_ranges.append(range(start, start + count * step + 1, step))

    normals = [nu for nu, _ in polytope.constraints]
    betas = [int(beta * scale) for _, beta in polytope.constraints]
    lasts = [nu[-1] for nu in normals]
    # Iterate the leading axes and solve the last one analytically: each
    # constraint is affine in tau, so the feasible last coordinate is an
    # integer interval.  The leading part of nu . tau does not depend on
    # the matrix, so it is computed once per prefix here.
    prefixes = [
        (prefix, [sum(nu[i] * prefix[i] for i in range(n - 1)) for nu in normals])
        for prefix in product(*axis_ranges[:-1])
    ]
    last = axis_ranges[-1]
    last_lo, last_hi = last.start, last[-1]
    # A row's spread s fits the box width w iff c * s <= w, i.e. s <= w // c.
    limits = [width // c_scaled for width in widths]

    # The translations depend on the matrix only through its slacks, and
    # far fewer slack vectors than matrices occur, so each is scanned once.
    translations: dict[tuple, list] = {}
    placements = []
    for matrix in matrices:
        # Quick prune: the simplex's own extent must fit in the box.
        if any(
            max(max(row), 0) - min(min(row), 0) > limit
            for row, limit in zip(matrix, limits)
        ):
            continue
        columns = list(zip(*matrix))
        slacks = tuple(
            beta - c_scaled * max(0, *[sum(map(mul, nu, col)) for col in columns])
            for nu, beta in zip(normals, betas)
        )
        taus = translations.get(slacks)
        if taus is None:
            taus = translations[slacks] = []
            for prefix, dots in prefixes:
                lo_t, hi_t = last_lo, last_hi
                for dot, slack, c in zip(dots, slacks, lasts):
                    rem = slack - dot
                    if c == 0:
                        if rem < 0:
                            break
                    elif c > 0:
                        hi_t = min(hi_t, rem // c)
                    else:
                        lo_t = max(lo_t, -((-rem) // c))
                else:
                    k0 = -((last_lo - lo_t) // step)
                    k1 = (hi_t - last_lo) // step
                    taus += [(*prefix, last_lo + k * step) for k in range(k0, k1 + 1)]
        placements += [(matrix, tau) for tau in taus]
    return placements, scale


# Deterministic work caps so that infeasible probe totals fail fast.  A
# probe that gives up early is conservative (the search reports a lower
# bound either way); every certificate the search returns has passed
# verify_certificate.
_PLACEMENT_CAP = 80
_LP_BUDGET = 200


def _trim(placements: list) -> list:
    if len(placements) <= 2 * _PLACEMENT_CAP:
        return placements
    return placements[:_PLACEMENT_CAP] + placements[-_PLACEMENT_CAP:]


def _annotate(placements, scale: int, common: int, capacity: Fraction):
    """Precompute integer scan data per placement at the shared scale
    `common`: vertices, bounding box, inward facet halfspaces, and the
    centroid times (n + 1).  The expensive exact objects are built
    lazily via the trailing (capacity, matrix, tau, scale) tuple.
    """
    factor = common // scale
    entries = []
    for matrix, tau in placements:
        n = len(tau)
        c_int = int(capacity * common)
        base = tuple(t * factor for t in tau)
        iverts = [base]
        for j in range(n):
            iverts.append(
                tuple(base[i] + c_int * matrix[i][j] for i in range(n))
            )
        bbox = tuple(
            (min(v[i] for v in iverts), max(v[i] for v in iverts)) for i in range(n)
        )
        facets = inward_facets(iverts)
        centroid = tuple(sum(v[i] for v in iverts) for i in range(n))
        entries.append((iverts, bbox, facets, centroid, (capacity, matrix, tau, scale)))
    return entries


def _strictly_inside(point, facets, weight: int = 1) -> bool:
    # `weight` handles points stored as a sum of `weight` vertices.
    return all(
        sum(a * x for a, x in zip(nu, point)) > beta * weight
        for nu, beta in facets
    )


def _build_simplex(entry) -> SimplexImage:
    capacity, matrix, tau, scale = entry[-1]
    g = SpecialAffineTransform(matrix, tuple(Fraction(t, scale) for t in tau))
    return SimplexImage(capacity, g)


def _find_disjoint_pair(first, second, same_list: bool):
    """First pair (lex order) with provably disjoint interiors, or None."""
    budget = _LP_BUDGET
    k = len(first[0][0]) if first else 0  # n + 1 vertices per simplex
    for i, (v1, b1, f1, c1, _) in enumerate(first):
        start = i + 1 if same_list else 0
        for entry2 in second[start:]:
            v2, b2, f2, c2, _ = entry2
            if any(
                hi1 <= lo2 or hi2 <= lo1
                for (lo1, hi1), (lo2, hi2) in zip(b1, b2)
            ):
                return _build_simplex(first[i]), _build_simplex(entry2)
            complete = len(f1) == len(v1) and len(f2) == len(v2)
            if complete and (
                any(_strictly_inside(p, f1) for p in v2)
                or any(_strictly_inside(p, f2) for p in v1)
                or _strictly_inside(c2, f1, k)
                or _strictly_inside(c1, f2, k)
            ):
                continue  # witnessed overlap
            if budget <= 0:
                continue
            budget -= 1
            s1 = _build_simplex(first[i])
            s2 = _build_simplex(entry2)
            if interiors_disjoint(s1, s2):
                return s1, s2
    return None


def search_two_balls(
    domain: ToricDomain, config: SearchConfig
) -> PackingCertificate | None:
    """Bisection on the packed total; returns the best verified certificate,
    or None when no placement verifies at any probed total."""
    polytope = moment_polytope(domain)
    # Refuses a too-large enumeration before doing any of it.
    matrices = _unimodular_matrices(polytope.dimension, config.matrix_entry_bound)
    box = polytope.bounding_box()  # raises for unbounded input
    eps = rat(config.bisection_tolerance)

    try:
        ceiling = c2b_closed_form(domain).value
        provable_ceiling = True
    except ValueError:
        ceiling = 2 * min(hi - lo for lo, hi in box)
        provable_ceiling = False

    def probe(total: Fraction) -> PackingCertificate | None:
        splits = [(total / 2, total / 2)]
        if not config.equal_balls:
            splits += [(total / 3, 2 * total / 3), (total / 4, 3 * total / 4)]
        for cap_a, cap_b in splits:
            if cap_a <= 0:
                continue
            raw_a, scale_a = _contained_placements(
                polytope, box, cap_a, matrices, config.translation_grid
            )
            if not raw_a:
                continue
            same = cap_a == cap_b
            if same:
                common = math.lcm(scale_a, cap_a.denominator)
                entries_a = _annotate(_trim(raw_a), scale_a, common, cap_a)
                entries_b = entries_a
            else:
                raw_b, scale_b = _contained_placements(
                    polytope, box, cap_b, matrices, config.translation_grid
                )
                common = math.lcm(
                    scale_a, scale_b, cap_a.denominator, cap_b.denominator
                )
                entries_a = _annotate(_trim(raw_a), scale_a, common, cap_a)
                entries_b = _annotate(_trim(raw_b), scale_b, common, cap_b)
            pair = _find_disjoint_pair(entries_a, entries_b, same)
            if pair is not None:
                certificate = PackingCertificate(pair, domain, cap_a + cap_b)
                if not verify_certificate(certificate):
                    raise AssertionError("search certificate failed verification")
                return certificate
        return None

    best = probe(ceiling)
    if best is not None and provable_ceiling:
        return best
    if best is not None:
        # Heuristic ceiling turned out reachable: climb until a probe
        # fails, then bisect the remaining gap.
        high = 2 * best.total
        for _ in range(10):
            trial = probe(high)
            if trial is None:
                break
            best = trial
            high = 2 * high
        else:
            return best
        low = best.total
    else:
        low = Fraction(0)
        high = ceiling
    while high - low > eps:
        mid = (low + high) / 2
        cert = probe(mid)
        if cert is not None:
            best = cert
            low = mid
        else:
            high = mid
    return best
