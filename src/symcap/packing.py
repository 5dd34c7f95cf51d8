"""Two-ball packings of moment polytopes.

A packing certificate exhibits two simplex images with disjoint
interiors inside a moment polytope; the sum of their capacities is an
exact lower bound for the two-ball capacity of the domain.  Canonical
certificates reproduce the standard decompositions of long ellipsoids
and polydisks; the search is a certified lower-bound engine over a
bounded slice of the special affine group, never an exact optimizer.

The search decides disjointness with an exact integer separating-axis
test on precomputed vertex, facet and edge data (`_separated`); the
verifier keeps its own, independent implementation, the box and facet
checks plus the rational LP of `interiors_disjoint`, and every returned
certificate has passed it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from operator import mul, sub

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
    and (t/4, 3t/4) of each candidate total.  The bisection on the total
    starts from a proven ceiling: the closed-form c_2B for ellipsoids and
    polydisks, twice the least width of the bounding box for other
    polytopes (see `search_two_balls`).  The SL_n(Z) enumeration walks
    (2B+1)^(n^2-1) integer tuples, and a search that would walk more than
    ENUMERATION_BUDGET of them is refused: the budget admits B = 2 in
    dimension 3 and B <= 49 in dimension 2, and no search in dimension 4
    or more.  Each probe keeps the first and last 80 grid placements of
    each capacity and decides every pair of them exactly with the integer
    separating-axis test, so a failed probe is a complete scan of those
    placements; that trim is the search's only truncation.  The returned
    certificate is checked once, by `verify_certificate`.
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
    scale: int,
) -> list:
    """All grid placements of a capacity-`capacity` simplex inside the
    polytope, as raw (matrix, translation * scale) pairs in lexicographic
    order; `scale` is a common multiple of q and of the denominators of the
    offsets, the box and the capacity.

    Works in integer arithmetic: containment of g = (M, tau) reduces to
    nu . tau <= beta - max_j nu . (c M e_j) per halfspace, which is linear
    in tau.  Empty when c exceeds the box's least width (see
    `search_two_balls`).
    """
    n = polytope.dimension
    step = scale // q
    c_scaled = int(capacity * scale)
    widths = [int((hi - lo) * scale) for lo, hi in box]
    if not 0 < c_scaled <= min(widths):
        return []

    axis_ranges = [range(int(lo * scale), int(hi * scale) + 1, step) for lo, hi in box]

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
    return placements


# Deterministic work cap so that infeasible probe totals fail fast: a probe
# keeps only the first and last _PLACEMENT_CAP placements of each capacity
# (`_trim`), and that is the search's only truncation.  Every pair of the
# trimmed lists is then decided exactly, so a failed probe is a complete
# scan of them; every certificate the search returns has passed
# verify_certificate.
_PLACEMENT_CAP = 80


def _trim(placements: list) -> list:
    if len(placements) <= 2 * _PLACEMENT_CAP:
        return placements
    return placements[:_PLACEMENT_CAP] + placements[-_PLACEMENT_CAP:]


def _annotate(placements, scale: int, capacity: Fraction):
    """Precompute integer scan data per placement at the shared `scale`:
    vertices, bounding box, inward facet halfspaces and, in dimension 3,
    the edge data of `_edge_planes`.  The expensive exact objects are
    built lazily via the trailing (capacity, matrix, tau, scale) tuple.
    """
    c_int = int(capacity * scale)
    entries = []
    for matrix, tau in placements:
        n = len(tau)
        iverts = [tau]
        for j in range(n):
            iverts.append(tuple(tau[i] + c_int * matrix[i][j] for i in range(n)))
        bbox = tuple(
            (min(v[i] for v in iverts), max(v[i] for v in iverts)) for i in range(n)
        )
        facets = inward_facets(iverts)
        edges = _edge_planes(iverts, matrix) if n == 3 else ()
        entries.append((iverts, bbox, facets, edges, (capacity, matrix, tau, scale)))
    return entries


def _cross(a, b) -> tuple[int, int, int]:
    # cofactor_vector([a, b]) is the same vector, but at 14 us a call
    # against 0.4 us it would dominate `_annotate`, which needs twelve.
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _edge_planes(iverts, matrix) -> list[tuple[int, ...]]:
    """Per edge of a 3-simplex, the flat tuple (a, p, g, h): its direction
    a, its first endpoint p, and w x a for the two vertices w off the edge,
    taken relative to p.  For any direction d, (a x d) . w = d . (w x a),
    so d . g and d . h say on which side of the plane through the edge
    with normal a x d those two vertices lie.  Directions come from the
    matrix columns, the simplex's edges divided by its capacity.
    """
    rel = [(0, 0, 0), *zip(*matrix)]
    edges = []
    for i, j in combinations(range(4), 2):
        a = tuple(map(sub, rel[j], rel[i]))
        k, m = (x for x in range(4) if x not in (i, j))
        g = _cross(tuple(map(sub, rel[k], rel[i])), a)
        h = _cross(tuple(map(sub, rel[m], rel[i])), a)
        edges.append((*a, *iverts[i], *g, *h))
    return edges


def _facet_separates_2d(facets, points) -> bool:
    # Some inward facet nu . x >= beta of one triangle has all three
    # points on or beyond its line.
    (x0, y0), (x1, y1), (x2, y2) = points
    for (a, b), beta in facets:
        if a * x0 + b * y0 <= beta and a * x1 + b * y1 <= beta and a * x2 + b * y2 <= beta:
            return True
    return False


def _facet_slacks_3d(facets, points) -> list[tuple[int, int, int, int]]:
    # Row f, column j: nu_f . p_j - beta_f, the side of facet f of one
    # simplex on which vertex j of the other lies (> 0 strictly inside).
    (x0, y0, z0), (x1, y1, z1), (x2, y2, z2), (x3, y3, z3) = points
    return [
        (
            a * x0 + b * y0 + c * z0 - beta,
            a * x1 + b * y1 + c * z1 - beta,
            a * x2 + b * y2 + c * z2 - beta,
            a * x3 + b * y3 + c * z3 - beta,
        )
        for (a, b, c), beta in facets
    ]


def _separated(first, second) -> bool:
    """Whether two annotated placements have disjoint interiors, exactly.

    Integer separating-axis test: two full-dimensional convex polytopes
    have disjoint interiors iff a facet normal u of their Minkowski
    difference weakly separates them, max(A . u) <= min(B . u) or the
    reverse.  Those normals are the facet normals of either simplex and,
    in dimension 3, the cross products u = a x d of an edge a of A and an
    edge d of B such that A meets the plane through a with normal u only
    in a, and B the plane through d only in d, from opposite sides.  The
    candidates run from cheap to dear: the coordinate axes (bounding
    boxes, complete in dimension 1), the stored facets (complete in
    dimension 2); in dimension 3 a vertex or centroid of one simplex
    strictly inside the other then proves overlap before the 36 edge
    pairs are tried.  Raises ValueError in dimension 4 or more, where
    mixed faces of higher dimension also give normals.
    """
    v1, box1, f1, e1, _ = first
    v2, box2, f2, e2, _ = second
    for (lo1, hi1), (lo2, hi2) in zip(box1, box2):
        if hi1 <= lo2 or hi2 <= lo1:
            return True
    n = len(box1)
    if n == 1:
        return False
    if n == 2:
        return _facet_separates_2d(f1, v2) or _facet_separates_2d(f2, v1)
    if n > 3:
        raise ValueError(f"the separating-axis test covers dimension <= 3, not {n}")
    slacks = (_facet_slacks_3d(f1, v2), _facet_slacks_3d(f2, v1))
    for rows in slacks:
        for row in rows:
            if max(row) <= 0:
                return True
    for rows in slacks:
        # A vertex, or the centroid (the column sum), strictly inside.
        if max(map(min, zip(*rows))) > 0 or min(map(sum, rows)) > 0:
            return False
    for a0, a1, a2, px, py, pz, g0, g1, g2, h0, h1, h2 in e1:
        for d0, d1, d2, qx, qy, qz, k0, k1, k2, m0, m1, m2 in e2:
            # u = a x d is a facet normal of A - B only if both vertices
            # of A off a lie strictly on one side of the plane through a
            # and both of B's off d strictly on the other side.  A zero
            # puts a facet of A or B in the plane, which the facet step
            # has tried; a x d = 0 makes every product zero.
            s = d0 * g0 + d1 * g1 + d2 * g2
            t = d0 * h0 + d1 * h1 + d2 * h2
            if s * t <= 0:
                continue
            side = 1 if s > 0 else -1  # A lies in side * u . (x - p) >= 0
            # For B, side * u . w < 0 with u . w = -(a . (w x d)).
            if side * (a0 * k0 + a1 * k1 + a2 * k2) <= 0:
                continue
            if side * (a0 * m0 + a1 * m1 + a2 * m2) <= 0:
                continue
            u0 = a1 * d2 - a2 * d1
            u1 = a2 * d0 - a0 * d2
            u2 = a0 * d1 - a1 * d0
            if side * (u0 * (px - qx) + u1 * (py - qy) + u2 * (pz - qz)) >= 0:
                return True
    return False


def _build_simplex(entry) -> SimplexImage:
    capacity, matrix, tau, scale = entry[-1]
    g = SpecialAffineTransform(matrix, tuple(Fraction(t, scale) for t in tau))
    return SimplexImage(capacity, g)


def _find_disjoint_pair(first, second):
    """First pair (lex order) with disjoint interiors, or None; when
    `second` is `first`, only pairs of two distinct entries count.

    Every pair is decided exactly by the integer separating-axis test
    `_separated`, so None means that no pair of the two lists packs; the
    rational LP of `interiors_disjoint` is left to the verifier.
    """
    for i, entry1 in enumerate(first):
        for entry2 in second[i + 1 :] if first is second else second:
            if _separated(entry1, entry2):
                return _build_simplex(entry1), _build_simplex(entry2)
    return None


def search_two_balls(
    domain: ToricDomain, config: SearchConfig
) -> PackingCertificate | None:
    """Bisection on the packed total below a proven ceiling.

    Returns the best certificate found, after one call of
    `verify_certificate` on it, or None when no probed total packs.  No
    SL_n(Z) matrix has a zero row, so a simplex image of capacity c spans
    at least c along every axis: no placement has a capacity above the
    least width w of the bounding box, and no total above 2w packs.  The
    ceiling is the closed-form c_2B (at most 2w) for ellipsoids and
    polydisks and 2w for other polytopes.  A probe that packs at the
    ceiling ends the search; otherwise it bisects on [0, ceiling].
    """
    polytope = moment_polytope(domain)
    # Refuses a too-large enumeration before doing any of it.
    matrices = _unimodular_matrices(polytope.dimension, config.matrix_entry_bound)
    box = polytope.bounding_box()  # raises for unbounded input
    q = config.translation_grid
    # A split's scale is the lcm of q, these and its two capacities'
    # denominators, so that both placement lists share one integer grid.
    denominators = [beta.denominator for _, beta in polytope.constraints]
    denominators += [x.denominator for side in box for x in side]
    try:
        ceiling = c2b_closed_form(domain).value
    except ValueError:  # no closed form for a general polytope
        ceiling = 2 * min(hi - lo for lo, hi in box)

    def scan_data(capacity: Fraction, scale: int) -> list:
        raw = _contained_placements(polytope, box, capacity, matrices, q, scale)
        return _annotate(_trim(raw), scale, capacity)

    def probe(total: Fraction) -> PackingCertificate | None:
        splits = [(total / 2, total / 2)]
        if not config.equal_balls:
            splits += [(total / 3, 2 * total / 3), (total / 4, 3 * total / 4)]
        for cap_a, cap_b in splits:
            scale = math.lcm(q, *denominators, cap_a.denominator, cap_b.denominator)
            first = scan_data(cap_a, scale)
            if not first:
                continue
            second = first if cap_b == cap_a else scan_data(cap_b, scale)
            pair = _find_disjoint_pair(first, second)
            if pair is not None:
                return PackingCertificate(pair, domain, total)
        return None

    best = probe(ceiling)
    if best is None:
        low, high = Fraction(0), ceiling
        while high - low > rat(config.bisection_tolerance):
            mid = (low + high) / 2
            certificate = probe(mid)
            if certificate is None:
                high = mid
            else:
                best, low = certificate, mid
    if best is not None and not verify_certificate(best):
        raise AssertionError("search certificate failed verification")
    return best
