"""Two-ball packings of moment polytopes.

A packing certificate exhibits two simplex images with disjoint
interiors inside a moment polytope; the sum of their capacities is an
exact lower bound for the two-ball capacity of the domain.  Canonical
certificates reproduce the standard decompositions of long ellipsoids
and polydisks; the search is a certified lower-bound engine over a
bounded slice of the special affine group, never an exact optimizer.

Each probe of the search decides, in integer arithmetic, whether any two
contained grid placements have disjoint interiors, with one sweep over
the directions that can separate them (`_find_disjoint_pair`); a failed
probe is a complete scan of its grid.  A probe lists only the two ends
of each grid line of contained translations (`_contained_placements`),
where every direction finds its lowest value on the line.  A search
keeps what does not depend on the capacity across its probes: one memo
entry per fitting matrix list, its facet-height groups, so each list is
enumerated and grouped once, and the sweep's directions of each matrix
set.  The verifier keeps its own, independent implementation, the box
and facet checks plus the rational LP of `interiors_disjoint`, and every
returned certificate has passed it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, permutations, product, repeat
from operator import add, and_, floordiv, le, mul, neg, sub

from .capacities import c2b_closed_form
from .exactgeom import (
    ELLIPSOID,
    POLYDISK,
    DimensionMismatch,
    Polytope,
    SimplexImage,
    SpecialAffineTransform,
    ToricDomain,
    cofactor_vector,
    contains,
    interiors_disjoint,
    moment_polytope,
)
from .rationals import fmt, is_infinite, rat

# Work budget of the SL_n(Z) enumeration, in the (2B+1)^(n^2-1) tuples of
# its walk without spread limits, so that an admitted enumeration takes well
# under a second; a probe walks only the rows that fit the box at its
# capacity (`_fitting_spreads`), never more.  On a 2-vCPU Xeon with Python
# 3.11, n = 3, B = 2 walks 390,625 tuples in 0.06 s (22,568 matrices, one
# per simplex), and at capacity 1 on E(1,2,3)'s box it lists 3,272 of them
# in 0.005 s; n = 3, B = 3 would walk 5.8M tuples in about 1 s (213,608
# matrices) and n = 4, B = 1 14.3M, so both are refused.  In dimension 2
# the budget admits B <= 49.
ENUMERATION_BUDGET = 10**6

# Budget on the translation grid, in points of step 1/q on the bounding box,
# prod(floor(w_i q) + 1) over its widths w_i; each probe scans at most that
# grid once per slack vector, at a cost per grid line (run of the last
# coordinate), not per point.  On the same machine the quadrilateral {x, y
# >= 0, x + 2y <= 3, 2x + y <= 3} at q = 660 (982,081 points, 991 lines)
# searches in 0.04-0.08 s with a 17 MB peak, about 16.5 MB of it the
# interpreter and imports; `pack --search --grid 8` on E(1,2,7) has 8,721
# points.
GRID_BUDGET = 10**6


@dataclass(frozen=True)
class PackingCertificate:
    simplices: tuple[SimplexImage, SimplexImage]
    domain: ToricDomain
    total: Fraction

    def __post_init__(self):
        if any(s.dimension != self.domain.dimension for s in self.simplices):
            raise DimensionMismatch("simplices and domain differ in dimension")
        if self.total != self.simplices[0].capacity + self.simplices[1].capacity:
            raise ValueError("total must equal the sum of the two capacities")

    @cached_property
    def verified(self) -> bool:
        """`verify_certificate(self)`, computed on first read; not a field,
        so never passed in and never part of equality or hashing."""
        return verify_certificate(self)


@dataclass(frozen=True)
class SearchConfig:
    """Bounds for the packing search.

    Matrix entries range over [-B, B]; a search whose SL_n(Z) enumeration
    would walk more than ENUMERATION_BUDGET tuples is refused, and with it
    every search in dimension 4 or more.  Translations run on a grid of
    step 1/q over the polytope's bounding box, and a grid of more than
    GRID_BUDGET points is refused.  When ``equal_balls`` is
    false the search also probes the splits (t/3, 2t/3) and (t/4, 3t/4) of
    each total t.  Each probe sweeps every contained grid placement, so a
    failed probe proves that no pair on its grid packs at that split.  The
    bisection stops at the tolerance or at half the ceiling, whichever is
    less, so it halves an unpacked ceiling at least once; that is the
    search's only cut (see `search_two_balls`).
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
        object.__setattr__(self, "bisection_tolerance", rat(self.bisection_tolerance))
        if is_infinite(self.bisection_tolerance):
            raise ValueError("bisection tolerance must be finite")
        if self.bisection_tolerance <= 0:
            raise ValueError("bisection tolerance must be positive")


def verify_certificate(certificate: PackingCertificate) -> bool:
    """Recompute both containments and the interior disjointness exactly."""
    polytope = moment_polytope(certificate.domain)
    s1, s2 = certificate.simplices
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
    if domain.kind not in (ELLIPSOID, POLYDISK):
        raise ValueError("canonical certificates exist only for ellipsoids and polydisks")
    n = domain.dimension
    a1 = domain.params[0]
    if domain.kind == ELLIPSOID:
        a_top = domain.params[-1]
        if not is_infinite(a_top) and a_top < 2 * a1:
            raise ValueError(
                "no canonical two-ball certificate: largest axis below twice the smallest"
            )
        second = _ellipsoid_shear(n, a1)
    else:
        if n < 2:
            raise ValueError("polydisk certificate needs at least two factors")
        second = _corner_reflection(n, domain.params)
    if eps >= 2 * a1:
        raise ValueError("slack must be below twice the smallest parameter")
    capacity = a1 - eps / 2
    simplices = (
        SimplexImage(capacity, SpecialAffineTransform.identity(n)),
        SimplexImage(capacity, second),
    )
    certificate = PackingCertificate(simplices, domain, 2 * capacity)
    if not certificate.verified:
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
def _unimodular_matrices(n: int, bound: int, spreads=None) -> tuple:
    """One SL_n(Z) matrix per simplex, in lexicographic order: the first of
    each class of matrices with entries in [-bound, bound] that differ by
    an even column permutation (one image of the standard simplex).  With
    `spreads`, only the matrices whose row i r has spread max(max(r), 0) -
    min(min(r), 0) at most spreads[i]; None means no limit beyond the
    bound.

    Expanding det along the last row gives det = sum_j r_j C_j, where the
    cofactors C depend only on the first n - 1 rows.  So those rows, each
    among the rows within its spread, and the first n - 1 entries of the
    last row are walked in lexicographic order, and det = 1 is solved for
    the last entry; a prefix whose cofactors have gcd != 1 admits no last
    row, and a solved last row is kept only within its spread.  Before
    that, a prefix is skipped if an even column permutation makes it
    smaller.  One that such a permutation fixes has all-zero cofactors
    (three equal columns, or two pairs), so each kept matrix is below all
    its twins.  A column permutation keeps every row's spread, so a class
    is kept or dropped whole, and the list is the unlimited one filtered
    by spread.  Rows are shared between matrices.  Raises ValueError,
    before any enumeration, when the walk would exceed ENUMERATION_BUDGET
    tuples, whatever its spreads.
    """
    tuples = (2 * bound + 1) ** (n * n - 1)
    if tuples > ENUMERATION_BUDGET:
        raise ValueError(
            f"SL_{n}(Z) enumeration with entry bound {bound} walks {tuples} "
            f"tuples, above the budget of {ENUMERATION_BUDGET}"
        )
    if spreads is None:
        spreads = (2 * bound,) * n
    entries = range(-bound, bound + 1)
    width = len(entries)
    rows = list(product(entries, repeat=n))
    spread = [max(max(row), 0) - min(min(row), 0) for row in rows]
    # Per even column permutation but the first, the identity, the index of
    # each permuted row; rows are sorted, so indices compare as rows do.
    index = {row: i for i, row in enumerate(rows)}
    evens = [p for p in permutations(range(n)) if sum(a > b for a, b in combinations(p, 2)) % 2 == 0]
    twins = [[index[tuple(map(row.__getitem__, p))] for row in rows] for p in evens[1:]]
    admissible = [[i for i, s in enumerate(spread) if s <= limit] for limit in spreads[:-1]]
    # The last row's leading entries lie within its spread; bases[k] + r is
    # the index of the k-th choice of them, in lexicographic order,
    # completed by r.
    last_limit = spreads[-1]
    near = range(-min(bound, last_limit), min(bound, last_limit) + 1)
    bases = [0]
    for _ in range(n - 1):
        bases = [base * width + bound + r for base in bases for r in near]
    bases = [base * width + bound for base in bases]
    matrices = []
    for picks in product(*admissible):
        if any(tuple(map(twin.__getitem__, picks)) < picks for twin in twins):
            continue
        prefix = tuple(map(rows.__getitem__, picks))
        *cofactors, c_last = cofactor_vector(prefix)
        if math.gcd(*cofactors, c_last) != 1:
            continue
        # rems[k] = 1 - sum_{j<n} r_j C_j for the k-th choice of the last
        # row's leading entries.
        rems = [1]
        for c in cofactors:
            rems = [rem - r * c for rem in rems for r in near]
        for base, rem in zip(bases, rems):
            if c_last == 0:
                if rem == 0:
                    matrices.extend(
                        (*prefix, rows[base + r]) for r in entries if spread[base + r] <= last_limit
                    )
            elif rem % c_last == 0 and -bound <= rem // c_last <= bound:
                last = base + rem // c_last
                if spread[last] <= last_limit:
                    matrices.append((*prefix, rows[last]))
    return tuple(matrices)


def _fitting_spreads(bound: int, box, capacity: Fraction) -> tuple | None:
    """The row spreads that select, from `_unimodular_matrices`, the
    matrices whose capacity-`capacity` simplex image fits the box: row i
    spans c times its spread along axis i, so its spread is at most
    floor(w_i / c) for the box width w_i.  Limits are clamped to 2 * bound,
    the widest spread of a row, so that small capacities share one list,
    and the standard simplex fits them all.  None when c is not positive or
    exceeds the box's least width."""
    widths = [hi - lo for lo, hi in box]
    if not 0 < capacity <= min(widths):
        return None
    return tuple(min(2 * bound, math.floor(w / capacity)) for w in widths)


def _contained_placements(
    polytope: Polytope, box, capacity: Fraction, groups, q: int, scale: int
) -> list:
    """The grid placements of a capacity-`capacity` simplex inside the
    polytope, as (taus, matrices) families, one per slack vector that has
    any, from the matrices' height groups (`_height_groups`).  The
    contained translations * scale that share all but the last coordinate
    (a prefix) form one run on one grid line; taus lists each run's first
    and last translation, one when they coincide, in lexicographic order,
    and every matrix of the family has those runs.  Families and their
    matrices keep the order of `groups`.  `scale` is a common multiple of q
    and of the denominators of the offsets, the box and the capacity.

    Along any u, u . tau is affine on a run, so its lowest value lies at an
    end, and the first end in list order at it is the first translation of
    the whole run at it: the ends lose no placement that the sweep
    (`_find_disjoint_pair`) returns.

    Works in integer arithmetic: containment of g = (M, tau) reduces to
    nu . tau <= beta - c h_nu(M) per halfspace, with the facet height
    h_nu(M) = max(0, max_j nu . M e_j).  That is linear in tau, so the
    translations depend on M only through these slacks, which the heights
    give one to one at every capacity.  A group's translations are scanned
    only inside the window that keeps its first matrix in the bounding box:
    row i of M spans tau_i + c [min(0, min row_i), max(0, max row_i)].
    Containment in the polytope implies containment in its box, and the
    matrices of a family share their translations, so no placement is
    lost; a matrix whose image does not fit the box gets an empty window
    and no scan.  Every run's ends
    come from the window's prefixes a halfspace at a time, by `_dots` on
    the prefixes' coordinates.  Empty when c is not positive or exceeds the
    box's least width.
    """
    step = scale // q
    c_scaled = int(capacity * scale)
    if not 0 < c_scaled <= min(int((hi - lo) * scale) for lo, hi in box):
        return []
    los = [int(lo * scale) for lo, _ in box]
    his = [int(hi * scale) for _, hi in box]

    normals = [nu for nu, _ in polytope.constraints]
    betas = [int(beta * scale) for _, beta in polytope.constraints]
    last_lo = los[-1]
    families = []
    for key, members in groups.items():
        # The box window of axis i, as indices k of grid points lo_i + k *
        # step: tau_i + c [min(0, min row_i), max(0, max row_i)] lies in
        # [lo_i, hi_i].  Its end is taken from hi_i, not from the last grid
        # point, which c max(0, max row_i) need not keep on the grid.
        matrix = members[0]
        firsts = [-(c_scaled * min(0, *row) // step) for row in matrix]
        ends = [
            (hi - lo - c_scaled * max(0, *row)) // step for lo, hi, row in zip(los, his, matrix)
        ]
        if any(k0 > k1 for k0, k1 in zip(firsts, ends)):
            continue
        prefixes = list(product(*(
            range(lo + k0 * step, lo + k1 * step + 1, step)
            for lo, k0, k1 in zip(los[:-1], firsts, ends)
        )))
        table = list(zip(*prefixes))
        # On the grid line of a prefix, tau_n = last_lo + k step, so for nu
        # = (lead, c), nu . tau <= slack reads c k step <= offset - lead .
        # prefix with offset = slack - c last_lo: an upper bound on k when
        # c > 0, a lower one when c < 0, and with c = 0 a mask on the lines.
        fits, lows, highs = repeat(True), repeat(firsts[-1]), repeat(ends[-1])
        for (*lead, c), beta, h in zip(normals, betas, key):
            offset = beta - c_scaled * h - c * last_lo
            dots = _dots(lead, table) if any(lead) else repeat(0)
            if c == 0:
                fits = map(and_, fits, map(le, dots, repeat(offset)))
                continue
            e = map(floordiv, map(sub, repeat(offset), dots), repeat(abs(c) * step))
            if c > 0:
                highs = map(min, highs, e)
            else:
                lows = map(max, lows, map(neg, e))
        taus = []
        for prefix, fit, k0, k1 in zip(prefixes, fits, lows, highs):
            if fit and k0 <= k1:
                taus.append((*prefix, last_lo + k0 * step))
                if k0 < k1:
                    taus.append((*prefix, last_lo + k1 * step))
        if taus:
            families.append((taus, members))
    return families


def _height_groups(polytope: Polytope, matrices) -> dict[tuple, list]:
    """The matrices, in order, grouped by their facet heights (h_nu(M) per
    halfspace nu of the polytope), which give the slacks at every capacity
    one to one; the heights are computed for every matrix at once, by
    `_dots` on the coordinates of the matrices' columns."""
    # entries[i][j] holds entry (i, j) of every matrix, in order, so
    # columns[j] holds the coordinates of every matrix's column j.  The
    # rows are transposed one at a time, which keeps the peak low.
    entries = [list(zip(*row)) for row in zip(*matrices)]
    columns = list(zip(*entries))
    heights = [
        map(max, repeat(0), *(_dots(nu, column) for column in columns))
        for nu, _ in polytope.constraints
    ]
    groups: dict[tuple, list] = {}
    for key, matrix in zip(zip(*heights), matrices):
        groups.setdefault(key, []).append(matrix)
    return groups


def _dots(u, coordinates):
    """u . v for every vector v, lazily and in order, from the vectors'
    coordinates column by column: coordinates[i] holds the i-th coordinate
    of every v.  Zero entries of u cost nothing and +-1 no product
    (`_times`); u is not zero."""
    terms = [_times(a, column) for a, column in zip(u, coordinates) if a]
    dots = terms[0]
    for term in terms[1:]:
        dots = map(add, dots, term)
    return dots


def _times(a: int, values):
    """a * v for each v of `values`, lazily: `values` itself for a = 1, one
    negation each for a = -1."""
    if a == 1:
        return values
    if a == -1:
        return map(neg, values)
    return map(mul, repeat(a), values)


def _primitive(vector) -> tuple[int, ...] | None:
    """The primitive integer vector on the line of `vector`, of the sign
    that is lexicographically larger; None for zero."""
    g = math.gcd(*vector)
    v = tuple(x // (g or 1) for x in vector)
    return max(v, tuple(map(neg, v))) if g else None


def _find_disjoint_pair(cap_a, first, cap_b, second, scale: int, directions: dict):
    """Two placements with disjoint interiors, one from each list, or None.

    `first` and `second` are (taus, matrices) families, as from
    `_contained_placements` at the integer `scale`, with capacities `cap_a`
    and `cap_b`; when `second` is `first`, both come from that list.  None
    is a complete scan.

    Convex bodies A and B have disjoint interiors iff a facet normal u of
    A - B weakly separates them, max u.A <= min u.B (the separating-axis
    theorem).  A facet of A - B is spanned by edges of A and B, so U, the
    primitive cofactor vectors of every n - 1 edge directions (matrix
    columns and their differences) of the placements, with both signs,
    holds every such normal, in any dimension.  Along u, (M, tau) with
    capacity c spans u.tau + c [min(0, u.M e_j), max(0, u.M e_j)]; the
    lists pack iff for some u the lowest max in `first` is at most the
    highest min in `second`.  A simplex has min < max along u, so when one
    placement holds both extremes (or is paired with itself) u fails; a
    simplex listed twice, under two matrices, costs work but no answer.

    Deterministic rule: the first u of sorted U that passes, then at each
    extreme the lexicographically smallest matrix, with its first
    translation in list order.

    U depends only on the set of matrices (`_directions`); `directions` is
    a dict from matrix sets to their U that the caller keeps across
    probes.
    """
    if not first or not second:
        return None
    columns: dict[tuple, int] = {}
    # Per family: its taus, their coordinates, its matrices and, per column
    # slot, the matrices' column indices into `columns`.  `first` leads,
    # `second` ends the list.
    families = [
        (taus, list(zip(*taus)), matrices, [
            [columns.setdefault(col, len(columns)) for col in slot]
            for slot in zip(*(zip(*matrix) for matrix in matrices))
        ])
        for taus, matrices in (first if second is first else first + second)
    ]
    families_a, families_b = families[: len(first)], families[-len(second) :]
    # The distinct columns' coordinates, in index order.
    table = list(zip(*columns))
    matrices = frozenset(matrix for _, _, members, _ in families for matrix in members)
    if matrices not in directions:
        directions[matrices] = _directions(matrices, len(table))

    c_a, c_b = int(cap_a * scale), int(cap_b * scale)
    for u in directions[matrices]:
        dots = list(_dots(u, table))
        values = [list(_dots(u, coordinates)) for _, coordinates, _, _ in families]
        # The highest min along u is minus the lowest max along -u; it
        # bounds the families of `first` worth a look.
        negated = [list(map(neg, line)) for line in values[-len(second) :]]
        b = _lowest_max(families_b, negated, list(map(neg, dots)), c_b)
        a = _lowest_max(families_a, values[: len(first)], dots, c_a, -b[0])
        if a is not None and a[0] <= -b[0]:
            return _placement(cap_a, a, scale), _placement(cap_b, b, scale)
    return None


def _directions(matrices, n: int) -> list:
    """U, sorted: the primitive cofactor vectors, with both signs, of every
    n - 1 edge directions of the matrices' simplices (their columns and the
    columns' differences)."""
    edges = set()
    for matrix in matrices:
        cols = list(zip(*matrix))
        cols += [tuple(map(sub, p, r)) for p, r in combinations(cols, 2)]
        edges.update(map(_primitive, cols))
    directions = set()
    for rows in combinations(sorted(edges), n - 1):
        u = _primitive(cofactor_vector(rows))
        if u is not None:
            directions.update((u, tuple(map(neg, u))))
    return sorted(directions)


def _lowest_max(families, values, dots, capacity: int, bound=math.inf):
    """(value, matrix, tau) of the placement with the lowest max along u,
    the smaller matrix on ties, and of its translations the first in list
    order at the lowest u.tau (values[k] holds u.tau for family k).  Only
    families whose lowest u.tau is at most `bound` are looked at (others
    have no max below it)."""
    best = None
    for (taus, _, matrices, index), line in zip(families, values):
        low = min(line)
        if low <= bound:
            heights = map(max, repeat(0), *[map(dots.__getitem__, slot) for slot in index])
            height, matrix = min(zip(heights, matrices))
            found = (low + capacity * height, matrix)
            if best is None or found < best[:2]:
                best = (*found, taus[line.index(low)])
    return best


def _placement(capacity, found, scale) -> SimplexImage:
    _, matrix, tau = found
    translation = tuple(Fraction(t, scale) for t in tau)
    return SimplexImage(capacity, SpecialAffineTransform(matrix, translation))


def search_ceiling(domain: ToricDomain, box) -> Fraction:
    """The total at which `search_two_balls` starts, a proven upper bound.

    No SL_n(Z) matrix has a zero row, so a simplex image of capacity c
    spans at least c along every axis: no total above twice the least
    width w of the bounding box `box` packs, and in dimension 1 none above
    w.  The ceiling is the closed-form c_2B for ellipsoids and polydisks
    and that bound for other polytopes.  A positive ceiling that does not
    pack is followed by at least one lower probe, at half of it.
    """
    try:
        return c2b_closed_form(domain).value
    except ValueError:  # no closed form for a general polytope
        width = min(hi - lo for lo, hi in box)
        return width if len(box) == 1 else 2 * width


def search_two_balls(domain: ToricDomain, config: SearchConfig) -> PackingCertificate:
    """Bisection on the packed total below a proven ceiling.

    Returns the best certificate found, whose `verified` it has read, or
    raises ValueError naming the ceiling and the tolerance when no probed
    total packs.  The ceiling is `search_ceiling`'s.  A probe that packs
    at the ceiling ends the search; otherwise it bisects on [0, ceiling]
    while the interval is wider than the tolerance or half the ceiling,
    whichever is less, so a positive ceiling that does not pack is always
    followed by a probe at half of it.  A probe sweeps every contained
    grid placement (`_find_disjoint_pair`), so a failed probe is a proof
    for its grid.
    """
    polytope = moment_polytope(domain)
    box = polytope.bounding_box()  # raises for unbounded input
    q = config.translation_grid
    points = math.prod(math.floor((hi - lo) * q) + 1 for lo, hi in box)
    if points > GRID_BUDGET:
        raise ValueError(
            f"translation grid of step 1/{q} has {points} points on the "
            f"bounding box, above the budget of {GRID_BUDGET}"
        )
    bound = config.matrix_entry_bound
    # A split's scale is the lcm of q, these and its two capacities'
    # denominators, so that both placement lists share one integer grid.
    denominators = [beta.denominator for _, beta in polytope.constraints]
    denominators += [x.denominator for side in box for x in side]
    ceiling = search_ceiling(domain, box)

    # Kept across the probes: the height groups of each fitting list, which
    # do not depend on the capacity, by the spreads that select the list
    # (never empty: the standard simplex fits every spread); and the sweep's
    # directions, by matrix set.
    heights: dict[tuple, dict] = {}
    directions: dict[frozenset, list] = {}

    def placements(capacity: Fraction, scale: int) -> list:
        spreads = _fitting_spreads(bound, box, capacity)
        if spreads is None:
            return []
        if spreads not in heights:
            fitting = _unimodular_matrices(polytope.dimension, bound, spreads)
            heights[spreads] = _height_groups(polytope, fitting)
        return _contained_placements(polytope, box, capacity, heights[spreads], q, scale)

    def probe(total: Fraction) -> PackingCertificate | None:
        splits = [(total / 2, total / 2)]
        if not config.equal_balls:
            splits += [(total / 3, 2 * total / 3), (total / 4, 3 * total / 4)]
        for cap_a, cap_b in splits:
            scale = math.lcm(q, *denominators, cap_a.denominator, cap_b.denominator)
            first = second = placements(cap_a, scale)
            if first and cap_b != cap_a:
                second = placements(cap_b, scale)
            pair = _find_disjoint_pair(cap_a, first, cap_b, second, scale, directions)
            if pair is not None:
                return PackingCertificate(pair, domain, total)
        return None

    best = probe(ceiling)
    if best is None:
        low, high = Fraction(0), ceiling
        while high - low > min(config.bisection_tolerance, ceiling / 2):
            mid = (low + high) / 2
            certificate = probe(mid)
            if certificate is None:
                high = mid
            else:
                best, low = certificate, mid
    if best is None:
        raise ValueError(
            f"search found no verified placement: no total packs below the ceiling "
            f"{fmt(ceiling)}, bisected to a tolerance of {fmt(config.bisection_tolerance)}"
        )
    if not best.verified:
        raise AssertionError("search certificate failed verification")
    return best
