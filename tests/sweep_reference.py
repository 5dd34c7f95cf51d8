"""Test-only reference for the packing search's direction sweep.

`packing._find_disjoint_pair` computes every integer dot product of the
sweep with `packing._dots`, from the coordinates of the distinct columns
and of each family's translations, and `packing._lowest_max` returns the
winning translation itself.  This is the sweep it replaced: one
`sum(map(mul, ...))` per column and per translation, and a second pass
over the winning family in `_placement` for the translation.  The tests
require both to return the same pair, or None.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, repeat
from operator import mul, neg, sub

from symcap.exactgeom import SimplexImage, SpecialAffineTransform, cofactor_vector
from symcap.packing import _primitive


def find_disjoint_pair(cap_a, first, cap_b, second, scale: int):
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
    """
    if not first or not second:
        return None
    columns: dict[tuple, int] = {}
    # Per family: its taus, its matrices and, per column slot, the matrices'
    # column indices into `columns`.  `first` leads, `second` ends the list.
    families = [
        (taus, matrices, [
            [columns.setdefault(col, len(columns)) for col in slot]
            for slot in zip(*(zip(*matrix) for matrix in matrices))
        ])
        for taus, matrices in (first if second is first else first + second)
    ]
    families_a, families_b = families[: len(first)], families[-len(second) :]
    edges = set()
    for _, matrices, _ in families:
        for matrix in matrices:
            cols = list(zip(*matrix))
            cols += [tuple(map(sub, p, r)) for p, r in combinations(cols, 2)]
            edges.update(map(_primitive, cols))
    distinct = list(columns)
    directions = set()
    for rows in combinations(sorted(edges), len(distinct[0]) - 1):
        u = _primitive(cofactor_vector(rows))
        if u is not None:
            directions.update((u, tuple(map(neg, u))))

    c_a, c_b = int(cap_a * scale), int(cap_b * scale)
    for u in sorted(directions):
        dots = [sum(map(mul, u, col)) for col in distinct]
        values = [[sum(map(mul, u, tau)) for tau in taus] for taus, _, _ in families]
        # The highest min along u is minus the lowest max along -u; it
        # bounds the families of `first` worth a look.
        highs = [-max(v) for v in values[-len(second) :]]
        lows = [min(v) for v in values[: len(first)]]
        b = _lowest_max(families_b, highs, [-d for d in dots], c_b)
        a = _lowest_max(families_a, lows, dots, c_a, -b[0])
        if a is not None and a[0] <= -b[0]:
            return _placement(cap_a, a, u, scale), _placement(cap_b, b, u, scale, -1)
    return None


def _lowest_max(families, lows, dots, capacity: int, bound=math.inf):
    """(value, matrix, taus) of the placement with the lowest max along u,
    the smaller matrix on ties, among the families whose lowest u.tau (in
    `lows`) is at most `bound` (others have no max below it)."""
    best = None
    for (taus, matrices, index), low in zip(families, lows):
        if low <= bound:
            heights = map(max, repeat(0), *[map(dots.__getitem__, slot) for slot in index])
            height, matrix = min(zip(heights, matrices))
            found = (low + capacity * height, matrix, taus)
            if best is None or found[:2] < best[:2]:
                best = found
    return best


def _placement(capacity, found, u, scale, sign=1) -> SimplexImage:
    # The found matrix with its first translation at the lowest sign * u.tau.
    _, matrix, taus = found
    tau = min(taus, key=lambda t: sign * sum(map(mul, u, t)))
    translation = tuple(Fraction(t, scale) for t in tau)
    return SimplexImage(capacity, SpecialAffineTransform(matrix, translation))

