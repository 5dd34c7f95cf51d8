"""Test-only reference for the placement enumeration: the per-matrix scan.

`packing._contained_placements` computes every matrix's facet heights a
column at a time, scans each slack vector's translations only inside the
window that keeps its simplex in the bounding box, and lists only the two
ends of each run of translations that share a prefix (one grid line),
computed for all prefixes a halfspace at a time.  This is the scan it
replaced: per matrix, one dot product per facet and column; per new slack
vector, a scan of every leading-axis grid point of the box, listing every
contained translation.  The tests fill each pair of run ends in at the
grid step and then require both to return the same families, in the same
order, with the same translation order.
"""

from __future__ import annotations

from itertools import product
from operator import mul

from symcap.exactgeom import Polytope


def contained_placements(
    polytope: Polytope, box, capacity, matrices, q: int, scale: int
) -> list:
    """(taus, matrices) families, as `packing._contained_placements`."""
    n = polytope.dimension
    step = scale // q
    c_scaled = int(capacity * scale)
    if not 0 < c_scaled <= min(int((hi - lo) * scale) for lo, hi in box):
        return []

    axis_ranges = [range(int(lo * scale), int(hi * scale) + 1, step) for lo, hi in box]

    normals = [nu for nu, _ in polytope.constraints]
    betas = [int(beta * scale) for _, beta in polytope.constraints]
    lasts = [nu[-1] for nu in normals]
    # The leading axes are iterated and the last one solved: each
    # constraint is affine in tau, so the feasible last coordinate is an
    # integer interval.
    prefixes = [
        (prefix, [sum(nu[i] * prefix[i] for i in range(n - 1)) for nu in normals])
        for prefix in product(*axis_ranges[:-1])
    ]
    last = axis_ranges[-1]
    last_lo, last_hi = last.start, last[-1]

    families: dict[tuple, tuple] = {}
    for matrix in matrices:
        columns = list(zip(*matrix))
        slacks = tuple(
            beta - c_scaled * max(0, *[sum(map(mul, nu, col)) for col in columns])
            for nu, beta in zip(normals, betas)
        )
        if slacks not in families:
            taus = []
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
            families[slacks] = (taus, [])
        families[slacks][1].append(matrix)
    return [family for family in families.values() if family[0]]
