"""Test-only LP helpers on top of `solve_lp`.

`maximize_over_polytope` is inequality-form maximisation, which the
package itself never needs; it serves the LP tests and the LP reference
for bounding boxes.  `interiors_disjoint_lp` is the reference verdict for
`exactgeom.interiors_disjoint`.
"""

from fractions import Fraction
from typing import Sequence

from symcap.exactgeom import SimplexImage, simplex_vertices
from symcap.linprog import INFEASIBLE, OPTIMAL, solve_lp


def maximize_over_polytope(
    objective: Sequence[Fraction],
    a_ub: Sequence[Sequence[Fraction]],
    b_ub: Sequence[Fraction],
) -> tuple[str, Fraction | None]:
    """Maximize objective . x subject to a_ub x <= b_ub and x >= 0, with
    one slack variable per row."""
    m = len(a_ub)
    rows = [
        list(row) + [Fraction(int(j == r)) for j in range(m)] for r, row in enumerate(a_ub)
    ]
    cost = list(objective) + [Fraction(0)] * m
    status, _, value = solve_lp(cost, rows, list(b_ub))
    return status, value


def interiors_disjoint_lp(s1: SimplexImage, s2: SimplexImage) -> bool:
    """True iff the open simplices do not meet, by the LP alone.

    No pre-check, and the rows hold the Fraction vertices: the interiors
    meet iff max{t : sum l_i v_i = sum m_j w_j, coordinates >= t,
    barycentric sums = 1} is positive.  Variables l_0..l_n, m_0..m_n, t,
    all >= 0, with the true barycentric weights being l_i + t and m_j + t.
    """
    v = simplex_vertices(s1)
    w = simplex_vertices(s2)
    k = len(v)
    a_eq = []
    b_eq = []
    for axis in range(k - 1):
        row = [v[i][axis] for i in range(k)]
        row += [-w[j][axis] for j in range(k)]
        row.append(sum(v[i][axis] for i in range(k)) - sum(w[j][axis] for j in range(k)))
        a_eq.append(row)
        b_eq.append(Fraction(0))
    a_eq.append([Fraction(1)] * k + [Fraction(0)] * k + [Fraction(k)])
    b_eq.append(Fraction(1))
    a_eq.append([Fraction(0)] * k + [Fraction(1)] * k + [Fraction(k)])
    b_eq.append(Fraction(1))
    objective = [Fraction(0)] * (2 * k) + [Fraction(1)]
    status, _, value = solve_lp(objective, a_eq, b_eq)
    if status == INFEASIBLE:
        return True
    assert status == OPTIMAL
    return value == 0
