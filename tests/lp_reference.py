"""Test-only LP helper: inequality-form maximisation on top of `solve_lp`.

The package itself only needs equality-form LPs; this wrapper serves the
LP tests and the LP reference for bounding boxes.
"""

from fractions import Fraction
from typing import Sequence

from symcap.linprog import solve_lp


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
