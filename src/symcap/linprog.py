"""Small exact linear programming over the rationals.

A dense two-phase simplex method with Bland's anti-cycling rule.  Every
entry is a `Fraction`, so feasibility and optimality verdicts are exact.
Problem sizes in this package are tiny (a handful of variables in
dimension <= 8), so no attempt is made at sparse or revised variants.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _pivot(tableau: list[list[Fraction]], basis: list[int], row: int, col: int) -> None:
    piv = tableau[row][col]
    tableau[row] = [entry / piv for entry in tableau[row]]
    for r, line in enumerate(tableau):
        if r != row and line[col] != 0:
            factor = line[col]
            pivot_line = tableau[row]
            tableau[r] = [a - factor * b for a, b in zip(line, pivot_line)]
    basis[row] = col


def _run_simplex(tableau: list[list[Fraction]], basis: list[int], ncols: int) -> str:
    """Iterate on a tableau whose last row is the objective (to be maximized).

    The objective row stores reduced costs as `z_j - c_j`; a negative
    entry marks an improving column.  Bland's rule: pick the lowest
    eligible column, then the lowest-index basic row among the minimal
    ratios, which guarantees termination.
    """
    m = len(tableau) - 1
    while True:
        obj = tableau[-1]
        col = next((j for j in range(ncols) if obj[j] < 0), None)
        if col is None:
            return OPTIMAL
        best_row = None
        best_ratio = None
        for r in range(m):
            coeff = tableau[r][col]
            if coeff > 0:
                ratio = tableau[r][-1] / coeff
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[r] < basis[best_row])
                ):
                    best_ratio = ratio
                    best_row = r
        if best_row is None:
            return UNBOUNDED
        _pivot(tableau, basis, best_row, col)


def solve_lp(
    objective: Sequence[Fraction],
    a_eq: Sequence[Sequence[Fraction]],
    b_eq: Sequence[Fraction],
) -> tuple[str, list[Fraction] | None, Fraction | None]:
    """Maximize objective . x subject to a_eq x = b_eq and x >= 0.

    Returns (status, x, value); x and value are None unless optimal.
    """
    m = len(a_eq)
    n = len(objective)
    rows = [[Fraction(v) for v in row] for row in a_eq]
    rhs = [Fraction(v) for v in b_eq]
    for r in range(m):
        if len(rows[r]) != n:
            raise ValueError("ragged constraint matrix")
        if rhs[r] < 0:
            rows[r] = [-v for v in rows[r]]
            rhs[r] = -rhs[r]

    # Phase 1: minimize the sum of artificial variables.
    total = n + m
    tableau = [rows[r] + [_ONE if j == r else _ZERO for j in range(m)] + [rhs[r]] for r in range(m)]
    basis = [n + r for r in range(m)]
    phase1 = [-sum((line[j] for line in tableau), _ZERO) for j in range(total + 1)]
    for j in range(n, total):
        phase1[j] += _ONE
    tableau.append(phase1)
    _run_simplex(tableau, basis, total)
    if tableau[-1][-1] != 0:
        return INFEASIBLE, None, None

    # Drive any lingering artificial variables out of the basis.
    for r in range(m):
        if basis[r] >= n:
            col = next((j for j in range(n) if tableau[r][j] != 0), None)
            if col is not None:
                _pivot(tableau, basis, r, col)
    keep_rows = [r for r in range(m) if basis[r] < n]
    tableau = [[tableau[r][j] for j in range(n)] + [tableau[r][-1]] for r in keep_rows]
    basis = [basis[r] for r in keep_rows]

    # Phase 2: rebuild the reduced-cost row for the real objective.
    cost = [Fraction(v) for v in objective]
    obj = [-cost[j] for j in range(n)] + [_ZERO]
    for r, bj in enumerate(basis):
        if obj[bj] != 0:
            factor = obj[bj]
            obj = [a - factor * b for a, b in zip(obj, tableau[r])]
    tableau.append(obj)
    status = _run_simplex(tableau, basis, n)
    if status != OPTIMAL:
        return status, None, None
    x = [_ZERO] * n
    for r, bj in enumerate(basis):
        x[bj] = tableau[r][-1]
    value = sum((cost[j] * x[j] for j in range(n)), _ZERO)
    return OPTIMAL, x, value

