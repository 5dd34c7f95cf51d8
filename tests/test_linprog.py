from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from symcap.exactgeom import cofactor_vector, int_det
from symcap.linprog import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_lp

from lp_reference import maximize_over_polytope

F = Fraction


def test_simple_equality_lp():
    # max x + y  s.t.  x + y + s = 1
    status, x, value = solve_lp(
        [F(1), F(1), F(0)], [[F(1), F(1), F(1)]], [F(1)]
    )
    assert status == OPTIMAL
    assert value == 1


def test_infeasible():
    # x = -1 with x >= 0 is impossible.
    status, x, value = solve_lp([F(1)], [[F(1)], [F(1)]], [F(1), F(2)])
    assert status == INFEASIBLE


def test_unbounded():
    status, value = maximize_over_polytope([F(1), F(0)], [[F(-1), F(0)]], [F(0)])
    assert status == UNBOUNDED


def test_box_maximum_is_exact():
    # max 2x + 3y over the unit square.
    a_ub = [[F(1), F(0)], [F(0), F(1)]]
    status, value = maximize_over_polytope([F(2), F(3)], a_ub, [F(1), F(1)])
    assert status == OPTIMAL
    assert value == 5


def test_fractional_vertex():
    # max x + y over x + 2y <= 1, 2x + y <= 1: optimum at (1/3, 1/3).
    a_ub = [[F(1), F(2)], [F(2), F(1)]]
    status, value = maximize_over_polytope([F(1), F(1)], a_ub, [F(1), F(1)])
    assert status == OPTIMAL
    assert value == F(2, 3)


def test_degenerate_cycling_guard():
    # A classic degenerate instance; Bland's rule must terminate.
    a_ub = [
        [F(1, 4), F(-8), F(-1), F(9)],
        [F(1, 2), F(-12), F(-1, 2), F(3)],
        [F(0), F(0), F(1), F(0)],
    ]
    b_ub = [F(0), F(0), F(1)]
    objective = [F(3, 4), F(-20), F(1, 2), F(-6)]
    status, value = maximize_over_polytope(objective, a_ub, b_ub)
    assert status == OPTIMAL
    assert value == F(5, 4)


# ---------------------------------------------------------------------------
# Cross-check against brute-force vertex enumeration
# ---------------------------------------------------------------------------


def _brute_force(objective, a_ub, b_ub):
    """max c . x over {A x <= b, x >= 0} by enumerating vertices and the
    extreme rays of the recession cone; returns (status, value)."""
    n = len(objective)
    rows = [(row, b) for row, b in zip(a_ub, b_ub)]
    rows += [(tuple(-int(i == j) for j in range(n)), 0) for i in range(n)]

    def feasible(x, scale=1):
        return all(sum(a * v for a, v in zip(row, x)) <= b * scale for row, b in rows)

    vertices = []
    for tight in combinations(rows, n):
        det = int_det([row for row, _ in tight])
        if det == 0:
            continue
        # Cramer's rule: x_k = det(A with column k replaced by b) / det.
        x = [
            Fraction(int_det([row[:k] + (b,) + row[k + 1 :] for row, b in tight]), det)
            for k in range(n)
        ]
        if feasible(x):
            vertices.append(x)
    if not vertices:
        return INFEASIBLE, None  # x >= 0 makes a nonempty region have a vertex
    # The recession cone {d : A d <= 0, d >= 0} is pointed, so it is spanned
    # by its extreme rays, each the null vector of n - 1 tight rows.
    for tight in combinations([row for row, _ in rows], n - 1):
        ray = cofactor_vector(list(tight))
        for d in (ray, [-c for c in ray]):
            if any(d) and all(sum(a * v for a, v in zip(row, d)) <= 0 for row, _ in rows):
                if sum(c * v for c, v in zip(objective, d)) > 0:
                    return UNBOUNDED, None
    return OPTIMAL, max(sum(c * v for c, v in zip(objective, x)) for x in vertices)


@st.composite
def _inequality_lps(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    coefficient = st.integers(-3, 3)
    a_ub = [tuple(draw(st.lists(coefficient, min_size=n, max_size=n))) for _ in range(m)]
    b_ub = draw(st.lists(st.integers(-2, 4), min_size=m, max_size=m))
    objective = draw(st.lists(coefficient, min_size=n, max_size=n))
    return objective, a_ub, b_ub


@settings(max_examples=300, deadline=None)
@given(_inequality_lps())
def test_solve_lp_matches_vertex_enumeration(lp):
    objective, a_ub, b_ub = lp
    n, m = len(objective), len(a_ub)
    # Equality form with one slack column per inequality.
    a_eq = [
        [F(a) for a in row] + [F(int(i == r)) for i in range(m)] for r, row in enumerate(a_ub)
    ]
    cost = [F(c) for c in objective] + [F(0)] * m
    status, x, value = solve_lp(cost, a_eq, [F(b) for b in b_ub])
    expected_status, expected_value = _brute_force(objective, a_ub, b_ub)
    assert status == expected_status
    if status == OPTIMAL:
        assert value == expected_value
        assert all(v >= 0 for v in x)
        assert all(sum(a * v for a, v in zip(row, x)) == b for row, b in zip(a_eq, b_ub))
        assert sum(c * v for c, v in zip(cost, x)) == value
