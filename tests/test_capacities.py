from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symcap.capacities import (
    CancellationError,
    c2b_closed_form,
    compose_ball_bound,
    cylinder_bound_report,
    cylinder_upper_bound,
    displacement_bounds,
    displacement_energy_ball_bracket,
    gromov_width_simplex_preimage,
    special_ball_values,
    spectral_diameter,
    spectral_diameter_ellipsoid,
    spectral_diameter_polydisk,
)
from symcap.exactgeom import (
    Polytope,
    ellipsoid,
    polydisk,
    polytope_domain,
    scale_domain,
)
from symcap.rationals import INF

F = Fraction

positive_rationals = st.fractions(min_value="1/9", max_value=20)
sorted_tuples = st.lists(positive_rationals, min_size=1, max_size=5).map(sorted)


@pytest.mark.parametrize(
    "params,expected",
    [((1, 1, 1), 1), ((2, 3), 3), ((1, 2, 7), 2), ((1, INF), 2), ((3, 5, INF), 6)],
)
def test_ellipsoid_table(params, expected):
    assert spectral_diameter_ellipsoid(params).value == expected


@pytest.mark.parametrize(
    "params,expected", [((2,), 2), ((1, 1), 2), ((F(1, 2), 3, 9), 1)]
)
def test_polydisk_table(params, expected):
    assert spectral_diameter_polydisk(params).value == expected


def test_rejects_bad_parameter_lists():
    for bad in ([], [F(0)], [F(-1)], [F(2), F(1)], [INF, F(1)]):
        with pytest.raises(ValueError):
            spectral_diameter_ellipsoid(bad)
    with pytest.raises(ValueError):
        spectral_diameter_polydisk([F(1), INF])


@given(sorted_tuples)
@settings(max_examples=200)
def test_min_formula(params):
    assert spectral_diameter_ellipsoid(params).value == min(params[-1], 2 * params[0])


def test_branches_agree_at_the_boundary():
    # a_n = 2 a_1: both branches give the same value.
    assert spectral_diameter_ellipsoid([F(1), F(3, 2), F(2)]).value == 2


@given(sorted_tuples, positive_rationals)
@settings(max_examples=100)
def test_scaling_law(params, lam):
    for domain in (ellipsoid(*params), polydisk(*params)):
        assert (
            spectral_diameter(scale_domain(domain, lam)).value
            == lam * spectral_diameter(domain).value
        )


@given(st.lists(st.tuples(positive_rationals, positive_rationals), min_size=1, max_size=4))
@settings(max_examples=100)
def test_monotonicity(pairs):
    small = sorted(min(p) for p in pairs)
    large = sorted(max(p) for p in pairs)
    assert (
        spectral_diameter(ellipsoid(*small)).value
        <= spectral_diameter(ellipsoid(*large)).value
    )
    assert (
        spectral_diameter(polydisk(*small)).value
        <= spectral_diameter(polydisk(*large)).value
    )


@given(sorted_tuples)
@settings(max_examples=100)
def test_gromov_width_sandwich(params):
    width = gromov_width_simplex_preimage(params[0]).value
    gamma = spectral_diameter_ellipsoid(params).value
    assert width <= gamma <= 2 * width


def test_c2b_matches_spectral_diameter():
    assert c2b_closed_form(ellipsoid(1, 2)).value == 2
    assert c2b_closed_form(polydisk(1, 1)).value == 2
    assert c2b_closed_form(ellipsoid(1, 1)).value == 1
    triangle = polytope_domain(
        Polytope.from_halfspaces([((-1, 0), F(0)), ((0, -1), F(0)), ((1, 1), F(1))])
    )
    with pytest.raises(ValueError):
        c2b_closed_form(triangle)


def test_gromov_width_examples():
    assert gromov_width_simplex_preimage(1).value == 1
    assert gromov_width_simplex_preimage(F(7, 2)).value == F(7, 2)
    assert gromov_width_simplex_preimage(3).value == 3 * gromov_width_simplex_preimage(1).value
    with pytest.raises(ValueError):
        gromov_width_simplex_preimage(0)


def test_cylinder_bound():
    assert cylinder_upper_bound(0) == 2
    assert cylinder_upper_bound(F(1, 10)) == F(11, 5)
    assert cylinder_upper_bound(1) == 4
    report = cylinder_bound_report(F(1, 10))
    assert report.upper == F(11, 5)
    assert report.steps[-1].value == 2
    with pytest.raises(ValueError):
        cylinder_upper_bound(F(-1, 10))


def test_displacement_bounds():
    assert displacement_bounds(1).upper == 2
    assert displacement_bounds(0).upper == 0
    report = displacement_bounds(F(3, 2))
    assert [step.value for step in report.steps] == [F(3, 2), F(3)]


def test_displacement_energy_bracket():
    report = displacement_energy_ball_bracket(F(1, 100), F(1, 100))
    assert (report.lower, report.upper) == (F(99, 100), F(101, 100))
    with pytest.raises(ValueError):
        displacement_energy_ball_bracket(F(0), F(1, 100))


def test_special_ball_values():
    values = special_ball_values(F(1, 4))
    assert values["capacity"] == F(3, 4)
    assert values["max_critical"] == F(3, 4)
    assert values["min_critical"] == F(-1, 4)
    assert special_ball_values(F(1, 2))["capacity"] == F(1, 2)
    with pytest.raises(ValueError):
        special_ball_values(F(3, 2))


@pytest.mark.parametrize(
    "s,delta,expected",
    [(F(3, 4), F(1, 10), F(21, 20)), (F(2, 3), F(1, 100), F(201, 200))],
)
def test_compose_ball_bound(s, delta, expected):
    report = compose_ball_bound(s, delta)
    assert report.upper == expected
    assert len(report.steps) == 5


def test_compose_ball_bound_small_delta_limit():
    for k in (10, 100, 1000):
        assert compose_ball_bound(F(3, 4), F(1, k)).upper == 1 + F(1, 2 * k)


def test_compose_ball_bound_rejects_bad_range():
    with pytest.raises(ValueError):
        compose_ball_bound(F(1, 2), F(1, 10))
    with pytest.raises(ValueError):
        compose_ball_bound(F(3, 4), 0)


def test_cancellation_error_exists():
    assert issubclass(CancellationError, ArithmeticError)
