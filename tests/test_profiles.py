import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symcap.profiles import (
    CN,
    CPN,
    Piece,
    RadialProfile,
    Space,
    build_profile,
    bump,
    k_a,
    poly_derivative,
    poly_eval,
    reeb,
    reeb_composite,
    s_a,
    t_s,
    two_ball,
    zero_profile,
)

import profile_reference as reference
from profile_reference import cutoff_derivative, cutoff_value, scale_conformal

F = Fraction


# ---------------------------------------------------------------------------
# The polynomial kernels against the textbook sums
# ---------------------------------------------------------------------------

# Values that send the kernels down their shortcuts: a zero coefficient.
_SPECIAL = st.sampled_from([F(0), F(1), F(-1)])
_SCALARS = st.one_of(_SPECIAL, st.fractions(min_value=-5, max_value=5, max_denominator=60))
_ARGUMENTS = st.one_of(_SCALARS, st.integers(min_value=-5, max_value=5))


def _assert_kernels_match(coeffs, r):
    pairs = [
        (poly_eval(coeffs, r), reference.poly_eval(coeffs, r)),
        (poly_derivative(coeffs, r), reference.poly_derivative(coeffs, r)),
    ]
    for fast, textbook in pairs:
        assert type(fast) is Fraction
        assert fast == textbook


@given(st.tuples(_SCALARS, _SCALARS, _SCALARS), _ARGUMENTS)
@settings(max_examples=300)
def test_polynomial_kernels_equal_the_textbook_sums(coeffs, r):
    _assert_kernels_match(coeffs, r)


def test_polynomial_kernels_on_every_shortcut():
    # Each zero pattern of (c1, c2) at Fraction and int arguments.
    patterns = [
        (F(2, 3), F(0), F(0)),
        (F(2, 3), F(-5, 4), F(0)),
        (F(2, 3), F(0), F(7, 5)),
        (F(2, 3), F(-5, 4), F(7, 5)),
        (F(0), F(0), F(0)),
    ]
    radii = [F(0), 0, F(11, 13), 4]
    for coeffs in patterns:
        for r in radii:
            _assert_kernels_match(coeffs, r)


# ---------------------------------------------------------------------------
# The cut-off mu_delta (test reference)
# ---------------------------------------------------------------------------


def test_mu_delta_values():
    delta = F(1, 10)
    assert cutoff_value(delta, -1) == F(1, 20)
    assert cutoff_value(delta, F(1, 20)) == F(1, 16)
    assert cutoff_value(delta, F(1, 5)) == F(1, 5)
    assert cutoff_value(delta, F(1, 10)) == F(1, 10)


def test_mu_delta_derivative_monotone():
    delta = F(1, 10)
    assert cutoff_derivative(delta, -1) == 0
    assert cutoff_derivative(delta, F(1, 20)) == F(1, 2)
    assert cutoff_derivative(delta, F(1, 5)) == 1


@given(st.fractions(min_value="-2", max_value="2"))
@settings(max_examples=100)
def test_mu_delta_convex_envelope(x):
    # mu_delta dominates both the constant delta/2 and the identity.
    assert cutoff_value(F(1, 7), x) >= max(F(1, 14), x)


# ---------------------------------------------------------------------------
# The cut-off constructions against their defining formulas
# ---------------------------------------------------------------------------

_POSITIVE = st.fractions(min_value=0, max_value=5, max_denominator=40).filter(bool)
_OPEN_UNIT = st.fractions(min_value=0, max_value=1, max_denominator=40).filter(
    lambda x: 0 < x < 1
)
_RADII = st.fractions(min_value=0, max_value=8, max_denominator=40)


def _assert_formula(profile, r, value, slope):
    """The profile and its derivative equal the formula at r and at every
    breakpoint; the derivative is the chain rule through mu_delta."""
    for x in (r, *[p.lo for p in profile.pieces[1:]]):
        assert profile.value(x) == value(x)
        assert profile.derivative(x) == slope(x)


@given(_POSITIVE, _OPEN_UNIT, _OPEN_UNIT, _RADII)
@settings(max_examples=200)
def test_bump_matches_its_formula(a, eta, t, r):
    delta = t * eta * a  # any delta in (0, eta a)
    _assert_formula(
        bump(a, eta, delta),
        r,
        lambda x: cutoff_value(delta, eta * (a - x)) - delta / 2,
        lambda x: -eta * cutoff_derivative(delta, eta * (a - x)),
    )


@given(st.one_of(st.just(F(0)), _OPEN_UNIT), _POSITIVE, _RADII)
@settings(max_examples=200)
def test_reeb_matches_its_formula(sigma, delta, r):
    _assert_formula(
        reeb(sigma, delta),
        r,
        lambda x: -sigma * (cutoff_value(delta, x - 1) + 1),
        lambda x: -sigma * cutoff_derivative(delta, x - 1),
    )


@given(_OPEN_UNIT, _POSITIVE, _RADII)
@settings(max_examples=200)
def test_reeb_composite_matches_its_formula(t, delta, r):
    s = (1 + t) / 2  # any s in (1/2, 1)
    _assert_formula(
        reeb_composite(s, delta),
        r,
        lambda x: x - 2 * s * (cutoff_value(delta, x - 1) + 1),
        lambda x: 1 - 2 * s * cutoff_derivative(delta, x - 1),
    )


def test_space_dimension_must_be_an_integer():
    assert Space(CN, 2).dim == 2
    for dim in (F(2), math.inf, True):
        with pytest.raises(ValueError, match="must be an integer"):
            Space(CN, dim)


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------


def test_bump_values():
    profile = bump(1, F(9, 10), F(1, 100))
    assert profile.value(0) == F(179, 200)
    assert profile.value(1) == 0
    assert profile.value(5) == 0
    assert profile.derivative(F(1, 2)) == F(-9, 10)
    with pytest.raises(ValueError):
        bump(1, F(9, 10), 1)  # delta must stay below eta * a


def test_reeb_values():
    profile = reeb(F(1, 2), F(1, 10))
    assert profile.value(0) == F(-21, 40)
    assert profile.value(1) == F(-21, 40)
    assert profile.value(2) == -1
    assert reeb(0, F(1, 10)).value(3) == 0
    assert len(reeb(0, F(1, 10)).pieces) == 1  # the plot window reads its lo


def test_reeb_composite_values():
    profile = reeb_composite(F(3, 4), F(1, 10))
    assert profile.value(0) == F(-63, 40)
    assert profile.value(1) == F(-63, 40) + 1
    assert profile.value(2) == -1
    assert profile.derivative(F(1, 2)) == 1


def test_s_a_and_k_a():
    assert s_a(F(1, 4)).value(1) == F(3, 4)
    assert s_a(F(1, 4)).value(0) == F(-1, 4)
    kinked = k_a(F(1, 2))
    assert kinked.value(0) == F(-1, 2)
    assert kinked.value(F(3, 4)) == 0
    assert not kinked.smooth


def test_t_s_values():
    profile = t_s(F(1, 2), F(1, 10), 0)
    assert profile.value(0) == F(-1, 10)
    assert profile.value(F(3, 4)) == 0
    assert t_s(F(1, 2), F(1, 10), 1).value(0) == F(-1, 2)
    # Where the kink value equals -eps, every family member agrees.
    a, eps = F(1, 2), F(1, 10)
    x_star = a - eps
    for s in (F(0), F(1, 3), F(1)):
        assert t_s(a, eps, s).value(x_star) == -eps


@pytest.mark.parametrize("a, eps", [(F(1, 2), F(1, 10)), (F(1, 3), F(1, 4)), (F(9, 10), F(1, 100))])
def test_t_s_at_s_1_is_k_a(a, eps):
    profile = t_s(a, eps, 1)
    assert profile.pieces == k_a(a).pieces
    assert not profile.smooth
    assert profile.construction == "t_s"
    assert dict(profile.params) == {"a": a, "eps": eps, "s": 1}


def test_two_ball_supports():
    system = two_ball(1, 1, F(9, 10), F(4, 5), F(1, 100))
    assert system.positive.value(0) == F(179, 200)
    assert system.negative.value(0) == F(-159, 200)
    assert system.negate().positive.value(0) == F(159, 200)


def test_build_profile_dispatch():
    assert build_profile("bump", a=1, eta=F(9, 10), delta=F(1, 100)).value(0) == F(179, 200)
    assert build_profile("zero").value(17) == 0
    with pytest.raises(ValueError):
        build_profile("nope")


# ---------------------------------------------------------------------------
# Structural invariants
# ---------------------------------------------------------------------------

smooth_profiles = [
    bump(1, F(9, 10), F(1, 100)),
    bump(F(3, 2), F(1, 2), F(1, 10)),
    reeb(F(1, 2), F(1, 10)),
    reeb_composite(F(3, 4), F(1, 10)),
    s_a(F(1, 4)),
]


@pytest.mark.parametrize("profile", smooth_profiles, ids=lambda p: p.construction)
def test_c1_across_breakpoints(profile):
    for r in [p.lo for p in profile.pieces[1:]]:
        eps = F(1, 10**9)
        left = profile.piece_at(r - eps)
        right = profile.piece_at(r + eps) if (profile.space.kind != CPN or r < 1) else profile.piece_at(r)
        assert poly_eval(left.coeffs, r) == poly_eval(right.coeffs, r)
        assert poly_derivative(left.coeffs, r) == poly_derivative(right.coeffs, r)


def test_kinked_profiles_are_continuous_but_not_c1():
    profile = k_a(F(1, 2))
    (left, right) = profile.pieces
    assert poly_eval(left.coeffs, right.lo) == poly_eval(right.coeffs, right.lo)
    assert poly_derivative(left.coeffs, right.lo) != poly_derivative(right.coeffs, right.lo)


def test_profile_validation():
    with pytest.raises(ValueError):
        RadialProfile((), Space("cn", 1))
    with pytest.raises(ValueError):  # must start at 0
        RadialProfile((Piece(F(1), None, (F(0), F(0), F(0))),), Space("cn", 1))
    with pytest.raises(ValueError):  # quadratic tail
        RadialProfile((Piece(F(0), None, (F(0), F(0), F(1))),), Space("cn", 1))
    with pytest.raises(ValueError):  # discontinuous
        RadialProfile(
            (
                Piece(F(0), F(1), (F(0), F(0), F(0))),
                Piece(F(1), None, (F(1), F(0), F(0))),
            ),
            Space("cn", 1),
        )
    with pytest.raises(ValueError, match="not C\\^1"):  # affine into quadratic
        RadialProfile(
            (
                Piece(F(0), F(1), (F(0), F(1), F(0))),  # value 1, slope 1 at r = 1
                Piece(F(1), F(2), (F(0), F(0), F(1))),  # value 1, slope 2 at r = 1
                Piece(F(2), None, (F(-4), F(4), F(0))),
            ),
            Space("cn", 1),
        )
    with pytest.raises(ValueError, match="not C\\^1"):  # quadratic into affine
        RadialProfile(
            (
                Piece(F(0), F(1), (F(0), F(0), F(1))),  # value 1, slope 2 at r = 1
                Piece(F(1), None, (F(0), F(1), F(0))),  # value 1, slope 1 at r = 1
            ),
            Space("cn", 1),
        )
    with pytest.raises(ValueError, match="discontinuous"):  # constants, c0 apart
        RadialProfile(
            (
                Piece(F(0), F(1, 2), (F(1, 3), F(0), F(0))),
                Piece(F(1, 2), F(1), (F(1, 3) + F(1, 10**12), F(0), F(0))),
            ),
            Space(CPN, 1),
            smooth=False,
        )
    # h(r) = r throughout, so only the order of the ends is wrong; a
    # zero-length piece stays legal.
    line = (F(0), F(1), F(0))
    with pytest.raises(ValueError, match="runs backwards"):
        RadialProfile(
            (Piece(F(0), F(2), line), Piece(F(2), F(1), line), Piece(F(1), None, line)),
            Space("cn", 1),
        )
    RadialProfile(
        (Piece(F(0), F(1), line), Piece(F(1), F(1), line), Piece(F(1), None, line)),
        Space("cn", 1),
    )


def test_negate_round_trip():
    profile = bump(1, F(9, 10), F(1, 100))
    assert profile.negate().negate().pieces == profile.pieces
    assert profile.negate().value(0) == -profile.value(0)


@given(st.fractions(min_value="1/5", max_value=5), st.fractions(min_value=0, max_value=3))
@settings(max_examples=100)
def test_conformal_scaling_pointwise(lam, r):
    profile = reeb_composite(F(3, 4), F(1, 10))
    scaled = scale_conformal(profile, lam)
    assert scaled.value(lam * r) == lam * profile.value(r)
    assert scaled.derivative(lam * r) == profile.derivative(r)


def test_zero_profile_both_spaces():
    assert zero_profile().value(10) == 0
    assert zero_profile(Space(CPN, 1)).value(F(1, 2)) == 0
