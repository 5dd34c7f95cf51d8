import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symcap import spectra
from symcap.profiles import (
    CN,
    CPN,
    Piece,
    RadialProfile,
    Space,
    TwoBallSystem,
    bump,
    k_a,
    reeb,
    reeb_composite,
    s_a,
    t_s,
    two_ball,
    zero_profile,
)
from symcap.spectra import (
    RECAPPING_GENERATOR,
    OrbitRecord,
    SpectrumReport,
    action_spectrum,
    deformation_family_check,
    find_orbits,
    area_splitting_residual,
    closed_form_spectrum,
    max_action_check,
    reeb_composite_spectrum,
    reeb_slope_law,
    spectral_norm_candidates,
)

from profile_reference import normalization_shift, scale_conformal

F = Fraction


def _systems():
    return [
        bump(1, F(9, 10), F(1, 100)),
        bump(F(3, 2), F(1, 2), F(1, 10)),
        reeb(F(1, 2), F(1, 10)),
        reeb_composite(F(3, 4), F(1, 10)),
        two_ball(1, 1, F(9, 10), F(4, 5), F(1, 100)),
        s_a(F(1, 4)),
        k_a(F(1, 2)),
        t_s(F(1, 2), F(1, 10), F(1, 3)),
        zero_profile(),
    ]


# ---------------------------------------------------------------------------
# Orbits
# ---------------------------------------------------------------------------


def test_bump_orbits():
    orbits = find_orbits(bump(1, F(9, 10), F(1, 100)))
    by_locus = {o.locus: o for o in orbits}
    assert by_locus["center"].action == F(179, 200)
    assert by_locus["center"].winding == 0
    plateau = by_locus["plateau"]
    assert plateau.action == 0 and plateau.winding == 0
    assert plateau.interval == (F(1), None)


def test_reeb_orbits():
    orbits = find_orbits(reeb(F(1, 2), F(1, 10)))
    assert len(orbits) == 1
    (plateau,) = orbits
    assert plateau.locus == "plateau"
    assert plateau.winding == 0
    assert plateau.action == F(-21, 40)
    assert plateau.interval == (F(0), F(1))


def test_reeb_composite_orbits():
    orbits = find_orbits(reeb_composite(F(3, 4), F(1, 10)))
    by_locus = {o.locus: o for o in orbits}
    plateau = by_locus["plateau"]
    assert plateau.winding == 1 and plateau.action == F(-63, 40)
    interior = by_locus["interior"]
    assert interior.radius == F(16, 15)
    assert interior.winding == 0
    assert interior.action == F(-13, 24)


def test_tangent_intercept_identity():
    for system in _systems():
        profiles = (
            [system.positive, system.negative]
            if hasattr(system, "positive")
            else [system]
        )
        for profile in profiles:
            for orbit in find_orbits(profile):
                if orbit.radius is None:
                    continue
                r = orbit.radius
                assert orbit.action == profile.value(r) - r * profile.derivative(r)


def _seeded_profiles(seed: int) -> list[RadialProfile]:
    """bump, reeb, reeb_composite, both two_ball halves and a steep
    quadratic (windings 0 to 4 inside one piece), with drawn parameters."""
    rng = random.Random(seed)

    def draw(lo: int, hi: int, den: int) -> Fraction:
        return F(rng.randint(lo, hi), den)

    a, b = draw(1, 40, 10), draw(1, 40, 10)
    eta, mu = draw(1, 99, 100), draw(1, 99, 100)
    delta = min(eta * a, mu * b) * draw(1, 99, 100)
    system = two_ball(a, b, eta, mu, delta)
    c2 = draw(1, 30, 7)  # slope 0 at r = 0 up to 5 at r = 5 / (2 c2)
    knot = 5 / (2 * c2)
    steep = RadialProfile(
        (
            Piece(F(0), knot, (F(0), F(0), c2)),
            Piece(knot, None, (-c2 * knot * knot, F(5), F(0))),
        ),
        Space(CN, 1),
    )
    return [
        bump(a, eta, delta),
        reeb(draw(0, 99, 100), draw(1, 50, 100)),
        reeb_composite(F(1, 2) + draw(1, 49, 100), draw(1, 50, 100)),
        system.positive,
        system.negative,
        steep,
    ]


@pytest.mark.parametrize("seed", range(12))
def test_interior_orbits_on_seeded_profiles(seed):
    # find_orbits takes the radius from h'(r) = k and the action as
    # c0 - c2 r^2; both must agree with the profile's own value and slope.
    interior = 0
    for profile in _seeded_profiles(seed):
        for orbit in find_orbits(profile):
            if orbit.locus != "interior":
                continue
            interior += 1
            r, k = orbit.radius, orbit.winding
            assert profile.derivative(r) == k
            assert orbit.action == profile.value(r) - r * k
    assert interior >= 5  # the steep profile alone has windings 0 to 4


# Corners of case_item_v_bound's 20 x 20 grid, where the case runs the
# orbit engine against the closed form on every pass, whatever the seed.
@pytest.mark.parametrize(
    "s, delta, spectrum",
    [
        (F(11, 21), F(1, 80), (F(-253, 240), F(-509, 10560))),
        (F(11, 21), F(1, 4), (F(-33, 28), F(-73, 1232))),
        (F(41, 42), F(1, 80), (F(-943, 480), F(-473, 492))),
        (F(41, 42), F(1, 4), (F(-123, 56), F(-325, 287))),
    ],
)
def test_reeb_composite_spectra_at_the_grid_corners(s, delta, spectrum):
    assert action_spectrum(reeb_composite(s, delta)).spectrum == spectrum
    assert reeb_composite_spectrum(s, delta) == spectrum


# ---------------------------------------------------------------------------
# Closed-form spectra against the orbit engine
# ---------------------------------------------------------------------------


def test_reeb_composite_closed_form_on_the_whole_grid():
    # Every point s = 1/2 + i/42, delta = j/80 of case_item_v_bound's grid;
    # the case itself runs the engine on 32 of them.  The bound exceeds
    # the max action by exactly delta (2s - 1)/(4s).
    for i in range(1, 21):
        for j in range(1, 21):
            s, delta = F(1, 2) + F(i, 42), F(j, 80)
            profile = reeb_composite(s, delta)
            closed = closed_form_spectrum(profile)
            assert action_spectrum(profile).spectrum == closed
            assert closed == reeb_composite_spectrum(s, delta)
            bound = (1 - 2 * s) * (1 + delta / 2)
            assert bound - max(closed) == delta * (2 * s - 1) / (4 * s)


def _seeded_named_systems(seed: int, rounds: int) -> list[RadialProfile | TwoBallSystem]:
    """reeb at sigma = 0, then per round a reeb_composite, reeb, bump and
    two_ball system on C^1 to C^3 with drawn parameters."""
    rng = random.Random(seed)

    def draw(lo: int, hi: int, den: int) -> Fraction:
        return F(rng.randint(lo, hi), den)

    systems = [reeb(0, draw(1, 50, 100))]
    for _ in range(rounds):
        dim = rng.randint(1, 3)
        a, b = draw(1, 40, 10), draw(1, 40, 10)
        eta, mu = draw(1, 99, 100), draw(1, 99, 100)
        systems += [
            reeb_composite(F(1, 2) + draw(1, 49, 100), draw(1, 2000, 10), dim),
            reeb(draw(0, 99, 100), draw(1, 2000, 10), dim),
            bump(a, eta, eta * a * draw(1, 99, 100), dim),
            two_ball(a, b, eta, mu, min(eta * a, mu * b) * draw(1, 99, 100), dim),
        ]
    return systems


def test_closed_forms_on_seeded_systems():
    systems = _seeded_named_systems(0, 50)
    assert len(systems) == 201
    for system in systems:
        assert action_spectrum(system).spectrum == closed_form_spectrum(system), system.params


@given(
    st.fractions(min_value=F(1, 2), max_value=1, max_denominator=1000).filter(
        lambda s: F(1, 2) < s < 1
    ),
    st.fractions(min_value=0, max_value=200, max_denominator=1000).filter(lambda d: d > 0),
)
@settings(max_examples=100, deadline=None)
def test_reeb_composite_closed_form_property(s, delta):
    closed = reeb_composite_spectrum(s, delta)
    assert action_spectrum(reeb_composite(s, delta)).spectrum == closed
    assert (1 - 2 * s) * (1 + delta / 2) - max(closed) == delta * (2 * s - 1) / (4 * s) > 0


def _cn1(*pieces, smooth=True) -> RadialProfile:
    """A hand-built C^1 profile from (lo, hi, (c0, c1, c2)) triples."""
    pieces = tuple(
        Piece(F(lo), None if hi is None else F(hi), tuple(map(F, c))) for lo, hi, c in pieces
    )
    return RadialProfile(pieces, Space(CN, 1), smooth=smooth)


@pytest.mark.parametrize(
    "system",
    [
        s_a(F(1, 4)),
        k_a(F(1, 2)),
        t_s(F(1, 2), F(1, 10), F(1, 3)),
        zero_profile(),
        reeb_composite(F(3, 4), F(1, 10)).negate(),
        two_ball(1, 1, F(9, 10), F(4, 5), F(1, 100)).negate(),
        _cn1((0, None, (0, 0, 0))),
    ],
    ids=lambda system: system.construction,
)
def test_closed_form_spectrum_refuses_other_constructions(system):
    with pytest.raises(ValueError, match="no closed-form spectrum"):
        closed_form_spectrum(system)


def _interior(k, r, action):
    return OrbitRecord("interior", k, F(action), radius=F(r))


def _plateau(k, action, lo, hi):
    return OrbitRecord("plateau", k, F(action), interval=(F(lo), None if hi is None else F(hi)))


def _center(action):
    return OrbitRecord("center", 0, F(action))


def test_contiguous_identical_affine_pieces_give_one_plateau():
    # r^2 / 2 up to r = 1, then r - 1/2 written as three pieces; the slope-1
    # radius r = 1 of the quadratic lies on the plateau and is not listed.
    profile = _cn1(
        (0, 1, (0, 0, F(1, 2))),
        (1, 2, (F(-1, 2), 1, 0)),
        (2, 3, (F(-1, 2), 1, 0)),
        (3, None, (F(-1, 2), 1, 0)),
    )
    assert find_orbits(profile) == [_center(0), _interior(0, 0, 0), _plateau(1, F(-1, 2), 1, None)]


def test_integer_slope_at_a_plateau_end_is_not_listed():
    # A winding-0 plateau on [0, 1], a quadratic from slope 0 to 1, a
    # winding-1 plateau from r = 2: both ends of the quadratic lie on a
    # plateau of their winding.  The first plateau covers the origin.
    profile = _cn1(
        (0, 1, (0, 0, 0)),
        (1, 2, (F(1, 2), -1, F(1, 2))),
        (2, None, (F(-3, 2), 1, 0)),
    )
    assert find_orbits(profile) == [_plateau(0, 0, 0, 1), _plateau(1, F(-3, 2), 2, None)]


def test_radius_on_a_shared_quadratic_breakpoint_is_listed_once():
    # r^2 / 2 then 1/2 - r + r^2: both quadratics have slope 1 at r = 1.
    profile = _cn1(
        (0, 1, (0, 0, F(1, 2))),
        (1, 2, (F(1, 2), -1, 1)),
        (2, None, (F(-7, 2), 3, 0)),
    )
    assert find_orbits(profile) == [
        _center(0),
        _interior(0, 0, 0),
        _interior(1, 1, F(-1, 2)),
        _interior(2, F(3, 2), F(-7, 4)),
        _plateau(3, F(-7, 2), 2, None),
    ]


def test_integer_slope_at_a_kink_is_kept():
    # r^2 / 2 up to r = 1, kinked into slope 2: the quadratic's slope 1 at
    # the kink is an orbit of winding 1, off the winding-2 plateau.
    profile = _cn1((0, 1, (0, 0, F(1, 2))), (1, None, (F(-3, 2), 2, 0)), smooth=False)
    assert find_orbits(profile) == [
        _center(0),
        _interior(0, 0, 0),
        _interior(1, 1, F(-1, 2)),
        _plateau(2, F(-3, 2), 1, None),
    ]


# ---------------------------------------------------------------------------
# Spectra
# ---------------------------------------------------------------------------


def test_two_ball_spectrum():
    report = action_spectrum(two_ball(1, 1, F(9, 10), F(4, 5), F(1, 100)))
    assert set(report.spectrum) == {F(0), F(179, 200), F(-159, 200)}
    assert report.normalization_shift is None


def test_s_a_spectrum_with_recapping():
    report = action_spectrum(s_a(F(1, 4)), recapping_window=1)
    assert report.spectrum == (F(-5, 4), F(-1, 4), F(3, 4), F(7, 4))
    base = action_spectrum(s_a(F(1, 4)))
    assert set(base.spectrum) == {F(-1, 4), F(3, 4)}
    assert base.normalization_shift == F(1, 2) - F(1, 4)


def _seeded_cpn_profiles(seed: int) -> list[RadialProfile]:
    """s_a, k_a, t_s and a kinked piecewise quadratic on CP^n, n = 1 to 5,
    with drawn parameters."""
    rng = random.Random(seed)

    def draw(lo: int, hi: int, den: int) -> Fraction:
        return F(rng.randint(lo, hi), den)

    profiles = []
    for dim in range(1, 6):
        a = draw(1, 99, 100)
        profiles += [
            s_a(a, dim),
            k_a(a, dim),
            t_s(a, a * draw(1, 99, 100), draw(0, 12, 12), dim),
        ]
        cuts = sorted({draw(1, 99, 100) for _ in range(rng.randint(0, 4))})
        pieces, value = [], draw(-20, 20, 7)
        for lo, hi in zip([F(0)] + cuts, cuts + [F(1)]):
            c1, c2 = draw(-30, 30, 7), draw(-30, 30, 7)
            c0 = value - c1 * lo - c2 * lo * lo
            pieces.append(Piece(lo, hi, (c0, c1, c2)))
            value = c0 + c1 * hi + c2 * hi * hi
        profiles.append(RadialProfile(tuple(pieces), Space(CPN, dim), smooth=False))
    return profiles


@pytest.mark.parametrize("seed", range(12))
def test_normalization_shift_matches_the_expanded_integral(seed):
    for profile in _seeded_cpn_profiles(seed):
        shift = action_spectrum(profile).normalization_shift
        assert shift == normalization_shift(profile)


@pytest.mark.parametrize(
    "profile, shift",
    [
        (k_a(F(1, 3), 2), F(-8, 81)),
        (t_s(F(1, 2), F(1, 10), F(1, 3), 3), F(-162439, 960000)),
    ],
)
def test_normalization_shift_values(profile, shift):
    # k_a on CP^2: the integral of 2 (x - a)(1 - x) over [0, a] is -a^2 + a^3/3.
    assert action_spectrum(profile).normalization_shift == shift


def test_zero_profile_spectrum():
    assert action_spectrum(zero_profile()).spectrum == (F(0),)


def test_recapping_budget():
    # k_a on CP^1 has four orbits, so window k gives 4 (2k + 1) records.
    assert len(action_spectrum(k_a(F(1, 2)), recapping_window=1249).orbits) == 9996
    with pytest.raises(ValueError, match="budget"):
        action_spectrum(k_a(F(1, 2)), recapping_window=1250)


def test_recapping_window_validation():
    with pytest.raises(ValueError):
        action_spectrum(s_a(F(1, 4)), recapping_window=-1)


def _windows(system):
    """Recapping windows worth checking: 0-3 on CP^n, only 0 on C^n."""
    return range(4) if system.space.kind == CPN else range(1)


@pytest.mark.parametrize("system", _systems(), ids=lambda s: s.construction)
def test_negation_property(system):
    # spectral_norm_candidates relies on spec_w(-h) = -spec_w(h).
    for window in _windows(system):
        forward = action_spectrum(system, window).spectrum
        inverse = action_spectrum(system.negate(), window).spectrum
        assert inverse == tuple(sorted(-x for x in forward))


@given(st.fractions(min_value="1/5", max_value=5))
@settings(max_examples=60)
def test_conformal_scaling_of_spectra(lam):
    profile = reeb_composite(F(3, 4), F(1, 10))
    scaled = scale_conformal(profile, lam)
    base = action_spectrum(profile).spectrum
    assert action_spectrum(scaled).spectrum == tuple(sorted(lam * x for x in base))


# ---------------------------------------------------------------------------
# Norm candidates and derived checks
# ---------------------------------------------------------------------------


def test_two_ball_candidates():
    system = two_ball(1, 1, F(9, 10), F(4, 5), F(1, 100))
    analysis = spectral_norm_candidates(action_spectrum(system))
    assert set(analysis["candidates"]) == {F(179, 200), F(159, 200), F(169, 100)}
    assert analysis["selected"] == F(169, 100)


def test_bump_candidate_selection():
    profile = bump(1, F(9, 10), F(1, 100))
    analysis = spectral_norm_candidates(action_spectrum(profile))
    assert analysis["selected"] == F(179, 200)


def test_zero_profile_selects_zero():
    profile = zero_profile()
    analysis = spectral_norm_candidates(action_spectrum(profile))
    assert analysis["selected"] == 0


def _gaps(spectrum):
    """Brute-force reference: every positive difference, or (0,) if none."""
    gaps = {x - y for x in spectrum for y in spectrum if x - y > 0}
    return tuple(sorted(gaps)) or (F(0),)


@st.composite
def _spectra_with_runs(draw):
    """Sorted rationals holding runs x, x + 1, ... of the recapping step."""
    values = set(draw(st.lists(st.fractions(-3, 3, max_denominator=6), max_size=6)))
    for start in draw(st.lists(st.fractions(-3, 3, max_denominator=6), max_size=3)):
        length = draw(st.integers(1, 12))
        values.update(start + k * RECAPPING_GENERATOR for k in range(length))
    return tuple(sorted(values))


@given(_spectra_with_runs())
@settings(max_examples=200, deadline=None)
def test_candidates_match_brute_force_on_runs(spectrum):
    report = SpectrumReport(orbits=(), spectrum=spectrum)
    assert spectral_norm_candidates(report)["candidates"] == _gaps(spectrum)


@pytest.mark.parametrize("system", _systems(), ids=lambda s: s.construction)
def test_candidates_match_brute_force_on_systems(system):
    for window in _windows(system):
        report = action_spectrum(system, window)
        assert spectral_norm_candidates(report)["candidates"] == _gaps(report.spectrum)


def test_max_action_check():
    result = max_action_check(F(3, 4), F(1, 10))
    assert result["max_action"] == F(-13, 24)
    assert result["bound"] == F(-21, 40)
    assert result["ok"]


def test_reeb_slope_law():
    result = reeb_slope_law([F(1, 4), F(1, 2)], F(1, 10))
    assert result["ok"]
    assert result["spectra"][F(1, 2)] - result["spectra"][F(1, 4)] == F(-21, 80)
    assert reeb_slope_law([F(1, 10), F(9, 10)], F(1, 50))["ok"]


@pytest.mark.parametrize(
    "edit",
    [
        lambda orbits: [replace(o, action=o.action + F(1, 100)) for o in orbits],
        lambda orbits: orbits + [replace(orbits[0], action=F(7))],
    ],
    ids=["shifted", "extra-orbit"],
)
def test_reeb_slope_law_fails_on_a_wrong_engine(edit, monkeypatch):
    # A wrong spectrum is a failed law, not an exception, so the acceptance
    # suite reports it as a failed case.
    find_orbits = spectra.find_orbits
    monkeypatch.setattr(spectra, "find_orbits", lambda p: edit(find_orbits(p)))
    assert not reeb_slope_law([F(1, 4), F(1, 2)], F(1, 10))["ok"]


def test_deformation_family():
    result = deformation_family_check(F(1, 2), F(1, 10), [0, F(1, 2), 1])
    assert result["ok"]
    result = deformation_family_check(F(1, 4), F(1, 50), [0, F(1, 3), 1])
    assert result["ok"]


@pytest.mark.parametrize("a", [F(1, 4), F(1, 3), F(1, 2), F(1, 100)])
def test_area_splitting_residual(a):
    assert area_splitting_residual(a) == 0
