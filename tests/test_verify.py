"""The float orbit oracle: its piece rule, its failure verdicts, its work."""

import dataclasses
import math
import random
from fractions import Fraction

import oracle_reference
import pytest

from symcap import verify
from symcap.profiles import RadialProfile, bump, k_a, reeb, reeb_composite, t_s
from symcap.spectra import OrbitRecord, find_orbits

F = Fraction
STEP = 1e-4  # the oracle's default sample step


def _seeded_profiles() -> list[RadialProfile]:
    profiles = []
    for seed in range(3):
        rng = random.Random(seed)
        a, eta = F(rng.randint(2, 12), 4), F(rng.randint(1, 9), 10)
        profiles.append(bump(a, eta, eta * a * F(rng.randint(1, 9), 100)))
        a = F(rng.randint(1, 9), 10)
        profiles.append(t_s(a, a * F(rng.randint(1, 9), 10), F(rng.randint(0, 10), 10)))
        profiles.append(k_a(F(rng.randint(1, 9), 10)))
    return profiles


def _params_id(profile: RadialProfile) -> str:
    return profile.construction + "".join(f"-{k}={v}" for k, v in profile.params)


def _piece_slope(piece, r: float) -> float:
    _, c1, c2 = piece.coeffs
    return float(c1) + 2.0 * float(c2) * r


def test_a_float_breakpoint_belongs_to_its_left_piece():
    # Sample 5000 of k_a lies exactly on the float of its kink 1/2.
    profile = k_a(F(1, 2))
    left, right = profile.pieces[0], profile.pieces[1]
    r = 5000 * STEP
    assert r == float(left.hi) == 0.5
    assert _piece_slope(left, r) != _piece_slope(right, r)
    assert verify._derivative(profile)(r) == _piece_slope(left, r)
    assert verify._sample_slopes(profile, 5001)[5000] == _piece_slope(left, r)
    # Sample 3500 of t_s lies one ulp right of the float of its kink 7/20,
    # so it takes the piece right of the kink; the verdict is unchanged.
    profile = t_s(F(1, 2), F(1, 10), F(1, 3))
    kink = next(i for i, piece in enumerate(profile.pieces) if piece.hi == F(7, 20))
    left, right = profile.pieces[kink], profile.pieces[kink + 1]
    r = 3500 * STEP
    assert r == 0.35000000000000003 == math.nextafter(float(left.hi), 1.0)
    assert _piece_slope(left, r) != _piece_slope(right, r)
    assert verify._derivative(profile)(r) == _piece_slope(right, r)
    assert verify._sample_slopes(profile, 3501)[3500] == _piece_slope(right, r)
    assert verify.oracle_orbit_match(profile) == (True, "")


@pytest.mark.parametrize(
    "profile,edit,detail",
    [
        (
            reeb_composite(F(3, 4), F(1, 10)),
            lambda orbits: [o for o in orbits if o.radius != F(16, 15)],
            "oracle root 1.0666666667938236 has no exact counterpart",
        ),
        (
            bump(1, F(9, 10), F(1, 100)),
            lambda orbits: [o for o in orbits if o.locus != "plateau"],
            "oracle root 1.0 has no exact counterpart",
        ),
        (
            bump(1, F(9, 10), F(1, 100)),
            lambda orbits: orbits + [OrbitRecord("interior", 0, F(0), radius=F(1, 2))],
            "exact radius 0.5 missed by the oracle",
        ),
    ],
    ids=["isolated-radius-dropped", "plateau-dropped", "spurious-radius"],
)
def test_oracle_fails_closed(profile, edit, detail, monkeypatch):
    assert verify.oracle_orbit_match(profile) == (True, "")
    monkeypatch.setattr(verify, "find_orbits", lambda p: edit(find_orbits(p)))
    assert verify.oracle_orbit_match(profile) == (False, detail)


def test_oracle_makes_no_exact_lookup(monkeypatch):
    profiles = verify._sample_profiles()
    orbits = {id(profile): find_orbits(profile) for profile in profiles}
    monkeypatch.setattr(verify, "find_orbits", lambda p: orbits[id(p)])
    calls = 0
    piece_at = RadialProfile.piece_at

    def counted(self, r):
        nonlocal calls
        calls += 1
        return piece_at(self, r)

    monkeypatch.setattr(RadialProfile, "piece_at", counted)
    assert all(verify.oracle_orbit_match(profile) == (True, "") for profile in profiles)
    assert calls == 0


@pytest.mark.parametrize(
    "profile",
    verify._sample_profiles()
    + [pytest.param(p, id=_params_id(p)) for p in _seeded_profiles()],
    ids=lambda p: p.construction,
)
def test_slopes_are_the_per_sample_derivative(profile):
    expected = oracle_reference.reference_slopes(profile)
    slopes = verify._sample_slopes(profile, len(expected))
    assert list(map(float.hex, slopes)) == list(map(float.hex, expected))


@pytest.mark.parametrize(
    "profile",
    verify._sample_profiles() + _seeded_profiles(),
    ids=_params_id,
)
def test_oracle_matches_the_per_k_scan(profile):
    assert verify.oracle_orbit_match(profile) == oracle_reference.oracle_orbit_match(profile)


def _shorten_plateaus(orbits):
    return [
        dataclasses.replace(o, interval=(o.interval[0], o.interval[1] / 2))
        if o.locus == "plateau"
        else o
        for o in orbits
    ]


def _move_radii(orbits):
    return [
        o if o.radius is None else dataclasses.replace(o, radius=o.radius + F(1, 10**7))
        for o in orbits
    ]


@pytest.mark.parametrize(
    "profile,edit",
    [
        (
            reeb_composite(F(3, 4), F(1, 10)),
            lambda orbits: [o for o in orbits if o.radius != F(16, 15)],
        ),
        (bump(1, F(9, 10), F(1, 100)), lambda orbits: [o for o in orbits if o.locus != "plateau"]),
        (
            bump(1, F(9, 10), F(1, 100)),
            lambda orbits: orbits + [OrbitRecord("interior", 0, F(0), radius=F(1, 2))],
        ),
        (reeb(F(1, 2), F(1, 10)), _shorten_plateaus),
        (reeb_composite(F(3, 4), F(1, 10)), _move_radii),
        # Slope 1 up to the kink at 1/2 and 0 after it: the k = 0 roots,
        # though farther out, come first.
        (k_a(F(1, 2)), lambda orbits: [o for o in orbits if o.locus != "plateau"]),
    ],
    ids=[
        "isolated-radius-dropped",
        "plateau-dropped",
        "spurious-radius",
        "plateau-shortened",
        "radius-moved",
        "plateaus-dropped-at-a-kink",
    ],
)
def test_oracle_fails_as_the_per_k_scan_does(profile, edit, monkeypatch):
    monkeypatch.setattr(verify, "find_orbits", lambda p: edit(find_orbits(p)))
    verdict = verify.oracle_orbit_match(profile)
    assert not verdict[0]
    assert verdict == oracle_reference.oracle_orbit_match(profile)


def test_the_last_sample_is_no_root(monkeypatch):
    # k_a's slope is 0 on [1/2, 1], and its last sample lies at r = 1.  The
    # oracle takes a root only from a sample that starts a pair, so a
    # plateau ending half a step short of 1 still covers every root.
    def shorten(orbits):
        return [
            dataclasses.replace(o, interval=(o.interval[0], F(19999, 20000)))
            if o.interval == (F(1, 2), 1)
            else o
            for o in orbits
        ]

    monkeypatch.setattr(verify, "find_orbits", lambda p: shorten(find_orbits(p)))
    profile = k_a(F(1, 2))
    assert verify.oracle_orbit_match(profile) == (True, "")
    assert oracle_reference.oracle_orbit_match(profile) == (True, "")


def test_oracle_checks_each_run_once(monkeypatch):
    calls = 0
    first_unmatched = verify._first_unmatched

    def counted(*args):
        nonlocal calls
        calls += 1
        return first_unmatched(*args)

    monkeypatch.setattr(verify, "_first_unmatched", counted)
    assert verify.case_orbit_oracle().passed
    # 14 runs and bisected roots over the ten profiles; a check per root
    # would make about 136,000.
    assert calls <= 100
