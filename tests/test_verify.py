"""The float orbit oracle: its piece rule, its failure verdicts, its work."""

import dataclasses
import math
import random
from fractions import Fraction

import oracle_reference
import pytest

from symcap import verify
from symcap.profiles import (
    CPN,
    Piece,
    RadialProfile,
    Space,
    bump,
    k_a,
    reeb,
    reeb_composite,
    t_s,
    two_ball,
)
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


def _expand(runs) -> list[float]:
    return [slope for start, stop, slope in runs for _ in range(start, stop)]


def test_a_float_breakpoint_belongs_to_its_left_piece():
    # Sample 5000 of k_a lies exactly on the float of its kink 1/2.
    profile = k_a(F(1, 2))
    left, right = profile.pieces[0], profile.pieces[1]
    r = 5000 * STEP
    assert r == float(left.hi) == 0.5
    assert _piece_slope(left, r) != _piece_slope(right, r)
    assert verify._derivative(profile)(r) == _piece_slope(left, r)
    assert _expand(verify._sample_runs(profile, 5001))[5000] == _piece_slope(left, r)
    # Sample 3500 of t_s lies one ulp right of the float of its kink 7/20,
    # so it takes the piece right of the kink; the verdict is unchanged.
    profile = t_s(F(1, 2), F(1, 10), F(1, 3))
    kink = next(i for i, piece in enumerate(profile.pieces) if piece.hi == F(7, 20))
    left, right = profile.pieces[kink], profile.pieces[kink + 1]
    r = 3500 * STEP
    assert r == 0.35000000000000003 == math.nextafter(float(left.hi), 1.0)
    assert _piece_slope(left, r) != _piece_slope(right, r)
    assert verify._derivative(profile)(r) == _piece_slope(right, r)
    assert _expand(verify._sample_runs(profile, 3501))[3500] == _piece_slope(right, r)
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
    runs = verify._sample_runs(profile, len(expected))
    assert list(map(float.hex, _expand(runs))) == list(map(float.hex, expected))
    # The runs tile [0, samples), and neighbours differ in slope.
    assert runs[0][0] == 0 and runs[-1][1] == len(expected)
    assert all(start < stop for start, stop, _ in runs)
    for (_, stop, slope), (start, _, next_slope) in zip(runs, runs[1:]):
        assert stop == start and slope != next_slope


@pytest.mark.parametrize(
    "profile",
    verify._sample_profiles() + _seeded_profiles(),
    ids=_params_id,
)
def test_oracle_matches_the_per_k_scan(profile):
    assert verify.oracle_orbit_match(profile) == oracle_reference.oracle_orbit_match(profile)


def _random_profiles(rounds: int, seed: int) -> list[RadialProfile]:
    """Per round a bump, reeb, reeb_composite, t_s and k_a profile and both
    halves of a two_ball system."""
    rng = random.Random(seed)
    profiles = []
    for _ in range(rounds):
        a, eta = F(rng.randint(2, 12), 4), F(rng.randint(1, 9), 10)
        profiles.append(bump(a, eta, eta * a * F(rng.randint(1, 99), 100)))
        profiles.append(reeb(F(rng.randint(0, 9), 10), F(rng.randint(1, 50), 100)))
        profiles.append(reeb_composite(F(rng.randint(11, 19), 20), F(rng.randint(1, 50), 100)))
        a = F(rng.randint(1, 9), 10)
        profiles.append(t_s(a, a * F(rng.randint(1, 9), 10), F(rng.randint(0, 10), 10)))
        profiles.append(k_a(F(rng.randint(1, 99), 100)))
        a, b = F(rng.randint(2, 8), 4), F(rng.randint(2, 8), 4)
        eta, mu = F(rng.randint(1, 9), 10), F(rng.randint(1, 9), 10)
        system = two_ball(a, b, eta, mu, min(eta * a, mu * b) * F(rng.randint(1, 99), 100))
        profiles += [system.positive, system.negative]
    return profiles


def _drop_a_radius(orbits):
    radius = next((o.radius for o in orbits if o.radius is not None), None)
    return [o for o in orbits if o.radius is None or o.radius != radius]


def _drop_plateaus(orbits):
    return [o for o in orbits if o.locus != "plateau"]


def _add_spurious_radius(orbits):
    return orbits + [OrbitRecord("interior", 0, F(0), radius=F(1, 2))]


def _shorten_plateaus(orbits):
    return [
        dataclasses.replace(o, interval=(o.interval[0], o.interval[1] / 2))
        if o.locus == "plateau" and o.interval[1] is not None
        else o
        for o in orbits
    ]


def _move_radii(orbits):
    return [
        o if o.radius is None else dataclasses.replace(o, radius=o.radius + F(1, 10**7))
        for o in orbits
    ]


_EDITS = {
    "identity": lambda orbits: orbits,
    "radius-dropped": _drop_a_radius,
    "plateaus-dropped": _drop_plateaus,
    "spurious-radius": _add_spurious_radius,
    "plateaus-shortened": _shorten_plateaus,
    "radii-moved": _move_radii,
}


@pytest.mark.parametrize("edit", _EDITS.values(), ids=_EDITS)
def test_oracle_matches_the_per_k_scan_on_random_profiles(edit, monkeypatch):
    monkeypatch.setattr(verify, "find_orbits", lambda p: edit(find_orbits(p)))
    verdicts = []
    for profile in _random_profiles(6, 0):
        verdict = verify.oracle_orbit_match(profile)
        assert verdict == oracle_reference.oracle_orbit_match(profile), _params_id(profile)
        verdicts.append(verdict[0])
    # The identity passes everywhere; each other edit fails somewhere.
    assert all(verdicts) == (edit is _EDITS["identity"])


@pytest.mark.parametrize(
    "profile,edit",
    [
        (
            reeb_composite(F(3, 4), F(1, 10)),
            lambda orbits: [o for o in orbits if o.radius != F(16, 15)],
        ),
        (bump(1, F(9, 10), F(1, 100)), _drop_plateaus),
        (bump(1, F(9, 10), F(1, 100)), _add_spurious_radius),
        (reeb(F(1, 2), F(1, 10)), _shorten_plateaus),
        (reeb_composite(F(3, 4), F(1, 10)), _move_radii),
        # Slope 1 up to the kink at 1/2 and 0 after it: the k = 0 roots,
        # though farther out, come first.
        (k_a(F(1, 2)), _drop_plateaus),
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


def test_the_last_sample_that_starts_a_pair_can_be_a_root(monkeypatch):
    # Slope 1/2, then 1 from the kink on: sample 9998 lies left of the kink,
    # and sample 9999, the last that starts a pair, opens a run of slope 1.
    kink = F(19997, 20000)
    pieces = (Piece(F(0), kink, (F(0), F(1, 2), F(0))), Piece(kink, F(1), (-kink / 2, F(1), F(0))))
    profile = RadialProfile(pieces, Space(CPN, 1), smooth=False)
    monkeypatch.setattr(verify, "find_orbits", lambda p: [])
    verdict = (False, f"oracle root {9999 * STEP} has no exact counterpart")
    assert verify.oracle_orbit_match(profile) == verdict
    assert oracle_reference.oracle_orbit_match(profile) == verdict


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


def test_oracle_scans_runs_not_samples(monkeypatch):
    runs = 0
    sample_runs = verify._sample_runs

    def counted(profile, samples):
        nonlocal runs
        result = sample_runs(profile, samples)
        runs += len(result)
        return result

    monkeypatch.setattr(verify, "_sample_runs", counted)
    assert verify.case_orbit_oracle().passed
    # 4,463 runs over the ten profiles, against 247,109 samples.
    assert runs <= 5000
