"""The float orbit oracle: its piece lookup, its failure verdicts, its work."""

from bisect import bisect_left
from fractions import Fraction

import pytest

from symcap import verify
from symcap.profiles import RadialProfile, bump, reeb_composite, t_s
from symcap.spectra import OrbitRecord, find_orbits

F = Fraction
STEP = 1e-4  # the oracle's default sample step


def _exact_index(profile: RadialProfile, r: float) -> int:
    last = profile.pieces[-1]
    return profile.pieces.index(profile.piece_at(verify._clamp_rational(r, last)))


def _sample_indices(profile: RadialProfile) -> set[int]:
    """Every sample within 50 steps of a breakpoint, every 97th elsewhere."""
    last = profile.pieces[-1]
    r_max = max(float(last.hi) if last.hi is not None else float(last.lo) + 2.0, 1.0)
    count = int(r_max / STEP) + 1
    indices = set(range(0, count, 97))
    for b in profile.breakpoints():
        centre = round(float(b) / STEP)
        indices.update(i for i in range(centre - 50, centre + 51) if 0 <= i < count)
    return indices


@pytest.mark.parametrize("profile", verify._sample_profiles(), ids=lambda p: p.construction)
def test_piece_table_picks_the_exact_piece(profile):
    index = verify._piece_index(profile)
    for i in sorted(_sample_indices(profile)):
        r = i * STEP
        assert index(r) == _exact_index(profile, r), f"sample {i}, r = {r!r}"


def test_piece_table_defers_to_the_exact_lookup_at_a_kink():
    # Sample 3500 of t_s lies one ulp right of the float of the kink 7/20;
    # the exact lookup rounds it onto the kink, and so onto the left piece.
    profile = t_s(F(1, 2), F(1, 10), F(1, 3))
    r = 3500 * STEP
    kink = next(i for i, piece in enumerate(profile.pieces) if piece.hi == F(7, 20))
    breaks = [float(piece.hi) for piece in profile.pieces[:-1]]
    assert r == 0.35000000000000003
    assert bisect_left(breaks, r) == kink + 1
    assert verify._piece_index(profile)(r) == _exact_index(profile, r) == kink


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


def test_oracle_makes_few_exact_lookups(monkeypatch):
    calls = 0
    piece_at = RadialProfile.piece_at

    def counted(self, r):
        nonlocal calls
        calls += 1
        return piece_at(self, r)

    monkeypatch.setattr(RadialProfile, "piece_at", counted)
    assert verify.case_orbit_oracle().passed
    assert calls <= 100
