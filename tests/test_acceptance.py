"""The fourteen acceptance criteria, one test each.

Every check is exact (zero tolerance on rational comparisons) and each
case finishes in well under ten seconds.  A pass/fail line is printed
per criterion so the suite reads as a checklist.
"""

from fractions import Fraction
from pathlib import Path

import pytest

from symcap import packing, spectra, verify


def _run(index: int, case) -> None:
    result = case()
    verdict = "PASS" if result.passed else "FAIL"
    print(f"criterion {index:2d}: {result.name} ... {verdict}")
    assert result.passed, (
        f"criterion {index} failed: expected {result.expected}, got {result.actual}"
    )


@pytest.mark.parametrize(
    "index,case",
    list(enumerate(verify._CASES, start=1)),
    ids=[
        "01-ellipsoid-table",
        "02-polydisk-table",
        "03-scaling-law",
        "04-min-formula",
        "05-packing",
        "06-two-ball-spectrum",
        "07-cylinder-displacement",
        "08-ball-chain",
        "09-composite-rotation-bound",
        "10-reeb-slope-law",
        "11-negation",
        "12-orbit-oracle",
        "13-projective-space-values",
        "14-deformation-family",
    ],
)
def test_acceptance_criterion(index, case):
    _run(index, case)


def test_suite_driver_reports_all_pass():
    result = verify.run_suite()
    assert result.ok
    text = verify.format_suite(result)
    assert "14 passed, 0 failed" in text
    assert text == (Path(__file__).parent / "data" / "verify.txt").read_text()


def test_packing_case_verifies_each_certificate_once(monkeypatch):
    # Two canonical certificates and three searched ones; the case reads
    # each certificate's cached verdict instead of verifying it again.
    calls = []
    original = packing.verify_certificate
    monkeypatch.setattr(packing, "verify_certificate", lambda c: calls.append(c) or original(c))
    assert verify.case_packing().passed
    assert not hasattr(verify, "verify_certificate")
    assert len(calls) == 5


def test_composite_case_fails_on_a_shifted_closed_form(monkeypatch):
    # The shift is far inside the bound's margin (at least 1/3520 on the
    # grid), so only the engine cross-check sees it, at the first corner.
    closed_form = verify.reeb_composite_spectrum
    shift = Fraction(1, 10**6)
    monkeypatch.setattr(
        verify, "reeb_composite_spectrum", lambda s, d: tuple(x + shift for x in closed_form(s, d))
    )
    result = verify.case_item_v_bound()
    assert not result.passed
    assert result.actual == "s=11/21 delta=1/80"


def test_composite_case_fails_when_the_engine_drops_interior_orbits(monkeypatch):
    find_orbits = spectra.find_orbits
    pinned = verify.max_action_check(Fraction(3, 4), Fraction(1, 10))
    monkeypatch.setattr(
        spectra, "find_orbits", lambda p: [o for o in find_orbits(p) if o.locus != "interior"]
    )
    result = verify.case_item_v_bound()
    assert not result.passed and result.actual == "pinned values"
    # With the pinned point kept intact, the grid's engine check fails.
    monkeypatch.setattr(verify, "max_action_check", lambda s, delta: pinned)
    result = verify.case_item_v_bound()
    assert not result.passed and result.actual == "s=11/21 delta=1/80"


@pytest.mark.parametrize(
    "excess, passed", [(0, True), (Fraction(1, 10**9), False)], ids=["at-the-bound", "above-it"]
)
def test_composite_case_checks_the_bound_at_every_grid_point(excess, passed, monkeypatch):
    # Raise the closed form's max to the bound plus `excess` at one grid
    # point, and let the engine agree everywhere: only the bound check,
    # which allows equality, can fail.
    closed_form = verify.reeb_composite_spectrum
    point = (Fraction(1, 2) + Fraction(10, 42), Fraction(10, 80))

    def raised(s, delta):
        low, high = closed_form(s, delta)
        if (s, delta) == point:
            high += delta * (2 * s - 1) / (4 * s) + excess
        return low, high

    def engine(profile):
        params = dict(profile.params)
        return spectra.SpectrumReport((), raised(params["s"], params["delta"]))

    monkeypatch.setattr(verify, "reeb_composite_spectrum", raised)
    monkeypatch.setattr(verify, "action_spectrum", engine)
    result = verify.case_item_v_bound()
    assert result.passed == passed
    assert result.actual == ("pass" if passed else "s=31/42 delta=1/8")


def test_composite_case_runs_the_engine_on_a_seeded_sample(monkeypatch):
    builds = []
    for module in (verify, spectra):
        build = module.reeb_composite
        monkeypatch.setattr(
            module,
            "reeb_composite",
            lambda s, delta, build=build: builds.append((s, delta)) or build(s, delta),
        )
    closed_forms = 0
    closed_form = verify.reeb_composite_spectrum

    def counted(s, delta):
        nonlocal closed_forms
        closed_forms += 1
        return closed_form(s, delta)

    monkeypatch.setattr(verify, "reeb_composite_spectrum", counted)
    corners = {
        (Fraction(1, 2) + Fraction(i, 42), Fraction(j, 80)) for i in (1, 20) for j in (1, 20)
    }
    samples = []
    for seed in ("0", "51"):
        monkeypatch.setenv("SYMCAP_SEED", seed)
        builds.clear()
        closed_forms = 0
        assert verify.case_item_v_bound().passed
        # The pinned point and 32 grid points, among them the corners; the
        # closed form once per grid point.
        assert len(builds) <= 40 and len(set(builds)) == 33
        assert corners <= set(builds)
        assert closed_forms == 400
        samples.append(set(builds))
    assert samples[0] != samples[1]
