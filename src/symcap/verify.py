"""The acceptance suite: every headline identity checked exactly.

Each case compares an expected value (or predicate) against a freshly
computed one; rational comparisons have zero tolerance.  Randomized
cases draw from a generator seeded by SYMCAP_SEED (default 0) so runs
are reproducible.
"""

from __future__ import annotations

import math
import os
import random
from bisect import bisect_left, bisect_right
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

from .capacities import (
    c2b_closed_form,
    compose_ball_bound,
    cylinder_bound_report,
    cylinder_upper_bound,
    displacement_bounds,
    displacement_energy_ball_bracket,
    special_ball_values,
    spectral_diameter,
    spectral_diameter_ellipsoid,
)
from .exactgeom import ellipsoid, polydisk, scale_domain
from .packing import SearchConfig, canonical_certificate, search_two_balls
from .profiles import (
    RadialProfile,
    TwoBallSystem,
    bump,
    k_a,
    reeb,
    reeb_composite,
    s_a,
    t_s,
    two_ball,
)
from .rationals import INF, fmt
from .spectra import (
    action_spectrum,
    deformation_family_check,
    find_orbits,
    area_splitting_residual,
    max_action_check,
    reeb_composite_spectrum,
    reeb_slope_law,
    spectral_norm_candidates,
)


@dataclass(frozen=True)
class CaseResult:
    name: str
    expected: str
    actual: str
    passed: bool


@dataclass(frozen=True)
class SuiteResult:
    cases: tuple[CaseResult, ...]

    @property
    def passed(self) -> int:
        return sum(case.passed for case in self.cases)

    @property
    def failed(self) -> int:
        return len(self.cases) - self.passed

    @property
    def ok(self) -> bool:
        return self.failed == 0


def _rng() -> random.Random:
    return random.Random(int(os.environ.get("SYMCAP_SEED", "0")))


def _random_rational(rng: random.Random, lo: int = 1, hi: int = 40) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, 12))


def _case(name: str, expected, actual) -> CaseResult:
    return CaseResult(name, str(expected), str(actual), expected == actual)


def _predicate_case(name: str, ok: bool, detail: str = "") -> CaseResult:
    return CaseResult(name, "pass", detail if detail and not ok else ("pass" if ok else "fail"), ok)


# ---------------------------------------------------------------------------
# The fourteen criteria
# ---------------------------------------------------------------------------


def case_ellipsoid_table() -> CaseResult:
    table = [
        ((1, 1, 1), Fraction(1)),
        ((2, 3), Fraction(3)),
        ((1, 2, 7), Fraction(2)),
        ((1, INF), Fraction(2)),
    ]
    actual = tuple(spectral_diameter(ellipsoid(*a)).value for a, _ in table)
    expected = tuple(v for _, v in table)
    return _case("ellipsoid spectral diameter table", expected, actual)


def case_polydisk_table() -> CaseResult:
    table = [
        ((2,), Fraction(2)),
        ((1, 1), Fraction(2)),
        ((Fraction(1, 2), 3, 9), Fraction(1)),
    ]
    actual = tuple(spectral_diameter(polydisk(*a)).value for a, _ in table)
    expected = tuple(v for _, v in table)
    return _case("polydisk spectral diameter table", expected, actual)


def case_scaling_law() -> CaseResult:
    rng = _rng()
    for _ in range(100):
        lam = _random_rational(rng)
        n = rng.randint(1, 4)
        params = sorted(_random_rational(rng) for _ in range(n))
        domain = ellipsoid(*params) if rng.random() < 0.5 else polydisk(*params)
        base = spectral_diameter(domain).value
        scaled = spectral_diameter(scale_domain(domain, lam)).value
        if scaled != lam * base:
            return _predicate_case(
                "scaling law", False, f"{domain.describe()} scaled by {fmt(lam)}"
            )
    return _predicate_case("scaling law on 100 random domains", True)


def case_min_formula() -> CaseResult:
    rng = _rng()
    for _ in range(1000):
        n = rng.randint(1, 5)
        params = sorted(_random_rational(rng) for _ in range(n))
        value = spectral_diameter_ellipsoid(params).value
        if value != min(params[-1], 2 * params[0]):
            return _predicate_case("min formula", False, f"params {params}")
    boundary = [Fraction(1), Fraction(3, 2), Fraction(2)]
    if spectral_diameter_ellipsoid(boundary).value != 2:
        return _predicate_case("min formula", False, "branch boundary a_n = 2 a_1")
    return _predicate_case("min(a_n, 2a_1) on 1000 random tuples", True)


def case_packing() -> CaseResult:
    eps = Fraction(1, 100)
    for domain in (ellipsoid(1, 2), polydisk(1, 1)):
        cert = canonical_certificate(domain, eps)
        if cert.total != Fraction(199, 100) or not cert.verified:
            return _predicate_case("packing", False, f"canonical {domain.describe()}")
    config = SearchConfig(equal_balls=False)
    for domain, floor in (
        (ellipsoid(1, 2), Fraction(199, 100)),
        (polydisk(1, 1), Fraction(199, 100)),
        (ellipsoid(1, 1), Fraction(99, 100)),
    ):
        try:
            cert = search_two_balls(domain, config)
        except ValueError:
            return _predicate_case("packing", False, f"search {domain.describe()}")
        ceiling = c2b_closed_form(domain).value
        if cert.total < floor or cert.total > ceiling:
            return _predicate_case("packing", False, f"search {domain.describe()}")
        if not cert.verified:
            return _predicate_case("packing", False, f"unverified {domain.describe()}")
    return _predicate_case("canonical certificates and search totals", True)


def case_two_ball_spectrum() -> CaseResult:
    system = two_ball(1, 1, Fraction(9, 10), Fraction(4, 5), Fraction(1, 100))
    report = action_spectrum(system)
    spectrum = set(report.spectrum)
    expected_spectrum = {Fraction(0), Fraction(179, 200), Fraction(-159, 200)}
    analysis = spectral_norm_candidates(report)
    expected_candidates = {Fraction(179, 200), Fraction(159, 200), Fraction(169, 100)}
    ok = (
        spectrum == expected_spectrum
        and set(analysis["candidates"]) == expected_candidates
        and analysis["selected"] == Fraction(169, 100)
    )
    if ok:
        # Limit behavior: selected -> a + b = 2 as the shape parameters tighten.
        for k in (10, 100, 1000):
            tight = two_ball(1, 1, 1 - Fraction(1, k), 1 - Fraction(1, k), Fraction(1, 10 * k))
            sel = spectral_norm_candidates(action_spectrum(tight))["selected"]
            if abs(sel - 2) > Fraction(3, k):
                ok = False
                break
    return _predicate_case("two-ball spectrum, candidates, selection, limit", ok)


def case_cylinder_displacement() -> CaseResult:
    ok = (
        cylinder_upper_bound(0) == 2
        and cylinder_upper_bound(Fraction(1, 10)) == Fraction(11, 5)
        and cylinder_bound_report(Fraction(1, 10)).steps[-1].value == 2
        and displacement_bounds(1).upper == 2
    )
    bracket = displacement_energy_ball_bracket(Fraction(1, 100), Fraction(1, 100))
    ok = ok and bracket.lower == Fraction(99, 100) and bracket.upper == Fraction(101, 100)
    return _predicate_case("cylinder and displacement arithmetic", ok)


def case_ball_chain() -> CaseResult:
    for i in range(1, 11):
        s = Fraction(1, 2) + Fraction(i, 22)
        delta = Fraction(i, 40)
        report = compose_ball_bound(s, delta)
        if report.upper != 1 + delta / 2:
            return _predicate_case("ball chain", False, f"s={fmt(s)} delta={fmt(delta)}")
    return _predicate_case("five-step chain equals 1 + delta/2 on 10-point grid", True)


# Points of case_item_v_bound's grid, besides its corners, at which it runs
# the orbit engine.
_COMPOSITE_SAMPLES = 28


def case_item_v_bound() -> CaseResult:
    """Max action of reeb_composite(s, delta) at most (1 - 2s)(1 + delta/2).

    The pinned point (3/4, 1/10) goes through the orbit engine.  At each
    point s = 1/2 + i/42, delta = j/80 (i, j = 1..20) of a 20x20 grid the
    closed form `reeb_composite_spectrum` must obey the bound; its margin
    is exactly delta (2s - 1)/(4s), positive on the whole region
    1/2 < s < 1, delta > 0.  At the four corners and at
    `_COMPOSITE_SAMPLES` more grid points drawn with `_rng()` the engine's
    whole spectrum must equal the closed form; tests/test_spectra.py
    requires the same at every grid point."""
    check = max_action_check(Fraction(3, 4), Fraction(1, 10))
    if check["max_action"] != Fraction(-13, 24) or check["bound"] != Fraction(-21, 40):
        return _predicate_case("composite rotation bound", False, "pinned values")
    corners = [(1, 1), (1, 20), (20, 1), (20, 20)]
    inner = [(i, j) for i in range(1, 21) for j in range(1, 21) if (i, j) not in corners]
    sampled = set(corners + _rng().sample(inner, _COMPOSITE_SAMPLES))
    for i in range(1, 21):
        s = Fraction(1, 2) + Fraction(i, 42)
        tail = 1 - 2 * s
        for j in range(1, 21):
            delta = Fraction(j, 80)
            spectrum = reeb_composite_spectrum(s, delta)
            if max(spectrum) > tail * (1 + delta / 2) or (
                (i, j) in sampled
                and action_spectrum(reeb_composite(s, delta)).spectrum != spectrum
            ):
                return _predicate_case(
                    "composite rotation bound", False, f"s={fmt(s)} delta={fmt(delta)}"
                )
    return _predicate_case("composite rotation bound on 20x20 grid", True)


def case_reeb_slope() -> CaseResult:
    sigmas = [Fraction(1, 4), Fraction(1, 2), Fraction(1, 10), Fraction(9, 10)]
    result = reeb_slope_law(sigmas, Fraction(1, 10))
    return _predicate_case("pure slowdown spectra obey the affine slope law", result["ok"])


def _sample_systems() -> list[RadialProfile | TwoBallSystem]:
    return [
        bump(1, Fraction(9, 10), Fraction(1, 100)),
        bump(Fraction(3, 2), Fraction(1, 2), Fraction(1, 10)),
        reeb(Fraction(1, 2), Fraction(1, 10)),
        reeb_composite(Fraction(3, 4), Fraction(1, 10)),
        reeb_composite(Fraction(2, 3), Fraction(1, 100)),
        two_ball(1, 1, Fraction(9, 10), Fraction(4, 5), Fraction(1, 100)),
        s_a(Fraction(1, 4)),
        k_a(Fraction(1, 2)),
        t_s(Fraction(1, 2), Fraction(1, 10), Fraction(1, 3)),
    ]


def case_negation() -> CaseResult:
    for system in _sample_systems():
        forward = action_spectrum(system).spectrum
        backward = action_spectrum(system.negate()).spectrum
        if backward != tuple(sorted(-x for x in forward)):
            name = getattr(system, "construction", "?")
            return _predicate_case("negation", False, name)
    return _predicate_case("spectrum(-h) = -spectrum(h) on all constructions", True)


def _sample_profiles() -> list[RadialProfile]:
    """The profiles of `_sample_systems`, both halves of each two-ball system."""
    profiles = []
    for system in _sample_systems():
        if isinstance(system, TwoBallSystem):
            profiles += [system.positive, system.negative]
        else:
            profiles.append(system)
    return profiles


def case_orbit_oracle() -> CaseResult:
    for profile in _sample_profiles():
        ok, detail = oracle_orbit_match(profile)
        if not ok:
            return _predicate_case("orbit oracle", False, f"{profile.construction}: {detail}")
    return _predicate_case("exact orbit radii match the grid-scan oracle", True)


def case_cpn_values() -> CaseResult:
    report = action_spectrum(s_a(Fraction(1, 4)), recapping_window=1)
    if report.spectrum != (Fraction(-5, 4), Fraction(-1, 4), Fraction(3, 4), Fraction(7, 4)):
        return _predicate_case("projective-space values", False, "recapped spectrum")
    base = action_spectrum(s_a(Fraction(1, 4)))
    if set(base.spectrum) != {Fraction(-1, 4), Fraction(3, 4)}:
        return _predicate_case("projective-space values", False, "critical values")
    for a in (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)):
        values = special_ball_values(a)
        if values["capacity"] != 1 - a or area_splitting_residual(a) != 0:
            return _predicate_case("projective-space values", False, f"a={fmt(a)}")
    return _predicate_case("circle-action criticals, special ball, residual", True)


def case_deformation_family() -> CaseResult:
    samples = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]
    for a, eps in ((Fraction(1, 2), Fraction(1, 10)), (Fraction(1, 4), Fraction(1, 50))):
        result = deformation_family_check(a, eps, samples)
        if not result["ok"]:
            return _predicate_case(
                "deformation family", False, f"a={fmt(a)} eps={fmt(eps)}"
            )
    return _predicate_case("deformation family pointwise checks", True)


# ---------------------------------------------------------------------------
# Floating-point orbit oracle
# ---------------------------------------------------------------------------


# Grid step of the oracle's scan, and the width to which it bisects a root.
_STEP = 1e-4
_TOL = 1e-9
# How near a root must lie to an exact radius to match it; plateaus are
# widened by as much at each end.
_MATCH = 10 * _TOL


def oracle_orbit_match(profile: RadialProfile) -> tuple[bool, str]:
    """Compare exact orbit radii against a float grid scan of h'(r) = k.

    Samples h' on [0, R] in steps of `_STEP` and finds the roots of
    h'(r) - k for every integer k in one pass over the runs of equal
    consecutive slope: an affine piece is one run, a quadratic piece a
    run per sample.  The pieces are decided in floats alone: a float r
    lies on the first piece whose float `hi` is at least r, so a sample on
    a float breakpoint takes the left piece.  A sample whose slope is an
    integer k is itself a root, and a run of them is one group.  The
    slope's floor changes only between runs, so only the last sample of a
    run and the first of the next can bracket a k strictly between their
    slopes, and every sign change of h' - k there is bisected to `_TOL`.
    Each root needs a matching exact radius within 10 `_TOL` or a covering
    plateau widened by as much; a run that one plateau covers end to end
    is checked once, any other run root by root.  Roots are checked by k,
    then by sample index, so the first root without a counterpart is
    named.  Last, each isolated exact radius needs an oracle root within
    10 `_TOL`.
    """
    last = profile.pieces[-1]
    r_max = float(last.hi) if last.hi is not None else float(last.lo) + 2.0
    r_max = max(r_max, 1.0)

    deriv = _derivative(profile)
    runs = _sample_runs(profile, int(r_max / _STEP) + 1)

    exact = find_orbits(profile)
    exact_radii = [float(o.radius) for o in exact if o.radius is not None]
    plateaus = [
        (float(lo) - _MATCH, math.inf if hi is None else float(hi) + _MATCH)
        for lo, hi in (o.interval for o in exact if o.locus == "plateau")
    ]

    # Each group is (k, index of its first sample, its ascending roots).
    groups: list[tuple[int, int, Sequence[float]]] = []
    # The last sample starts no pair, so it is never a root itself.
    end = runs[-1][1] - 1
    # The last run is paired with itself, which brackets no k.
    for (start, stop, s0), (_, _, s1) in zip(runs, runs[1:] + runs[-1:]):
        if s0.is_integer() and start < end:
            groups.append((int(s0), start, _SampleRun(range(start, min(stop, end)))))
        i = stop - 1
        for k in range(math.floor(min(s0, s1)) + 1, math.floor(max(s0, s1)) + 1):
            if (s0 - k) * (s1 - k) < 0:
                lo, hi = i * _STEP, (i + 1) * _STEP
                for _ in range(80):
                    mid = (lo + hi) / 2
                    if (deriv(lo) - k) * (deriv(mid) - k) <= 0:
                        hi = mid
                    else:
                        lo = mid
                    if hi - lo < _TOL:
                        break
                groups.append((k, i, [(lo + hi) / 2]))

    groups.sort(key=itemgetter(0, 1))
    radii = sorted(exact_radii)
    for _, _, roots in groups:
        root = _first_unmatched(roots, radii, plateaus)
        if root is not None:
            return False, f"oracle root {root} has no exact counterpart"
    for r in exact_radii:
        if r > r_max:
            continue
        if not any(_near(roots, r) for _, _, roots in groups):
            return False, f"exact radius {r} missed by the oracle"
    return True, ""


class _SampleRun(Sequence):
    """The sample radii ``i * _STEP`` for i in `indices`, ascending."""

    def __init__(self, indices: range) -> None:
        self.indices = indices

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, j: int) -> float:
        return self.indices[j] * _STEP


def _first_unmatched(
    roots: Sequence[float], radii: list[float], plateaus: list[tuple[float, float]]
) -> float | None:
    """The first of the ascending `roots` that lies neither within `_MATCH`
    of one of the ascending `radii` nor in a plateau, or None.  A run that
    one plateau covers from its first root to its last passes at once."""
    if any(lo <= roots[0] and roots[-1] <= hi for lo, hi in plateaus):
        return None
    for root in roots:
        if not (_near(radii, root) or any(lo <= root <= hi for lo, hi in plateaus)):
            return root
    return None


def _near(ascending: Sequence[float], x: float) -> bool:
    """Whether some value of `ascending` lies within `_MATCH` of x.  Float
    subtraction is monotone, so the values on either side of x decide."""
    j = bisect_left(ascending, x)
    return (j < len(ascending) and abs(x - ascending[j]) <= _MATCH) or (
        j > 0 and abs(x - ascending[j - 1]) <= _MATCH
    )


def _derivative(profile: RadialProfile) -> Callable[[float], float]:
    """h'(r) at a float r: ``c1 + 2.0 * c2 * r`` on the first piece whose
    float `hi` is at least r, the last piece past every breakpoint.  At a
    float breakpoint the left piece wins."""
    breaks = [float(piece.hi) for piece in profile.pieces[:-1]]
    coeffs = [(float(c1), float(c2)) for _, c1, c2 in (p.coeffs for p in profile.pieces)]

    def deriv(r: float) -> float:
        c1, c2 = coeffs[bisect_left(breaks, r)]
        return c1 + 2.0 * c2 * r

    return deriv


def _sample_runs(profile: RadialProfile, samples: int) -> list[tuple[int, int, float]]:
    """The slopes ``_derivative(profile)(i * _STEP)`` for i < `samples`, bit
    for bit, as runs ``(start, stop, slope)`` of equal consecutive slopes
    that tile ``[0, samples)``; adjacent runs differ in slope.  Each piece
    takes the samples up to and including its float `hi`, and the last
    piece takes the rest.  An affine piece gives one run, a quadratic one
    a run per sample before merging."""
    radii = _SampleRun(range(samples))
    last = len(profile.pieces) - 1
    runs: list[tuple[int, int, float]] = []
    start = 0
    for p, piece in enumerate(profile.pieces):
        _, c1, c2 = piece.coeffs
        c1, twice = float(c1), 2.0 * float(c2)
        stop = samples if p == last else bisect_right(radii, float(piece.hi))
        if twice == 0.0:  # twice * r is twice itself for every r >= 0
            spans = [(start, stop, c1 + twice)] if start < stop else []
        else:
            spans = [(i, i + 1, c1 + twice * (i * _STEP)) for i in range(start, stop)]
        for span in spans:
            if runs and runs[-1][2] == span[2]:
                runs[-1] = (runs[-1][0], span[1], span[2])
            else:
                runs.append(span)
        start = max(start, stop)
    return runs


# ---------------------------------------------------------------------------
# Suite driver
# ---------------------------------------------------------------------------

_CASES = (
    case_ellipsoid_table,
    case_polydisk_table,
    case_scaling_law,
    case_min_formula,
    case_packing,
    case_two_ball_spectrum,
    case_cylinder_displacement,
    case_ball_chain,
    case_item_v_bound,
    case_reeb_slope,
    case_negation,
    case_orbit_oracle,
    case_cpn_values,
    case_deformation_family,
)


def run_suite() -> SuiteResult:
    return SuiteResult(tuple(case() for case in _CASES))


def format_suite(result: SuiteResult) -> str:
    lines = []
    width = max(len(case.name) for case in result.cases)
    for i, case in enumerate(result.cases, 1):
        verdict = "PASS" if case.passed else "FAIL"
        lines.append(f"{i:2d}. {case.name:<{width}}  {verdict}")
        if not case.passed:
            lines.append(f"    expected: {case.expected}")
            lines.append(f"    actual:   {case.actual}")
    lines.append(f"{result.passed} passed, {result.failed} failed")
    return "\n".join(lines) + "\n"
