"""Periodic orbits, action spectra, and the derived verification checks.

An orbit of a radial profile h sits wherever the derivative h'(r) is an
integer k (the winding); its action is the tangent-line intercept
h(r) - r h'(r).  The origin is always a fixed point with action h(0),
and on CP^n the two boundary loci x = 0, 1 are fixed with actions h(0),
h(1).  On CP^n actions recur modulo the recapping lattice, whose
generator is 1 with the line normalized to area 1.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import ceil, floor

from .profiles import (
    CPN,
    RadialProfile,
    TwoBallSystem,
    k_a,
    poly_derivative,
    reeb,
    reeb_composite,
    s_a,
    t_s,
)
from .rationals import rat

RECAPPING_GENERATOR = Fraction(1)  # area of a line in CP^n

# Budget on the orbit records of a recapped spectrum: window k gives 2k + 1
# records per orbit, and `symcap spectrum` writes each of them.  On a 2-vCPU
# Xeon with Python 3.11, k_a (a = 1/2) on CP^1 at window 1,249 (9,996
# records) takes 0.33 s and writes 1.8 MB of JSON; with --norm, 0.45 s.
RECAPPING_BUDGET = 10**4

_Z = Fraction(0)


@dataclass(frozen=True)
class OrbitRecord:
    locus: str  # center | interior | plateau | boundary-min | boundary-max
    winding: int
    action: Fraction
    radius: Fraction | None = None
    interval: tuple[Fraction, Fraction | None] | None = None
    recapping: int = 0


@dataclass(frozen=True)
class SpectrumReport:
    orbits: tuple[OrbitRecord, ...]
    spectrum: tuple[Fraction, ...]
    normalization_shift: Fraction | None = None
    construction: str = "custom"
    params: tuple[tuple[str, Fraction], ...] = ()

    def param(self, name: str) -> Fraction:
        for key, value in self.params:
            if key == name:
                return value
        raise KeyError(name)


def find_orbits(profile: RadialProfile) -> list[OrbitRecord]:
    """All 1-periodic loci: integer-slope plateaus, isolated integer-slope
    radii, the origin, and (on CP^n) the two boundary fixed loci.

    One pass over the pieces, which come in order.  An integer-slope affine
    piece that continues the last plateau extends it.  On a quadratic piece
    h' is affine, so each integer between its end slopes is taken at
    exactly one radius of the piece."""
    plateaus: list[OrbitRecord] = []
    isolated: dict[tuple[int, Fraction], OrbitRecord] = {}
    for piece in profile.pieces:
        c0, c1, c2 = piece.coeffs
        if c2 == 0:
            if c1.denominator != 1:
                continue
            # Integer slope: the action is the intercept c0, constant
            # along the plateau.
            last = plateaus[-1] if plateaus else None
            if last and (last.winding, last.action, last.interval[1]) == (c1, c0, piece.lo):
                plateaus[-1] = replace(last, interval=(last.interval[0], piece.hi))
            else:
                plateaus.append(
                    OrbitRecord("plateau", int(c1), c0, interval=(piece.lo, piece.hi))
                )
            continue
        d_lo = poly_derivative(piece.coeffs, piece.lo)
        d_hi = poly_derivative(piece.coeffs, piece.hi)
        for k in range(ceil(min(d_lo, d_hi)), floor(max(d_lo, d_hi)) + 1):
            radius = (k - c1) / (c2 + c2)
            # h(r) - r h'(r) with h'(r) = k: the c1 terms cancel.  A radius
            # on a breakpoint shared by two quadratics is listed once.
            isolated.setdefault(
                (k, radius), OrbitRecord("interior", k, c0 - c2 * radius * radius, radius=radius)
            )

    orbits = plateaus + [
        orbit
        for (k, radius), orbit in isolated.items()
        if not any(
            p.winding == k
            and p.interval[0] <= radius
            and (p.interval[1] is None or radius <= p.interval[1])
            for p in plateaus
        )
    ]
    if not plateaus or plateaus[0].interval[0] != 0:
        orbits.append(OrbitRecord("center", 0, profile.value(0)))
    if profile.space.kind == CPN:
        orbits.append(OrbitRecord("boundary-min", 0, profile.value(0)))
        orbits.append(OrbitRecord("boundary-max", 0, profile.value(1)))
    orbits.sort(key=_orbit_sort_key)
    return orbits


def _orbit_sort_key(orbit: OrbitRecord):
    position = (
        orbit.radius
        if orbit.radius is not None
        else (orbit.interval[0] if orbit.interval else _Z)
    )
    return (orbit.locus, position, orbit.winding)


def _normalization_shift(profile: RadialProfile) -> Fraction:
    """Mean of the profile against the pushforward density n (1-x)^(n-1).

    In y = 1 - x a piece is a0 + a1 y + a2 y^2, whose mass against the
    density n y^(n-1) on [0, y] is y^n (a0 + n y (a1/(n+1) + a2 y/(n+2)))."""
    n = profile.space.dim

    def mass(a0, a1, a2, y):
        return y**n * (a0 + n * y * (a1 / (n + 1) + a2 * y / (n + 2)))

    total = _Z
    for piece in profile.pieces:
        c0, c1, c2 = piece.coeffs
        a = (c0 + c1 + c2, -c1 - c2 - c2, c2)
        total += mass(*a, 1 - piece.lo) - mass(*a, 1 - piece.hi)
    return total


def action_spectrum(
    system: RadialProfile | TwoBallSystem, recapping_window: int = 0
) -> SpectrumReport:
    """Exact action spectrum; on CP^n includes recappings within the window.

    Raises ValueError, before recapping any orbit, when the window would
    give more than RECAPPING_BUDGET orbit records."""
    if recapping_window < 0:
        raise ValueError("recapping window must be >= 0")
    if isinstance(system, TwoBallSystem):
        orbits = find_orbits(system.positive) + find_orbits(system.negative)
        space = system.space
        shift = None
    else:
        orbits = find_orbits(system)
        space = system.space
        shift = _normalization_shift(system) if space.kind == CPN else None
    if space.kind == CPN and recapping_window:
        records = (2 * recapping_window + 1) * len(orbits)
        if records > RECAPPING_BUDGET:
            raise ValueError(
                f"recapping window {recapping_window} gives {records} orbit "
                f"records, above the budget of {RECAPPING_BUDGET}"
            )
        recapped = []
        for orbit in orbits:
            for k in range(-recapping_window, recapping_window + 1):
                recapped.append(
                    replace(orbit, recapping=k, action=orbit.action + k * RECAPPING_GENERATOR)
                )
        orbits = recapped
    spectrum = tuple(sorted({orbit.action for orbit in orbits}))
    return SpectrumReport(
        tuple(orbits),
        spectrum,
        normalization_shift=shift,
        construction=system.construction,
        params=system.params,
    )


# ---------------------------------------------------------------------------
# Spectral-norm candidate analysis
# ---------------------------------------------------------------------------


def spectral_norm_candidates(report: SpectrumReport) -> dict:
    """Candidate norms x - y > 0 (x, y in the spectrum) and the
    construction-specific selection.

    As spec(-h) = -spec(h), these are the positive sums of a value of h and
    one of -h.  Runs of lengths m and n starting at x and y have the gaps
    x - y + k g, -n < k < m, so the work is (runs)^2 x (run length).

    The selection mirrors the case analysis for the named constructions:
    candidates that collapse to a degenerate (zero-norm, non-identity)
    system under the parameter limits eta -> 0 or mu -> 0 are discarded,
    and the largest survivor is kept.
    """
    g = RECAPPING_GENERATOR
    values = set(report.spectrum)
    runs = []  # the maximal runs x, x + g, ..., x + (m - 1) g, as (x, m)
    for x in report.spectrum:
        if x - g not in values:
            m = 1
            while x + m * g in values:
                m += 1
            runs.append((x, m))
    gaps = {
        x - y + k * g
        for x, m in runs
        for y, n in runs
        for k in range(max(1 - n, (y - x) // g + 1), m)
    }
    if not gaps:
        # Identity system: the only candidate is zero.
        return {"candidates": (Fraction(0),), "selected": Fraction(0)}
    candidates = tuple(sorted(gaps))
    construction = report.construction
    if construction == "two_ball":
        eta, mu, delta = report.param("eta"), report.param("mu"), report.param("delta")
        a, b = report.param("a"), report.param("b")
        degenerate = {eta * a - delta / 2, mu * b - delta / 2}
        survivors = [c for c in candidates if c not in degenerate]
        if not survivors:
            raise ValueError("all candidates degenerate; spectrum inconsistent")
        selected = max(survivors)
        expected = eta * a + mu * b - delta
        if selected != expected:
            raise AssertionError("two-ball selection does not match the closed form")
    elif construction == "bump":
        selected = report.param("eta") * report.param("a") - report.param("delta") / 2
        if selected not in candidates:
            raise AssertionError("bump selection missing from candidates")
    else:
        selected = max(candidates)
    return {"candidates": candidates, "selected": selected}


# ---------------------------------------------------------------------------
# Derived checks
# ---------------------------------------------------------------------------


def max_action_check(s, delta) -> dict:
    """Max action of the composite rotation versus (1 - 2s)(1 + delta/2)."""
    s, delta = rat(s), rat(delta)
    profile = reeb_composite(s, delta)
    spectrum = action_spectrum(profile).spectrum
    bound = (1 - 2 * s) * (1 + delta / 2)
    max_action = max(spectrum)
    return {"max_action": max_action, "bound": bound, "ok": max_action <= bound}


def reeb_slope_law(sigmas, delta) -> dict:
    """Pure slowdowns have singleton spectra {-sigma (1 + delta/2)} obeying
    an exact affine law in the speed."""
    delta = rat(delta)
    speeds = [rat(sigma) for sigma in sigmas]
    unit = 1 + delta / 2
    spectra = {}
    for sigma in speeds:
        spectrum = action_spectrum(reeb(sigma, delta)).spectrum
        if len(spectrum) != 1:
            raise AssertionError(f"pure slowdown spectrum not a singleton: {spectrum}")
        spectra[sigma] = spectrum[0]
    ok = all(value == -sigma * unit for sigma, value in spectra.items())
    return {"spectra": spectra, "slope": -unit, "ok": ok}


# Denominator of the rational grid on [0, 1] that deformation_family_check scans.
_DEFORMATION_GRID = 60


def deformation_family_check(a, eps, s_samples) -> dict:
    """Pointwise checks of the family max(K_a, s K_a - eps) on a rational grid."""
    a, eps = rat(a), rat(eps)
    samples = sorted(rat(s) for s in s_samples)
    if any(not 0 <= s <= 1 for s in samples):
        raise ValueError("s samples must lie in [0, 1]")
    base = k_a(a)
    family = {s: t_s(a, eps, s) for s in samples}
    points = [Fraction(j, _DEFORMATION_GRID) for j in range(_DEFORMATION_GRID + 1)]
    failures = []
    for x in points:
        k_val = base.value(x)
        values = {s: family[s].value(x) for s in samples}
        if k_val >= -eps:
            for s, val in values.items():
                if val != k_val:
                    failures.append(("pinned where K >= -eps", x, s))
        ordered = [values[s] for s in samples]
        if any(v2 > v1 for v1, v2 in zip(ordered, ordered[1:])):
            failures.append(("not nonincreasing in s", x, None))
        if Fraction(0) in family:
            v0 = values[Fraction(0)]
            if not -eps <= v0 <= 0:
                failures.append(("T_0 outside [-eps, 0]", x, Fraction(0)))
        if Fraction(1) in family and values[Fraction(1)] != k_val:
            failures.append(("T_1 differs from K_a", x, Fraction(1)))
    return {"ok": not failures, "failures": failures}


def area_splitting_residual(a) -> Fraction:
    """Residual of the two naturality constants against the total area.

    The loop generated by S_a contributes a at the divisor and 1 - a at
    the top fixed point; their sum minus the line area must vanish.
    """
    a = rat(a)
    base = [o for o in find_orbits(s_a(a)) if o.locus.startswith("boundary")]
    min_critical = min(o.action for o in base)
    max_critical = max(o.action for o in base)
    divisor_constant = -min_critical
    top_constant = max_critical
    return divisor_constant + top_constant - RECAPPING_GENERATOR
