"""Test-only reference for the float orbit oracle: the per-k grid scan.

`verify.oracle_orbit_match` finds every root in one pass over the samples
and checks each plateau run once.  This is the scan it replaced: one pass
over the samples for every integer k, every root checked on its own
against every exact radius and plateau.  The tests require both to return
the same verdict and detail.
"""

from __future__ import annotations

import math

from symcap import verify
from symcap.profiles import RadialProfile


def sample_count(profile: RadialProfile) -> int:
    last = profile.pieces[-1]
    r_max = float(last.hi) if last.hi is not None else float(last.lo) + 2.0
    return int(max(r_max, 1.0) / verify._STEP) + 1


def derivative(profile: RadialProfile):
    """h'(r) at a float r, on the first piece whose float `hi` is at least
    r (the last piece past every breakpoint), found by a linear scan."""
    breaks = [float(piece.hi) for piece in profile.pieces[:-1]]
    coeffs = [(float(c1), float(c2)) for _, c1, c2 in (p.coeffs for p in profile.pieces)]

    def deriv(r: float) -> float:
        index = next((i for i, hi in enumerate(breaks) if r <= hi), len(breaks))
        c1, c2 = coeffs[index]
        return c1 + 2.0 * c2 * r

    return deriv


def reference_slopes(profile: RadialProfile) -> list[float]:
    deriv = derivative(profile)
    return [deriv(i * verify._STEP) for i in range(sample_count(profile))]


def oracle_orbit_match(profile: RadialProfile) -> tuple[bool, str]:
    step, tol = verify._STEP, verify._TOL
    last = profile.pieces[-1]
    r_max = max(float(last.hi) if last.hi is not None else float(last.lo) + 2.0, 1.0)

    deriv = derivative(profile)
    slopes = reference_slopes(profile)
    k_lo = math.floor(min(slopes))
    k_hi = math.ceil(max(slopes))

    exact = verify.find_orbits(profile)
    exact_radii = [float(o.radius) for o in exact if o.radius is not None]
    plateaus = [
        (float(lo) - 10 * tol, math.inf if hi is None else float(hi) + 10 * tol)
        for lo, hi in (o.interval for o in exact if o.locus == "plateau")
    ]

    found: list[float] = []
    for k in range(k_lo, k_hi + 1):
        for i in range(len(slopes) - 1):
            f0, f1 = slopes[i] - k, slopes[i + 1] - k
            if f0 == 0.0:
                found.append(i * step)
                continue
            if f0 * f1 < 0:
                lo, hi = i * step, (i + 1) * step
                for _ in range(80):
                    mid = (lo + hi) / 2
                    if (deriv(lo) - k) * (deriv(mid) - k) <= 0:
                        hi = mid
                    else:
                        lo = mid
                    if hi - lo < tol:
                        break
                found.append((lo + hi) / 2)

    for root in found:
        near_exact = any(abs(root - r) <= 10 * tol for r in exact_radii)
        in_plateau = any(lo <= root <= hi for lo, hi in plateaus)
        if not (near_exact or in_plateau):
            return False, f"oracle root {root} has no exact counterpart"
    for r in exact_radii:
        if r > r_max:
            continue
        if not any(abs(root - r) <= 10 * tol for root in found):
            return False, f"exact radius {r} missed by the oracle"
    return True, ""
