"""Test-only profile helpers: textbook polynomial kernels, pointwise
cut-off values, conformal scaling and the CP^n normalization shift.

The package writes its cut-off constructions out as closed-form pieces;
these helpers give the property tests an independent pointwise form of
the cut-off mu_delta and the conformally rescaled profile
lam * h(r / lam).  The package's `poly_eval` and `poly_derivative` run in
Horner form and skip zero terms; the textbook sums below are what they
must equal exactly.  The package computes the CP^n normalization shift
in closed form; `normalization_shift` below expands the density, multiplies
it into each piece and integrates term by term.
"""

from fractions import Fraction
from math import comb

from symcap.profiles import CN, Piece, RadialProfile
from symcap.rationals import rat


def poly_eval(coeffs, r) -> Fraction:
    c0, c1, c2 = coeffs
    return c0 + c1 * r + c2 * r * r


def poly_derivative(coeffs, r) -> Fraction:
    _, c1, c2 = coeffs
    return c1 + 2 * c2 * r


def cutoff_value(delta, x) -> Fraction:
    """mu_delta(x): delta/2 below 0, identity above delta, quadratic between."""
    x = rat(x)
    d = rat(delta)
    if x <= 0:
        return d / 2
    if x >= d:
        return x
    return d / 2 + x * x / (2 * d)


def cutoff_derivative(delta, x) -> Fraction:
    x = rat(x)
    d = rat(delta)
    if x <= 0:
        return Fraction(0)
    if x >= d:
        return Fraction(1)
    return x / d


def scale_conformal(profile: RadialProfile, factor) -> RadialProfile:
    """lam * h(r / lam): the profile of the conformally rescaled system on C^n."""
    lam = rat(factor)
    if lam <= 0:
        raise ValueError("scale factor must be positive")
    if profile.space.kind != CN:
        raise ValueError("conformal scaling only makes sense on C^n")
    pieces = tuple(
        Piece(
            p.lo * lam,
            None if p.hi is None else p.hi * lam,
            (p.coeffs[0] * lam, p.coeffs[1], p.coeffs[2] / lam),
        )
        for p in profile.pieces
    )
    return RadialProfile(
        pieces,
        profile.space,
        construction=f"scaled({profile.construction})",
        params=profile.params,
        smooth=profile.smooth,
    )


def normalization_shift(profile: RadialProfile) -> Fraction:
    """Mean of the profile against the pushforward density n (1-x)^(n-1)."""
    n = profile.space.dim
    # n (1 - x)^(n-1) expanded in powers of x.
    density = [Fraction(n * comb(n - 1, j) * (-1) ** j) for j in range(n)]
    total = Fraction(0)
    for piece in profile.pieces:
        product = [Fraction(0)] * (len(piece.coeffs) + n - 1)
        for i, c in enumerate(piece.coeffs):
            for j, d in enumerate(density):
                product[i + j] += c * d
        total += sum(
            c * (piece.hi ** (j + 1) - piece.lo ** (j + 1)) / (j + 1)
            for j, c in enumerate(product)
        )
    return total
