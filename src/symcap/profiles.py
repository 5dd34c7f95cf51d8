"""Piecewise-quadratic radial Hamiltonian profiles.

A profile is a function of the moment coordinate r = pi |z|^2 (on C^n)
or x = pi |z_0|^2 (on CP^n, domain [0, 1]).  Pieces have degree <= 2 so
derivatives are piecewise affine and every orbit radius is an exact
rational.  Three constructions bend one cut-off mu_delta, the convex C^1
quadratic spline equal to delta/2 below 0 and to the identity above
delta; each is written out as its three quadratic pieces.  The named
constructions, which `build_profile` dispatches on:

* ``bump(a, eta, delta)``: mu_delta(eta (a - r)) - delta/2.
* ``reeb(sigma, delta)``: -sigma (mu_delta(r - 1) + 1).
* ``reeb_composite(s, delta)``: r - 2 s (mu_delta(r - 1) + 1).
* ``s_a(a)``: x - a on CP^n.
* ``k_a(a)``: min(S_a, 0); kinked at x = a, so only C^0.
* ``t_s(a, eps, s)``: max(K_a, s K_a - eps); also only C^0.
* ``two_ball(a, b, eta, mu, delta)``: the two disjoint implants.
* ``zero``: the identity system.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .rationals import is_infinite, rat

CN = "cn"
CPN = "cpn"

Coeffs = tuple[Fraction, Fraction, Fraction]

_Z = Fraction(0)
_ONE = Fraction(1)


def _coeffs(c0=0, c1=0, c2=0) -> Coeffs:
    return (rat(c0), rat(c1), rat(c2))


# The two kernels below run in Horner form and skip the terms of zero
# coefficients, so an affine or constant piece costs no product with 0.
# They equal the textbook sums exactly (tests/profile_reference.py).


def poly_eval(coeffs: Coeffs, r: Fraction) -> Fraction:
    c0, c1, c2 = coeffs
    if c2:
        return c0 + (c1 + c2 * r) * r
    if c1:
        return c0 + c1 * r
    return c0


def poly_derivative(coeffs: Coeffs, r: Fraction) -> Fraction:
    _, c1, c2 = coeffs
    if c2:
        return c1 + (c2 + c2) * r
    return c1


@dataclass(frozen=True)
class Space:
    kind: str
    dim: int

    def __post_init__(self):
        if self.kind not in (CN, CPN):
            raise ValueError(f"unknown space kind {self.kind!r}")
        if type(self.dim) is not int:
            raise ValueError(f"dimension must be an integer, got {self.dim!r}")
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")


@dataclass(frozen=True)
class Piece:
    lo: Fraction
    hi: Fraction | None  # None marks the unbounded tail (C^n only)
    coeffs: Coeffs

    def contains(self, r: Fraction) -> bool:
        if r < self.lo:
            return False
        return self.hi is None or r <= self.hi


@dataclass(frozen=True)
class RadialProfile:
    pieces: tuple[Piece, ...]
    space: Space
    construction: str = "custom"
    params: tuple[tuple[str, Fraction], ...] = ()
    smooth: bool = True

    def __post_init__(self):
        if not self.pieces:
            raise ValueError("profile needs at least one piece")
        if self.pieces[0].lo != 0:
            raise ValueError("profile must start at 0")
        for piece in self.pieces:
            if piece.hi is not None and piece.hi < piece.lo:
                raise ValueError(f"piece [{piece.lo}, {piece.hi}] runs backwards")
        for left, right in zip(self.pieces, self.pieces[1:]):
            if left.hi is None or left.hi != right.lo:
                raise ValueError("pieces must be contiguous")
        last = self.pieces[-1]
        if self.space.kind == CN:
            if last.hi is not None:
                raise ValueError("C^n profiles need an unbounded tail piece")
            if last.coeffs[2] != 0:
                raise ValueError("tail must be affine")
        else:
            if last.hi != 1:
                raise ValueError("CP^n profiles live on [0, 1]")
        self._check_continuity()

    def _check_continuity(self):
        for left, right in zip(self.pieces, self.pieces[1:]):
            r = right.lo
            if poly_eval(left.coeffs, r) != poly_eval(right.coeffs, r):
                raise ValueError(f"profile discontinuous at r = {r}")
            if self.smooth and poly_derivative(left.coeffs, r) != poly_derivative(
                right.coeffs, r
            ):
                raise ValueError(f"profile not C^1 at r = {r}")

    def piece_at(self, r: Fraction) -> Piece:
        r = rat(r)
        if r < 0:
            raise ValueError("moment coordinate must be nonnegative")
        for piece in self.pieces:
            if piece.contains(r):
                return piece
        raise ValueError(f"coordinate {r} outside the profile domain")

    def value(self, r) -> Fraction:
        r = rat(r)
        return poly_eval(self.piece_at(r).coeffs, r)

    def derivative(self, r) -> Fraction:
        r = rat(r)
        return poly_derivative(self.piece_at(r).coeffs, r)

    def negate(self) -> "RadialProfile":
        pieces = tuple(
            Piece(p.lo, p.hi, tuple(-c for c in p.coeffs)) for p in self.pieces
        )
        return RadialProfile(
            pieces,
            self.space,
            construction=f"neg({self.construction})",
            params=self.params,
            smooth=self.smooth,
        )


@dataclass(frozen=True)
class TwoBallSystem:
    """Two radial implants with disjoint supports inside a larger domain."""

    positive: RadialProfile
    negative: RadialProfile
    construction: str = "two_ball"
    params: tuple[tuple[str, Fraction], ...] = ()

    @property
    def space(self) -> Space:
        return self.positive.space

    def negate(self) -> "TwoBallSystem":
        return TwoBallSystem(
            self.negative.negate(),
            self.positive.negate(),
            construction=f"neg({self.construction})",
            params=self.params,
        )


# ---------------------------------------------------------------------------
# Named constructions
# ---------------------------------------------------------------------------


def _finite(**params) -> tuple[Fraction, ...]:
    """The parameters as exact rationals, in order; the +inf sentinel is refused."""
    values = []
    for name, value in params.items():
        value = rat(value)
        if is_infinite(value):
            raise ValueError(f"{name} must be finite")
        values.append(value)
    return tuple(values)


def _params(**kwargs) -> tuple[tuple[str, Fraction], ...]:
    return tuple(sorted(kwargs.items()))


def zero_profile(space: Space | None = None) -> RadialProfile:
    space = space or Space(CN, 1)
    if space.kind == CN:
        pieces = (Piece(_Z, None, _coeffs(0)),)
    else:
        pieces = (Piece(_Z, Fraction(1), _coeffs(0)),)
    return RadialProfile(pieces, space, construction="zero")


def bump(a, eta, delta, dim: int = 1) -> RadialProfile:
    """mu_delta(eta (a - r)) - delta/2: the basic positive implant."""
    a, eta, delta = _finite(a=a, eta=eta, delta=delta)
    if a <= 0:
        raise ValueError("a must be positive")
    if not 0 < eta < 1:
        raise ValueError("eta must lie in (0, 1)")
    if not 0 < delta < eta * a:
        raise ValueError("delta must lie in (0, eta a)")
    # eta (a - r) runs down through delta at the knee and through 0 at a.
    knee = a - delta / eta
    c2 = eta * eta / (delta + delta)
    pieces = (
        Piece(_Z, knee, (eta * a - delta / 2, -eta, _Z)),
        Piece(knee, a, (a * a * c2, -(a + a) * c2, c2)),
        Piece(a, None, (_Z, _Z, _Z)),
    )
    return RadialProfile(
        pieces,
        Space(CN, dim),
        construction="bump",
        params=_params(a=a, eta=eta, delta=delta),
    )


def _slowed_rotation(slope: Fraction, sigma: Fraction, delta: Fraction) -> tuple[Piece, ...]:
    """slope r - sigma (mu_delta(r - 1) + 1), whose cut-off bends on [1, 1 + delta]."""
    flat = -sigma * (delta / 2 + 1)
    c2 = -sigma / (delta + delta)
    knee = 1 + delta
    return (
        Piece(_Z, _ONE, (flat, slope, _Z)),
        Piece(_ONE, knee, (flat + c2, slope - c2 - c2, c2)),
        Piece(knee, None, (_Z, slope - sigma, _Z)),
    )


def reeb(sigma, delta, dim: int = 1) -> RadialProfile:
    """-sigma (mu_delta(r - 1) + 1): the slowed-down negative rotation."""
    sigma, delta = _finite(sigma=sigma, delta=delta)
    if not 0 <= sigma < 1:
        raise ValueError("sigma must lie in [0, 1)")
    if delta <= 0:
        raise ValueError("delta must be positive")
    # sigma = 0 is the zero profile, one piece: the plot window reads the
    # last piece's lo.
    if sigma == 0:
        pieces = zero_profile().pieces
    else:
        pieces = _slowed_rotation(_Z, sigma, delta)
    return RadialProfile(
        pieces,
        Space(CN, dim),
        construction="reeb",
        params=_params(sigma=sigma, delta=delta),
    )


def reeb_composite(s, delta, dim: int = 1) -> RadialProfile:
    """r - 2s (mu_delta(r - 1) + 1): full rotation against a doubled Reeb slowdown."""
    s, delta = _finite(s=s, delta=delta)
    if not Fraction(1, 2) < s < 1:
        raise ValueError("s must lie in (1/2, 1)")
    if delta <= 0:
        raise ValueError("delta must be positive")
    return RadialProfile(
        _slowed_rotation(_ONE, s + s, delta),
        Space(CN, dim),
        construction="reeb_composite",
        params=_params(s=s, delta=delta),
    )


def s_a(a, dim: int = 1) -> RadialProfile:
    """x - a on CP^n: the generator of the standard circle action."""
    (a,) = _finite(a=a)
    if not 0 < a < 1:
        raise ValueError("a must lie in (0, 1)")
    pieces = (Piece(_Z, Fraction(1), _coeffs(-a, 1)),)
    return RadialProfile(
        pieces, Space(CPN, dim), construction="s_a", params=_params(a=a)
    )


def k_a(a, dim: int = 1) -> RadialProfile:
    """min(S_a, 0); kinked at x = a."""
    (a,) = _finite(a=a)
    if not 0 < a < 1:
        raise ValueError("a must lie in (0, 1)")
    pieces = (
        Piece(_Z, a, _coeffs(-a, 1)),
        Piece(a, Fraction(1), _coeffs(0)),
    )
    return RadialProfile(
        pieces, Space(CPN, dim), construction="k_a", params=_params(a=a), smooth=False
    )


def t_s(a, eps, s, dim: int = 1) -> RadialProfile:
    """max(K_a, s K_a - eps): the deformation family between K_a and -eps."""
    a, eps, s = _finite(a=a, eps=eps, s=s)
    if not 0 < a < 1:
        raise ValueError("a must lie in (0, 1)")
    if not 0 < eps < a:
        raise ValueError("eps must lie in (0, a)")
    if not 0 <= s <= 1:
        raise ValueError("s must lie in [0, 1]")
    # where K_a meets s K_a - eps; at s = 1, K_a and s K_a - eps never meet
    crossing = a - eps / (1 - s) if s < 1 else _Z
    pieces = []
    if crossing > 0:
        pieces.append(Piece(_Z, crossing, _coeffs(-s * a - eps, s)))
        pieces.append(Piece(crossing, a, _coeffs(-a, 1)))
    else:
        pieces.append(Piece(_Z, a, _coeffs(-a, 1)))
    pieces.append(Piece(a, Fraction(1), _coeffs(0)))
    return RadialProfile(
        tuple(pieces),
        Space(CPN, dim),
        construction="t_s",
        params=_params(a=a, eps=eps, s=s),
        smooth=False,
    )


def two_ball(a, b, eta, mu, delta, dim: int = 1) -> TwoBallSystem:
    """Implant bump(a, eta, delta) and -bump(b, mu, delta) on disjoint balls."""
    a, b, eta, mu, delta = _finite(a=a, b=b, eta=eta, mu=mu, delta=delta)
    positive = bump(a, eta, delta, dim)
    negative = bump(b, mu, delta, dim).negate()
    return TwoBallSystem(
        positive, negative, params=_params(a=a, b=b, eta=eta, mu=mu, delta=delta)
    )


def _sized(builder):
    """A construction of fixed kind takes only the dimension of the space."""
    return lambda space, **params: builder(dim=space.dim, **params)


_BUILDERS = {f.__name__: _sized(f) for f in (bump, reeb, reeb_composite, s_a, k_a, t_s, two_ball)}
_BUILDERS["zero"] = zero_profile  # the identity lives on C^n and CP^n alike


def build_profile(name: str, space: Space | None = None, **params) -> RadialProfile | TwoBallSystem:
    """Build a named construction on `space` (default C^1).  See the
    module docstring for the catalog."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ValueError(f"unknown construction {name!r}") from None
    return builder(space or Space(CN, 1), **params)
