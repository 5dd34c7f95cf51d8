"""Closed-form capacity values and bound composition.

The exact formulas implemented here:

* spectral diameter of an ellipsoid: min(a_n, 2 a_1), with an +inf
  sentinel allowed for cylinder factors;
* spectral diameter of a polydisk: a_1 for n = 1, otherwise 2 a_1;
* the two-ball capacity coincides with the spectral diameter on
  ellipsoids and polydisks (supremum, never attained);
* Gromov width of the preimage of a standard simplex of capacity a is a.

Bound reports chain named inequality steps so a verification run can
print the full derivation; the five-step ball bound carries its opaque
spectral terms symbolically and insists that they cancel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .exactgeom import ELLIPSOID, POLYDISK, ToricDomain
from .rationals import fmt, is_infinite, rat


@dataclass(frozen=True)
class CapacityValue:
    value: Fraction
    attained: bool
    provenance: str

    def __post_init__(self):
        if not self.provenance:
            raise ValueError("provenance label must be nonempty")


@dataclass(frozen=True)
class BoundStep:
    rule: str
    detail: str
    value: Fraction


@dataclass(frozen=True)
class BoundReport:
    lower: Fraction
    upper: Fraction
    steps: tuple[BoundStep, ...] = ()

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError("lower bound exceeds upper bound")


def spectral_diameter_ellipsoid(params) -> CapacityValue:
    """min(a_n, 2 a_1): the short-axis doubling saturates for long ellipsoids."""
    a = ToricDomain(ELLIPSOID, tuple(rat(v) for v in params)).params
    double = 2 * a[0]
    value = double if is_infinite(a[-1]) else min(a[-1], double)
    return CapacityValue(value, attained=False, provenance="ellipsoid spectral diameter")


def spectral_diameter_polydisk(params) -> CapacityValue:
    a = ToricDomain(POLYDISK, tuple(rat(v) for v in params)).params
    value = a[0] if len(a) == 1 else 2 * a[0]
    return CapacityValue(value, attained=False, provenance="polydisk spectral diameter")


def spectral_diameter(domain: ToricDomain) -> CapacityValue:
    if domain.kind == ELLIPSOID:
        return spectral_diameter_ellipsoid(domain.params)
    if domain.kind == POLYDISK:
        return spectral_diameter_polydisk(domain.params)
    raise ValueError("no closed-form spectral diameter for general polytopes")


def c2b_closed_form(domain: ToricDomain) -> CapacityValue:
    """Two-ball capacity; equals the spectral diameter for these kinds."""
    base = spectral_diameter(domain)
    return CapacityValue(base.value, attained=False, provenance="two-ball capacity")


def gromov_width_simplex_preimage(a) -> CapacityValue:
    a = rat(a)
    if is_infinite(a) or a <= 0:
        raise ValueError("simplex capacity must be a positive rational")
    return CapacityValue(a, attained=False, provenance="simplex preimage Gromov width")


def cylinder_upper_bound(delta) -> Fraction:
    """Hofer-norm cost 2 + 2*delta of the cut-off displacing shear."""
    delta = rat(delta)
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    return 2 + 2 * delta


def cylinder_bound_report(delta) -> BoundReport:
    value = cylinder_upper_bound(delta)
    steps = (
        BoundStep("displace the unit square by a vertical shear", "gamma <= 2 gamma(shear)", value),
        BoundStep("spectral norm below Hofer norm", "gamma(shear) <= 1 + delta", value),
        BoundStep("infimum over delta", "gamma(cylinder) <= 2", Fraction(2)),
    )
    return BoundReport(Fraction(0), value, steps)


def displacement_bounds(energy) -> BoundReport:
    """Upper bounds from a displacing system of norm e: c <= e, gamma <= 2e."""
    e = rat(energy)
    if e < 0:
        raise ValueError("displacement energy must be nonnegative")
    steps = (
        BoundStep("unit-class invariant under displacement", "c <= e", e),
        BoundStep("norm under displacement", "gamma <= 2e", 2 * e),
    )
    return BoundReport(Fraction(0), 2 * e, steps)


def displacement_energy_ball_bracket(eps, delta) -> BoundReport:
    """Bracket [1 - eps, 1 + delta] around the displacement energy of B(1).

    The lower bound comes from a bump of invariant close to 1 inside the
    ball; the upper bound from the cut-off shear whose Hofer norm is
    1 + delta and whose time-1 map displaces the ball.
    """
    eps = rat(eps)
    delta = rat(delta)
    if eps <= 0 or eps >= 1 or delta <= 0:
        raise ValueError("need 0 < eps < 1 and delta > 0")
    steps = (
        BoundStep("bump lower bound", "c(bump) = 1 - eps forces energy >= 1 - eps", 1 - eps),
        BoundStep("displacing shear upper bound", "energy <= 1 + delta", 1 + delta),
    )
    return BoundReport(1 - eps, 1 + delta, steps)


def special_ball_values(a) -> dict:
    """Capacity and critical values for the round special ball in CP^n."""
    a = rat(a)
    if is_infinite(a) or not 0 < a < 1:
        raise ValueError("a must lie in (0, 1)")
    return {
        "capacity": 1 - a,
        "spectral_diameter": 1 - a,
        "max_critical": 1 - a,
        "min_critical": -a,
    }


# ---------------------------------------------------------------------------
# The five-step ball bound
# ---------------------------------------------------------------------------


class CancellationError(ArithmeticError):
    """The opaque spectral terms of the chain failed to cancel."""


@dataclass
class _SymbolicBound:
    """A rational constant plus integer combinations of opaque terms."""

    constant: Fraction
    terms: dict[str, int] = field(default_factory=dict)

    def add_term(self, name: str, coeff: int) -> None:
        new = self.terms.get(name, 0) + coeff
        if new:
            self.terms[name] = new
        else:
            self.terms.pop(name, None)


def compose_ball_bound(s, delta) -> BoundReport:
    """Chain the five inequalities bounding the norm of a ball-supported system.

    The opaque invariants c(.; unit) and c(.; point) are carried as
    symbols; the chain is valid only because they cancel exactly, and a
    CancellationError is raised if they do not.  The resulting upper
    bound is 1 + delta/2, independent of s.
    """
    s = rat(s)
    delta = rat(delta)
    if not Fraction(1, 2) < s < 1:
        raise ValueError("s must lie in (1/2, 1)")
    if delta <= 0:
        raise ValueError("delta must be positive")

    unit_speed = 1 + delta / 2
    expr = _SymbolicBound(Fraction(0))
    steps = []

    # (i) split the norm at Reeb speed s.
    expr.constant += 2 * s * unit_speed
    expr.add_term("c(slowed system; unit)", 1)
    expr.add_term("c(slowed inverse; unit)", 1)
    steps.append(BoundStep("norm split at Reeb speed s", "adds 2s(1 + delta/2)", 2 * s * unit_speed))

    # (ii) duality converts the inverse term to a point-class term.
    expr.add_term("c(slowed inverse; unit)", -1)
    expr.add_term("c(sped-up system; point)", -1)
    steps.append(BoundStep("duality", "inverse unit term becomes -point term", expr.constant))

    # (iii) sub-additivity against the rotation loop composed with speed -2s.
    expr.add_term("c(sped-up system; point)", 1)
    expr.add_term("c(rotated slowed system; point)", -1)
    expr.add_term("c(rotation at speed -2s; unit)", 1)
    steps.append(BoundStep("sub-additivity", "product bound over the pair of pants", expr.constant))

    # (iv) naturality: the rotated point term equals the unit term.
    expr.add_term("c(rotated slowed system; point)", 1)
    expr.add_term("c(slowed system; unit)", -1)
    steps.append(BoundStep("naturality", "rotation exchanges point and unit classes", expr.constant))

    # (v) the explicit spectrum bound for the rotation at speed -2s.
    expr.add_term("c(rotation at speed -2s; unit)", -1)
    expr.constant += (1 - 2 * s) * unit_speed
    steps.append(
        BoundStep("rotation spectrum bound", "adds (1 - 2s)(1 + delta/2)", (1 - 2 * s) * unit_speed)
    )

    if expr.terms:
        leftover = ", ".join(sorted(expr.terms))
        raise CancellationError(f"spectral terms failed to cancel: {leftover}")
    if expr.constant != unit_speed:
        raise CancellationError(
            f"chain value {fmt(expr.constant)} differs from 1 + delta/2"
        )
    return BoundReport(Fraction(0), expr.constant, tuple(steps))
