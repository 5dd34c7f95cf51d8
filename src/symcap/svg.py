"""Static SVG renderings of packings, profiles, and deformation families.

All geometry is computed exactly and only projected to decimals when the
path data is emitted; text labels that show a decimal carry a leading
"≈".  Output is deterministic byte-for-byte for fixed inputs.
"""

from __future__ import annotations

from fractions import Fraction
from math import atan2

from .exactgeom import Polytope, Vector, moment_polytope, simplex_vertices
from .packing import PackingCertificate
from .profiles import RadialProfile, TwoBallSystem, t_s
from .rationals import fmt, rat
from .spectra import find_orbits

_WIDTH = 480
_HEIGHT = 480
_MARGIN = 48

_POLY_STYLE = 'fill="#eef3fa" stroke="#27408b" stroke-width="2"'
_SIMPLEX_STYLES = (
    'fill="#f9d6d5" fill-opacity="0.8" stroke="#a33" stroke-width="1.5"',
    'fill="#d5ead6" fill-opacity="0.8" stroke="#283" stroke-width="1.5"',
)
_CURVE_STYLE = 'fill="none" stroke="#27408b" stroke-width="2"'
_TANGENT_STYLE = 'fill="none" stroke="#a33" stroke-width="1" stroke-dasharray="4 3"'
_AXIS_STYLE = 'stroke="#888" stroke-width="1"'


def _num(x: float) -> str:
    return f"{x:.3f}".rstrip("0").rstrip(".")


def _approx(value: Fraction) -> str:
    return f"≈{float(value):.4g}"


class _Frame:
    """Affine map from a rational data window to pixel coordinates."""

    def __init__(self, x_lo, x_hi, y_lo, y_hi):
        self.x_lo, self.x_hi = float(x_lo), float(x_hi)
        self.y_lo, self.y_hi = float(y_lo), float(y_hi)
        self.sx = (_WIDTH - 2 * _MARGIN) / max(self.x_hi - self.x_lo, 1e-9)
        self.sy = (_HEIGHT - 2 * _MARGIN) / max(self.y_hi - self.y_lo, 1e-9)

    def xy(self, x, y) -> tuple[str, str]:
        px = _MARGIN + (float(x) - self.x_lo) * self.sx
        py = _HEIGHT - _MARGIN - (float(y) - self.y_lo) * self.sy
        return _num(px), _num(py)

    def pt(self, x, y) -> str:
        return ",".join(self.xy(x, y))


def _document(body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">'
    )
    return "\n".join([head, *body, "</svg>"]) + "\n"


def _polygon_vertices_2d(polytope: Polytope) -> list[Vector]:
    """Vertices of a bounded 2-d polytope, counterclockwise."""
    if polytope.dimension != 2:
        raise ValueError("SVG rendering supports dimension 2 only")
    points = polytope.vertices()
    if len(points) < 3:
        raise ValueError("polytope has no 2-d interior to draw")
    cx = sum(p[0] for p in points) / len(points)
    cy = sum(p[1] for p in points) / len(points)
    return sorted(points, key=lambda p: atan2(float(p[1] - cy), float(p[0] - cx)))


def render_packing(certificate: PackingCertificate) -> str:
    """Moment polytope with the two packed simplices overlaid."""
    polytope = moment_polytope(certificate.domain)
    outline = _polygon_vertices_2d(polytope)
    xs = [p[0] for p in outline]
    ys = [p[1] for p in outline]
    frame = _Frame(min(xs), max(xs), min(ys), max(ys))
    body = []
    pts = " ".join(frame.pt(x, y) for x, y in outline)
    body.append(f'<polygon points="{pts}" {_POLY_STYLE}/>')
    for simplex, style in zip(certificate.simplices, _SIMPLEX_STYLES):
        verts = simplex_vertices(simplex)
        pts = " ".join(frame.pt(v[0], v[1]) for v in verts)
        body.append(f'<polygon points="{pts}" {style}/>')
    label = (
        f"total {fmt(certificate.total)} ({_approx(certificate.total)}), "
        f"verified={str(certificate.verified).lower()}"
    )
    body.append(
        f'<text x="{_MARGIN}" y="24" font-family="monospace" font-size="13">{label}</text>'
    )
    return _document(body)


def _profile_window(profile: RadialProfile) -> Fraction:
    last = profile.pieces[-1]
    if last.hi is not None:
        return last.hi
    return last.lo + max(Fraction(1), last.lo)


def render_profile(profile: RadialProfile | TwoBallSystem) -> str:
    """Profile graph with the tangent line of each orbit, whose intercept
    at r = 0 is the orbit action."""
    if isinstance(profile, TwoBallSystem):
        parts = [profile.positive, profile.negative]
    else:
        parts = [profile]
    r_max = max(_profile_window(p) for p in parts)
    radii = [r_max * Fraction(i, 160) for i in range(161)]
    curves = [[(r, p.value(r)) for r in radii] for p in parts]
    orbits = [find_orbits(p) for p in parts]
    values = [v for curve in curves for _, v in curve]
    values += [orbit.action for found in orbits for orbit in found]
    y_lo, y_hi = min(values), max(values)
    if y_lo == y_hi:
        y_lo, y_hi = y_lo - 1, y_hi + 1
    frame = _Frame(Fraction(0), r_max, y_lo, y_hi)

    body = []
    body.append(
        f'<line x1="{_MARGIN}" y1="{_HEIGHT - _MARGIN}" x2="{_WIDTH - _MARGIN}" '
        f'y2="{_HEIGHT - _MARGIN}" {_AXIS_STYLE}/>'
    )
    body.append(
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" '
        f'y2="{_HEIGHT - _MARGIN}" {_AXIS_STYLE}/>'
    )
    labels = []
    for p, curve, found in zip(parts, curves, orbits):
        points = " ".join(frame.pt(r, v) for r, v in curve)
        body.append(f'<polyline points="{points}" {_CURVE_STYLE}/>')
        for orbit in found:
            if orbit.radius is not None:
                r = orbit.radius
            elif orbit.interval is not None:
                r = orbit.interval[0]
            else:
                r = Fraction(0)
            slope = p.derivative(min(r, r_max))
            # Tangent line from r = 0 (intercept = action) out to r_max.
            x1, y1 = frame.xy(Fraction(0), orbit.action)
            x2, y2 = frame.xy(r_max, orbit.action + slope * r_max)
            body.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" {_TANGENT_STYLE}/>')
            labels.append(f"{orbit.locus}: action {fmt(orbit.action)} ({_approx(orbit.action)})")
    name = parts[0].construction if len(parts) == 1 else "two_ball"
    body.append(
        f'<text x="{_MARGIN}" y="24" font-family="monospace" font-size="13">{name}</text>'
    )
    for i, text in enumerate(dict.fromkeys(labels)):
        body.append(
            f'<text x="{_MARGIN}" y="{40 + 14 * i}" font-family="monospace" '
            f'font-size="11">{text}</text>'
        )
    return _document(body)


def render_deformation(a, eps, s_samples) -> str:
    """Panel of the deformation family for several values of s."""
    a, eps = rat(a), rat(eps)
    samples = sorted(rat(s) for s in s_samples)
    frame = _Frame(Fraction(0), Fraction(1), -a, Fraction(0))
    body = []
    body.append(
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" '
        f'y2="{_HEIGHT - _MARGIN}" {_AXIS_STYLE}/>'
    )
    palette = ["#27408b", "#a33", "#283", "#b70", "#607"]
    for i, s in enumerate(samples):
        profile = t_s(a, eps, s)
        color = palette[i % len(palette)]
        points = []
        for j in range(161):
            x = Fraction(j, 160)
            points.append(frame.pt(x, profile.value(x)))
        body.append(
            f'<polyline points="{" ".join(points)}" fill="none" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        body.append(
            f'<text x="{_MARGIN}" y="{24 + 14 * i}" font-family="monospace" '
            f'font-size="11" fill="{color}">s = {fmt(s)}, value at 0 = '
            f"{fmt(profile.value(0))} ({_approx(profile.value(0))})</text>"
        )
    return _document(body)
