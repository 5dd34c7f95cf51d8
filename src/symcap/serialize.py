"""JSON encoding of the package's value types.

Rationals are rendered as "p/q" strings (never decimals), vectors as
arrays, transforms as {"matrix": [[...]], "translation": [...]}.
Certificates and their parts (domains, polytopes, simplices, transforms,
vectors) round-trip: each re-parses to the identical value.  Capacity values and spectrum reports
are output only; no verb reads them back.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .capacities import CapacityValue
from .exactgeom import (
    POLYTOPE,
    Polytope,
    SimplexImage,
    SpecialAffineTransform,
    ToricDomain,
    simplex_vertices,
)
from .packing import PackingCertificate
from .rationals import fmt, rat
from .spectra import OrbitRecord, SpectrumReport


def vector_to_json(vector) -> list[str]:
    return [fmt(c) for c in vector]


def vector_from_json(data) -> tuple[Fraction, ...]:
    return tuple(rat(c) for c in data)


def transform_to_json(g: SpecialAffineTransform) -> dict:
    return {
        "matrix": [list(row) for row in g.matrix],
        "translation": vector_to_json(g.translation),
    }


def transform_from_json(data) -> SpecialAffineTransform:
    return SpecialAffineTransform(
        tuple(tuple(row) for row in data["matrix"]),
        vector_from_json(data["translation"]),
    )


def polytope_to_json(polytope: Polytope) -> dict:
    return {
        "halfspaces": [
            {"normal": list(nu), "offset": fmt(beta)}
            for nu, beta in polytope.constraints
        ]
    }


def polytope_from_json(data) -> Polytope:
    return Polytope.from_halfspaces(
        [(tuple(h["normal"]), rat(h["offset"])) for h in data["halfspaces"]]
    )


def domain_to_json(domain: ToricDomain) -> dict:
    if domain.kind == POLYTOPE:
        return {"kind": domain.kind, **polytope_to_json(domain.polytope)}
    return {"kind": domain.kind, "params": [fmt(a) for a in domain.params]}


def domain_from_json(data) -> ToricDomain:
    if data["kind"] == POLYTOPE:
        return ToricDomain(POLYTOPE, polytope=polytope_from_json(data))
    return ToricDomain(data["kind"], tuple(rat(a) for a in data["params"]))


def simplex_to_json(simplex: SimplexImage) -> dict:
    return {
        "capacity": fmt(simplex.capacity),
        "transform": transform_to_json(simplex.transform),
        "vertices": [vector_to_json(v) for v in simplex_vertices(simplex)],
    }


def simplex_from_json(data) -> SimplexImage:
    return SimplexImage(rat(data["capacity"]), transform_from_json(data["transform"]))


def capacity_to_json(value: CapacityValue) -> dict:
    return {
        "value": fmt(value.value),
        "attained": value.attained,
        "provenance": value.provenance,
    }


def certificate_to_json(certificate: PackingCertificate) -> dict:
    return {
        "domain": domain_to_json(certificate.domain),
        "simplices": [simplex_to_json(s) for s in certificate.simplices],
        "total": fmt(certificate.total),
        "verified": certificate.verified,
    }


def certificate_from_json(data) -> PackingCertificate:
    """Parse a certificate; any "verified" key is ignored, never trusted."""
    simplices = tuple(simplex_from_json(s) for s in data["simplices"])
    if len(simplices) != 2:
        raise ValueError("a certificate holds exactly two simplices")
    return PackingCertificate(
        simplices, domain_from_json(data["domain"]), rat(data["total"])
    )


def orbit_to_json(orbit: OrbitRecord) -> dict:
    return {
        "locus": orbit.locus,
        "winding": orbit.winding,
        "action": fmt(orbit.action),
        "radius": None if orbit.radius is None else fmt(orbit.radius),
        "interval": None
        if orbit.interval is None
        else [fmt(orbit.interval[0]), None if orbit.interval[1] is None else fmt(orbit.interval[1])],
        "recapping": orbit.recapping,
    }


def spectrum_report_to_json(report: SpectrumReport) -> dict:
    return {
        "construction": report.construction,
        "params": {k: fmt(v) for k, v in report.params},
        "orbits": [orbit_to_json(o) for o in report.orbits],
        "spectrum": [fmt(x) for x in report.spectrum],
        "normalization_shift": None
        if report.normalization_shift is None
        else fmt(report.normalization_shift),
    }


def dumps(payload: dict) -> str:
    """Deterministic rendering: sorted keys, stable separators, newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
