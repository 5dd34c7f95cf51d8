import json
from fractions import Fraction

import pytest

from symcap import serialize
from symcap.capacities import c2b_closed_form
from symcap.exactgeom import (
    Polytope,
    SimplexImage,
    SpecialAffineTransform,
    ellipsoid,
    moment_polytope,
    polydisk,
    polytope_domain,
)
from symcap.packing import PackingCertificate, canonical_certificate
from symcap.profiles import two_ball
from symcap.spectra import action_spectrum

F = Fraction


def test_vector_round_trip():
    vector = (F(1, 2), F(-3), F(22, 7))
    assert serialize.vector_from_json(serialize.vector_to_json(vector)) == vector


def test_transform_round_trip():
    g = SpecialAffineTransform(((1, 1), (0, 1)), (F(2, 3), F(-1)))
    assert serialize.transform_from_json(serialize.transform_to_json(g)) == g


def test_polytope_round_trip():
    polytope = Polytope.from_halfspaces(
        [((-1, 0), F(0)), ((0, -1), F(0)), ((1, 2), F(7, 3))]
    )
    assert serialize.polytope_from_json(serialize.polytope_to_json(polytope)) == polytope


@pytest.mark.parametrize(
    "domain",
    [ellipsoid(1, 2, 7), polydisk(F(1, 2), 3), ellipsoid(1, "inf")],
    ids=lambda d: d.describe(),
)
def test_domain_round_trip(domain):
    assert serialize.domain_from_json(serialize.domain_to_json(domain)) == domain


def test_polytope_domain_round_trip():
    domain = polytope_domain(moment_polytope(ellipsoid(1, 3)))
    assert serialize.domain_from_json(serialize.domain_to_json(domain)) == domain


def test_certificate_round_trip():
    certificate = canonical_certificate(ellipsoid(1, 2), F(1, 100))
    data = json.loads(serialize.dumps(serialize.certificate_to_json(certificate)))
    assert serialize.certificate_from_json(data) == certificate


def test_verified_key_is_the_verifiers_verdict():
    certificate = canonical_certificate(ellipsoid(1, 2), F(1, 100))
    data = serialize.certificate_to_json(certificate)
    data["verified"] = False
    reparsed = serialize.certificate_from_json(data)
    assert serialize.certificate_to_json(reparsed)["verified"] is True

    delta = SimplexImage(F(1), SpecialAffineTransform.identity(2))
    overlapping = PackingCertificate((delta, delta), ellipsoid(1, 2), F(2))
    assert serialize.certificate_to_json(overlapping)["verified"] is False


def test_simplex_with_string_capacity_serializes():
    # `SimplexImage("1/2", g)` once passed construction and then broke
    # `simplex_to_json` with an AttributeError.
    simplex = SimplexImage("1/2", SpecialAffineTransform.identity(2))
    data = serialize.simplex_to_json(simplex)
    assert data["capacity"] == "1/2"
    assert serialize.simplex_from_json(data) == simplex


def test_simplex_json_exposes_vertices():
    certificate = canonical_certificate(ellipsoid(1, 2), F(1, 100))
    data = serialize.simplex_to_json(certificate.simplices[0])
    assert data["vertices"][0] == ["0", "0"]
    assert data["capacity"] == "199/200"


def test_capacity_and_bound_reports():
    value = c2b_closed_form(ellipsoid(1, 5))
    data = serialize.capacity_to_json(value)
    assert data["value"] == "2"


def test_spectrum_report_serialization():
    report = action_spectrum(two_ball(1, 1, F(9, 10), F(4, 5), F(1, 100)))
    data = serialize.spectrum_report_to_json(report)
    assert set(data["spectrum"]) == {"0", "179/200", "-159/200"}
    assert data["normalization_shift"] is None


def test_dumps_is_deterministic():
    payload = {"b": "2", "a": "1"}
    text = serialize.dumps(payload)
    assert text == '{\n  "a": "1",\n  "b": "2"\n}\n'
    assert serialize.dumps(payload) == text
