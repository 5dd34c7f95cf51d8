"""The fourteen acceptance criteria, one test each.

Every check is exact (zero tolerance on rational comparisons) and each
case finishes in well under ten seconds.  A pass/fail line is printed
per criterion so the suite reads as a checklist.
"""

import pytest

from symcap import packing, verify


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


def test_packing_case_verifies_each_certificate_once(monkeypatch):
    # Two canonical certificates and three searched ones; the case reads
    # each certificate's cached verdict instead of verifying it again.
    calls = []
    original = packing.verify_certificate
    monkeypatch.setattr(packing, "verify_certificate", lambda c: calls.append(c) or original(c))
    assert verify.case_packing().passed
    assert not hasattr(verify, "verify_certificate")
    assert len(calls) == 5
