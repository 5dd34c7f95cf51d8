import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symcap import cli, exactgeom, packing, profiles, serialize, spectra
from symcap.exactgeom import ellipsoid, moment_polytope, polydisk
from symcap.profiles import CN, CPN, Space
from symcap.rationals import fmt, rat
from symcap.cli import (
    EXIT_FAILED,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PRECONDITION,
    ParseFailure,
    _build_system,
    parse_domain,
    parse_profile_spec,
    parse_space,
    run,
)

F = Fraction


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def test_parse_domain():
    domain = parse_domain("ellipsoid:2,1,7")
    assert domain.kind == "ellipsoid"
    assert domain.params == (F(1), F(2), F(7))
    assert parse_domain("polydisk:1/2,3").params == (F(1, 2), F(3))


@pytest.mark.parametrize("bad", ["ball:1", "ellipsoid", "ellipsoid:", "ellipsoid:x"])
def test_parse_domain_rejects(bad):
    with pytest.raises(ParseFailure):
        parse_domain(bad)


def test_parse_profile_spec():
    name, params = parse_profile_spec("bump:a=1,eta=9/10,delta=1/100")
    assert name == "bump"
    assert params == {"a": F(1), "eta": F(9, 10), "delta": F(1, 100)}
    assert parse_profile_spec("zero") == ("zero", {})
    with pytest.raises(ParseFailure):
        parse_profile_spec("bump:a")
    with pytest.raises(ParseFailure):
        parse_profile_spec(":a=1")
    with pytest.raises(ParseFailure):
        parse_profile_spec("bump:=1")


def test_parse_space():
    assert parse_space("cn:2").dim == 2
    assert parse_space("cpn:1").kind == "cpn"
    with pytest.raises(ParseFailure):
        parse_space("rn:2")
    with pytest.raises(ParseFailure):
        parse_space("cn:two")


# ---------------------------------------------------------------------------
# Verbs
# ---------------------------------------------------------------------------


def test_cap_text(capsys):
    assert run(["cap", "--domain", "ellipsoid:1,2"]) == EXIT_OK
    assert capsys.readouterr().out == "2\n"
    assert run(["cap", "--domain", "polydisk:1,3", "--capacity", "c2b"]) == EXIT_OK
    assert capsys.readouterr().out == "2\n"


def test_cap_json(capsys):
    assert run(["cap", "--domain", "ellipsoid:1,5", "--capacity", "c2b", "--json"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["value"] == "2"


def test_cap_refuses_huge_exponent(capsys):
    # Parsing fails at once instead of computing 10**100000000.
    assert run(["cap", "--domain", "ellipsoid:1,1e100000000"]) == EXIT_PARSE
    assert "exponent" in capsys.readouterr().err


def test_cap_refuses_a_result_too_long_to_print(capsys):
    # 10**4300 has 4,301 digits, one more than symcap prints.
    assert run(["cap", "--domain", "ellipsoid:1e4300,1e4300"]) == EXIT_PRECONDITION
    out, err = capsys.readouterr()
    assert out == "" and err == "symcap: value too long to print: more than 4300 digits\n"
    assert run(["cap", "--domain", "ellipsoid:1e4299,1e4299"]) == EXIT_OK
    assert capsys.readouterr().out == "1" + "0" * 4299 + "\n"


def test_cap_gromov_width(capsys):
    assert run(["cap", "--capacity", "gromov-width", "--simplex", "3/2"]) == EXIT_OK
    assert capsys.readouterr().out == "3/2\n"
    assert run(["cap", "--capacity", "gromov-width"]) == EXIT_PARSE


def test_pack_canonical(capsys, tmp_path):
    assert run(["pack", "--domain", "ellipsoid:1,2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "total 199/100" in out and "verified=true" in out

    path = tmp_path / "cert.json"
    assert run(["pack", "--domain", "ellipsoid:1,2", "--out", str(path)]) == EXIT_OK
    data = json.loads(path.read_text())
    assert data["total"] == "199/100"


def test_pack_search_3d_golden_bytes(capsys):
    golden = Path(__file__).parent / "data" / "pack_search_ellipsoid_1_2_3.json"
    assert run(
        ["pack", "--domain", "ellipsoid:1,2,3", "--search", "--grid", "8", "--json"]
    ) == EXIT_OK
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "domain,golden",
    [
        ("polydisk:1,1,2", "pack_search_polydisk_1_1_2.json"),
        ("ellipsoid:1,1,1", "pack_search_ellipsoid_1_1_1.json"),
    ],
)
def test_pack_search_3d_grid_4_golden_bytes(domain, golden, capsys):
    # Column-rotated twins of one simplex tie in these searches; the
    # certificates were pinned while the enumeration still listed them.
    path = Path(__file__).parent / "data" / golden
    assert run(["pack", "--domain", domain, "--search", "--grid", "4", "--json"]) == EXIT_OK
    assert capsys.readouterr().out == path.read_text(encoding="utf-8")


def test_pack_search_3d_bisecting_golden_bytes(capsys):
    # A fractional box that does not pack at its ceiling: the search
    # bisects, with unequal splits, to 1701/1024.
    path = Path(__file__).parent / "data" / "pack_search_ellipsoid_1_5_4_7_4.json"
    argv = ["pack", "--domain", "ellipsoid:1,5/4,7/4", "--search", "--grid", "6", "--unequal"]
    assert run([*argv, "--json"]) == EXIT_OK
    assert capsys.readouterr().out == path.read_text(encoding="utf-8")


def test_pack_search_2d_golden_bytes(capsys):
    # A fine grid on a 2-D ellipsoid that packs at its ceiling.
    path = Path(__file__).parent / "data" / "pack_search_ellipsoid_3_4.json"
    argv = ["pack", "--domain", "ellipsoid:3,4", "--search", "--grid", "200", "--json"]
    assert run(argv) == EXIT_OK
    assert capsys.readouterr().out == path.read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "domain,bound",
    [("ellipsoid:1,2,3", "50"), ("ellipsoid:1,2", "50"), ("ellipsoid:1,1,1,1", "2")],
)
def test_pack_search_over_budget_exits_3(domain, bound, capsys, monkeypatch):
    def enumeration_started(rows):
        raise AssertionError("the SL_n(Z) enumeration started")

    monkeypatch.setattr(packing, "cofactor_vector", enumeration_started)
    argv = ["pack", "--domain", domain, "--search", "--matrix-bound", bound]
    assert run(argv) == EXIT_PRECONDITION
    assert "budget" in capsys.readouterr().err


@pytest.mark.parametrize(
    "domain,grid",
    [("ellipsoid:1,2,7", "100"), ("ellipsoid:1,2", "1000"), ("polydisk:1,1", "1000000")],
)
def test_pack_search_over_grid_budget_exits_3(domain, grid, capsys, monkeypatch):
    def search_started(*args):
        raise AssertionError("the search started")

    monkeypatch.setattr(packing, "_unimodular_matrices", search_started)
    monkeypatch.setattr(packing, "_contained_placements", search_started)
    argv = ["pack", "--domain", domain, "--search", "--grid", grid]
    assert run(argv) == EXIT_PRECONDITION
    assert "budget" in capsys.readouterr().err


def test_pack_search(capsys):
    assert run(
        ["pack", "--domain", "ellipsoid:1,2", "--search", "--tolerance", "1/4"]
    ) == EXIT_OK
    out = capsys.readouterr().out
    assert "verified=true" in out


def test_check_round_trip(capsys, tmp_path):
    path = tmp_path / "cert.json"
    run(["pack", "--domain", "polydisk:1,1", "--out", str(path)])
    capsys.readouterr()
    assert run(["check", str(path)]) == EXIT_OK
    assert capsys.readouterr().out == "verified total 199/100\n"

    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert run(["check", str(bad)]) == EXIT_PARSE


def test_check_detects_tampering(capsys, tmp_path):
    path = tmp_path / "cert.json"
    run(["pack", "--domain", "ellipsoid:1,2", "--out", str(path)])
    capsys.readouterr()
    data = json.loads(path.read_text())
    data["simplices"][1] = data["simplices"][0]
    data["total"] = data["simplices"][0]["capacity"]
    # keep total == sum of capacities by doubling one capacity
    data["total"] = fmt(2 * rat(data["simplices"][0]["capacity"]))
    path.write_text(json.dumps(data))
    assert run(["check", str(path)]) == EXIT_FAILED
    assert capsys.readouterr().out.startswith("FAILED")
    assert run(["check", str(path), "--json"]) == EXIT_FAILED
    assert json.loads(capsys.readouterr().out)["verified"] is False


def test_check_accepts_a_pair_that_only_the_lp_separates(capsys, monkeypatch, tmp_path):
    # Two unit simplices in the box [-3, 3]^3 that neither the box nor the
    # facet pre-check of `interiors_disjoint` separates: only the cross
    # product of an edge of each does, so the LP accepts the pair.
    path = Path(__file__).parent / "data" / "check_edge_pair_3d.json"
    calls = []
    original = exactgeom.solve_lp

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(exactgeom, "solve_lp", counted)
    assert run(["check", str(path)]) == EXIT_OK
    assert capsys.readouterr().out == "verified total 2\n"
    assert len(calls) == 1
    data = json.loads(path.read_text(encoding="utf-8"))
    data["simplices"][1] = data["simplices"][0]
    moved = tmp_path / "moved.json"
    moved.write_text(json.dumps(data))
    assert run(["check", str(moved)]) == EXIT_FAILED
    assert capsys.readouterr().out == "FAILED total 2\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["pack", "--domain", "ellipsoid:1,2"],
        ["pack", "--domain", "ellipsoid:1,2", "--json"],
        ["pack", "--domain", "ellipsoid:1,2", "--search", "--json"],
        ["plot", "--domain", "ellipsoid:1,2"],
        ["check", "CERT"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_each_verb_verifies_its_certificate_once(argv, monkeypatch, capsys, tmp_path):
    path = tmp_path / "cert.json"
    run(["pack", "--domain", "ellipsoid:1,2", "--out", str(path)])
    calls = []
    original = packing.verify_certificate

    def counted(certificate):
        calls.append(certificate)
        return original(certificate)

    # Every module that holds the verifier under its name, so that a call
    # through an imported name is counted too.
    for name, module in list(sys.modules.items()):
        if name.startswith("symcap") and getattr(module, "verify_certificate", None) is original:
            monkeypatch.setattr(module, "verify_certificate", counted)
    assert run([str(path) if a == "CERT" else a for a in argv]) == EXIT_OK
    assert len(calls) == 1


def _drop_second_simplex(data):
    del data["simplices"][1]


def _det_two_matrix(data):
    data["simplices"][1]["transform"]["matrix"] = [[2, 0], [0, 1]]


def _fractional_matrix_entry(data):
    data["simplices"][0]["transform"]["matrix"] = [[1.5, 0], [0, 1]]


def _boolean_matrix_entry(data):
    data["simplices"][0]["transform"]["matrix"] = [[True, False], [False, True]]


def _float_capacity(data):
    data["simplices"][0]["capacity"] = 0.5


def _infinite_capacity(data):
    data["simplices"][0]["capacity"] = "inf"
    data["total"] = "inf"


def _unsorted_params(data):
    data["domain"]["params"] = ["2", "1"]


def _short_translation(data):
    data["simplices"][0]["transform"]["translation"] = ["0"]


def _null_capacity(data):
    data["simplices"][0]["capacity"] = None


def _infinite_translation(data):
    data["simplices"][0]["transform"]["translation"] = ["inf", "0"]


def _infinite_normal(data):
    data["domain"] = {
        "kind": "polytope",
        "halfspaces": [
            {"normal": [-1, 0], "offset": "0"},
            {"normal": [0, -1], "offset": "0"},
            {"normal": ["inf", 1], "offset": "2"},
        ],
    }


def _infinite_offset(data):
    data["domain"] = {
        "kind": "polytope",
        "halfspaces": [
            {"normal": [-1, 0], "offset": "0"},
            {"normal": [0, -1], "offset": "0"},
            {"normal": [1, 1], "offset": "inf"},
        ],
    }


def _huge_exponent_offset(data):
    data["domain"] = {
        "kind": "polytope",
        "halfspaces": [
            {"normal": [-1, 0], "offset": "0"},
            {"normal": [0, -1], "offset": "0"},
            {"normal": [1, 1], "offset": "1e100000000"},
        ],
    }


def _unbounded_domain(data):
    data["domain"] = {"kind": "polytope", "halfspaces": [{"normal": [1, 1], "offset": "100"}]}


def _empty_domain(data):
    data["domain"] = {
        "kind": "polytope",
        "halfspaces": [
            {"normal": [-1, 0], "offset": "0"},
            {"normal": [0, -1], "offset": "0"},
            {"normal": [1, 1], "offset": "-1"},
        ],
    }


def _domain_of_higher_dimension(data):
    data["domain"]["params"] = ["1", "2", "3"]


def _one_dimensional_domain(data):
    data["domain"] = {
        "kind": "polytope",
        "halfspaces": [{"normal": [-1], "offset": "0"}, {"normal": [1], "offset": "2"}],
    }


@pytest.mark.parametrize(
    "mutate",
    [
        _drop_second_simplex,
        _det_two_matrix,
        _fractional_matrix_entry,
        _boolean_matrix_entry,
        _float_capacity,
        _infinite_capacity,
        _unsorted_params,
        _short_translation,
        _null_capacity,
        _infinite_translation,
        _infinite_normal,
        _infinite_offset,
        _huge_exponent_offset,
        _unbounded_domain,
        _empty_domain,
        _domain_of_higher_dimension,
        _one_dimensional_domain,
    ],
)
def test_check_malformed_certificate_exits_2(mutate, capsys, tmp_path):
    path = tmp_path / "cert.json"
    run(["pack", "--domain", "ellipsoid:1,2", "--out", str(path)])
    data = json.loads(path.read_text())
    mutate(data)
    path.write_text(json.dumps(data))
    assert run(["check", str(path)]) == EXIT_PARSE
    assert capsys.readouterr().out == ""


def test_check_polytope_with_too_many_halfspaces_exits_2(capsys, tmp_path, monkeypatch):
    # The certificate still holds in x, y >= 0, (k + 1) x + (2000 - k) y <=
    # 6003 for k < 2000, but vertex enumeration of its 2,002 halfspaces
    # would make 4.0e9 checks: it is refused before it starts.
    path = tmp_path / "cert.json"
    run(["pack", "--domain", "polydisk:1,1", "--epsilon", "1", "--out", str(path)])
    capsys.readouterr()
    data = json.loads(path.read_text())
    halfspaces = [{"normal": [-1, 0], "offset": "0"}, {"normal": [0, -1], "offset": "0"}]
    halfspaces += [{"normal": [k + 1, 2000 - k], "offset": "6003"} for k in range(2000)]
    data["domain"] = {"kind": "polytope", "halfspaces": halfspaces}
    path.write_text(json.dumps(data))

    def enumeration_started(*args):
        raise AssertionError("the vertex enumeration started")

    monkeypatch.setattr(exactgeom, "cofactor_vector", enumeration_started)
    assert run(["check", str(path)]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "budget" in captured.err


def test_check_deeply_nested_json_exits_2(capsys, tmp_path):
    # Nested deeper than the interpreter's recursion limit, `json.load`
    # raises RecursionError; it is a malformed file like any other.
    path = tmp_path / "deep.json"
    path.write_text("[" * 5000 + "]" * 5000)
    assert run(["check", str(path)]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("symcap: cannot read certificate: ")


def _valid_certificates():
    """Certificates in a 2-D ellipsoid, a 3-D polydisk and a polygon domain."""
    certificates = [
        serialize.certificate_to_json(packing.canonical_certificate(domain, F(1, 100)))
        for domain in (ellipsoid(1, 2), polydisk(1, 1, 2))
    ]
    polygon = json.loads(json.dumps(certificates[0]))
    polygon["domain"] = {
        "kind": "polytope",
        **serialize.polytope_to_json(moment_polytope(ellipsoid(1, 2))),
    }
    return certificates + [polygon]


_VALID_CERTIFICATES = _valid_certificates()
_KEYS = [
    "kind", "params", "halfspaces", "normal", "offset", "simplices", "capacity",
    "transform", "matrix", "translation", "total", "domain", "vertices",
]
_LITERALS = ["0", "1", "-1", "1/2", "2/0", "inf", "nan", "x", "", "polytope", "ellipsoid"]
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.sampled_from(_LITERALS),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(_KEYS), children, max_size=3),
    max_leaves=8,
)


def _nodes(node, path=()):
    """Every (path, value) of a JSON tree, the root first."""
    yield path, node
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _nodes(child, path + (key,))


@st.composite
def _mutated_certificates(draw):
    data = json.loads(json.dumps(draw(st.sampled_from(_VALID_CERTIFICATES))))
    for _ in range(draw(st.integers(1, 3))):
        path, _ = draw(st.sampled_from(list(_nodes(data))))
        if not path:
            data = draw(_JSON_VALUES)
            continue
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        action = draw(st.sampled_from(["replace", "delete", "duplicate"]))
        if action == "replace":
            parent[path[-1]] = draw(_JSON_VALUES)
        elif action == "delete":
            del parent[path[-1]]
        elif isinstance(parent, list):
            parent.append(parent[path[-1]])
        else:
            parent[path[-1]] = [parent[path[-1]]] * 2
    return data


def _shifted_first_simplex():
    """The canonical P(1,1,2) certificate with its first simplex moved to
    x = 1, where it leaves the polydisk: well-formed, and rejected."""
    data = json.loads(json.dumps(_VALID_CERTIFICATES[1]))
    data["simplices"][0]["transform"]["translation"] = [1, "0", "0"]
    return data


@settings(max_examples=300, deadline=None)
@given(_mutated_certificates())
@example(_VALID_CERTIFICATES[1])
@example(_shifted_first_simplex())
def test_check_fuzzed_certificates_exit_cleanly(data):
    # Every certificate file gets a verdict or a documented error code,
    # and the exit code says which.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cert.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(["check", str(path)])
    stdout, stderr = out.getvalue(), err.getvalue()
    assert "Traceback" not in stdout + stderr
    if code == EXIT_OK:
        assert stdout.startswith("verified total ") and stderr == ""
    elif code == EXIT_FAILED:
        assert stdout.startswith("FAILED total ") and stderr == ""
    else:
        assert code in (EXIT_PARSE, EXIT_PRECONDITION)
        assert stdout == "" and stderr.startswith("symcap: ")


def test_spectrum_text_and_csv(capsys):
    assert run(["spectrum", "--profile", "reeb:sigma=1/2,delta=1/10"]) == EXIT_OK
    assert capsys.readouterr().out == "{-21/40}\n"

    assert run(["spectrum", "--profile", "reeb:sigma=1/2,delta=1/10", "--csv"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "locus,winding,recapping,radius,action"
    assert lines[1] == "plateau,0,0,,-21/40"


def test_spectrum_norm(capsys):
    assert run(
        [
            "spectrum",
            "--profile",
            "two_ball:a=1,b=1,eta=9/10,mu=4/5,delta=1/100",
            "--norm",
            "--json",
        ]
    ) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["norm_selected"] == "169/100"
    assert "179/200" in data["norm_candidates"]


@pytest.mark.parametrize(
    "argv,golden",
    [
        (
            ["k_a:a=1/2", "--space", "cpn:1", "--recap", "3", "--json"],
            "spectrum_norm_k_a_cpn1_recap3.json",
        ),
        (
            ["t_s:a=1/2,eps=1/10,s=1/3", "--space", "cpn:1", "--recap", "2", "--json"],
            "spectrum_norm_t_s_cpn1_recap2.json",
        ),
        (["two_ball:a=1,b=1,eta=9/10,mu=4/5,delta=1/100", "--json"], "spectrum_norm_two_ball.json"),
        (["bump:a=1,eta=9/10,delta=1/100"], "spectrum_norm_bump.txt"),
    ],
)
def test_spectrum_norm_golden_bytes(argv, golden, capsys):
    path = Path(__file__).parent / "data" / golden
    assert run(["spectrum", "--norm", "--profile"] + argv) == EXIT_OK
    assert capsys.readouterr().out == path.read_text(encoding="utf-8")


def test_spectrum_norm_at_largest_recapping_window(capsys):
    # 9,996 orbit records, the most the recapping budget admits; the
    # spectrum is two runs of 2,499 values each.
    argv = ["spectrum", "--profile", "k_a:a=1/2", "--space", "cpn:1", "--recap", "1249"]
    assert run(argv + ["--norm", "--json"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["norm_candidates"] == [str(F(j, 2)) for j in range(1, 4998)]
    assert data["norm_selected"] == "4997/2"


@pytest.mark.parametrize("space", [Space(CN, 2), Space(CPN, 1), Space(CPN, 3)])
def test_spectrum_zero_profile_follows_space(space, capsys):
    argv = ["spectrum", "--profile", "zero", "--space", f"{space.kind}:{space.dim}"]
    assert run(argv + ["--norm"]) == EXIT_OK
    assert capsys.readouterr().out == "{0}\nnorm 0\n"
    args = argparse.Namespace(profile="zero", space=argv[-1])
    assert _build_system(args).space == space
    # Like every construction, zero refuses parameters it does not take.
    assert run(["spectrum", "--profile", "zero:a=1"]) == EXIT_PARSE


@pytest.mark.parametrize(
    "argv",
    [
        ["s_a:a=1/4,dim=2", "--space", "cpn:1"],
        ["bump:a=1,eta=9/10,delta=1/100,dim=inf"],
    ],
    ids=["dim-on-cpn", "dim-inf-on-cn"],
)
def test_spectrum_dim_in_profile_is_a_bad_parameter(argv, capsys):
    # The dimension comes from --space alone.
    assert run(["spectrum", "--profile", *argv]) == EXIT_PARSE
    assert "bad parameters" in capsys.readouterr().err


@pytest.mark.parametrize(
    "spec,name",
    [
        ("bump:a=inf,eta=9/10,delta=1/100", "a"),
        ("reeb:sigma=1/2,delta=inf", "delta"),
        ("reeb_composite:s=3/4,delta=inf", "delta"),
        ("two_ball:a=1,b=inf,eta=9/10,mu=4/5,delta=1/100", "b"),
        ("t_s:a=1/2,eps=1/10,s=inf", "s"),
    ],
)
def test_infinite_construction_parameter_exits_3(spec, name, capsys, monkeypatch):
    def piece_built(*args):
        raise AssertionError("a piece was built")

    monkeypatch.setattr(profiles, "Piece", piece_built)
    assert run(["spectrum", "--profile", spec]) == EXIT_PRECONDITION
    assert capsys.readouterr().err == f"symcap: {name} must be finite\n"


def test_spectrum_cpn3_golden_bytes(capsys):
    # Without --norm: the shift in dimension 3, not only on CP^1.
    path = Path(__file__).parent / "data" / "spectrum_t_s_cpn3.json"
    argv = ["spectrum", "--profile", "t_s:a=1/2,eps=1/10,s=1/3", "--space", "cpn:3", "--json"]
    assert run(argv) == EXIT_OK
    assert capsys.readouterr().out == path.read_text(encoding="utf-8")


def test_spectrum_shift_too_long_to_print_exits_3_at_once(capsys):
    # The shift of k_a (a = 1/3) on CP^20000 has a denominator of 3^20000.
    start = time.perf_counter()
    argv = ["spectrum", "--profile", "k_a:a=1/3", "--space", "cpn:20000"]
    assert run(argv) == EXIT_PRECONDITION
    assert time.perf_counter() - start < 10
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "too long to print" in captured.err


@pytest.mark.parametrize(
    "argv,message",
    [
        (
            ["spectrum", "--profile", "bump:a=1,a=2,eta=9/10,delta=1/100"],
            "repeated profile parameter 'a'",
        ),
        (
            ["plot", "--deformation", "a=1/2,eps=1/10,s=1/2,s=1"],
            "repeated deformation parameter 's'",
        ),
    ],
    ids=["profile", "deformation"],
)
def test_repeated_key_exits_2(argv, message, capsys):
    assert run(argv) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"symcap: {message}\n"


def test_spectrum_recap(capsys):
    assert run(
        ["spectrum", "--profile", "s_a:a=1/4", "--space", "cpn:1", "--recap", "1"]
    ) == EXIT_OK
    assert capsys.readouterr().out == "{-5/4, -1/4, 3/4, 7/4}\n"


@pytest.mark.parametrize("extra", [[], ["--norm"]])
def test_spectrum_recap_over_budget_exits_3(extra, capsys, monkeypatch):
    def recapping_started(*args, **kwargs):
        raise AssertionError("the recapping started")

    monkeypatch.setattr(spectra, "replace", recapping_started)
    argv = ["spectrum", "--profile", "k_a:a=1/2", "--space", "cpn:1", "--recap", "100000000"]
    assert run(argv + extra) == EXIT_PRECONDITION
    assert "budget" in capsys.readouterr().err


def test_plot_outputs_svg(capsys):
    assert run(["plot", "--domain", "ellipsoid:1,2"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("<svg")
    assert run(["plot", "--profile", "bump:a=1,eta=9/10,delta=1/100"]) == EXIT_OK
    assert "</svg>" in capsys.readouterr().out
    assert run(["plot", "--deformation", "a=1/2,eps=1/10,s=0;1/2;1"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("<svg")


@pytest.mark.parametrize(
    "argv,golden",
    [
        (["--domain", "ellipsoid:1,2"], "plot_ellipsoid_1_2.svg"),
        (["--domain", "polydisk:1,3"], "plot_polydisk_1_3.svg"),
        (
            ["--profile", "two_ball:a=1,b=1,eta=9/10,mu=4/5,delta=1/100"],
            "plot_profile_two_ball.svg",
        ),
        (["--profile", "reeb:sigma=1/2,delta=1/10"], "plot_profile_reeb.svg"),
        (["--profile", "reeb_composite:s=3/4,delta=1/10"], "plot_profile_reeb_composite.svg"),
    ],
)
def test_plot_golden_bytes(argv, golden, capsys):
    assert run(["plot", *argv]) == EXIT_OK
    path = Path(__file__).parent / "data" / golden
    assert capsys.readouterr().out == path.read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "spec,chunk",
    [("a=1/2,eps=1/10,s=1/2,zz=3", "zz=3"), ("a=1/2,eps=1/10,s=1/2,junk", "junk")],
    ids=["unknown-key", "no-equals"],
)
def test_plot_rejects_a_bad_deformation_parameter(spec, chunk, capsys):
    assert run(["plot", "--deformation", spec]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"symcap: bad deformation parameter {chunk!r}\n"


def test_plot_requires_exactly_one_target():
    assert run(["plot"]) == EXIT_PARSE
    assert (
        run(["plot", "--domain", "ellipsoid:1,2", "--profile", "zero"]) == EXIT_PARSE
    )


# ---------------------------------------------------------------------------
# Exit codes and determinism
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["cap", "--domain", "ellipsoid:1,2"],
        ["spectrum", "--profile", "zero"],
        ["verify"],
    ],
    ids=["cap", "spectrum", "verify"],
)
@pytest.mark.parametrize("target", ["directory", "missing-parent"])
def test_unwritable_out_exits_2(argv, target, capsys, tmp_path):
    out = tmp_path if target == "directory" else tmp_path / "missing" / "out.txt"
    assert run([*argv, "--out", str(out)]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"symcap: cannot write {out}: ")
    assert "Traceback" not in captured.err


def test_parse_errors_exit_2(capsys):
    assert run(["cap", "--domain", "ellipsoid:one,2"]) == EXIT_PARSE
    assert run(["spectrum", "--profile", "bump:a"]) == EXIT_PARSE
    assert run(["spectrum", "--profile", "bump:a=1", "--recap", "-1"]) == EXIT_PARSE
    assert run(["bogus-verb"]) == EXIT_PARSE
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["pack", "--domain", "ellipsoid:1,2", "--epsilon", "abc"],
        ["pack", "--domain", "ellipsoid:1,2", "--search", "--tolerance", "1/0"],
        ["cap", "--capacity", "gromov-width", "--simplex", "3/"],
        ["plot", "--domain", "ellipsoid:1,2", "--epsilon", "1/x"],
        ["plot", "--deformation", "a=x,eps=1/10,s=0;1"],
        ["plot", "--deformation", "a=1/2,eps=1/10,s=0;;1"],
    ],
    ids=[
        "pack-epsilon",
        "search-tolerance",
        "simplex",
        "plot-epsilon",
        "deformation-a",
        "deformation-s",
    ],
)
def test_malformed_rationals_exit_2(argv, capsys):
    assert run(argv) == EXIT_PARSE
    assert "not a rational literal" in capsys.readouterr().err


def test_precondition_errors_exit_3(capsys):
    # a short ellipsoid has no canonical two-ball certificate
    assert run(["pack", "--domain", "ellipsoid:1,3/2"]) == EXIT_PRECONDITION
    # bump needs delta < eta * a
    assert (
        run(["spectrum", "--profile", "bump:a=1,eta=9/10,delta=1"]) == EXIT_PRECONDITION
    )
    capsys.readouterr()


def test_infinite_search_tolerance_exits_3(capsys, monkeypatch):
    def searched(*args):
        raise AssertionError("the search ran")

    monkeypatch.setattr(cli, "search_two_balls", searched)
    argv = ["pack", "--domain", "ellipsoid:1,2", "--search", "--tolerance", "inf"]
    assert run(argv) == EXIT_PRECONDITION
    assert capsys.readouterr().err == "symcap: bisection tolerance must be finite\n"


def test_search_without_a_placement_names_ceiling_and_tolerance(capsys):
    # E(1/1000, 1) does not pack at its ceiling 1/500, which is below the
    # tolerance 1/100; the bisection still probes half the ceiling.
    argv = ["pack", "--domain", "ellipsoid:1/1000,1", "--search"]
    assert run(argv) == EXIT_OK
    assert capsys.readouterr().out == "total 1/1000 (capacities 1/2000 + 1/2000), verified=true\n"
    assert run([*argv, "--tolerance", "1/10000"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("total 31/16000 ")


def test_search_without_a_placement_below_the_ceiling_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(packing, "_find_disjoint_pair", lambda *args: None)
    argv = ["pack", "--domain", "ellipsoid:1,2", "--search", "--tolerance", "1/64"]
    assert run(argv) == EXIT_PRECONDITION
    assert capsys.readouterr().err == (
        "symcap: search found no verified placement: no total packs below the "
        "ceiling 2, bisected to a tolerance of 1/64\n"
    )


def test_runs_in_one_process_share_one_parser(capsys, tmp_path):
    certificate = packing.canonical_certificate(ellipsoid(1, 2), F(1, 100))
    data = serialize.certificate_to_json(certificate)
    data["simplices"][1] = data["simplices"][0]
    data["total"] = fmt(2 * rat(data["simplices"][0]["capacity"]))
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(data))
    argvs = [
        ["cap", "--domain", "ellipsoid:1,2"],
        ["cap", "--domain", "ellipsoid:1,2", "--capacity", "nope"],
        ["--help"],
        ["cap", "--domain", "ellipsoid:one,2"],
        ["pack", "--domain", "ellipsoid:1,3/2"],
        ["check", str(tampered)],
        ["pack", "--domain", "polydisk:1,3", "--json"],
    ]
    cli._build_parser.cache_clear()
    rounds = []
    for _ in range(2):
        results = []
        for argv in argvs:
            code = run(argv)
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        rounds.append(results)
    assert rounds[0] == rounds[1]
    codes = [code for code, _, _ in rounds[0]]
    assert codes == [EXIT_OK, EXIT_PARSE, EXIT_OK, EXIT_PARSE, EXIT_PRECONDITION, EXIT_FAILED, EXIT_OK]
    assert cli._build_parser.cache_info().misses == 1


def test_importing_the_cli_leaves_the_acceptance_suite_unloaded():
    src = Path(cli.__file__).resolve().parents[1]
    code = "import sys, symcap.cli; assert 'symcap.verify' not in sys.modules"
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr


def test_importing_a_module_loads_no_other_module_of_the_package():
    src = Path(cli.__file__).resolve().parents[1]
    code = (
        "import sys, symcap.rationals; "
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'symcap'); "
        "assert loaded == ['symcap', 'symcap.rationals'], loaded"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr


def test_output_bytes_are_deterministic(capsys):
    args = ["pack", "--domain", "ellipsoid:1,2", "--json"]
    run(args)
    first = capsys.readouterr().out
    run(args)
    assert capsys.readouterr().out == first
