"""Command-line front end.

Verbs: cap, pack, spectrum, check, plot, verify.  Rationals are read
exactly ("p/q", integers or decimals such as "0.01") and written as "p/q"
strings; output is deterministic byte-for-byte.
Exit codes: 0 success, 1 a failed check (acceptance suite or certificate),
2 parse error, 3 computation precondition.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import serialize
from .capacities import c2b_closed_form, gromov_width_simplex_preimage, spectral_diameter
from .exactgeom import ELLIPSOID, POLYDISK, ToricDomain
from .packing import SearchConfig, canonical_certificate, search_two_balls
from .profiles import CN, CPN, RadialProfile, Space, TwoBallSystem, build_profile
from .rationals import fmt, rat
from .spectra import action_spectrum, spectral_norm_candidates
from .svg import render_deformation, render_packing, render_profile

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3


class ParseFailure(ValueError):
    """Malformed command-line value (exit code 2)."""


def parse_rational(text: str) -> Fraction | float:
    """A rational command-line value: "p/q", an integer, an exact decimal
    such as "0.01" (1/100), or "inf"."""
    try:
        return rat(text)
    except ValueError as exc:
        raise ParseFailure(str(exc)) from exc


def parse_domain(text: str) -> ToricDomain:
    kind, _, rest = text.partition(":")
    if kind not in (ELLIPSOID, POLYDISK) or not rest:
        raise ParseFailure(
            f"domain must look like 'ellipsoid:1,2,7' or 'polydisk:1,1', got {text!r}"
        )
    params = [parse_rational(p) for p in rest.split(",")]
    return ToricDomain(kind, tuple(sorted(params)))


def _parse_pairs(text: str, what: str) -> dict[str, str]:
    """The "key=value" chunks of a comma-separated list, each key once."""
    pairs: dict[str, str] = {}
    for chunk in text.split(","):
        key, eq, value = chunk.partition("=")
        if not eq or not key:
            raise ParseFailure(f"bad {what} parameter {chunk!r}")
        if key in pairs:
            raise ParseFailure(f"repeated {what} parameter {key!r}")
        pairs[key] = value
    return pairs


def parse_profile_spec(text: str) -> tuple[str, dict]:
    name, _, rest = text.partition(":")
    if not name:
        raise ParseFailure(f"profile must look like 'bump:a=1,eta=9/10,delta=1/100', got {text!r}")
    pairs = _parse_pairs(rest, "profile") if rest else {}
    return name, {key: parse_rational(value) for key, value in pairs.items()}


def parse_space(text: str) -> Space:
    kind, _, dim = text.partition(":")
    if kind not in (CN, CPN) or not dim:
        raise ParseFailure(f"space must look like 'cn:2' or 'cpn:1', got {text!r}")
    try:
        return Space(kind, int(dim))
    except ValueError as exc:
        raise ParseFailure(str(exc)) from exc


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise ParseFailure(f"cannot write {out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The verb parser, built on first use and shared by every `run` in the
    process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="symcap",
        description="Exact symplectic capacities of toric domains.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    cap = sub.add_parser("cap", help="closed-form capacity values")
    cap.add_argument("--domain", help="ellipsoid:a1,..,an or polydisk:a1,..,an")
    cap.add_argument(
        "--capacity",
        default="spectral-diameter",
        choices=["spectral-diameter", "c2b", "gromov-width"],
    )
    cap.add_argument("--simplex", help="simplex capacity a for gromov-width")
    cap.add_argument("--json", action="store_true")
    cap.add_argument("--out")

    pack = sub.add_parser("pack", help="two-ball packing certificates")
    pack.add_argument("--domain", required=True)
    pack.add_argument("--epsilon", default="1/100", help="canonical-certificate slack")
    pack.add_argument("--search", action="store_true", help="run the bounded search")
    pack.add_argument("--matrix-bound", type=int, default=2)
    pack.add_argument("--grid", type=int, default=20)
    pack.add_argument("--tolerance", default="1/100")
    pack.add_argument("--unequal", action="store_true", help="also probe unequal splits")
    pack.add_argument("--json", action="store_true")
    pack.add_argument("--out")

    spectrum = sub.add_parser("spectrum", help="action spectra of radial profiles")
    spectrum.add_argument("--profile", required=True, help="name:key=value,...")
    spectrum.add_argument("--space", default="cn:1", help="cn:N or cpn:N")
    spectrum.add_argument("--recap", type=int, default=0, help="recapping window")
    spectrum.add_argument("--norm", action="store_true", help="spectral-norm candidates")
    spectrum.add_argument("--json", action="store_true")
    spectrum.add_argument("--csv", action="store_true")
    spectrum.add_argument("--out")

    check = sub.add_parser("check", help="re-verify a certificate file")
    check.add_argument("certificate", help="path to a certificate JSON file")
    check.add_argument("--json", action="store_true")
    check.add_argument("--out")

    plot = sub.add_parser("plot", help="SVG renderings")
    plot.add_argument("--domain", help="render a packing of this domain")
    plot.add_argument("--epsilon", default="1/100")
    plot.add_argument("--profile", help="render this profile with tangent lines")
    plot.add_argument("--space", default="cn:1")
    plot.add_argument("--deformation", help="a=..,eps=..,s=v1;v2;... panel")
    plot.add_argument("--out")

    verify = sub.add_parser("verify", help="run the full acceptance suite")
    verify.add_argument("--out")

    return parser


def _build_system(args) -> RadialProfile | TwoBallSystem:
    name, params = parse_profile_spec(args.profile)
    space = parse_space(args.space)
    try:
        system = build_profile(name, space, **params)
    except TypeError as exc:
        raise ParseFailure(f"bad parameters for {name!r}: {exc}") from exc
    if system.space.kind != space.kind:
        raise ValueError(
            f"construction {name!r} lives on {system.space.kind}, not {space.kind}"
        )
    return system


def _run_cap(args) -> str:
    if args.capacity == "gromov-width":
        if not args.simplex:
            raise ParseFailure("gromov-width needs --simplex a")
        value = gromov_width_simplex_preimage(parse_rational(args.simplex))
    else:
        if not args.domain:
            raise ParseFailure("--domain is required for this capacity")
        domain = parse_domain(args.domain)
        value = (
            c2b_closed_form(domain)
            if args.capacity == "c2b"
            else spectral_diameter(domain)
        )
    if args.json:
        return serialize.dumps(serialize.capacity_to_json(value))
    return fmt(value.value) + "\n"


def _run_pack(args) -> str:
    domain = parse_domain(args.domain)
    if args.search:
        config = SearchConfig(
            matrix_entry_bound=args.matrix_bound,
            translation_grid=args.grid,
            bisection_tolerance=parse_rational(args.tolerance),
            equal_balls=not args.unequal,
        )
        certificate = search_two_balls(domain, config)
    else:
        certificate = canonical_certificate(domain, parse_rational(args.epsilon))
    if args.json or (args.out and args.out.endswith(".json")):
        return serialize.dumps(serialize.certificate_to_json(certificate))
    return (
        f"total {fmt(certificate.total)} "
        f"(capacities {fmt(certificate.simplices[0].capacity)} + "
        f"{fmt(certificate.simplices[1].capacity)}), "
        f"verified={str(certificate.verified).lower()}\n"
    )


def _run_spectrum(args) -> str:
    if args.recap < 0:
        raise ParseFailure("--recap must be >= 0")
    system = _build_system(args)
    report = action_spectrum(system, recapping_window=args.recap)
    payload = serialize.spectrum_report_to_json(report)
    if args.norm:
        analysis = spectral_norm_candidates(report)
        payload["norm_candidates"] = [fmt(c) for c in analysis["candidates"]]
        payload["norm_selected"] = fmt(analysis["selected"])
    if args.json:
        return serialize.dumps(payload)
    if args.csv:
        lines = ["locus,winding,recapping,radius,action"]
        for orbit in report.orbits:
            radius = "" if orbit.radius is None else fmt(orbit.radius)
            lines.append(
                f"{orbit.locus},{orbit.winding},{orbit.recapping},{radius},{fmt(orbit.action)}"
            )
        return "\n".join(lines) + "\n"
    text = "{" + ", ".join(fmt(x) for x in report.spectrum) + "}\n"
    if args.norm:
        text += f"norm {payload['norm_selected']}\n"
    return text


def _run_check(args) -> tuple[str, bool]:
    try:
        with open(args.certificate, encoding="utf-8") as handle:
            data = json.load(handle)
        certificate = serialize.certificate_from_json(data)
    except (OSError, KeyError, TypeError, ValueError, ArithmeticError, RecursionError) as exc:
        # RecursionError: `json.load` on arrays or objects nested too deep.
        raise ParseFailure(f"cannot read certificate: {exc}") from exc
    ok = certificate.verified
    if args.json:
        return serialize.dumps({"verified": ok, "total": fmt(certificate.total)}), ok
    return ("verified" if ok else "FAILED") + f" total {fmt(certificate.total)}\n", ok


def _run_verify(args) -> tuple[str, bool]:
    # Imported here so that the other verbs never load the acceptance suite.
    from .verify import format_suite, run_suite

    result = run_suite()
    return format_suite(result), result.ok


def _run_plot(args) -> str:
    chosen = [bool(args.domain), bool(args.profile), bool(args.deformation)]
    if sum(chosen) != 1:
        raise ParseFailure("plot needs exactly one of --domain, --profile, --deformation")
    if args.domain:
        domain = parse_domain(args.domain)
        certificate = canonical_certificate(domain, parse_rational(args.epsilon))
        return render_packing(certificate)
    if args.profile:
        return render_profile(_build_system(args))
    keys = {"a", "eps", "s"}
    pairs = _parse_pairs(args.deformation, "deformation")
    for key, value in pairs.items():
        if key not in keys:
            raise ParseFailure(f"bad deformation parameter {key + '=' + value!r}")
    missing = keys - set(pairs)
    if missing:
        raise ParseFailure(f"deformation spec missing {sorted(missing)}")
    return render_deformation(
        parse_rational(pairs["a"]),
        parse_rational(pairs["eps"]),
        [parse_rational(v) for v in pairs["s"].split(";")],
    )


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK

    handlers = {
        "cap": _run_cap,
        "pack": _run_pack,
        "spectrum": _run_spectrum,
        "plot": _run_plot,
    }
    # Verbs whose output carries a verdict; a failed one exits 1.
    checks = {"check": _run_check, "verify": _run_verify}
    try:
        if args.verb in checks:
            text, ok = checks[args.verb](args)
            _emit(text, args.out)
            return EXIT_OK if ok else EXIT_FAILED
        _emit(handlers[args.verb](args), args.out)
        return EXIT_OK
    except ParseFailure as exc:
        print(f"symcap: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, ArithmeticError) as exc:
        print(f"symcap: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
