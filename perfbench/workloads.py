"""Seeded inputs, jobs and correctness gates of the four benchmark workloads.

Inputs depend only on the seed; symcap sees nothing but the generated
inputs.  Every call into symcap goes through a module attribute
(``packing.search_two_balls``, ``cli.run``) so that the tracer's wrappers,
which rebind those attributes, see the call.  Why each workload exists and
which layers it stresses is written down in ``LAYERS.md``.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import tracing
from symcap import cli, exactgeom, packing, serialize
from symcap.rationals import fmt, rat


class GateFailure(Exception):
    """A job's output is wrong; the harness counts the job as failed."""


@dataclass
class Job:
    name: str
    run: Callable[[], str]  # the timed work; returns the output text
    check: Callable[[str], list]  # untimed gate; returns certified totals


@dataclass
class Workload:
    name: str
    jobs: list[Job]  # one pass; the harness repeats passes
    warm_up: list[Job] = field(default_factory=list)  # run once, untimed, before timing
    cold: bool = False  # clear symcap's caches before every job


def run_cli(argv: list[str]) -> str:
    """`symcap <argv>` in this process; its stdout, or GateFailure unless exit 0."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    if code != 0:
        raise GateFailure(f"symcap {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def certificate_gate(text: str) -> Fraction:
    """Round-trip a certificate through its JSON form and re-verify it exactly."""
    try:
        certificate = serialize.certificate_from_json(json.loads(text))
    except (KeyError, TypeError, ValueError) as exc:
        raise GateFailure(f"unreadable certificate: {exc}") from exc
    if serialize.dumps(serialize.certificate_to_json(certificate)) != text:
        raise GateFailure("certificate JSON does not round-trip byte for byte")
    if not packing.verify_certificate(certificate):
        raise GateFailure(f"certificate of total {fmt(certificate.total)} fails verification")
    return certificate.total


def clear_caches() -> None:
    """Empty every functools cache in symcap, as a fresh CLI process has them.

    Only caches made by functools are found; a cache kept any other way
    would carry over between jobs and must be added here.
    """
    for module in tracing.symcap_modules():
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def _total_of(text: str) -> list:
    return [rat(json.loads(text)["total"])]


# ---------------------------------------------------------------------------
# search-2d: packing search on lattice polygons through the Python API
# ---------------------------------------------------------------------------

_ORTHANT = [((-1, 0), 0), ((0, -1), 0)]

# The ROADMAP triangle and quadrilateral, and a second quadrilateral cut by
# two halfspaces of small integer coefficients.  Random polygons of that family
# take 0.01-6.3 s each to search, so a run of a few of them would spread far
# beyond any useful bound from seed to seed; the shapes are therefore fixed
# and the seed moves each one by a lattice translation, which leaves the
# search's work and its certified total unchanged.  The three take about
# 2.4, 4.2 and 5.5 s, so the median job of a run is one of the two longer
# searches rather than a short one, which feels the machine's speed drift more.
POLYGONS = {
    "triangle": _ORTHANT + [((1, 1), 2)],
    "quadrilateral": _ORTHANT + [((1, 2), 3), ((2, 1), 3)],
    "wide-quadrilateral": _ORTHANT + [((3, 1), 6), ((1, 2), 6)],
}
# A 0.3 s search that loads the code and the SL_2(Z) cache before timing.
WARM_UP_POLYGON = _ORTHANT + [((3, 1), 5), ((2, 3), 3)]


def translated(halfspaces, shift) -> list:
    """The halfspaces nu . x <= beta moved by the vector `shift`."""
    return [(nu, beta + sum(a * t for a, t in zip(nu, shift))) for nu, beta in halfspaces]


def _search_job(name: str, domain) -> Job:
    def run() -> str:
        certificate = packing.search_two_balls(domain, packing.SearchConfig())
        if certificate is None:
            raise GateFailure("search returned no certificate")
        text = serialize.dumps(serialize.certificate_to_json(certificate))
        certificate_gate(text)
        return text

    return Job(name, run, _total_of)


def _polygon(halfspaces):
    return exactgeom.polytope_domain(exactgeom.Polytope.from_halfspaces(halfspaces))


def search_2d(seed: int, workdir: Path, smoke: bool = False) -> Workload:
    rng = random.Random(seed)
    jobs = []
    for name, halfspaces in POLYGONS.items():
        shift = (rng.randint(-3, 3), rng.randint(-3, 3))
        jobs.append(_search_job(f"{name}+{shift}", _polygon(translated(halfspaces, shift))))
    rng.shuffle(jobs)
    warm_up = [_search_job("warm-up polygon", _polygon(WARM_UP_POLYGON))]
    return Workload("search-2d", warm_up if smoke else jobs, warm_up)


# ---------------------------------------------------------------------------
# search-3d: `symcap pack --search --grid 8`, each job from cold caches
# ---------------------------------------------------------------------------

# Long ellipsoids E(1,2,c).  Polydisks were measured and left out: P(1,2,c)
# peaks at 45-111 MB against 34 MB here, and P(1,1,c) runs a quarter faster,
# so a seeded mix would make peak_rss_mb and wall_s bimodal across seeds.
# Larger parameters multiply the placement work (E(1,5,9) takes four times
# as long as E(1,2,7) once SL_3(Z) is enumerated), which would swamp the
# cold enumeration this workload is about.
DOMAINS_3D = [f"ellipsoid:1,2,{c}" for c in range(2, 8)]


def search_3d(seed: int, workdir: Path, smoke: bool = False) -> Workload:
    domain = random.Random(seed).choice(DOMAINS_3D)
    argv = ["pack", "--domain", domain, "--search", "--grid", "8", "--json"]
    if smoke:
        argv += ["--matrix-bound", "1"]
    job = Job(f"pack --search {domain}", lambda: run_cli(argv), lambda text: [certificate_gate(text)])
    return Workload("search-3d", [job], cold=True)


# ---------------------------------------------------------------------------
# acceptance: `symcap verify` with SYMCAP_SEED set to the benchmark seed
# ---------------------------------------------------------------------------

def _record_totals(fn, totals: list):
    """`fn`, which returns a certificate or None, appending each certificate's total."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        certificate = fn(*args, **kwargs)
        if certificate is not None:
            totals.append(certificate.total)
        return certificate

    return wrapper


def acceptance(seed: int, workdir: Path, smoke: bool = False) -> Workload:
    os.environ["SYMCAP_SEED"] = str(seed)
    totals: list = []
    # The suite's own certificates, recorded as they are returned.  The
    # wrappers are bound once here, outside every timed job, and stay bound.
    for fn in (packing.search_two_balls, packing.canonical_certificate):
        tracing.rebind(fn, _record_totals(fn, totals))

    def run() -> str:
        totals.clear()
        return run_cli(["verify"])

    def check(text: str) -> list:
        *cases, summary = text.splitlines() or [""]
        if summary != f"{len(cases)} passed, 0 failed" or not all(
            line.endswith("  PASS") for line in cases
        ):
            raise GateFailure(f"acceptance suite: {summary}")
        return list(totals)

    return Workload("acceptance", [Job("verify", run, check)])


# ---------------------------------------------------------------------------
# small-verbs: a seeded mix of interactive CLI verbs
# ---------------------------------------------------------------------------


def _norm_job(construction: str, params: dict, expected: Fraction) -> Job:
    spec = construction + ":" + ",".join(f"{k}={fmt(v)}" for k, v in params.items())
    argv = ["spectrum", "--profile", spec, "--norm", "--json"]

    def check(text: str) -> list:
        selected = rat(json.loads(text)["norm_selected"])
        if selected != expected:
            raise GateFailure(f"{spec}: norm {fmt(selected)}, closed form {fmt(expected)}")
        return []

    return Job(f"spectrum --norm {spec}", lambda: run_cli(argv), check)


def _cli_job(argv: list[str], check=lambda text: []) -> Job:
    return Job(" ".join(argv), lambda: run_cli(argv), check)


def _check_verified(text: str) -> list:
    data = json.loads(text)
    if data["verified"] is not True:
        raise GateFailure(f"check rejected a valid certificate of total {data['total']}")
    return [rat(data["total"])]


def _domain_spec(rng: random.Random, kind: str, dim: int) -> str:
    """A seeded long ellipsoid or polydisk of dimension `dim`, smallest parameter 1."""
    if kind == "ellipsoid":
        middle = sorted(Fraction(rng.randint(2, 8), 2) for _ in range(dim - 2))
        params = [Fraction(1), *middle, Fraction(rng.randint(4, 12), 2)]
        return "ellipsoid:" + ",".join(fmt(p) for p in sorted(params))
    params = [Fraction(1)] + [Fraction(rng.randint(2, 8), 2) for _ in range(dim - 1)]
    return "polydisk:" + ",".join(fmt(p) for p in sorted(params))


def _unimodular(rng: random.Random, dim: int) -> tuple:
    """A seeded SL_n(Z) matrix: a product of three elementary shears."""
    matrix = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for _ in range(3):
        i, j = rng.sample(range(dim), 2)
        k = rng.choice([-1, 1])
        matrix[i] = [a + k * b for a, b in zip(matrix[i], matrix[j])]
    return tuple(tuple(row) for row in matrix)


def _moved_certificate(text: str, rng: random.Random) -> str:
    """The certificate moved, with its domain, by a seeded element of SL_n(Z) x Z^n."""
    data = json.loads(text)
    certificate = serialize.certificate_from_json(data)
    n = certificate.domain.dimension
    g = exactgeom.SpecialAffineTransform(
        _unimodular(rng, n), tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))
    )
    image = exactgeom.moment_polytope(certificate.domain).transform(g)
    data["domain"] = serialize.domain_to_json(exactgeom.polytope_domain(image))
    data["simplices"] = [
        serialize.simplex_to_json(exactgeom.SimplexImage(s.capacity, g.compose(s.transform)))
        for s in certificate.simplices
    ]
    return serialize.dumps(data)


# Jobs per verb form in one small-verbs pass.  Every form the mix covers gets
# the same count; there is no usage data to weight them by.  Six jobs give
# each (shape, dimension 2-4) pair of a domain-taking form one job.
PER_FORM = 6
SHAPES = [(kind, 2 + i % 3) for i, kind in enumerate(["ellipsoid", "polydisk"] * 3)]


def small_verbs(seed: int, workdir: Path, smoke: bool = False) -> Workload:
    rng = random.Random(seed)
    forms: dict[str, list[Job]] = {}

    def add(form: str, job: Job) -> None:
        job.name = f"[{form}] {job.name}"
        forms.setdefault(form, []).append(job)

    def tenths(lo: int, hi: int) -> Fraction:
        return Fraction(rng.randint(lo, hi), 10)

    def certificate_file(name: str, kind: str, dim: int, moved: bool) -> str:
        text = run_cli(["pack", "--domain", _domain_spec(rng, kind, dim), "--json"])
        if moved:
            text = _moved_certificate(text, rng)
        path = workdir / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        return str(path)

    for _ in range(PER_FORM):  # selected norm of two_ball is eta a + mu b - delta
        a, b = Fraction(rng.randint(2, 5), 2), Fraction(rng.randint(2, 5), 2)
        eta, mu = tenths(5, 9), tenths(5, 9)
        delta = Fraction(1, rng.choice([50, 100, 200]))
        params = {"a": a, "b": b, "eta": eta, "mu": mu, "delta": delta}
        add("spectrum --norm two_ball", _norm_job("two_ball", params, eta * a + mu * b - delta))
    for _ in range(PER_FORM):  # selected norm of bump is eta a - delta/2
        a, eta = Fraction(rng.randint(2, 5), 2), tenths(5, 9)
        delta = Fraction(1, rng.choice([50, 100, 200]))
        add("spectrum --norm bump", _norm_job("bump", {"a": a, "eta": eta, "delta": delta}, eta * a - delta / 2))
    for i in range(PER_FORM):
        profile = f"s_a:a={fmt(tenths(1, 9))}"
        argv = ["spectrum", "--profile", profile, "--space", "cpn:1", "--recap", str(i % 4), "--json"]
        add("spectrum --space cpn:1 --recap k", _cli_job(argv))
    for i, (kind, dim) in enumerate(SHAPES):
        capacity = ["spectral-diameter", "c2b"][i // 3]
        argv = ["cap", "--domain", _domain_spec(rng, kind, dim), "--capacity", capacity, "--json"]
        add("cap", _cli_job(argv))
    for kind, dim in SHAPES:
        argv = ["pack", "--domain", _domain_spec(rng, kind, dim), "--json"]
        add("pack", _cli_job(argv, lambda text: [certificate_gate(text)]))
    for moved in (False, True):
        form = "check " + ("moved" if moved else "canonical")
        for i, (kind, dim) in enumerate(SHAPES):
            path = certificate_file(f"{form.replace(' ', '-')}-{i}", kind, dim, moved)
            add(form, _cli_job(["check", path, "--json"], _check_verified))
    for i in range(PER_FORM):
        a, eta = Fraction(rng.randint(2, 5), 2), tenths(5, 9)
        argv = ["plot", "--profile", f"bump:a={fmt(a)},eta={fmt(eta)},delta=1/100"]
        add("plot --profile", _cli_job(argv))
    for kind, _ in SHAPES:
        add("plot --domain", _cli_job(["plot", "--domain", _domain_spec(rng, kind, 2)]))
    jobs = [job for form in forms.values() for job in form]
    rng.shuffle(jobs)
    return Workload("small-verbs", jobs, warm_up=jobs)


WORKLOADS = {
    "search-2d": search_2d,
    "search-3d": search_3d,
    "acceptance": acceptance,
    "small-verbs": small_verbs,
}


def build(name: str, seed: int, workdir: Path, smoke: bool = False) -> Workload:
    """The workload's inputs for `seed`; `smoke` shrinks the slow ones for tests."""
    return WORKLOADS[name](seed, workdir, smoke)
