"""Spans around symcap's public functions, recorded from outside the package.

A `Tracer` replaces every binding of a traced function inside symcap's
modules (``symcap.spectra.find_orbits`` and ``symcap.verify.find_orbits``
alike, and entries of module-level tuples such as the acceptance case
list) with a wrapper that records a span: name, start, end, the span that
was open when it started, and the job it belongs to.  Spans stay in memory
until the run ends.  Nothing inside ``src/`` is changed on disk.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

from symcap.linprog import INFEASIBLE

# Traced functions as "<module>.<function>", with an observer that turns a
# return value into counts kept on the span, named "<module>.<function>.<count>".
TRACED = {
    "linprog.solve_lp": lambda r: {"infeasible": r[0] == INFEASIBLE},
    "exactgeom.interiors_disjoint": lambda r: {"disjoint": bool(r)},
    "exactgeom.contains": None,
    "packing.search_two_balls": None,
    "packing.verify_certificate": None,
    "packing.canonical_certificate": None,
    "verify.run_suite": None,
    "verify.oracle_orbit_match": None,
    "spectra.find_orbits": lambda r: {"orbits": len(r)},
    "spectra.action_spectrum": None,
    "spectra.spectral_norm_candidates": lambda r: {"candidates": len(r["candidates"])},
    "profiles.build_profile": None,
    "serialize.dumps": lambda r: {"bytes": len(r.encode())},
    "serialize.certificate_from_json": None,
    "svg.render_profile": lambda r: {"bytes": len(r.encode())},
    "svg.render_packing": None,
    "cli.run": None,
}

# The fourteen acceptance cases, each traced as "verify.case_<name>".
ACCEPTANCE_CASES = (
    "ellipsoid_table",
    "polydisk_table",
    "scaling_law",
    "min_formula",
    "packing",
    "two_ball_spectrum",
    "cylinder_displacement",
    "ball_chain",
    "item_v_bound",
    "reeb_slope",
    "negation",
    "orbit_oracle",
    "cpn_values",
    "deformation_family",
)


def traced_names() -> dict:
    names = dict(TRACED)
    names.update({f"verify.case_{case}": None for case in ACCEPTANCE_CASES})
    return names


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in the same list
    job: int
    counts: dict | None = None


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(index)
    result = []
    for span, kids in zip(spans, children):
        covered = 0.0
        frontier = span.start
        for lo, hi in sorted((spans[k].start, spans[k].end) for k in kids):
            lo, hi = max(lo, frontier), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                frontier = hi
        result.append(span.end - span.start - covered)
    return result


def symcap_modules() -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if name == "symcap" or name.startswith("symcap.")
    ]


def rebind(original, replacement) -> list[tuple]:
    """Point every binding of `original` in symcap's modules at `replacement`.

    Returns the undo list of (module, attribute, previous value).
    """
    undo = []
    for module in symcap_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                new = replacement
            elif isinstance(value, tuple) and any(v is original for v in value):
                new = tuple(replacement if v is original else v for v in value)
            else:
                continue
            undo.append((module, attr, value))
            setattr(module, attr, new)
    return undo


def unbind(undo: list[tuple]) -> None:
    for module, attr, value in reversed(undo):
        setattr(module, attr, value)


class Tracer:
    """Collects spans; `install` and `uninstall` the wrappers."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.job = 0
        self._open: list[int] = []
        self._undo: list[tuple] = []
        self.missing: list[str] = []

    def wrap(self, name: str, fn, observe=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            span = Span(name, self.clock(), 0.0, parent, self.job)
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._open.pop()
            if observe is not None:
                span.counts = observe(result)
            return result

        return wrapper

    def install(self, targets: dict | None = None) -> None:
        """Wrap each "<module>.<function>" in `targets` (default: all traced)."""
        for name, observe in (targets or traced_names()).items():
            module_name, _, function = name.rpartition(".")
            original = getattr(sys.modules.get(f"symcap.{module_name}"), function, None)
            if original is None:
                self.missing.append(name)
                continue
            self._undo += rebind(original, self.wrap(name, original, observe))

    def uninstall(self) -> None:
        unbind(self._undo)
        self._undo = []

    def run_job(self, job: int, fn):
        """Call fn() under a root span named "job" tagged with `job`."""
        self.job = job
        return self.wrap("job", fn)()

    def totals(self, jobs=None) -> dict:
        """Per span name over the spans of `jobs` (all jobs if None):
        {"calls", "s", "self_s"} plus the sum of each observed count."""
        result: dict = {}
        for span, own in zip(self.spans, self_times(self.spans)):
            if jobs is not None and span.job not in jobs:
                continue
            entry = result.setdefault(span.name, defaultdict(int))
            entry["calls"] += 1
            entry["s"] += span.end - span.start
            entry["self_s"] += own
            for key, value in (span.counts or {}).items():
                entry[key] += value
        return result

    def to_json(self) -> dict:
        return {
            "spans": [[s.name, s.start, s.end, s.parent, s.job, s.counts] for s in self.spans],
            "missing": self.missing,
        }
