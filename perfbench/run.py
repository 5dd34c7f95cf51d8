"""The symcap benchmark: one workload per run, a closed loop with one client.

    python3 perfbench/run.py --workload search-2d --seed 1 --seconds 30 --trace 0

Run from anywhere inside a symcap checkout; the package is imported from
the checkout's ``src/``.  Inputs come from ``--seed`` alone.  The timed
section repeats passes over the workload's jobs while another pass fits in
``--seconds`` (at least one pass).  Every output goes through a correctness
gate; a failed gate or a raised exception counts as a failed job.

With ``--trace 0`` the last line of stdout is the JSON result with the
end-to-end metrics; the timed jobs' times are in reference seconds
(``ref_s``, see speed.py) and ``setup_s`` is in plain seconds.  With
``--trace 1`` it holds the per-layer metrics of traced passes, alternated
with untraced ones so the tracing overhead shows, and the spans are written
to ``.perfbench-out/``.  Human-readable lines with the seed, environment
and exact certified totals come first.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
if not (SRC / "symcap" / "__init__.py").is_file():
    sys.exit(f"perfbench: {SRC} holds no symcap package; run inside a symcap checkout")
sys.path.insert(0, str(SRC))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 3  # before and again after the timed passes, so two moments are sampled
WARM_REPEAT = -1  # job id of the warm repeat of the first cold job (traced runs)
GATES = -2  # job id that spans of the untimed gates carry (traced runs)


@dataclass
class Tally:
    """What every job run produced: attempts, failures, first outputs, totals.

    A failure is reported on stderr as it happens.
    """

    attempted: int = 0
    failed: int = 0
    first_output: dict = field(default_factory=dict)  # id(job) -> text
    totals: dict = field(default_factory=dict)  # id(job) -> certified totals

    def gate(self, job: workloads.Job, output) -> None:
        self.attempted += 1
        try:
            if isinstance(output, BaseException):
                raise output
            totals = job.check(output)
            if self.first_output.setdefault(id(job), output) != output:
                raise workloads.GateFailure("output differs from this job's first run")
            self.totals.setdefault(id(job), totals)
        except Exception as exc:  # a wrong answer of any kind fails the job, not the run
            self.failed += 1
            detail = "".join(traceback.format_exception(exc)).rstrip()
            print(f"perfbench: job failed: {job.name}\n{detail}", file=sys.stderr)


@dataclass
class Pass:
    job_seconds: list

    @property
    def wall(self) -> float:
        return sum(self.job_seconds)


class Runner:
    """Runs jobs of one workload, optionally under a tracer or a speed sampler."""

    def __init__(self, workload: workloads.Workload, tally: Tally, tracer=None, sampler=None):
        self.workload = workload
        self.tally = tally
        self.tracer = tracer
        self.sampler = sampler
        self.next_id = 0
        self.job_ids: list[int] = []

    def run_job(self, job: workloads.Job, job_id: int | None = None, cold=None):
        if self.workload.cold if cold is None else cold:
            workloads.clear_caches()
        if job_id is None:
            job_id, self.next_id = self.next_id, self.next_id + 1
            self.job_ids.append(job_id)
        sampled = self.sampler.busy if self.sampler else 0.0
        start = time.perf_counter()
        try:
            output = self.tracer.run_job(job_id, job.run) if self.tracer else job.run()
        except Exception as exc:  # counted as a failure by the gate
            output = exc
        elapsed = time.perf_counter() - start
        return output, elapsed - ((self.sampler.busy if self.sampler else 0.0) - sampled)

    def gate_all(self, jobs, outputs) -> None:
        if self.tracer:
            self.tracer.job = GATES
        for job, output in zip(jobs, outputs):
            self.tally.gate(job, output)

    def warm_up(self) -> None:
        outputs = [self.run_job(job, job_id=GATES)[0] for job in self.workload.warm_up]
        self.gate_all(self.workload.warm_up, outputs)

    def passes(self, seconds: float) -> list[Pass]:
        """Passes over the jobs while the next one is expected to fit in `seconds`."""
        done = []
        start = time.perf_counter()
        while True:
            results = [self.run_job(job) for job in self.workload.jobs]
            done.append(Pass([dt for _, dt in results]))
            self.gate_all(self.workload.jobs, [out for out, _ in results])
            if time.perf_counter() - start + done[-1].wall > seconds:
                return done


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    """Peak resident memory of this process, which ran the jobs; not of the probes."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure_setup(args) -> list[float]:
    """Seconds from process start to "ready" in fresh interpreters, one at a time."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    if args.smoke:
        argv.append("--smoke")
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as probe:
            line = probe.stdout.readline()
            times.append(time.perf_counter() - start)
            probe.stdout.read()
            probe.wait(timeout=120)
        if line.strip() != "ready" or probe.returncode != 0:
            raise RuntimeError(f"setup probe failed with exit code {probe.returncode}")
    return times


def environment(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "seed": seed,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
    }


def certified(tally: Tally, jobs) -> Fraction:
    return sum((t for job in jobs for t in tally.totals.get(id(job), [])), Fraction(0))


def end_to_end(passes: list[Pass], setup: list[float], total: Fraction, scale: float) -> dict:
    """The end-to-end metrics.

    Job times are multiplied by `scale` into reference seconds (see speed.py).
    `setup_s` stays in seconds: the probes run in other interpreters, outside
    the window in which `scale` was sampled.
    """
    job_times = [t for p in passes for t in p.job_seconds]
    return {
        "wall_s": (scale * statistics.fmean(p.wall for p in passes), "ref_s"),
        "jobs_per_s": (len(job_times) / sum(p.wall for p in passes) / scale, "1/ref_s"),
        "job_s.p50": (scale * statistics.median(job_times), "ref_s"),
        "job_s.p99": (scale * percentile(job_times, 99), "ref_s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "certified_total": (float(total), "area"),
    }


# Counts the tracer's observers keep on spans, reported per pass as
# "<span>.<count>": (span name, count, unit).
COUNTS = [
    ("linprog.solve_lp", "infeasible", "count"),
    ("spectra.find_orbits", "orbits", "count"),
    ("spectra.spectral_norm_candidates", "candidates", "count"),
    ("serialize.dumps", "bytes", "bytes"),
    ("svg.render_profile", "bytes", "bytes"),
]


def per_layer(tracer, job_ids, passes: int, cold_extra: float, untraced, traced) -> dict:
    """Per-layer metrics per pass, from the spans of the traced passes' jobs."""
    totals = tracer.totals(set(job_ids))
    metrics = {}
    for name in tracing.traced_names():
        entry = totals.get(name, {})
        kinds = ("s",) if name.startswith("verify.case_") else ("calls", "s", "self_s")
        for kind in kinds:
            metrics[f"{name}.{kind}"] = (entry.get(kind, 0) / passes, "count" if kind == "calls" else "s")
    for name, key, unit in COUNTS:
        metrics[f"{name}.{key}"] = (totals.get(name, {}).get(key, 0) / passes, unit)
    disjoint = totals.get("exactgeom.interiors_disjoint", {})
    metrics["exactgeom.interiors_disjoint.disjoint_frac"] = (
        disjoint["disjoint"] / disjoint["calls"] if disjoint else 0.0, "ratio")
    metrics["packing.search_two_balls.cold_extra_s"] = (cold_extra, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    metrics["trace.overhead_frac"] = ((traced - untraced) / untraced, "ratio")
    return metrics


def search_seconds(tracer, job_id: int) -> float:
    return tracer.totals({job_id}).get("packing.search_two_balls", {}).get("s", 0.0)


def layer_shares(tracer, job_ids, wall: float) -> list[str]:
    rows = sorted(tracer.totals(set(job_ids)).items(), key=lambda kv: -kv[1]["self_s"])
    return [
        f"  {name:<44} calls {entry['calls']:>8}  s {entry['s']:9.4f}  self {entry['self_s']:9.4f}"
        f"  share {entry['self_s'] / wall:6.1%}"
        for name, entry in rows
    ]


def run_untraced(args, workload, tally) -> tuple[dict, list[str]]:
    setup = measure_setup(args)
    Runner(workload, tally).warm_up()
    with speed.SpeedSampler() as sampler:
        passes = Runner(workload, tally, sampler=sampler).passes(args.seconds)
    setup += measure_setup(args)
    total = certified(tally, workload.jobs)
    scale = sampler.scale()
    lines = [
        f"speed: reference loop median {statistics.median(sampler.samples or [0]) * 1e6:.1f} us "
        f"over {len(sampler.samples)} samples; times in ref_s are raw times x {scale:.4f}",
        f"raw wall_s {statistics.fmean(p.wall for p in passes):.6g} s",
        f"passes {len(passes)} of {len(workload.jobs)} jobs; "
        f"{sum(len(p.job_seconds) for p in passes)} job times behind job_s.p50 and job_s.p99",
        f"setup probes (s): {' '.join(f'{t:.4f}' for t in setup)}",
        f"certified_total exact {total}",
        *(f"  {job.name}: {' '.join(str(t) for t in tally.totals[id(job)])}"
          for job in workload.jobs if tally.totals.get(id(job))),
    ]
    return end_to_end(passes, setup, total, scale), lines


def run_traced(args, workload, tally) -> tuple[dict, list[str]]:
    """Alternate untraced and traced passes, so both see the same machine."""
    plain = Runner(workload, tally)
    plain.warm_up()
    tracer = tracing.Tracer()
    runner = Runner(workload, tally, tracer)
    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start + untraced[-1].wall + traced[-1].wall <= args.seconds:
        untraced += plain.passes(0)
        tracer.install()
        try:
            traced += runner.passes(0)
        finally:
            tracer.uninstall()
    cold_extra = 0.0
    if workload.cold:
        tracer.install()
        try:
            output, _ = runner.run_job(workload.jobs[0], job_id=WARM_REPEAT, cold=False)
        finally:
            tracer.uninstall()
        runner.gate_all(workload.jobs[:1], [output])
        cold_extra = search_seconds(tracer, runner.job_ids[0]) - search_seconds(tracer, WARM_REPEAT)
    untraced_wall = statistics.fmean(p.wall for p in untraced)
    traced_wall = statistics.fmean(p.wall for p in traced)
    metrics = per_layer(tracer, runner.job_ids, len(traced), cold_extra, untraced_wall, traced_wall)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    spans_path.write_text(json.dumps(tracer.to_json(), default=str), encoding="utf-8")
    lines = [
        f"untraced pass {untraced_wall:.4f} s, traced pass {traced_wall:.4f} s, "
        f"{len(traced)} of each, alternating",
        *(f"not traced (missing in symcap): {name}" for name in tracer.missing),
        "layer self time, share of the traced passes' wall time:",
        *layer_shares(tracer, runner.job_ids, sum(p.wall for p in traced)),
        f"spans written to {spans_path.relative_to(ROOT)}",
    ]
    return metrics, lines


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as workdir:
        workload = workloads.build(args.workload, args.seed, Path(workdir), args.smoke)
        tally = Tally()
        if args.setup_probe:
            Runner(workload, tally).warm_up()
            print("ready", flush=True)  # the run's own warm-up gates the outputs
            return 0
        run = run_traced if args.trace else run_untraced
        metrics, lines = run(args, workload, tally)
    env = environment(args.seed)
    header = f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}"
    print(header)
    print("env " + json.dumps(env))
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value:.6g} {unit}")
    print(f"failed_frac {tally.failed / tally.attempted:.6g} ({tally.failed} of {tally.attempted} jobs)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
