"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q
"""

import collections
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import speed
import tracing
import workloads
from symcap import packing, spectra, verify

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_self_time_subtracts_the_union_of_children():
    S = tracing.Span
    spans = [
        S("root", 0.0, 10.0, None, 0),
        S("a", 1.0, 4.0, 0, 0),
        S("a.child", 2.0, 3.0, 1, 0),
        S("b", 3.0, 6.0, 0, 0),  # overlaps a: the overlap is subtracted once
        S("c", 9.0, 12.0, 0, 0),  # runs past its parent: only 9-10 counts
        S("other-root", 20.0, 21.0, None, 1),
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 3.0, 3.0, 1.0])


def test_totals_keep_counts_per_job():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda: 7, lambda r: {"seven": r == 7})
    outer = tracer.wrap("outer", inner)
    tracer.run_job(0, outer)
    tracer.run_job(1, outer)
    first = tracer.totals({0})
    assert first["outer"]["calls"] == 1 and first["inner"]["seven"] == 1
    # job 0, outer 1-4 and inner 2-3: one tick of self time each
    assert first["outer"]["self_s"] == 2.0 and first["inner"]["s"] == 1.0
    assert tracer.totals()["inner"]["calls"] == 2


def test_install_rebinds_every_binding_and_uninstall_restores():
    originals = (spectra.find_orbits, verify.find_orbits, verify._CASES)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert spectra.find_orbits is verify.find_orbits is not originals[0]
        assert all(case.__wrapped__ for case in verify._CASES)
        assert tracer.missing == []
    finally:
        tracer.uninstall()
    assert (spectra.find_orbits, verify.find_orbits, verify._CASES) == originals


def test_clear_caches_empties_the_sl_n_enumeration():
    packing._unimodular_matrices(2, 1)
    assert packing._unimodular_matrices.cache_info().currsize > 0
    workloads.clear_caches()
    assert packing._unimodular_matrices.cache_info().currsize == 0


def test_speed_sampler_scales_to_reference_seconds():
    with speed.SpeedSampler(interval=0.01) as sampler:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            sum(range(1000))
    assert len(sampler.samples) >= 5
    assert sampler.busy == pytest.approx(sum(sampler.samples))
    assert sampler.scale() == pytest.approx(speed.REFERENCE_S / statistics.median(sampler.samples))
    assert speed.SpeedSampler().scale() == 1.0


def _canonical() -> str:
    return workloads.run_cli(["pack", "--domain", "ellipsoid:1,2", "--json"])


def _raise_total(text):
    data = json.loads(text)
    data["total"] = "2"
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _overlap(text):
    data = json.loads(text)
    data["simplices"][1] = data["simplices"][0]
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _pass_once(job):
    tally = run.Tally()
    run.Runner(workloads.Workload("test", [job]), tally).passes(0)
    return tally


@pytest.mark.parametrize("tamper", [_raise_total, _overlap])
def test_tampered_certificate_counts_as_a_failed_job(tamper):
    honest = _pass_once(workloads.Job("honest", _canonical, lambda t: [workloads.certificate_gate(t)]))
    assert (honest.failed, honest.attempted) == (0, 1)
    tampered = tamper(_canonical())
    job = workloads.Job("tampered", lambda: tampered, lambda t: [workloads.certificate_gate(t)])
    tally = _pass_once(job)
    assert (tally.failed, tally.attempted) == (1, 1)


def test_changing_output_and_raising_jobs_count_as_failures():
    outputs = iter(["a", "b"])
    tally = run.Tally()
    runner = run.Runner(workloads.Workload("test", [workloads.Job("flaky", lambda: next(outputs), lambda t: [])]), tally)
    runner.passes(0)
    runner.passes(0)
    boom = workloads.Job("boom", lambda: 1 / 0, lambda t: [])
    run.Runner(workloads.Workload("test", [boom]), tally).passes(0)
    assert (tally.failed, tally.attempted) == (2, 3)


def test_inputs_depend_only_on_the_seed(tmp_path):
    def names(seed):
        return [job.name.split(" /")[0] for job in workloads.small_verbs(seed, tmp_path).jobs]

    assert names(3) == names(3) != names(4)
    assert [j.name for j in workloads.search_2d(5, tmp_path).jobs] == [
        j.name for j in workloads.search_2d(5, tmp_path).jobs
    ]


def test_small_verbs_runs_the_same_count_of_every_verb_form(tmp_path):
    forms = collections.Counter(job.name.split("]")[0] for job in workloads.small_verbs(3, tmp_path).jobs)
    assert len(forms) == 9 and set(forms.values()) == {workloads.PER_FORM}


def _smoke(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_the_declared_metrics(workload, trace):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert workload in [w["name"] for w in declared["workloads"]]
    expected = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    result = _smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(NAME.match(name) for name in result["metrics"])
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
