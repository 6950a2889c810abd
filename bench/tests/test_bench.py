"""Tests of the benchmark itself: inputs, span arithmetic, output checks, contract.

    python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import run
import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent.parent


def _shipped(stem):
    return json.loads((workloads.CONFIG_DIR / f"{stem}.json").read_text())


def _written(job):
    return json.loads(job.config_path.read_text())


# --- inputs -----------------------------------------------------------------


def test_seed0_inputs_are_the_shipped_configs(tmp_path):
    runs = [j for j in workloads.pipeline_jobs(0, tmp_path) if isinstance(j, workloads.RunJob)]
    assert len(runs) == 14
    for job in runs:
        stem, variant = job.name.split(".")[1:]
        expected = _shipped(stem)
        if variant == "auto":
            expected["theta_star"] = "auto"
        assert _written(job) == expected
    for job in workloads.sweep_jobs(0, tmp_path):
        assert _written(job) == _shipped(job.name.split(".")[1])
    assert [j.sub_seed for j in workloads.lemmas_jobs(0, tmp_path)] == list(range(8))


def test_seed1_inputs_are_reproducible_and_shifted(tmp_path):
    first = workloads.pipeline_jobs(1, tmp_path / "a")
    second = workloads.pipeline_jobs(1, tmp_path / "b")
    for a, b in zip(first, second):
        if isinstance(a, workloads.RunJob):
            assert _written(a) == _written(b)
            stem = a.name.split(".")[1]
            assert _written(a)["theta0"] != _shipped(stem)["theta0"]
    (mixture, gaussian) = workloads.sweep_jobs(1, tmp_path / "c")
    assert _written(mixture)["seeds"] == list(range(16, 32))
    assert _written(gaussian)["seeds"] == list(range(16, 32))
    assert [j.sub_seed for j in workloads.lemmas_jobs(1, tmp_path)] == list(range(8, 16))


# --- span arithmetic ----------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _spanned(tracer, clock, name, start, end, body=lambda: None):
    """A traced function that runs from clock time `start` to `end`, calling body."""

    def fn():
        body()
        clock.now = end

    traced = tracer.wrap(name, fn)

    def call():
        clock.now = start
        traced()

    return call


def test_covered_length_merges_and_clips():
    assert spans.covered_length([], 0, 1) == 0.0
    assert spans.covered_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5.0
    assert spans.covered_length([(-1, 2), (9, 12)], 0, 10) == 3.0


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = spans.Tracer(clock)
    grandchild = _spanned(tracer, clock, "grandchild", 2, 3)
    child = _spanned(tracer, clock, "child", 1, 4, grandchild)
    second_child = _spanned(tracer, clock, "child", 5, 6)
    _spanned(tracer, clock, "outer", 0, 10, lambda: (child(), second_child()))()
    self_s = tracer.totals.self_s
    assert self_s == {"outer": 6.0, "child": 3.0, "grandchild": 1.0}
    assert tracer.totals.calls == {"outer": 1, "child": 2, "grandchild": 1}
    assert sum(self_s.values()) == 10.0


def test_overlapping_worker_spans_are_parented_and_scaled():
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    def pool():
        # two cells overlapping in time, as two pool threads run them
        for start, end in ((1, 5), (2, 6)):
            t = threading.Thread(target=_spanned(tracer, clock, "cell", start, end))
            t.start()
            t.join(timeout=10)
            assert not t.is_alive()

    _spanned(tracer, clock, "sweep", 0, 10, pool)()
    self_s = tracer.totals.self_s
    # the cells cover [1, 6]: 5 s of the sweep's 10 s, shared between the two cells
    assert self_s["sweep"] == pytest.approx(5.0)
    assert self_s["cell"] == pytest.approx(5.0)
    assert tracer.totals.calls["cell"] == 2


# --- passes and checks ----------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workload", ["lemmas", "pipeline", "sweep"])
def test_no_job_fails(workload, seed, tmp_path):
    jobs = workloads.WORKLOADS[workload](seed, tmp_path)
    reference = workloads.load_reference()[workload]
    done = run.run_pass(jobs, reference, seed)
    assert {n: o.failures for n, o in done.outcomes.items() if o.failures} == {}
    assert set(done.outcomes) == set(reference)


def test_a_drifted_key_number_fails_the_job(tmp_path):
    (job,) = [j for j in workloads.pipeline_jobs(0, tmp_path) if j.name == "run.gd_diag.shipped"]
    ref = json.loads(json.dumps(workloads.load_reference()["pipeline"][job.name]))
    ref["numbers"]["rho_sup"] *= 1.001
    outcome = job.evaluate(job.run(), ref, 0)
    assert any("rho_sup" in f for f in outcome.failures)


def test_tracing_changes_no_artefact_and_is_removed(tmp_path):
    from surro import linalg, suite

    jobs = workloads.pipeline_jobs(1, tmp_path)
    reference = workloads.load_reference()["pipeline"]
    plain = run.run_pass(jobs, reference, 1)
    tracer = spans.Tracer()
    traced = run.run_pass(jobs, reference, 1, tracer)
    assert {n: o.digests for n, o in traced.outcomes.items()} == {
        n: o.digests for n, o in plain.outcomes.items()}
    assert not hasattr(linalg.eigh, "__bench_traced__")
    assert not hasattr(suite.curvature_at, "__bench_traced__")
    layers = run.layer_metrics(tracer, [traced], [plain], 0, 0)
    self_total = sum(v for k, (v, unit) in layers.items() if unit == "s" and k.endswith("self_s"))
    assert self_total == pytest.approx(traced.seconds)
    assert layers["other.self_s"][0] >= 0.0
    assert layers["mirror_maps.map_calls"][0] > 0
    assert layers["runner.locate_fixed_point.calls"][0] == 7


# --- contract -----------------------------------------------------------------


def test_benchmark_json_names_every_metric_printed():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    one = run.Pass([1.0], [1.0, 1.0], {})
    layers = run.layer_metrics(spans.Tracer(), [one], [one], 0, 0)
    assert [m["name"] for m in spec["per_layer"]] == list(layers)
    assert [m["unit"] for m in spec["per_layer"]] == [unit for _, unit in layers.values()]
    assert {m["name"] for m in spec["end_to_end"]} == {"pass_s", "setup_s", "peak_rss_mb"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
