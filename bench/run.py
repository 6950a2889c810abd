"""surro benchmark: end-to-end timings, output checks and traced per-layer numbers.

    python3 bench/run.py --workload {lemmas,pipeline,sweep,all} --seed N --seconds N --trace {0,1}

Run from anywhere; the program is imported from `src/` next to this
directory.  After one untimed warm-up pass, passes repeat until `--seconds`
are used, with the fresh-process set-ups behind `setup_s` spread between
them.  With `--trace 1` untraced and traced passes alternate: the untraced
ones give the tracing overhead and the digests the traced ones must
reproduce.  Every job of every pass is checked (see workloads.py).  Tables go
to stdout; the last line is one JSON object with `correct`, `attempted`,
`failed` and `metrics` (end-to-end metrics with `--trace 0`, per-layer ones
with `--trace 1`).  Exits 1 without a result when the sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import spans

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
SRC = REPO / "src"
WORK_ROOT = REPO / ".bench_work"

SETUP_PROBES = 7
RUN_DEADLINE_S = 120.0  # no pass starts later than this into a workload: runs end within 180 s
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


# --- one pass ---------------------------------------------------------------


# Timings are reported as measured seconds * CALIBRATION_REF_S / (the time of
# the calibration kernel run just before and after them).  Other tenants of a
# shared host slow this code by up to 2x for stretches of seconds to minutes,
# and the kernel slows with it, so the ratio holds where seconds do not.  The
# constant only sets the scale: a round figure near the kernel's time on an
# idle 2-vCPU Xeon VM (8-9 ms), so normalized values read as seconds there.
CALIBRATION_REF_S = 0.008


def calibration_seconds() -> float:
    """Time of a fixed mix of interpreter work and small numpy operations,
    like the program's own but independent of it."""
    a = np.arange(36.0).reshape(6, 6) / 36.0
    v = np.ones(6)
    start = time.perf_counter()
    for i in range(1500):
        v = (a @ a.T + i) @ v
        v = v / np.linalg.norm(v)
        v[0] += 1e-300 * sum(x * x for x in v.tolist())
    return time.perf_counter() - start


def host_normalized(seconds: float, calibrations: tuple[float, float]) -> float:
    """Seconds scaled to the idle host, from the kernel's times just before and after."""
    return seconds * CALIBRATION_REF_S / statistics.mean(calibrations)


class Pass:
    """Timed program calls of one pass and the checked outcome of each job."""

    def __init__(self, job_seconds: list[float], calibrations: list[float], outcomes: dict):
        self.job_seconds = job_seconds
        self.seconds = sum(job_seconds)
        self.normalized = sum(host_normalized(t, pair) for t, pair in
                              zip(job_seconds, zip(calibrations, calibrations[1:])))
        self.outcomes = outcomes


def run_pass(jobs, reference: dict, seed: int, tracer=None) -> Pass:
    """Run every job; only the program calls are timed, and traced when a tracer is given."""
    from workloads import Outcome

    raws = []
    job_seconds = []
    calibrations = [calibration_seconds()]
    inst = spans.instrument(tracer) if tracer is not None else None
    try:
        for job in jobs:
            start = time.perf_counter()
            try:
                raws.append((job.run(), None))
            except (Exception, SystemExit):  # a crashing job is a failed job, not a crash
                raws.append((None, traceback.format_exc(limit=4)))
            job_seconds.append(time.perf_counter() - start)
            calibrations.append(calibration_seconds())
    finally:
        if inst is not None:
            inst.restore()

    outcomes = {}
    for job, (raw, error) in zip(jobs, raws):
        if error is not None:
            outcomes[job.name] = Outcome(failures=[error])
            continue
        try:
            outcomes[job.name] = job.evaluate(raw, reference.get(job.name), seed)
        except Exception:  # unreadable or missing artefacts
            outcomes[job.name] = Outcome(failures=[traceback.format_exc(limit=4)])
    return Pass(job_seconds, calibrations, outcomes)


# --- set-up -----------------------------------------------------------------


def setup_once(workload: str, seed: int, workdir: Path) -> tuple[float, float]:
    """One fresh-process set-up (import surro, make and assemble the inputs):
    (seconds, host-normalized seconds)."""
    before = calibration_seconds()
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed), str(workdir)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    seconds = float(done.stdout.strip().splitlines()[-1])
    return seconds, host_normalized(seconds, (before, calibration_seconds()))


# --- metrics ----------------------------------------------------------------


def spread(values) -> tuple:
    """(samples, q1, q3) of a list of timings."""
    if len(values) < 2:
        return len(values), values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return len(values), q1, q3


def span_metric(span: str) -> str:
    """Per-layer metric name that carries a span's self time."""
    return {
        "mirror_maps.map": "mirror_maps.map_self_s",
        "latent.callback": "latent.callback_self_s",
        "latent.lyapunov": "latent.callback_self_s",
        "report": "report.self_s",
    }.get(span, f"{span}.self_s")


def layer_metrics(tracer, traced: list[Pass], plain: list[Pass],
                  digest_mismatches: int, counterexamples: float) -> dict:
    """Per-layer metrics as means per traced pass, plus the tracing overhead.

    The self times and `other.self_s` add up to the mean traced pass time.
    """
    passes = len(traced)
    wall = statistics.mean(p.seconds for p in traced)
    self_s, calls, counters = tracer.totals.self_s, tracer.totals.calls, tracer.counters

    def count(value):
        return (value / passes, "count")

    def ratio(num, base):
        return (num / base if base else 0.0, "ratio")

    m = {}
    for span in spans.span_names():
        name = span_metric(span)
        seconds = m.get(name, (0.0, "s"))[0] + self_s.get(span, 0.0) / passes
        m[name] = (seconds, "s")
    m["other.self_s"] = (wall - sum(v for k, (v, u) in m.items() if u == "s"), "s")
    for span in ("linalg.eigh", "surrogate.iterate", "surrogate.inner_minimize",
                 "surrogate.minimize_smooth", "mirror_maps.bregman_project",
                 "rates.curvature_at", "runner.locate_fixed_point"):
        m[f"{span}.calls"] = count(calls.get(span, 0))
    m["mirror_maps.map_calls"] = count(calls.get("mirror_maps.map", 0))
    m["latent.lyapunov.calls"] = count(calls.get("latent.lyapunov", 0))
    for counter in ("surrogate.outer_steps", "surrogate.inner_failures",
                    "descent.half_step_solves", "descent.prox_outer_steps",
                    "rates.curvature_at.fd_calls", "rng.gaussian.draws",
                    "runner.extrapolation_accepted", "sweep.cells"):
        m[counter] = count(counters.get(counter, 0))
    m["report.bytes_written"] = (counters.get("report.bytes_written", 0) / passes, "bytes")
    m["descent.half_steps_per_outer_step"] = ratio(
        counters.get("descent.half_step_solves", 0), counters.get("descent.prox_outer_steps", 0))
    m["runner.extrapolation_accept_ratio"] = ratio(
        counters.get("runner.extrapolation_accepted", 0),
        calls.get("runner.locate_fixed_point", 0))
    sweeps = calls.get("sweep.sample_rate_sweep", 0)
    m["sweep.workers"] = (counters.get("sweep.workers", 0) / sweeps if sweeps else 0.0, "count")
    m["report.digest_mismatches"] = (digest_mismatches, "count")
    m["lemmas.counterexamples"] = (counterexamples, "count")
    traced_s = statistics.median(p.normalized for p in traced)
    plain_s = statistics.median(p.normalized for p in plain)
    m["trace.pass_s"] = (traced_s, "s")
    m["trace.untraced_pass_s"] = (plain_s, "s")
    m["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
    return m


# --- one workload -------------------------------------------------------------


def digest_checks(passes: list[Pass], jobs, reference: dict, seed: int) -> tuple[set, set]:
    """(job, artefact) pairs whose bytes differ from the first pass of the run
    (traced passes included), and those that differ from the stored seed-0
    digests where those apply: at seed 0 and for seed-independent jobs."""
    first = passes[0]
    drift = {(name, artefact)
             for p in passes for name, o in p.outcomes.items()
             for artefact, digest in o.digests.items()
             if first.outcomes[name].digests.get(artefact) != digest}
    independent = {job.name for job in jobs if job.seed_independent}
    off_reference = set()
    for name, o in first.outcomes.items():
        ref = reference.get(name)
        if ref is not None and (seed == 0 or name in independent):
            off_reference |= {(name, artefact) for artefact, digest in o.digests.items()
                              if ref["digests"].get(artefact) != digest}
    return drift, off_reference


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    import workloads  # imports surro, which main() has put on the path

    reference = workloads.load_reference().get(workload, {})
    workdir = WORK_ROOT / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    setups: list[tuple[float, float]] = []

    def probe():
        setups.append(setup_once(workload, seed, workdir / "probes" / str(len(setups))))

    try:
        # set-ups are spread over the run, so one burst of load on the host
        # does not decide their median
        probe()
        jobs = workloads.WORKLOADS[workload](seed, workdir / "inputs")

        warm = run_pass(jobs, reference, seed)
        plain, traced = [], []
        tracer = spans.Tracer() if trace else None
        loop_start = time.perf_counter()
        while True:
            plain.append(run_pass(jobs, reference, seed))
            if trace:
                traced.append(run_pass(jobs, reference, seed, tracer))
            if len(setups) < SETUP_PROBES:
                probe()
            now = time.perf_counter()
            per_round = (now - loop_start) / len(plain)
            if now - loop_start + per_round > seconds or now - started > RUN_DEADLINE_S:
                break
        while len(setups) < SETUP_PROBES:
            probe()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = [warm] + plain + traced
    failed = sum(1 for p in passes for o in p.outcomes.values() if o.failures)
    first_failure = {}
    for p in passes:
        for name, o in p.outcomes.items():
            if o.failures:
                first_failure.setdefault(name, o.failures[0])
    drift, off_reference = digest_checks(passes, jobs, reference, seed)
    raw = [p.seconds for p in plain]
    normalized = [p.normalized for p in plain]
    setup_raw = [raw_s for raw_s, _ in setups]
    setup_normalized = [norm_s for _, norm_s in setups]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    counterexamples = statistics.mean(
        sum(o.numbers.get("counterexamples", 0) for o in p.outcomes.values()) for p in passes)
    result = {
        "workload": workload,
        "correct": failed == 0 and not drift,
        "attempted": sum(len(p.outcomes) for p in passes),
        "failed": failed,
        "failure_notes": first_failure,
        "drift": sorted(drift),
        "off_reference": sorted(off_reference),
        "jobs_per_pass": len(jobs),
        # name: (value, unit, samples, q1, q3, measured seconds behind a host-normalized value)
        "end_to_end": {
            "pass_s": (statistics.median(normalized), "s", *spread(normalized), raw),
            "setup_s": (statistics.median(setup_normalized), "s", *spread(setup_normalized),
                        setup_raw),
            "peak_rss_mb": (rss_mb, "MB", 1, rss_mb, rss_mb, None),
        },
        "stamp": {
            "workload": workload,
            "seed": seed,
            "passes": len(plain),
            "traced_passes": len(traced),
            "warmup_passes": 1,
            "commit": git_commit(),
            "source_sha256": source_digest(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "usable_cores": usable_cores(),
            "sweep_workers": int(os.environ["SURRO_THREADS"]),
            "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        },
    }
    if trace:
        result["per_layer"] = layer_metrics(tracer, traced, plain, len(drift | off_reference),
                                            counterexamples)
        result["traced_wall_s"] = statistics.mean(p.seconds for p in traced)
        result["coverage"] = {span: tracer.totals.self_s.get(span, 0.0) / len(traced)
                              for span in spans.span_names()}
    return result


# --- output -----------------------------------------------------------------


def git_commit() -> str:
    if not (REPO / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "-C", str(REPO), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def source_digest() -> str:
    """sha256 over the program's sources, which identifies a checkout without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "surro").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def fmt_value(value: float) -> str:
    return f"{value:.6g}"


def print_report(result: dict) -> None:
    w = result["workload"]
    st = result["stamp"]
    print(f"== {w}: seed {st['seed']}, {st['passes']} timed passes"
          f" (+{st['warmup_passes']} warm-up, {st['traced_passes']} traced),"
          f" {result['jobs_per_pass']} jobs per pass")
    print(f"  {'end-to-end metric':26s} {'value':>10s} {'unit':5s} {'n':>4s}"
          f" {'q1':>10s} {'q3':>10s}")
    for name, (value, unit, n, q1, q3, measured) in result["end_to_end"].items():
        print(f"  {name:26s} {fmt_value(value):>10s} {unit:5s} {n:>4d}"
              f" {fmt_value(q1):>10s} {fmt_value(q3):>10s}")
        if measured:
            mq1, mq3 = spread(measured)[1:]
            print(f"    measured seconds: median {fmt_value(statistics.median(measured))}"
                  f" q1 {fmt_value(mq1)} q3 {fmt_value(mq3)} min {fmt_value(min(measured))}")
    ratio = result["failed"] / result["attempted"]
    print(f"  {'failed_ratio':26s} {fmt_value(ratio):>10s} {'ratio':5s}"
          f" {result['attempted']:>4d}   ({result['failed']} failed of"
          f" {result['attempted']} jobs)")
    for name, note in result["failure_notes"].items():
        print(f"  FAILED {name}: {note.strip().splitlines()[-1]}")
    for name, artefact in result["drift"]:
        print(f"  DRIFT {name}/{artefact}: bytes differ between passes of one run")
    for name, artefact in result["off_reference"]:
        print(f"  BYTES {name}/{artefact}: differs from the stored seed-0 digest")
    if "per_layer" in result:
        n = st["traced_passes"]
        print(f"  {'per-layer metric (mean per traced pass)':44s} {'value':>12s} {'unit':6s}"
              f" {'n':>4s}")
        for name, (value, unit) in sorted(result["per_layer"].items()):
            print(f"  {name:44s} {fmt_value(value):>12s} {unit:6s} {n:>4d}")
        wall = result["traced_wall_s"]
        rows = sorted(result["coverage"].items(), key=lambda kv: -kv[1])
        other = wall - sum(result["coverage"].values())
        print(f"  top layers by self time (traced pass wall {fmt_value(wall)} s):")
        for span, seconds in rows[:8]:
            print(f"    {span:36s} {fmt_value(seconds):>10s} s {100 * seconds / wall:6.1f}%")
        print(f"    {'other':36s} {fmt_value(other):>10s} s {100 * other / wall:6.1f}%")
        print(f"    {'sum of all layers + other':36s}"
              f" {fmt_value(sum(result['coverage'].values()) + other):>10s} s")
    print("stamp " + json.dumps(st, sort_keys=True))


def metric_entries(result: dict, trace: bool) -> dict:
    if trace:
        return {name: {"value": value, "unit": unit}
                for name, (value, unit) in result["per_layer"].items()}
    return {name: {"value": value, "unit": unit}
            for name, (value, unit, *_) in result["end_to_end"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("lemmas", "pipeline", "sweep", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (SRC / "surro" / "__init__.py").is_file():
        print(f"error: surro sources not found under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    import surro

    if Path(surro.__file__).resolve().parent != (SRC / "surro").resolve():
        print(f"error: imported surro from {surro.__file__}, not {SRC}", file=sys.stderr)
        return 1
    os.environ["SURRO_THREADS"] = str(usable_cores())

    names = ("lemmas", "pipeline", "sweep") if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result = measure(name, args.seed, args.seconds, bool(args.trace))
        print_report(result)
        results.append(result)

    if len(results) == 1:
        metrics = metric_entries(results[0], bool(args.trace))
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results
                   for k, v in metric_entries(r, bool(args.trace)).items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
