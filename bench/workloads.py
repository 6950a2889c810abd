"""The benchmark's workloads: inputs made from a seed, the jobs of one pass, and
the checks on every job's outputs.

Each workload drives surro in-process through its public entry points
(`surro.cli.main`, `surro.suite.run_experiment`).  Seed 0 gives the shipped
inputs; other seeds shift them as each `*_jobs` function describes.  Key
numbers are compared with the stored seed-0 reference (`reference.json`,
written by `make_reference.py`) within the tolerances below; artefact
sha256 digests are compared wherever the reference applies to the inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from surro import cli, config, report, suite

BENCH_DIR = Path(__file__).resolve().parent
CONFIG_DIR = BENCH_DIR.parent / "src" / "surro" / "configs"
REFERENCE_PATH = BENCH_DIR / "reference.json"

# lemmas: seed S runs `surro lemmas --trials LEMMA_TRIALS` on sub-seeds K*S .. K*S+K-1
LEMMA_SUBSEEDS = 8
LEMMA_TRIALS = 20

# pipeline: seed S > 0 starts every config at (1 - START_MIX) * theta0 + START_MIX * random(S).
# A full random(S) start changes iteration counts, and so the pass time, by
# up to 2x between seeds; the mix keeps the work comparable across seeds.
START_MIX = 0.1
EXPERIMENTS = ("E1", "E2", "E3", "E4", "E6", "E7", "E8", "E9", "E11", "E12")

# sweep: seed S shifts both configs' 16 data seeds to 16*S .. 16*S+15
SWEEP_CONFIGS = ("sweep_mixture", "sweep_gaussian")

# Tolerances on key numbers against the seed-0 reference.
EXACT_REL = 1e-9  # same inputs as the reference: numbers reproduce up to rounding
RHO_REL = 1e-6  # shifted start, same fixed point: the curvature pencil is unchanged
RATE_ABS = 0.02  # shifted start: measured decay, at the verdicts' own rate tolerance
GAUSS_DEV = 1e-6  # E5: gaussian sample rates equal the population rate
MEDIAN_IQRS = 2.0  # shifted data seeds: per-k median rho_samp within 2 reference IQRs


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def _cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _close(value, ref, rel) -> bool:
    return abs(value - ref) <= rel * (1.0 + abs(ref))


@dataclass
class Outcome:
    """What one job produced: failure reasons, artefact digests, key numbers."""

    failures: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    numbers: dict = field(default_factory=dict)


class Job:
    """One program invocation.  run() is timed; evaluate() reads and checks its outputs."""

    name: str
    seed_independent = False  # inputs are the same for every seed

    def run(self):
        raise NotImplementedError

    def evaluate(self, raw, ref: dict | None, seed: int) -> Outcome:
        raise NotImplementedError


class LemmasJob(Job):
    def __init__(self, index: int, sub_seed: int):
        self.name = f"lemmas.{index}"
        self.sub_seed = sub_seed

    def run(self):
        return _cli(["lemmas", "--seed", str(self.sub_seed), "--trials", str(LEMMA_TRIALS)])

    def evaluate(self, raw, ref, seed):
        code, stdout = raw
        out = Outcome(digests={"stdout": sha256(stdout.encode())})
        found = [int(n) for n in re.findall(r"(\d+) counterexample", stdout)]
        out.numbers["counterexamples"] = sum(found)
        if code != 0 or found:
            out.failures.append(f"exit {code}, {sum(found)} counterexample(s)")
        if len(re.findall(r"trials=", stdout)) != 5:
            out.failures.append("expected five suite lines")
        return out


class RunJob(Job):
    def __init__(self, name: str, config_path: Path, out_dir: Path):
        self.name = name
        self.config_path = config_path
        self.out_dir = out_dir

    def run(self):
        return _cli(["run", "--config", str(self.config_path), "--out", str(self.out_dir)])

    def evaluate(self, raw, ref, seed):
        code, _ = raw
        out = Outcome()
        if code != 0:
            out.failures.append(f"exit {code}")
        for artefact in ("trace.csv", "rates.json"):
            out.digests[artefact] = sha256((self.out_dir / artefact).read_bytes())
        rates = json.loads((self.out_dir / "rates.json").read_text())
        out.numbers = {
            "rho_inf": rates["theory"]["rho_inf"],
            "rho_sup": rates["theory"]["rho_sup"],
            "empirical_rate": rates["empirical"]["rate"],
        }
        if ref is not None:
            rho_rel = EXACT_REL if seed == 0 else RHO_REL
            for key in ("rho_inf", "rho_sup"):
                if not _close(out.numbers[key], ref["numbers"][key], rho_rel):
                    out.failures.append(f"{key} {out.numbers[key]!r} vs {ref['numbers'][key]!r}")
            rate, ref_rate = out.numbers["empirical_rate"], ref["numbers"]["empirical_rate"]
            ok = _close(rate, ref_rate, EXACT_REL) if seed == 0 else abs(rate - ref_rate) <= RATE_ABS
            if not ok:
                out.failures.append(f"empirical_rate {rate!r} vs {ref_rate!r}")
        return out


class ExperimentJob(Job):
    seed_independent = True

    def __init__(self, experiment: str):
        self.name = f"experiment.{experiment}"
        self.experiment = experiment

    def run(self):
        return suite.run_experiment(self.experiment)

    def evaluate(self, raw, ref, seed):
        out = Outcome(digests={"measured": sha256(report.dumps(raw.measured).encode())})
        if not raw.passed:
            out.failures.append("experiment failed")
        out.numbers = {
            key: float(value)
            for key, value in raw.measured.items()
            if ("rho" in key or "rate" in key) and isinstance(value, float)
        }
        if ref is not None:
            for key, value in ref["numbers"].items():
                if key not in out.numbers or not _close(out.numbers[key], value, EXACT_REL):
                    out.failures.append(f"{key} {out.numbers.get(key)!r} vs {value!r}")
        return out


class SweepJob(Job):
    def __init__(self, name: str, config_path: Path, out_dir: Path, gaussian: bool):
        self.name = name
        self.config_path = config_path
        self.out_dir = out_dir
        self.gaussian = gaussian

    def run(self):
        return _cli(["sweep", "--config", str(self.config_path), "--out", str(self.out_dir)])

    def evaluate(self, raw, ref, seed):
        code, stdout = raw
        out = Outcome()
        if code != 0:
            out.failures.append(f"exit {code}")
        for artefact in ("sweep.csv", "sweep_summary.csv"):
            out.digests[artefact] = sha256((self.out_dir / artefact).read_bytes())
        rows = [line.split(",") for line in
                (self.out_dir / "sweep.csv").read_text().splitlines()[1:]]
        ks = sorted({int(r[0]) for r in rows})
        by_k = {k: [float(r[2]) for r in rows if int(r[0]) == k] for k in ks}
        summary = [line.split(",") for line in
                   (self.out_dir / "sweep_summary.csv").read_text().splitlines()[1:]]
        medians_dev = [float(r[1]) for r in summary]
        out.numbers = {
            "rho_pop": float(re.search(r"limiting rate (\S+)", stdout).group(1)),
            "rho_samp": [float(r[2]) for r in rows],
            "rho_samp_median": {str(k): statistics.median(v) for k, v in by_k.items()},
            "rho_samp_iqr": {str(k): _iqr(v) for k, v in by_k.items()},
        }
        if self.gaussian:
            worst = max(float(r[3]) for r in rows)
            if worst > GAUSS_DEV:
                out.failures.append(f"gaussian sample rate off by {worst!r}")
        elif seed == 0 and not all(a > b for a, b in zip(medians_dev, medians_dev[1:])):
            out.failures.append(f"mixture median deviations not decreasing: {medians_dev}")
        if ref is not None:
            out.failures += self._against(out.numbers, ref["numbers"], seed)
        return out

    @staticmethod
    def _against(numbers, ref, seed) -> list[str]:
        bad = []
        if not _close(numbers["rho_pop"], ref["rho_pop"], EXACT_REL):
            bad.append(f"rho_pop {numbers['rho_pop']!r} vs {ref['rho_pop']!r}")
        if seed == 0:
            if len(numbers["rho_samp"]) != len(ref["rho_samp"]) or not all(
                _close(a, b, EXACT_REL) for a, b in zip(numbers["rho_samp"], ref["rho_samp"])
            ):
                bad.append("rho_samp differs from the reference")
            return bad
        for k, ref_median in ref["rho_samp_median"].items():
            allowed = max(MEDIAN_IQRS * ref["rho_samp_iqr"][k], GAUSS_DEV)
            median = numbers["rho_samp_median"].get(k)
            if median is None or abs(median - ref_median) > allowed:
                bad.append(f"k={k} median rho_samp {median!r} vs {ref_median!r} (+-{allowed:.3g})")
        return bad


def _iqr(values) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


# --- inputs -----------------------------------------------------------------


def lemmas_jobs(seed: int, workdir: Path) -> list[Job]:
    """`surro lemmas` at dims 1-8 on LEMMA_SUBSEEDS consecutive sub-seeds."""
    return [LemmasJob(i, LEMMA_SUBSEEDS * seed + i) for i in range(LEMMA_SUBSEEDS)]


def shifted_start(cfg: dict, seed: int) -> list[float]:
    """Move the shipped theta0 a tenth of the way towards the domain sample random(seed)."""
    drawn = config.assemble(dict(cfg, theta0=f"random({seed})")).theta0
    mixed = (1.0 - START_MIX) * np.asarray(cfg["theta0"], dtype=float) + START_MIX * drawn
    return [float(x) for x in mixed]


def algorithm_configs() -> list[tuple[str, dict]]:
    out = []
    for path in sorted(CONFIG_DIR.glob("*.json")):
        cfg = json.loads(path.read_text())
        if "algorithm" in cfg:
            out.append((path.stem, cfg))
    return out


def pipeline_jobs(seed: int, workdir: Path) -> list[Job]:
    """`surro run` on every algorithm config with its theta_star and with "auto",
    then the registered experiments other than E5 (sweep) and E10 (lemmas)."""
    workdir.mkdir(parents=True, exist_ok=True)
    jobs: list[Job] = []
    for stem, cfg in algorithm_configs():
        if seed > 0:
            cfg = dict(cfg, theta0=shifted_start(cfg, seed))
        for variant, star in (("shipped", cfg["theta_star"]), ("auto", "auto")):
            variant_cfg = dict(cfg, theta_star=star)
            config.assemble(variant_cfg)
            path = workdir / f"{stem}.{variant}.json"
            path.write_text(json.dumps(variant_cfg))
            jobs.append(RunJob(f"run.{stem}.{variant}", path, workdir / f"{stem}.{variant}"))
    jobs += [ExperimentJob(name) for name in EXPERIMENTS]
    return jobs


def sweep_jobs(seed: int, workdir: Path) -> list[Job]:
    """`surro sweep` on both sweep configs with their data seeds shifted by 16*seed."""
    workdir.mkdir(parents=True, exist_ok=True)
    jobs: list[Job] = []
    for stem in SWEEP_CONFIGS:
        cfg = json.loads((CONFIG_DIR / f"{stem}.json").read_text())
        cfg["seeds"] = [s + len(cfg["seeds"]) * seed for s in cfg["seeds"]]
        config.validate_sweep(cfg)
        config.build_latent_model(cfg["model"], context="model")
        path = workdir / f"{stem}.json"
        path.write_text(json.dumps(cfg))
        gaussian = cfg["model"]["type"] == "gaussian_latent"
        jobs.append(SweepJob(f"sweep.{stem}", path, workdir / stem, gaussian))
    return jobs


WORKLOADS = {
    "lemmas": lemmas_jobs,
    "pipeline": pipeline_jobs,
    "sweep": sweep_jobs,
}
