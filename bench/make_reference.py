"""Write reference.json: every job's key numbers and artefact digests at seed 0.

    python3 bench/make_reference.py

Run it only when a change is meant to alter outputs, and say so with the change.
"""

import json
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import workloads  # noqa: E402
from run import WORK_ROOT, run_pass  # noqa: E402


def main() -> int:
    reference = {}
    workdir = WORK_ROOT / "reference"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        for name, make_jobs in workloads.WORKLOADS.items():
            done = run_pass(make_jobs(0, workdir / name), {}, 0)
            failed = {job: o.failures for job, o in done.outcomes.items() if o.failures}
            if failed:
                print(f"error: {name} failed at seed 0: {failed}", file=sys.stderr)
                return 1
            reference[name] = {job: {"digests": o.digests, "numbers": o.numbers}
                               for job, o in done.outcomes.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
