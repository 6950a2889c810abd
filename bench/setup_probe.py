"""Time one set-up in a fresh process: import surro, then make and assemble a
workload's inputs.

    python3 bench/setup_probe.py <workload> <seed> <workdir>

Prints the elapsed seconds, counted from the start of this script.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> None:
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import surro  # noqa: F401
    import workloads

    workloads.WORKLOADS[workload](seed, workdir)
    print(time.perf_counter() - START)


if __name__ == "__main__":
    main()
