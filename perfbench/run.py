"""Benchmark of netbool, one workload per invocation.

    python3 perfbench/run.py --workload exact-small --seed 1 --seconds 30 --trace 0

Run from anywhere; it solves with the sources in ``src/`` next to this
directory.  Prints a report (environment, every metric with its unit,
failures) and, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Workloads and metrics are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from workloads import WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_threads() -> int:
    """Pin the BLAS/OpenMP pools to one thread, below the usable CPU count;
    must run before numpy is imported.  The client is a single thread, and
    on a 2-CPU host a second BLAS thread made the d=128 fits of approx-wide
    about 25% slower and noisier.  Returns the usable CPU count."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "netbool" / "__init__.py").is_file():
        print(f"error: no netbool sources at {SRC}", file=sys.stderr)
        return 2
    nproc = cap_threads()
    sys.path.insert(0, str(SRC))
    import bench  # numpy loads here, after the cap

    lines, result = bench.run(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), nproc
    )
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
