"""Tracking benchmark: one workload, one seed, one line of JSON at the end.

    python3 perfbench/run.py --workload desk --seed 0 --seconds 10 --trace 0

Builds the seeded world for the workload, tracks its OMCF container for
`--seconds` untraced, then traced (one pass, or `--seconds` of passes with
`--trace 1`), checks the rows and prints every metric by name and unit.
The last stdout line is {"correct", "attempted", "failed", "metrics"} with
BENCHMARK.json's end_to_end metrics, or its per_layer metrics under
`--trace 1`. Exits 1 when a correctness check fails, 2 when the checkout
holds no omctrack sources. See README.md beside this file.
"""

from __future__ import annotations

import argparse

from workloads import WORKLOADS, bootstrap


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    boot = bootstrap()
    import harness  # numpy may load only after bootstrap has set BLAS threads

    return harness.run(args, boot)


if __name__ == "__main__":
    raise SystemExit(main())
