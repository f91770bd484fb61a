"""segfuse benchmark: run one workload and print its metrics.

Usage, from the repository root:

    python3 benchmarks/run.py --workload calib_masks --seed 1 --seconds 15 --trace 0

``--trace 0`` times the workload's command chain, one process per command,
and prints the end-to-end metrics; ``--trace 1`` runs the chain under the
outside-in tracer and prints the per-layer metrics.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it carries the details (sample
times, sha256 of every output file, failures).  Inputs are generated by
``segfuse synth`` from ``--seed``.  Exits 2 without a result when the
current directory holds no segfuse sources.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from spec import THREAD_VARS, WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the timed loop runs (ignored with --trace 1)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    root = Path.cwd()
    if not (root / "src" / "segfuse" / "cli.py").is_file():
        print("benchmark: no segfuse sources under ./src; run it from the "
              "repository root", file=sys.stderr)
        return 2
    os.environ.update({v: "1" for v in THREAD_VARS})  # before numpy loads
    sys.path.insert(0, str(root / "src"))
    from harness import run_workload

    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace), root)
    details = result.pop("details")
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "details": details}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
