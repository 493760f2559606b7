"""Repository benchmark: end-to-end walls, the paper's overheads, and a
per-layer trace taken from outside the program.

Usage (from the repository root)::

    python3 perfbench/run.py --workload deep-cycle --seed 2305 --seconds 10 --trace 0

One invocation runs one workload in this process (no threads, no pool):

1. Set-up is timed several times on fresh inputs; ``setup_s`` is the median.
2. An instrumented pass runs every cell once under the tracer.  It checks
   each cell's oracle and the message ledger (on every engine run, the
   per-layer delivery counts add up to ``messages - dropped``), and yields
   the exact counts and the overhead ratios.
3. For ``--seconds`` seconds, untraced passes repeat the cells (with
   ``--trace 1`` traced and untraced passes alternate).  Every pass must
   reproduce the instrumented pass's message counts and output digests.
   ``wall_s`` is the median untraced pass, scaled to reference host speed
   by a probe that samples the host's speed throughout (``hostspeed``).

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones; the last line of standard output is one JSON object.  A failed
oracle marks the run incorrect; a ledger or traced/untraced mismatch exits
with status 1 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "smoke"), default="full",
        help="smoke: tiny inputs for the benchmark's own tests",
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: the program's sources are missing ({SRC / 'repro'})",
              file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from bench import WORKLOADS, BenchmarkError, measure

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r};"
              f" known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        report = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), smoke=args.scale == "smoke")
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for failure in report["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    kind = "per_layer" if args.trace else "end_to_end"
    spec = [(m["name"], m["unit"]) for m in
            json.loads((ROOT / "BENCHMARK.json").read_text())[kind]]
    values = report[kind]
    print(f"# workload {args.workload}  seed {args.seed}  passes"
          f" {report['passes']} untraced / {report['traced_passes']} traced")
    print(f"# fail_frac {report['failed'] / report['attempted']:.6g}"
          f" ({report['failed']} of {report['attempted']} runs)")
    for name, unit in spec:
        print(f"{name} {values[name]!r} {unit}")
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in spec},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
