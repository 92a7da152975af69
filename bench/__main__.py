"""Command line: ``python -m bench run --workload W --seed N ...``.

Run from the repository root.  The program under test is imported
from ``src/`` beside this package, never from an installed copy, and
the run fails without printing a result if that source is missing.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run one workload once")
    run.add_argument("--workload", required=True)
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--seconds", type=float, default=10.0,
                     help="op budget: the workload's budget times "
                          "SECONDS / 10 (default 10)")
    run.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                     choices=(0, 1),
                     help="1: report the per-layer ledger instead of "
                          "the end-to-end metrics")
    run.add_argument("--scale", type=float, default=1.0,
                     help="shrink populations and op budget (smoke tests)")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.scale <= 0:
        parser.error("--seconds and --scale must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from .harness import (END_TO_END_UNITS, per_layer_units, run_end_to_end,
                          run_traced)
    from .workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(have {', '.join(WORKLOADS)})")
    if args.trace:
        result = run_traced(args.workload, args.seed, args.seconds,
                            args.scale)
        units = per_layer_units()
    else:
        result = run_end_to_end(args.workload, args.seed, args.seconds,
                                args.scale)
        units = END_TO_END_UNITS
    for note in result.notes:
        print(note)
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": result.metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
