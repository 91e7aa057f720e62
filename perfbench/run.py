"""Run one benchmark workload and print its result as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fanout --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
traced variant and prints the per-layer metrics, writing the per-layer
table and the spans under ``perfbench/out/``.  The last line of
standard output is the result object.  The exit code is 0 when every
output check passed, 1 when one failed, 2 when the run could not start.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

WORKLOADS = ("fanout", "hostile-churn", "trial-kernel")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(f"perfbench: no program source under {source}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [source, ROOT]
    from perfbench import serve, trials

    if args.workload == "trial-kernel":
        report = trials.run_workload(args.seed, args.seconds,
                                     bool(args.trace))
    else:
        workload = (serve.FANOUT if args.workload == "fanout"
                    else serve.HOSTILE_CHURN)
        report = serve.run_workload(workload, args.seed, args.seconds,
                                    bool(args.trace))
    for failure in report.failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    print(json.dumps(report.to_json(), sort_keys=False))
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
