"""Run each workload on several seeds and summarise the spread.

Usage (from the repository root)::

    python3 perfbench/sets.py --runs 10 --first-seed 101 --out perfbench/reference/set-a.json

For every workload it runs ``perfbench/run.py`` once per seed
(``first-seed``, ``first-seed + 1``, ...), one run at a time, and
records each end-to-end metric's median, first and third quartile
(``statistics.quantiles(values, n=4)``) and the quartile distance as a
share of the median.  The JSON it writes is the stored reference the
README quotes; rerunning the command regenerates it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    if completed.returncode != 0:
        print(f"{workload} seed {seed} exited {completed.returncode}:\n"
              f"{completed.stderr}", file=sys.stderr)
        if completed.returncode != 1:
            raise SystemExit(1)
    return json.loads(completed.stdout.strip().splitlines()[-1])


def summarise(results: list) -> dict:
    summary = {}
    for name in results[0]["metrics"]:
        values = [result["metrics"][name]["value"] for result in results]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        summary[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": statistics.median(values),
            "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / statistics.median(values),
            "values": values,
        }
    shares = {result["failed"] / result["attempted"] for result in results}
    return {"failed_share": sorted(shares), "metrics": summary,
            "incorrect_runs": sum(not result["correct"]
                                  for result in results)}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args(argv)
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"run_seconds": bench["run_seconds"], "workloads": {}}
    for name in names:
        results = [run_once(name, args.first_seed + index,
                            bench["run_seconds"], 0)
                   for index in range(args.runs)]
        summary = summarise(results)
        summary["seeds"] = [args.first_seed + i for i in range(args.runs)]
        report["workloads"][name] = summary
        print(f"{name}: failed share {summary['failed_share']}, "
              f"runs with a failed check {summary['incorrect_runs']}")
        for metric, row in summary["metrics"].items():
            flag = "" if row["iqr_share"] <= bounds[metric] / 3 else "  <-"
            print(f"  {metric:26s} median {row['median']:12.5g} "
                  f"[{row['q1']:.5g}, {row['q3']:.5g}] "
                  f"iqr {row['iqr_share']:.3f} bound {bounds[metric]}{flag}")
        sys.stdout.flush()
        if args.out:
            with open(args.out, "w", encoding="utf-8") as out:
                json.dump(report, out, indent=1, sort_keys=True)
                out.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
