"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/steady.py --workload h4_census --seeds 1 2 3 4 5

Each seed is one run of ``perfbench/run.py`` in a fresh process, one after
another.  For every end-to-end metric this prints the median, the quartiles
(``statistics.quantiles(values, n=4)``), the interquartile range as a share of
the median next to the metric's bound from BENCHMARK.json (flagged WIDE
unless it is below a third of the bound), and the highest percentile that
has at least ten samples beyond it, with the sample count.
The raw results go to ``perfbench/out/steady-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def tail_percentile(values):
    """Highest whole percentile with at least ten samples above it, or None."""
    n = len(values)
    if n <= 10:
        return None
    p = math.floor(100 * (n - 10) / n)
    return p, statistics.quantiles(values, n=100)[p - 1]


def summarize(values, bound):
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    out = {"median": median, "q1": q1, "q3": q3, "spread": spread,
           "n": len(values), "bound": bound}
    tail = tail_percentile(values)
    if tail:
        out[f"p{tail[0]}"] = tail[1]
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(bench["run_seconds"]),
             "--trace", "0"],
            capture_output=True, text=True, check=True, timeout=180)
        result = json.loads(proc.stdout.splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect result\n{proc.stderr}")
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
            flush=True)
    summary = {}
    for metric in bench["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        summary[metric["name"]] = summarize(values, metric["bound"])
        s = summary[metric["name"]]
        flag = ""
        if metric["name"] != "setup_s":
            flag = "  ok" if s["spread"] < s["bound"] / 3 else "  WIDE"
        print(f"{metric['name']:<20} median {s['median']:.6g}  "
              f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}  "
              f"bound {s['bound']}{flag}")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"steady-{args.workload}.json")
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "runs": runs,
                   "summary": summary}, fh, indent=1)


if __name__ == "__main__":
    main()
