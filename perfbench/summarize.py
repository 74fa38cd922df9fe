"""Summarize several benchmark runs of one workload.

    python3 perfbench/summarize.py OUT...

Each OUT holds the standard output of one ``perfbench/run.py`` run.  For
every metric of the last stdout lines this prints the run count, median,
quartiles (``statistics.quantiles(values, n=4)``), the inter-quartile
spread as a share of the median next to the metric's bound from
BENCHMARK.json, and the highest percentile with at least ten runs beyond it.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

from run import ROOT, high_percentile


def main(paths):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bounds = {m["name"]: m.get("bound") for m in
                  json.load(handle)["end_to_end"]}
    runs = []
    for path in paths:
        with open(path) as handle:
            runs.append(json.loads(handle.read().strip().splitlines()[-1]))
    failed = sum(r["failed"] for r in runs)
    print(f"{len(runs)} runs, {sum(r['attempted'] for r in runs)} ops, "
          f"{failed} failed, all correct: {all(r['correct'] for r in runs)}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        unit = runs[0]["metrics"][name]["unit"]
        med = statistics.median(values)
        line = f"  {name:<40} n={len(values):<3} median {med:<12.6g} {unit:<6}"
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            line += f" q1 {q1:<10.6g} q3 {q3:<10.6g} spread {spread:.4f}"
            if bounds.get(name) is not None:
                line += f" (bound {bounds[name]}, bound/3 {bounds[name] / 3:.4f})"
        hi = high_percentile(values)
        if hi:
            line += f" p{hi[0]} {hi[1]:.6g}"
        print(line)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
