"""Summarize saved benchmark outputs: median, quartiles and spread per metric.

    python3 perfbench/summarize.py OUTPUT_FILE...

Each file holds the standard output of one ``run.py`` call.  Results are
grouped by workload and trace mode; for every metric the summary gives the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
interquartile range as a share of the median, the spread that
``BENCHMARK.json`` bounds.  Fingerprints are listed per seed, and the
environment of the first run is kept.  Prints one JSON document.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def reports(paths):
    for path in paths:
        for line in Path(path).read_text().splitlines():
            if line.startswith("REPORT "):
                yield json.loads(line[len("REPORT "):])


def summarize(results) -> dict:
    groups: dict = {}
    for r in results:
        groups.setdefault(f"{r['workload']} trace={r['trace']}", []).append(r)
    out = {}
    for key, runs in sorted(groups.items()):
        metrics = {}
        names = dict.fromkeys(n for r in runs for n in r["metrics"])
        for name in names:
            # settle_s is missing from a run in which no path settled
            have = [r["metrics"][name] for r in runs if name in r["metrics"]]
            values = [m["value"] for m in have]
            med = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                         else (med, med, med))
            metrics[name] = {
                "unit": have[0]["unit"], "runs": len(values),
                "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med if med else None,
            }
        out[key] = {
            "runs": len(runs),
            "seeds": [r["seed"] for r in runs],
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
            "fingerprints": {str(r["seed"]): r["fingerprint"] for r in runs},
        }
    if results:
        out["environment"] = {k: v for k, v in results[0]["environment"].items()
                              if k != "seed"}
    return out


def main(argv) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(summarize(list(reports(argv))), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
