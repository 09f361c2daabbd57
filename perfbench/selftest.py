"""Fast self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload briefly (one episode per phase), untraced and traced,
and checks that

* every metric BENCHMARK.json names is emitted with its declared unit,
* the last output line has exactly the keys the contract names,
* every span lies inside its parent and covers at least its children,
* the layer self-time shares sum to 1,
* the run's own checks pass (determinism, agreement with verify), and
* an episode that aborted on NaN is counted as a failure, not raised.

It checks the harness, not the program's speed.  Exit code 1 on failure.
"""

from __future__ import annotations

import json
import math
import sys

import run


def check_workload(measure, name: str, bench: dict) -> list[str]:
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        options = {"setup_runs": 1}
        if not trace:
            options["min_periods"] = 0
        result = measure.run_workload(name, 1, 0.0, trace, **options)
        where = f"{name} trace={trace}"
        for metric in bench[key]:
            got = result["metrics"].get(metric["name"])
            if got is None:
                problems.append(f"{where}: {metric['name']} missing")
            elif got["unit"] != metric["unit"]:
                problems.append(f"{where}: {metric['name']} unit {got['unit']!r}, "
                                f"declared {metric['unit']!r}")
        line = json.loads(run.contract_line(result, [m["name"] for m in bench[key]]))
        if sorted(line) != ["attempted", "correct", "failed", "metrics"]:
            problems.append(f"{where}: last line keys {sorted(line)}")
        problems += [f"{where}: check {k} failed"
                     for k, ok in result["checks"].items() if not ok]
        if trace and abs(result["share_sum"] - 1.0) > 1e-9:
            problems.append(f"{where}: shares sum to {result['share_sum']!r}")
    return problems


def check_nan_episode(measure) -> list[str]:
    """Aggregate a closed-loop run in which one episode aborted on NaN."""
    import numpy as np

    Episode = measure.workloads.Episode
    periods = np.full(100, 4_000_000, dtype=np.int64)
    good = Episode(100, 500_000_000, periods, 0, {"ticks": 100}, "digest",
                   settle_s=0.9, err_max=0.01)
    nan = Episode(40, 200_000_000, periods[:40], 1, {}, "nan")
    problems = []
    for episodes in ([good, nan], [nan]):
        try:
            metrics = measure.end_to_end(episodes, 0.009, closed_loop=True)
        except Exception as exc:  # noqa: BLE001 - any raise is the failure
            problems.append(f"NaN episode: {type(exc).__name__}: {exc}")
            continue
        expected = sum(ep.failed for ep in episodes) / sum(ep.ticks for ep in episodes)
        if metrics["error_rate"] != expected:
            problems.append(f"NaN episode: error_rate {metrics['error_rate']}, "
                            f"expected {expected}")
        if not all(math.isfinite(v) for v in metrics.values()):
            problems.append(f"NaN episode: metrics not finite: {metrics}")
    return problems


def main() -> int:
    run.prepare()
    import measure

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = check_nan_episode(measure)
    print(f"nan-episode: {'ok' if not problems else 'FAILED'}", flush=True)
    for name in [w["name"] for w in bench["workloads"]]:
        found = check_workload(measure, name, bench)
        print(f"{name}: {'ok' if not found else 'FAILED'}", flush=True)
        problems += found
    for problem in problems:
        print("  " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
