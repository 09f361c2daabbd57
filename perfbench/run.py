"""Cascade benchmark: seeded workloads through the public API of screwmpc.

    python3 perfbench/run.py --workload track-free --seed 1 --seconds 10 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``.  ``--workload all`` runs every workload in turn.

``--trace 0`` measures the end-to-end metrics.  The only instrument inside
an episode is one timestamp at each ``TwistSmoother.step`` entry, marking
MPC period boundaries.  The run pins itself to one CPU and warms up first;
between episodes a fixed calibration loop is timed, and the timings are
scaled to a reference machine speed (see README.md).  ``--trace 1`` is a
separate run: it wraps the module boundaries (see ``tracing.py``) and
runs a third as many episodes twice each, traced and untraced; it
reports the per-layer metrics and the tracing overhead.  ``--seconds`` is
a run's length at the reference speed: with the seed it fixes the work.

Episode 0 also runs once with call counters on; its exact counts are the
run's fingerprint, and the timed run of episode 0 must give the same counts
and the same log bytes.

Output: a metric table and a ``REPORT`` line with everything measured,
the environment and the fingerprint, then, as the last line, one JSON
object with ``correct``, ``attempted`` and ``failed`` ticks and the metrics
named in BENCHMARK.json.  The exit code is nonzero only when the harness
itself fails; counted tick failures are reported, not raised.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def prepare() -> None:
    """Make the checkout's program and the benchmark modules importable.

    Sets one BLAS thread before numpy loads: the load is one process on a
    small shared machine, and the cascade's matrices are far too small to
    gain from threads.  The set-up probes inherit it.
    """
    if not (SRC / "screwmpc" / "__init__.py").is_file():
        sys.exit(f"error: no screwmpc sources under {SRC}; "
                 "run the benchmark inside a checkout of the repository")
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path[:0] = [str(SRC), str(HERE)]


def contract_line(result: dict, declared: list[str]) -> str:
    """The last output line: declared metrics only, as BENCHMARK.json names them."""
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: result["metrics"][k] for k in declared},
    })


def declared_metrics(trace: int) -> list[str]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]


def print_table(result: dict) -> None:
    print(f"== {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"episodes={result['episodes']} ticks={result['attempted']} "
          f"failed={result['failed']} correct={result['correct']}")
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")


def main(argv=None) -> int:
    prepare()
    import measure

    workloads = list(measure.workloads.WORKLOADS)
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*workloads, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    declared = declared_metrics(args.trace)
    for name in workloads if args.workload == "all" else [args.workload]:
        result = measure.run_workload(name, args.seed, args.seconds, args.trace)
        print_table(result)
        print("REPORT " + json.dumps(result))
        print(contract_line(result, declared), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
