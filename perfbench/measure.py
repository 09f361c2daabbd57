"""The runs behind ``run.py``: untraced end-to-end, traced per-layer.

Imported only after ``run.prepare()`` has put the checkout's ``src`` on
the path and fixed the BLAS thread count.
"""

from __future__ import annotations

import ctypes
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracing
import workloads
from screwmpc import config, kinematics, mpc

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE.parent / ".perfbench_out"

MIN_PERIODS = 1000    # the p99 needs ten periods beyond it
SETUP_RUNS = 12

E2E_UNITS = {
    "realtime_factor": "s/ref_s",
    "period_ms_p50": "ref_ms",
    "period_ms_p99": "ref_ms",
    "deadline_miss_ratio": "ratio",
    "wall_realtime_factor": "s/s",
    "wall_period_ms_p50": "ms",
    "wall_period_ms_p99": "ms",
    "wall_deadline_miss_ratio": "ratio",
    "calibration_ms": "ms",
    "setup_s": "s",
    "wall_setup_s": "s",
    "peak_rss_mb": "MB",
    "setup_peak_rss_mb": "MB",
    "error_rate": "ratio",
    "settle_s": "s",
    "track_err_max": "norm",
    "ref_gap_rms": "twist",
}


# ---------------------------------------------------------------------------
# Environment


def _blas_threads() -> int | None:
    """Thread count of the loaded OpenBLAS, if one is loaded."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps
            if "openblas" in line.lower() and line.split()[-1].startswith("/")}
    for lib_path in sorted(libs):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "seed": seed,
        "load": "one benchmark process, no worker threads of its own",
    }


# The machine is shared and its speed drifts by up to 2x, in stretches of
# a fraction of a second to minutes.  A fixed loop of small numpy products
# and Python arithmetic, the mix the cascade runs but none of the
# program's code, is timed between episodes and around each set-up probe;
# timings are scaled to the reference speed, at which one run of the loop
# takes CAL_REF_NS (this VM's fast state).
CAL_REF_NS = 2_500_000
CAL_MIN_RUNS = 10     # one calibration: at least 25 ms at the reference speed
CAL_SHARE = 0.2       # ... and at least this share of the episode before it
WARM_UP_S = 2.0
_CAL_RNG = np.random.default_rng(0)
_CAL_SMALL = _CAL_RNG.normal(size=(6, 6)), _CAL_RNG.normal(size=6)
_CAL_LARGE = _CAL_RNG.normal(size=(60, 60)), _CAL_RNG.normal(size=60)


def _calibration_loop() -> int:
    (a, x), (b, y) = _CAL_SMALL, _CAL_LARGE
    start = time.perf_counter_ns()
    acc = 0.0
    for _ in range(300):
        acc += float((a @ x)[0]) + float(np.clip(b @ y, -1.0, 1.0).sum())
        for j in range(20):
            acc += j * 0.25
    return time.perf_counter_ns() - start


def calibration_ns(min_ns: float = 0.0) -> float:
    """Mean time of the calibration loop, run at least ``CAL_MIN_RUNS``
    times and for at least ``min_ns``."""
    times = [_calibration_loop() for _ in range(CAL_MIN_RUNS)]
    while sum(times) < min_ns:
        times.append(_calibration_loop())
    return statistics.fmean(times)


def warm_up() -> None:
    """Run the calibration loop for ``WARM_UP_S`` before anything is timed:
    numpy's lazy set-up is paid, and the machine settles into the speed it
    keeps under sustained load (after idling, the first second or so runs
    up to 1.6x faster)."""
    end = time.perf_counter() + WARM_UP_S
    while time.perf_counter() < end:
        _calibration_loop()


def pin_cpu() -> int:
    """Keep this process, and the set-up probes it starts, on one CPU: a
    move to a CPU that was idle runs in that CPU's faster idle state."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def measure_setup(runs: int) -> list[tuple[float, float, float]]:
    """Set-up seconds at the reference speed, set-up seconds as timed and
    peak MB of ``runs`` fresh processes, each scaled by the calibration
    loop timed just before and just after it."""
    samples = []
    before = calibration_ns()
    for _ in range(runs):
        out = subprocess.run([sys.executable, str(HERE / "setup_probe.py")],
                             capture_output=True, text=True, check=True,
                             timeout=120)
        after = calibration_ns()
        seconds, megabytes = (float(v) for v in out.stdout.split()[-2:])
        samples.append((seconds * 2 * CAL_REF_NS / (before + after), seconds, megabytes))
        before = after
    return samples


# ---------------------------------------------------------------------------
# Runs


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def run_episodes(wl, seed, stamps, seconds, min_periods):
    """Episodes 0, 1, ... back to back: ``wl.episode_count(seconds)`` of
    them, and more until ``min_periods`` periods ran.  The calibration loop
    runs before every episode and after the last, each time for at least
    ``CAL_SHARE`` of the episode before it; each episode's ``scale`` is the
    loop's reference time over the mean of its two neighbouring
    calibrations."""
    before = calibration_ns()
    count = wl.episode_count(seconds)
    episodes, periods = [], 0
    while len(episodes) < count or periods < min_periods:
        ep = wl.episode(wl.inputs(seed, len(episodes)), stamps)
        after = calibration_ns(CAL_SHARE * ep.wall_ns)
        ep.scale = 2 * CAL_REF_NS / (before + after)
        before = after
        episodes.append(ep)
        periods += ep.ticks
    return episodes


def _outcome(ep) -> dict:
    """What a replay of the episode must reproduce exactly."""
    return {**ep.counts, "settle_s": ep.settle_s, "track_err_max": ep.err_max,
            "digest": ep.digest}


COUNTED = {"fk_calls": "kinematics.forward_kinematics", "qmul_calls": tracing.QMUL,
           "exp_calls": "dualquat.exp", "log_calls": "dualquat.log"}


def _counted_episode(wl, seed):
    """Episode 0 with call counters on: the exact fingerprint."""
    tracer = tracing.Tracer()
    inputs = wl.inputs(seed, 0)
    with tracing.instrument(tracer):
        ep = wl.episode(inputs, workloads.StepStamps())
    calls = {key: tracer.counts[name] for key, name in COUNTED.items()}
    return {**_outcome(ep), **calls}


def _reproduces(fingerprint: dict, ep) -> bool:
    return _outcome(ep).items() <= fingerprint.items()


def _timing(episodes, T: float, scaled: bool) -> dict:
    scales = [ep.scale if scaled else 1.0 for ep in episodes]
    periods_ms = np.concatenate(
        [ep.periods_ns * scale for ep, scale in zip(episodes, scales)]) / 1e6
    wall_s = sum(ep.wall_ns * scale for ep, scale in zip(episodes, scales)) / 1e9
    return {
        "realtime_factor": sum(ep.ticks for ep in episodes) * T / wall_s,
        "period_ms_p50": _pct(periods_ms, 50),
        "period_ms_p99": _pct(periods_ms, 99),
        "deadline_miss_ratio": float(np.mean(periods_ms > T * 1e3)) if len(periods_ms) else 0.0,
    }


def end_to_end(episodes, T: float, closed_loop: bool) -> dict:
    """End-to-end metrics of one run's episodes.

    Timings are scaled to the reference speed (see ``calibration_ns``); the
    ``wall_`` metrics are the same figures unscaled.  An episode that
    aborted on NaN has no tracking error or settling time; it counts as a
    failed tick.
    """
    ticks = sum(ep.ticks for ep in episodes)
    metrics = {
        **_timing(episodes, T, scaled=True),
        **{f"wall_{k}": v for k, v in _timing(episodes, T, scaled=False).items()},
        "calibration_ms": statistics.median(CAL_REF_NS / ep.scale for ep in episodes) / 1e6,
        "error_rate": sum(ep.failed for ep in episodes) / ticks,
    }
    if closed_loop:
        settled = [ep.settle_s for ep in episodes if ep.settle_s is not None]
        if settled:
            metrics["settle_s"] = statistics.fmean(settled)
        errors = [ep.err_max for ep in episodes if ep.err_max is not None]
        if errors:
            metrics["track_err_max"] = max(errors)
    else:
        metrics["ref_gap_rms"] = math.sqrt(sum(ep.gap_sq for ep in episodes) / ticks)
    return metrics


def run_untraced(name, seed, seconds, *, min_periods=MIN_PERIODS,
                 setup_runs=SETUP_RUNS) -> dict:
    ctx = workloads.load_context()
    wl = workloads.WORKLOADS[name](ctx, OUT_DIR)
    warm_up()
    # half the set-up probes before the episodes and half after, so that one
    # slow stretch of the shared machine does not cover them all
    setup = measure_setup(setup_runs // 2)

    stamps = workloads.StepStamps()
    step = mpc.TwistSmoother.step
    with tracing.swapped([(mpc.TwistSmoother, "step", stamps.wrap(step))]):
        episodes = run_episodes(wl, seed, stamps, seconds, min_periods)
    run_peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup += measure_setup(setup_runs - setup_runs // 2)
    # the counted replay of episode 0 comes last, so that its spans are not
    # part of the run's peak memory
    fingerprint = _counted_episode(wl, seed)

    metrics = end_to_end(episodes, ctx.cfg.sample_time_s, wl.closed_loop)
    ref_s, wall_s, setup_mb = zip(*setup)
    metrics["setup_s"] = statistics.median(ref_s)
    metrics["wall_setup_s"] = statistics.median(wall_s)
    metrics["peak_rss_mb"] = run_peak_mb
    metrics["setup_peak_rss_mb"] = statistics.median(setup_mb)
    ticks = sum(ep.ticks for ep in episodes)
    checks = {
        "deterministic": _reproduces(fingerprint, episodes[0]),
        "verify_consistent": all(ep.consistent for ep in episodes),
        "periods_measured": sum(len(ep.periods_ns) for ep in episodes) == ticks,
        "metrics_finite": all(math.isfinite(v) for v in metrics.values()),
    }
    failed = sum(ep.failed for ep in episodes)
    return {
        "workload": name, "trace": 0, "seed": seed, "episodes": len(episodes),
        "attempted": ticks, "failed": failed, "checks": checks,
        "correct": all(checks.values()), "fingerprint": fingerprint,
        "counts": {k: sum(ep.counts.get(k, 0) for ep in episodes)
                   for k in episodes[0].counts},
        "metrics": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()},
    }


def _layer_metrics(tracer, episodes, cfg, overhead):
    names, starts, ends, parents, paths = tracer.arrays()
    dur = ends - starts
    own = tracing.self_times(starts, ends, parents)
    in_ep = paths >= 0
    layers = np.array([tracing.layer_of(n) for n in names])
    total = dur[in_ep & (parents < 0)].sum()
    shares = {layer: float(own[in_ep & (layers == layer)].sum() / total)
              for layer in tracing.LAYERS}
    periods = sum(ep.ticks for ep in episodes)
    counts = tracer.counts

    def values(name, times=dur, scope=in_ep):
        return times[scope & (names == name)] / 1e3  # microseconds

    inner = values("kinematics.inner_control")
    period_us, inner_period_us = cfg.sample_time_s * 1e6, cfg.inner_dt * 1e6
    step = values("mpc.TwistSmoother.step")
    setup = ~in_ep
    plan = [(dur[(paths == k) & ((names == "screwpath.generate_path")
                                 | (names == "screwpath.reference_twists"))]).sum() / 1e6
            for k in range(len(episodes))]
    solves = np.array(tracer.solves, dtype=float).reshape(-1, 4)
    sweeps, converged, active, violation = solves.T
    metrics = {
        "kinematics.inner_us_p50": (_pct(inner, 50), "us"),
        "kinematics.inner_us_p99": (_pct(inner, 99), "us"),
        "kinematics.fk_us_p50": (_pct(values("kinematics.forward_kinematics"), 50), "us"),
        "kinematics.jac_us_p50": (_pct(values("kinematics.pose_jacobian"), 50), "us"),
        "kinematics.pinv_us_p50": (_pct(values("kinematics.inner_control", own), 50), "us"),
        "kinematics.fk_calls_per_period": (counts["kinematics.forward_kinematics"] / periods, "count"),
        "kinematics.deadline_miss": (int(np.count_nonzero(inner > inner_period_us)), "count"),
        "kinematics.share": (shares["kinematics"], "ratio"),
        "kinematics.model_load_ms": (_pct(values("kinematics.load_robot_model", scope=setup), 50) / 1e3, "ms"),
        "dualquat.qmul_calls_per_period": (counts[tracing.QMUL] / periods, "count"),
        "dualquat.exp_calls_per_period": (counts["dualquat.exp"] / periods, "count"),
        "dualquat.log_calls_per_period": (counts["dualquat.log"] / periods, "count"),
        "dualquat.share": (shares["dualquat"], "ratio"),
        "mpc.step_us_p50": (_pct(step, 50), "us"),
        "mpc.step_us_p99": (_pct(step, 99), "us"),
        "mpc.solve_us_p50": (_pct(values("mpc.solve_qp"), 50), "us"),
        "mpc.solve_us_p99": (_pct(values("mpc.solve_qp"), 99), "us"),
        "mpc.sweeps_p50": (_pct(sweeps, 50), "count"),
        "mpc.sweeps_max": (float(sweeps.max(initial=0)), "count"),
        "mpc.sweeps_total": (float(sweeps.sum()), "count"),
        "mpc.active_ratio": (float(np.mean(active > 0)) if len(active) else 0.0, "ratio"),
        "mpc.deadline_miss": (int(np.count_nonzero(step > period_us)), "count"),
        "mpc.cap_hits": (int(np.count_nonzero(converged == 0)), "count"),
        "mpc.violation_ticks": (int(np.count_nonzero(violation > 1e-6)), "count"),
        "mpc.share": (shares["mpc"], "ratio"),
        "mpc.init_ms": (_pct(values("mpc.TwistSmoother.__init__", scope=setup), 50) / 1e3, "ms"),
        "config.load_ms": (_pct(values("config.load_config", scope=setup), 50) / 1e3, "ms"),
        "screwpath.plan_ms": (statistics.median(plan), "ms"),
        "screwpath.share": (shares["screwpath"], "ratio"),
        "simulate.self_share": (shares["simulate"], "ratio"),
        "simulate.csv_write_ms": (_pct(values("simulate.write_trajectory_csv"), 50) / 1e3, "ms"),
        "simulate.verify_ms": (_pct(values("simulate.verify_trajectory"), 50) / 1e3, "ms"),
        "trace.overhead": (overhead, "ratio"),
    }
    checks = {
        "spans_nested": tracing.check_nesting(starts, ends, parents, paths),
        # siblings never overlap in one thread, so no span covers less than
        # its children do
        "self_times_nonnegative": bool(np.all(own >= 0)),
        "shares_sum_to_1": bool(abs(sum(shares.values()) - 1.0) < 1e-9),
    }
    return metrics, checks, {"share_sum": sum(shares.values()), "spans": len(names)}


def run_traced(name, seed, seconds, *, setup_runs=SETUP_RUNS) -> dict:
    ctx = workloads.load_context()
    wl = workloads.WORKLOADS[name](ctx, OUT_DIR)
    fingerprint = _counted_episode(wl, seed)

    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        for _ in range(setup_runs):
            config.load_config(None)
            kinematics.load_robot_model(kinematics.packaged_model_path())
            mpc.TwistSmoother(ctx.cfg.mpc, ctx.cfg.limits, ctx.ready)
    tracer.reset_counts()

    stamps = workloads.StepStamps()
    stamped = [(mpc.TwistSmoother, "step", stamps.wrap(mpc.TwistSmoother.step))]

    def traced_episode(i):
        inputs = wl.inputs(seed, i)
        tracer.path_id = i
        with tracing.instrument(tracer):
            return wl.episode(inputs, stamps)

    def untraced_episode(i):
        inputs = wl.inputs(seed, i)
        with tracing.swapped(stamped):
            return wl.episode(inputs, stamps)

    # each episode runs traced and untraced, alternating which goes first so
    # that a drift in machine speed cancels out of the overhead; a third of
    # the untraced run's episodes keeps the run near ``seconds``
    traced, replay = [], []
    for i in range(max(1, wl.episode_count(seconds) // 3)):
        if i % 2:
            replay.append(untraced_episode(i))
            traced.append(traced_episode(i))
        else:
            traced.append(traced_episode(i))
            replay.append(untraced_episode(i))
        if i == 0:
            first_counts = dict(tracer.counts)
    tracer.write(OUT_DIR / f"spans-{name}-{seed}.csv")

    ticks = sum(ep.ticks for ep in traced)
    # median over episodes of 1 - traced/untraced realtime factor
    overhead = statistics.median(1.0 - u.wall_ns / t.wall_ns
                                 for t, u in zip(traced, replay))
    metrics, checks, info = _layer_metrics(tracer, traced, ctx.cfg, overhead)
    checks["deterministic"] = (
        _reproduces(fingerprint, traced[0]) and _reproduces(fingerprint, replay[0])
        and all(fingerprint[k] == first_counts[c] for k, c in COUNTED.items()))
    checks["verify_consistent"] = all(ep.consistent for ep in traced + replay)
    checks["metrics_finite"] = all(math.isfinite(v) for v, _ in metrics.values())
    return {
        "workload": name, "trace": 1, "seed": seed, "episodes": len(traced),
        "attempted": ticks, "failed": sum(ep.failed for ep in traced),
        "checks": checks, "correct": all(checks.values()),
        "fingerprint": fingerprint, **info,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }


def run_workload(name, seed, seconds, trace, **options) -> dict:
    OUT_DIR.mkdir(exist_ok=True)
    cpu = pin_cpu()
    if trace:
        result = run_traced(name, seed, seconds, **options)
    else:
        result = run_untraced(name, seed, seconds, **options)
    result["environment"] = {**environment(seed), "pinned_cpu": cpu}
    return result
