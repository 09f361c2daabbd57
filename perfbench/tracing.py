"""Spans and call counts at the module boundaries, installed from outside.

``instrument`` swaps wrappers into the namespaces where callers look names
up (``screwmpc.simulate.inner_control``, ``screwmpc.kinematics.pose_jacobian``,
``TwistSmoother.step``, ...) and restores the originals on exit; no source
file changes.  Each wrapper counts its calls and records a span: name,
start, end, parent and episode ("path") id.  Spans live in parallel lists
in memory and are written out once, at the end of a run.

A span's layer is the module that defines the wrapped function, so
``kinematics.forward_kinematics`` is a kinematics span whether simulate or
inner_control called it.  ``Quaternion.__mul__`` is counted, never spanned:
it runs some 1500 times per MPC period.
"""

from __future__ import annotations

import contextlib
import functools
import time
from pathlib import Path

import numpy as np

from screwmpc import config, dualquat, kinematics, mpc, screwpath, simulate

LAYERS = ("screwpath", "mpc", "kinematics", "dualquat", "simulate", "config")

# (namespace the caller looks the name up in, attribute)
_SITES = [
    (simulate, "run_closed_loop"),
    (simulate, "write_trajectory_csv"),
    (simulate, "verify_trajectory"),
    (simulate, "generate_path"),
    (simulate, "reference_twists"),
    (simulate, "inner_control"),
    (simulate, "forward_kinematics"),
    (simulate, "pose_error"),
    (simulate, "log"),
    (kinematics, "forward_kinematics"),
    (kinematics, "pose_jacobian"),
    (kinematics, "pose_error"),
    (kinematics, "load_robot_model"),
    (mpc, "solve_qp"),
    (mpc, "exp"),
    (mpc.TwistSmoother, "step"),
    (mpc.TwistSmoother, "__init__"),
    (screwpath, "log"),
    (screwpath, "power"),
    (dualquat, "exp"),
    (dualquat, "log"),
    (config, "load_config"),
]
QMUL = "dualquat.Quaternion.__mul__"


def span_name(fn) -> str:
    return f"{fn.__module__.removeprefix('screwmpc.')}.{fn.__qualname__}"


class Tracer:
    """In-memory span store and call counters for one process."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.paths: list[int] = []
        self.path_id = -1
        self.counts: dict[str, int] = {}
        self.solves: list[tuple[int, bool, int, float]] = []
        self._stack: list[int] = []

    def spanned(self, fn):
        name = span_name(fn)
        counts = self.counts
        counts.setdefault(name, 0)
        names, starts, ends = self.names, self.starts, self.ends
        parents, paths, stack = self.parents, self.paths, self._stack
        now = time.perf_counter_ns

        def traced(*args, **kwargs):
            counts[name] += 1
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            paths.append(self.path_id)
            ends.append(0)
            stack.append(idx)
            starts.append(now())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = now()
                stack.pop()

        return traced

    def solve_recorder(self, solve):
        """Keep each QP solution's health next to its span."""
        solves = self.solves

        @functools.wraps(solve)
        def solve_qp(*args, **kwargs):
            sol = solve(*args, **kwargs)
            solves.append((sol.iterations, sol.converged, sol.active_count,
                           sol.max_violation))
            return sol

        return solve_qp

    def reset_counts(self):
        for name in self.counts:
            self.counts[name] = 0

    def arrays(self):
        return (np.array(self.names), np.array(self.starts, dtype=np.int64),
                np.array(self.ends, dtype=np.int64),
                np.array(self.parents, dtype=np.int64),
                np.array(self.paths, dtype=np.int64))

    def write(self, path: Path):
        lines = ["id,name,start_ns,end_ns,parent,path"]
        origin = self.starts[0] if self.starts else 0
        for i, (n, s, e, p, k) in enumerate(zip(self.names, self.starts, self.ends,
                                                self.parents, self.paths)):
            lines.append(f"{i},{n},{s - origin},{e - origin},{p},{k}")
        path.write_text("\n".join(lines) + "\n")


@contextlib.contextmanager
def swapped(replacements):
    """Set each (owner, attr) to its new value; restore all on exit."""
    saved = []
    try:
        for owner, attr, value in replacements:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def instrument(tracer: Tracer):
    """Wrap every site in a span, and count ``Quaternion.__mul__`` calls."""
    replacements = []
    for owner, attr in _SITES:
        fn = getattr(owner, attr)
        if attr == "solve_qp":
            fn = tracer.solve_recorder(fn)
        replacements.append((owner, attr, tracer.spanned(fn)))
    qmul = dualquat.Quaternion.__mul__
    counts = tracer.counts
    counts.setdefault(QMUL, 0)

    def counted_mul(a, b):
        counts[QMUL] += 1
        return qmul(a, b)

    replacements.append((dualquat.Quaternion, "__mul__", counted_mul))
    return swapped(replacements)


# ---------------------------------------------------------------------------
# Span analysis


def check_nesting(starts, ends, parents, paths) -> bool:
    """Every span ends after it starts and lies inside its parent."""
    if np.any(ends < starts):
        return False
    child = parents >= 0
    p = parents[child]
    return bool(np.all(starts[p] <= starts[child]) and np.all(ends[child] <= ends[p])
                and np.all(paths[p] == paths[child]))


def self_times(starts, ends, parents) -> np.ndarray:
    """Duration minus the time the span's children cover."""
    dur = ends - starts
    covered = np.zeros_like(dur)
    child = parents >= 0
    np.add.at(covered, parents[child], dur[child])
    return dur - covered


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]
