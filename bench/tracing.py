"""Span recorder for the traced run, installed from outside the library.

Each public function in ``TARGETS`` is wrapped at every name its callers bind:
modules use ``from .x import y``, so ``spinpulse.design.integrate_axis_angle``
is patched as well as ``spinpulse.trajectory.integrate_axis_angle``.  A span
records its name, start, end, parent span and the index of the op (one
``cli.main`` call) it belongs to.  Spans stay in memory until the batch ends;
self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import spinpulse.cli
import spinpulse.corrections
import spinpulse.design
import spinpulse.fileio
import spinpulse.oracle
import spinpulse.pulses
import spinpulse.sampling
import spinpulse.trajectory

# (owner, attribute, span name); a module owner is patched wherever its
# function is bound, a class owner in the class only
TARGETS = [
    (spinpulse.cli, "main", "cli.main"),
    (spinpulse.trajectory, "integrate_axis_angle", "trajectory.integrate"),
    (spinpulse.trajectory, "n_trajectory", "trajectory.n_traj"),
    (spinpulse.trajectory, "amplitude_from_axis_angle", "trajectory.to_amplitude"),
    (spinpulse.corrections, "evaluate_corrections", "corrections.evaluate"),
    (spinpulse.corrections, "nogo_diagnostics", "corrections.nogo"),
    (spinpulse.design, "solve", "design.solve"),
    (spinpulse.design, "finite_difference_jacobian", "design.jacobian"),
    (spinpulse.design._ResidualFunction, "__call__", "design.residual"),
    (spinpulse.oracle, "magnus_consistency", "oracle.sweep"),
    (spinpulse.oracle, "decomposition_defects", "oracle.defects"),
    (spinpulse.oracle, "integrate_deviation", "oracle.deviation"),
    (spinpulse.sampling, "random_ntrajectory", "sampling.random"),
    (spinpulse.sampling, "pi_close_ntrajectory", "sampling.pi_close"),
    (spinpulse.pulses.PulseShape, "amplitude", "pulses.amplitude"),
    (spinpulse.fileio, "parse_pulse", "fileio.parse"),
    (spinpulse.fileio, "parse_bath", "fileio.parse"),
    (spinpulse.fileio, "parse_problem", "fileio.parse"),
    (spinpulse.fileio, "format_pulse", "fileio.format"),
    (spinpulse.fileio, "format_solution", "fileio.format"),
    (spinpulse.fileio, "format_report", "fileio.format"),
    (spinpulse.fileio, "csv_document", "fileio.format"),
]

REF_STEP_FACTOR = 4


class Recorder:
    """In-memory spans plus the counts taken at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.stack: list[int] = []
        self.op = -1
        self.counts: dict[str, float] = defaultdict(float)
        # op index -> (tau_p, shape, bath, steps, U_F) of its smallest-tau_p deviation run
        self.smallest_deviation: dict[int, tuple] = {}
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(rec.names)
            rec.names.append(name)
            rec.parents.append(rec.stack[-1] if rec.stack else -1)
            rec.ops.append(rec.op)
            rec.starts.append(time.perf_counter())
            rec.ends.append(0.0)
            rec.stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.ends[sid] = time.perf_counter()
                rec.stack.pop()
            rec.observe(name, args, kwargs, result)
            return result

        return traced

    def observe(self, name: str, args, kwargs, result):
        if name == "trajectory.integrate":
            self.counts["trajectory.integrate.nodes"] += result.n_nodes
        elif name == "oracle.deviation":
            shape, bath = args[0], args[1]
            u_f, traj = result
            self.counts["oracle.deviation.steps"] += traj.n_nodes - 1
            self.counts["oracle.joint_dim"] = max(self.counts["oracle.joint_dim"],
                                                  2 * bath.dim_b)
            steps = kwargs.get("steps", args[2] if len(args) > 2 else None)
            if steps is None:
                steps = spinpulse.oracle.active_policy().joint_steps_default
            best = self.smallest_deviation.get(self.op)
            if best is None or shape.tau_p < best[0]:
                self.smallest_deviation[self.op] = (shape.tau_p, shape, bath, steps, u_f)

    # ------------------------------------------------------------------

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "spinpulse" or name.startswith("spinpulse.")]
        for owner, attr, name in TARGETS:
            original = getattr(owner, attr)
            traced = self.wrap(name, original)
            if isinstance(owner, type):
                self._patch(owner, attr, traced)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, traced)

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # ------------------------------------------------------------------

    def _aggregate(self):
        start = np.array(self.starts)
        dur = np.array(self.ends) - start
        parent = np.array(self.parents, dtype=int)
        covered = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        self_time = dur - covered
        calls = defaultdict(int)
        total = defaultdict(float)
        own = defaultdict(float)
        for i, name in enumerate(self.names):
            calls[name] += 1
            total[name] += dur[i]
            own[name] += self_time[i]
        return calls, total, own

    def reference_error(self) -> float:
        """Max over verify ops of ||U_F - U_F(4x steps)|| at each one's smallest tau_p."""
        original = spinpulse.oracle.integrate_deviation
        err = 0.0
        for _, shape, bath, steps, u_f in self.smallest_deviation.values():
            u_ref, _ = original(shape, bath, steps=REF_STEP_FACTOR * steps)
            err = max(err, float(np.linalg.norm(u_f - u_ref, 2)))
        return err

    def metrics(self) -> dict[str, float]:
        """Per-module metrics of the recorded batch (computed after uninstall)."""
        calls, total, own = self._aggregate()
        jac_children = sum(1 for i, name in enumerate(self.names)
                           if name == "design.residual" and self.parents[i] >= 0
                           and self.names[self.parents[i]] == "design.jacobian")
        return {
            "trajectory.integrate.calls": calls["trajectory.integrate"],
            "trajectory.integrate.self_s": own["trajectory.integrate"],
            "trajectory.integrate.nodes": self.counts["trajectory.integrate.nodes"],
            "trajectory.n_traj.self_s": own["trajectory.n_traj"],
            "trajectory.to_amplitude.self_s": own["trajectory.to_amplitude"],
            "corrections.evaluate.calls": calls["corrections.evaluate"],
            "corrections.evaluate.self_s": own["corrections.evaluate"],
            "corrections.nogo.calls": calls["corrections.nogo"],
            "corrections.nogo.self_s": own["corrections.nogo"],
            "design.solve.s": total["design.solve"],
            "design.jacobian.calls": calls["design.jacobian"],
            "design.jacobian.s": total["design.jacobian"],
            "design.residual_evals": calls["design.residual"],
            "design.evals_per_jacobian": (jac_children / calls["design.jacobian"]
                                          if calls["design.jacobian"] else 0.0),
            "oracle.deviation.calls": calls["oracle.deviation"],
            "oracle.deviation.self_s": own["oracle.deviation"],
            "oracle.deviation.steps": self.counts["oracle.deviation.steps"],
            "oracle.joint_dim": self.counts["oracle.joint_dim"],
            "oracle.defects.self_s": own["oracle.defects"],
            "oracle.sweep.s": total["oracle.sweep"],
            "oracle.ref_err": self.reference_error(),
            "sampling.random.calls": calls["sampling.random"],
            "sampling.random.self_s": own["sampling.random"],
            "sampling.pi_close.self_s": own["sampling.pi_close"],
            "pulses.amplitude.calls": calls["pulses.amplitude"],
            "pulses.amplitude.self_s": own["pulses.amplitude"],
            "fileio.parse_s": own["fileio.parse"],
            "fileio.format_s": own["fileio.format"],
            "cli.ops": calls["cli.main"],
            "trace.spans": len(self.names),
        }

    def write(self, path: Path):
        """Spans as CSV: id, name, start, end, parent, op (times in seconds)."""
        t0 = self.starts[0] if self.starts else 0.0
        lines = ["id,name,start,end,parent,op"]
        for i, name in enumerate(self.names):
            lines.append(f"{i},{name},{self.starts[i] - t0:.9f},{self.ends[i] - t0:.9f},"
                         f"{self.parents[i]},{self.ops[i]}")
        path.write_text("\n".join(lines) + "\n")
