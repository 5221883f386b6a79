"""Seeded inputs, op batches and per-op output checks for the four workloads.

An op is one in-process ``spinpulse.cli.main(argv)`` call.  It fails when it
raises, when it returns another exit code than the contract expects for its
input, or when its output check fails.  Checks are fixed-tolerance gates on
the accuracy the op reports; the accuracy values themselves are returned so
they can be stored next to the op's time.

Importing this module imports ``spinpulse``; time the CLI import before it.
"""

from __future__ import annotations

import io
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from spinpulse import cli
from spinpulse.bath import BathModel, preset_bath
from spinpulse.fileio import (SCHEMA_VERSION, fmt, format_bath, format_pulse,
                              parse_problem)
from spinpulse.sampling import random_fourier_shape

WORKLOADS = ("solve-fixed", "probe-general", "check-pulse", "nogo-sample")

DATA = Path(__file__).resolve().parent / "data"
Q_REFERENCE = DATA / "q_reference.txt"

# criterion 7's reference-design problems and criterion 5's pi second-order probe
S_PROBLEM = {"theta": fmt(np.pi), "tau_s": "0.5", "fourier_order": "2",
             "components": "y", "targets": "r1", "symmetric": "true",
             "endpoint_zero_derivatives": "1", "restarts": "32"}
Q_PROBLEM = {**S_PROBLEM, "fourier_order": "3", "targets": "r1 r2b"}
PI_PROBLEM = {"theta": fmt(np.pi), "tau_s": "free", "fourier_order": "1",
              "components": "x y", "targets": "r1 r2a r2b", "symmetric": "false",
              "grid": "256"}

# The design loop's work depends on its random starts: Q took 3.0k-5.4k
# residual evaluations over seeds 0-13 (S: 1.11k-1.19k), and the one-restart
# probe stops after ~30 instead of 80 LM iterations at some seeds (6, 8, 24).
# wall_s would then track the seed rather than the code, so Q and the probe
# run at their acceptance criteria's seeds; S takes the benchmark seed.
Q_SOLVE_SEED = 1
PROBE_SEED = 3

SOLVE_RESIDUAL_TOL = 1e-7
ROTATION_TOL = 1e-7
ROUND_TRIP_TOL = 1e-6
MAGNUS_SLOPE_MIN = 2.7
NOGO_TOL = 1e-9

# oracle fine grid: verify integrates 2048 RK4 steps on 4096 frame intervals
ORACLE_INTERVALS = 4096
BATH_DIM = 8
NOGO_SAMPLES = 300


class CheckFailed(Exception):
    """An op's output does not meet its gate."""


@dataclass
class OpResult:
    rc: int | None
    stderr: str
    error: str = ""


@dataclass
class Op:
    name: str
    argv: list[str]
    expect_rc: int
    check: Callable[[OpResult, Path], dict]
    out: Path


@dataclass
class OpRecord:
    """One executed op: its time next to the accuracy it was measured at."""

    name: str
    seconds: float
    rc: int | None
    ok: bool
    accuracy: dict = field(default_factory=dict)
    reason: str = ""

    def as_dict(self) -> dict:
        return {"op": self.name, "seconds": self.seconds, "rc": self.rc,
                "ok": self.ok, "accuracy": self.accuracy, "reason": self.reason}


# ----------------------------------------------------------------------
# running and checking one op


def call_main(argv: list[str]) -> OpResult:
    """``cli.main(argv)`` with its console output captured."""
    err = io.StringIO()
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:           # argparse usage errors
        return OpResult(exc.code if isinstance(exc.code, int) else 2, err.getvalue())
    except Exception as exc:            # any raise is a failed op, not a crash
        return OpResult(None, err.getvalue(), repr(exc))
    return OpResult(rc, err.getvalue())


def judge(op: Op, res: OpResult, seconds: float) -> OpRecord:
    if res.error:
        return OpRecord(op.name, seconds, None, False, reason=f"raised {res.error}")
    if res.rc != op.expect_rc:
        return OpRecord(op.name, seconds, res.rc, False,
                        reason=f"exit {res.rc}, expected {op.expect_rc}: "
                               f"{res.stderr.strip()[-200:]}")
    try:
        accuracy = op.check(res, op.out)
    except (CheckFailed, OSError, KeyError, ValueError) as exc:
        return OpRecord(op.name, seconds, res.rc, False, reason=f"check: {exc}")
    return OpRecord(op.name, seconds, res.rc, True, accuracy)


def run_op(op: Op) -> OpRecord:
    t0 = time.perf_counter()
    res = call_main(op.argv)
    seconds = time.perf_counter() - t0
    return judge(op, res, seconds)


def run_batch(ops: list[Op], reference: list, recorder=None):
    """(records, wall seconds, CPU seconds) of one pass over ``ops``.

    The first batch fills ``reference`` with each op's output bytes; a later
    batch whose output differs fails that op, since identical manifests
    promise identical outputs.
    """
    records, wall, cpu = [], 0.0, 0.0
    for i, op in enumerate(ops):
        if recorder is not None:
            recorder.op = i
        c0 = time.process_time()
        record = run_op(op)
        cpu += time.process_time() - c0
        wall += record.seconds
        data = op.out.read_bytes() if op.out.exists() else None
        if len(reference) <= i:
            reference.append(data)
        elif record.ok and data != reference[i]:
            record.ok = False
            record.reason = "output differs from the first batch"
        records.append(record)
    return records, wall, cpu


def _flat(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text().splitlines():
        key, sep, value = line.partition("=")
        if sep and not line.startswith("#"):
            out[key.strip()] = value.strip()
    return out


def _trailer(path: Path) -> dict[str, str]:
    """key=value pairs from the '# ...' trailer lines of a CSV or solution file."""
    out = {}
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            for token in line[2:].split():
                key, sep, value = token.partition("=")
                if sep:
                    out[key] = value
    return out


def _gate(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


def check_design(targets: tuple[str, ...]):
    def check(res: OpResult, out: Path) -> dict:
        sol = _flat(out)
        acc = {"objective": float(sol["solution.objective"]),
               "rotation_violation": float(sol["solution.rotation_violation"])}
        for t in targets:
            acc[f"{t}_normalized"] = float(sol[f"solution.{t}_normalized"])
        _gate(sol["solution.converged"] == "true", "solution.converged is not true")
        _gate(acc["rotation_violation"] < ROTATION_TOL,
              f"rotation_violation {acc['rotation_violation']:.3g}")
        for t in targets:
            _gate(acc[f"{t}_normalized"] <= SOLVE_RESIDUAL_TOL,
                  f"{t}_normalized {acc[f'{t}_normalized']:.3g}")
        return acc
    return check


def check_probe(res: OpResult, out: Path) -> dict:
    trailer = _trailer(out)
    acc = {"objective": float(trailer["objective"]), "bound": float(trailer["bound"]),
           "gap": float(trailer["gap"])}
    _gate(acc["objective"] >= acc["bound"],
          f"objective {acc['objective']:.6g} below bound {acc['bound']:.6g}")
    return acc


def check_convert(res: OpResult, out: Path) -> dict:
    _, _, value = res.stderr.partition("round-trip defect = ")
    defect = float(value.split()[0])
    _gate(defect <= ROUND_TRIP_TOL, f"round-trip defect {defect:.3g}")
    return {"round_trip_defect": defect}


def check_corrections(res: OpResult, out: Path) -> dict:
    rep = _flat(out)
    return {f"{t}_normalized": float(rep[f"{t}_normalized"]) for t in ("r1", "r2a", "r2b")}


def check_verify(res: OpResult, out: Path) -> dict:
    trailer = _trailer(out)
    acc = {"uf_slope": float(trailer["uf_slope"]),
           "magnus_slope": float(trailer["magnus_slope"])}
    _gate(acc["magnus_slope"] >= MAGNUS_SLOPE_MIN,
          f"magnus_slope {acc['magnus_slope']:.4f}")
    return acc


def check_nogo(res: OpResult, out: Path) -> dict:
    min_gap = float(_trailer(out)["min_gap"])
    _gate(min_gap >= -NOGO_TOL, f"min_gap {min_gap:.3g}")
    return {"min_gap": min_gap}


# ----------------------------------------------------------------------
# seeded inputs


def format_problem(fields: dict) -> str:
    """A problem file; fileio has a parser for these but no formatter."""
    lines = [f"schema_version = {SCHEMA_VERSION}", "kind = problem"]
    lines += [f"{k} = {v}" for k, v in fields.items()]
    text = "\n".join(lines) + "\n"
    parse_problem(text)
    return text


def random_bath(rng: np.random.Generator, dim: int = BATH_DIM,
                coupling: float = 1.0) -> BathModel:
    """Dense random bath: Hermitian H_b and A, both of unit spectral norm."""
    def hermitian():
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = 0.5 * (m + m.conj().T)
        return h / np.linalg.norm(h, 2)
    return BathModel(hermitian(), hermitian(), coupling)


def off_grid_tau_s(rng: np.random.Generator) -> float:
    """A splitting fraction at least a tenth of a step away from every oracle node."""
    while True:
        tau_s = rng.uniform(0.2, 0.8)
        offset = tau_s * ORACLE_INTERVALS
        if abs(offset - round(offset)) >= 0.1:
            return tau_s


def write_inputs(workload: str, seed: int, work: Path) -> dict[str, Path]:
    """Generate the workload's input files from the seed; returns name -> path."""
    rng = np.random.default_rng(seed)
    texts: dict[str, str] = {}
    if workload == "solve-fixed":
        texts["s_problem"] = format_problem(S_PROBLEM)
        texts["q_problem"] = format_problem(Q_PROBLEM)
    elif workload == "probe-general":
        texts["pi_problem"] = format_problem(PI_PROBLEM)
    elif workload == "check-pulse":
        texts["q_pulse"] = Q_REFERENCE.read_text()
        texts["ising"] = format_bath(preset_bath("spin-ising", coupling=1.0))
        texts["dynamic"] = format_bath(preset_bath("spin-dynamic", coupling=1.0))
        texts["bath8"] = format_bath(random_bath(rng))
        shape = random_fourier_shape(rng, order=4, tau_s=off_grid_tau_s(rng))
        texts["random_pulse"] = format_pulse(shape)
    elif workload != "nogo-sample":
        raise ValueError(f"unknown workload {workload!r}")
    paths = {}
    for name, text in texts.items():
        paths[name] = work / f"{name}.txt"
        paths[name].write_text(text)
    return paths


# ----------------------------------------------------------------------
# op batches


def build_batch(workload: str, seed: int, work: Path, tiny: bool = False) -> list[Op]:
    """The workload's fixed batch of ops; ``tiny`` shrinks it for the self-test."""
    inp = write_inputs(workload, seed, work)
    out = {name: work / f"{name}.out" for name in (
        "s", "q", "probe", "nogo_pi", "nogo_tsp")}
    s = str(seed)
    if workload == "solve-fixed":
        extra = ["--restarts", "8"] if tiny else []
        return [
            Op("solve S r1", ["solve", str(inp["s_problem"]), "--seed", s,
                              "--out", str(out["s"]), *extra], 0,
               check_design(("r1",)), out["s"]),
            Op("solve Q r1+r2b", ["solve", str(inp["q_problem"]),
                                  "--seed", str(Q_SOLVE_SEED),
                                  "--out", str(out["q"]), *extra], 0,
               check_design(("r1", "r2b")), out["q"]),
        ]
    if workload == "probe-general":
        return [Op("solve pi probe", ["solve", str(inp["pi_problem"]),
                                      "--seed", str(PROBE_SEED), "--restarts", "1",
                                      "--out", str(out["probe"])],
                   0, check_probe, out["probe"])]
    if workload == "check-pulse":
        cases = [("q-ising", "q_pulse", "ising", "second-order-commuting", 0),
                 ("q-bath8", "q_pulse", "bath8", "first-order", 0),
                 ("random-dynamic", "random_pulse", "dynamic", "uncorrected", 1)]
        if tiny:
            cases = cases[2:]
        ops = []
        for label, pulse, bath, regime, corrections_rc in cases:
            amp, rep, dev = (work / f"{label}.{ext}"
                             for ext in ("amp.csv", "rep.txt", "dev.csv"))
            ops += [
                Op(f"convert {label}", ["convert", str(inp[pulse]), "--to", "amplitude",
                                        "--out", str(amp)], 0, check_convert, amp),
                Op(f"corrections {label}", ["corrections", str(inp[pulse]),
                                            "--targets", "r1,r2b", "--out", str(rep)],
                   corrections_rc, check_corrections, rep),
                Op(f"verify {label}", ["verify", str(inp[pulse]), str(inp[bath]),
                                       "--regime", regime, "--out", str(dev)],
                   0, check_verify, dev),
            ]
        return ops
    if workload == "nogo-sample":
        n = "20" if tiny else str(NOGO_SAMPLES)
        return [
            Op("nogo pi-second-order", ["nogo", "pi-second-order", "--samples", n,
                                        "--grid", "256", "--seed", s,
                                        "--out", str(out["nogo_pi"])],
               0, check_nogo, out["nogo_pi"]),
            Op("nogo ts-eq-tp", ["nogo", "ts-eq-tp", "--samples", n, "--grid", "256",
                                 "--seed", s, "--out", str(out["nogo_tsp"])],
               0, check_nogo, out["nogo_tsp"]),
        ]
    raise ValueError(f"unknown workload {workload!r}")
