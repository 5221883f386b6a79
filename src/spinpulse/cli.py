"""Command-line surface: convert, corrections, verify, solve, nogo.

Exit codes
----------
0   success (and, where applicable, the requested check passed)
1   the computation ran but the check failed (residuals above threshold,
    slope outside the band, negative gap, non-converged solve)
2   unparseable input (message carries line and column) or bad usage
3   the input violates a model invariant (any other ``ValueError`` the
    library raises, or a size numpy cannot allocate)
4   degenerate slope fit in ``verify``

Every run has one skeleton in :func:`main`: read each input file, check each
count flag against its floor in ``_COUNT_FLOORS``, then build the run manifest
from the command, the input texts, every option that can change the output
and, for ``solve`` and ``nogo`` (the commands that draw random numbers), the
seed.  Its digest is embedded in every output, so identical manifests give
byte-identical files.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .corrections import (NOGO_TOLERANCE, RESIDUAL_TARGETS, evaluate_corrections,
                          nogo_diagnostics)
from .design import feasibility_probe, probe_regime, solve
from .fileio import (SchemaError, csv_document, fmt, format_report, format_solution,
                     make_manifest, parse_bath, parse_problem, parse_pulse)
from .oracle import SWEEP_STEPS, magnus_consistency
from .sampling import pi_close_ntrajectory, random_ntrajectory
from .trajectory import (MIN_STEPS, _stage_amplitudes, amplitude_from_axis_angle,
                         axis_angle, integrate_axis_angle, n_trajectory)

SLOPE_BANDS = {
    "uncorrected": (0.85, 1.15),
    "first-order": (1.85, 2.15),
    "second-order-commuting": (2.8, 3.2),
}
DEGENERATE_DEFECT_FLOOR = 1e-13   # verify exits 4 where every uf_defect is below it
CERTIFICATE_RTOL = 1e-9           # relative slack of a probe's objective on its gap bound

NOGO_CHECKS = ("ts-eq-tp", "pi-second-order")
NOGO_LANE_STEPS = 2048    # lanes x steps of a nogo chunk: memory is bounded at any --samples
# the least value of each count flag; verify --steps takes half of MIN_STEPS
# because the oracle integrates the pulse frame on a grid twice as fine
_COUNT_FLOORS = {"grid": MIN_STEPS, "steps": MIN_STEPS // 2, "restarts": 1, "samples": 1}


def _write_output(text: str, out: str | None):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc


def _options(args) -> dict:
    """The run manifest's options: every parsed one but the seed, the output and the inputs."""
    return {name: value for name, value in vars(args).items()
            if name not in ("func", "command", "seed", "out") and not name.endswith("_file")}


def _parse_sweep(spec: str) -> np.ndarray:
    try:
        lo, hi, pts = spec.split(":")
        lo, hi, pts = float(lo), float(hi), int(pts)
    except ValueError:
        raise SchemaError(f"bad sweep spec {spec!r}; expected min:max:points") from None
    if not (np.isfinite(hi) and 0 < lo < hi) or pts < 4:
        raise SchemaError("sweep needs finite 0 < min < max and at least 4 points")
    return np.geomspace(lo, hi, pts)


def _parse_band(spec: str) -> tuple[float, float]:
    try:
        lo, hi = (float(x) for x in spec.split(":"))
    except ValueError:
        raise SchemaError(f"bad band {spec!r}; expected lo:hi") from None
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise SchemaError("band needs finite lo < hi")
    return lo, hi


# ----------------------------------------------------------------------
# subcommands


def cmd_convert(args, texts: dict, digest: str) -> int:
    shape = parse_pulse(texts["pulse"])
    traj = integrate_axis_angle(shape, args.grid)
    amps = amplitude_from_axis_angle(shape, traj)
    if args.to == "trajectory":
        axis, psi = axis_angle(shape, traj)
        rows = np.column_stack([traj.grid, axis, psi, n_trajectory(traj).nhat])
        doc = csv_document("t,ax,ay,az,psi,nx,ny,nz", rows, digest)
    else:
        rows = np.column_stack([traj.grid, amps])
        doc = csv_document("t,vx,vy,vz", rows, digest)
    _write_output(doc, args.out)
    # the v each node's RK4 step read: a sliver merged away by _cuts is read by none
    first, _, last = _stage_amplitudes(shape, traj.grid)
    direct = np.concatenate([first, last[-1:]])
    scale = max(float(np.max(np.linalg.norm(direct, axis=1))), 1e-300)
    defect = float(np.max(np.abs(amps - direct))) / scale
    print(f"round-trip defect = {fmt(defect)}", file=sys.stderr)
    return 0


def cmd_corrections(args, texts: dict, digest: str) -> int:
    shape = parse_pulse(texts["pulse"])
    if not (np.isfinite(args.threshold) and args.threshold >= 0.0):
        raise SchemaError("--threshold must be finite and at least 0")
    targets = tuple(args.targets.split(","))
    unknown = [t for t in targets if t not in RESIDUAL_TARGETS]
    if unknown:
        raise SchemaError(f"unknown residual target {unknown[0]!r}")
    if len(set(targets)) != len(targets):
        raise SchemaError("--targets must be distinct: each of r1, r2a, r2b at most once")
    if args.tau_s is not None:      # the frame is anchored at the overriding tau_s
        shape = replace(shape, tau_s=args.tau_s)
    ntraj = n_trajectory(integrate_axis_angle(shape, args.grid))
    report = evaluate_corrections(ntraj, shape.tau_s)
    diag = nogo_diagnostics(ntraj, shape.tau_s)
    doc = format_report(report, diag, digest, args.threshold, targets)
    _write_output(doc, args.out)
    requested = [report.normalized[RESIDUAL_TARGETS.index(t)] for t in targets]
    return 0 if all(r <= args.threshold for r in requested) else 1


def cmd_verify(args, texts: dict, digest: str) -> int:
    shape = parse_pulse(texts["pulse"])
    bath = parse_bath(texts["bath"])
    lo, hi = _parse_band(args.band) if args.band else SLOPE_BANDS[args.regime]
    taus = _parse_sweep(args.sweep)
    sweep = magnus_consistency(shape, bath, taus, steps=args.steps)
    slope, stderr = sweep.slopes["uf_defect"]
    mag_slope, mag_err = sweep.slopes["magnus_defect"]
    floor = max(e.uf_defect for e in sweep.entries)
    if floor < DEGENERATE_DEFECT_FLOOR or not (np.isfinite(slope) and np.isfinite(mag_slope)):
        print("degenerate slope fit: defects at the machine floor", file=sys.stderr)
        return 4
    rows = [(e.tau_p, e.defect, e.uf_defect, e.magnus_defect) for e in sweep.entries]
    trailer = [
        f"uf_slope={fmt(slope)} stderr={fmt(stderr)} band={fmt(lo)}:{fmt(hi)}",
        f"magnus_slope={fmt(mag_slope)} stderr={fmt(mag_err)}",
        f"defect_slope={fmt(sweep.slopes['defect'][0])}",
    ]
    doc = csv_document("tau_p,defect,uf_defect,magnus_defect", rows, digest, trailer)
    _write_output(doc, args.out)
    print(f"uf_defect slope = {slope:.4f} +/- {stderr:.4f} (band {lo}..{hi})",
          file=sys.stderr)
    return 0 if lo <= slope <= hi else 1


def cmd_solve(args, texts: dict, digest: str) -> int:
    problem = parse_problem(texts["problem"])
    if args.restarts is not None:
        problem = replace(problem, restarts=args.restarts)
    if args.probe or probe_regime(problem) != "open":
        probe = feasibility_probe(problem, seed=args.seed)
        sol = probe.solution
        extra_note = (f"probe regime={probe.regime} objective={fmt(probe.best_objective)}"
                      f" gap={fmt(probe.gap)} bound={fmt(probe.gap_bound)}")
    else:
        sol = solve(problem, seed=args.seed)
        probe = None
        extra_note = ""
    doc = format_solution(sol, digest)
    if extra_note:
        doc += f"# {extra_note}\n"
    _write_output(doc, args.out)
    status = "converged" if sol.converged else "did not converge"
    print(f"solver {status}: objective = {fmt(sol.objective)}", file=sys.stderr)
    for name, value, bound in sol.failed_checks:
        where = "" if name == "objective" else " on the doubled grid"
        print(f"failed check: {name} = {value:.3g}{where}, bound {bound:g}", file=sys.stderr)
    if probe is not None and probe.regime != "open":
        print(f"infeasibility certificate: best objective {fmt(probe.best_objective)}"
              f" >= gap bound {fmt(probe.gap_bound)}", file=sys.stderr)
        return 0 if probe.best_objective >= probe.gap_bound * (1 - CERTIFICATE_RTOL) else 1
    return 0 if sol.converged else 1


def cmd_nogo(args, texts: dict, digest: str) -> int:
    if args.check not in NOGO_CHECKS:
        raise SchemaError(f"unknown check {args.check!r}; choose from {NOGO_CHECKS}")
    rng = np.random.default_rng(args.seed)
    chunk = max(1, NOGO_LANE_STEPS // args.grid)
    taus, gaps = [], []
    for start in range(0, args.samples, chunk):
        ntraj, tau_s = random_ntrajectory(rng, min(chunk, args.samples - start), args.grid)
        if args.check == "pi-second-order":
            gaps.append(nogo_diagnostics(pi_close_ntrajectory(ntraj), tau_s).pi2_gap)
        else:
            gaps.append(nogo_diagnostics(ntraj, ntraj.tau_p).tsp_gap)
        taus.append(tau_s)
    gaps = np.concatenate(gaps)
    rows = zip(range(args.samples), np.concatenate(taus), gaps)
    min_gap = float(np.min(gaps))
    trailer = [f"min_gap={fmt(min_gap)}", f"max_gap={fmt(np.max(gaps))}",
               f"mean_gap={fmt(float(np.mean(gaps)))}"]
    doc = csv_document("sample,tau_s,gap", rows, digest, trailer)
    _write_output(doc, args.out)
    print(f"min gap over {args.samples} samples = {fmt(min_gap)}", file=sys.stderr)
    return 0 if min_gap >= -NOGO_TOLERANCE else 1


# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinpulse",
        description="design, analyze and verify short coherent control pulses")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out")

    p = sub.add_parser("convert", parents=[out],
                       help="pulse file -> trajectory or amplitude CSV")
    p.add_argument("pulse_file")
    p.add_argument("--to", choices=("trajectory", "amplitude"), default="trajectory")
    p.add_argument("--grid", type=int, default=1024)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("corrections", parents=[out],
                       help="correction residuals and no-go gaps")
    p.add_argument("pulse_file")
    p.add_argument("--tau-s", type=float, default=None)
    p.add_argument("--grid", type=int, default=1024)
    p.add_argument("--threshold", type=float, default=1e-6)
    p.add_argument("--targets", default="r1",
                   help="comma-separated residuals the exit code checks")
    p.set_defaults(func=cmd_corrections)

    p = sub.add_parser("verify", parents=[out],
                       help="exact-propagator defect sweep and slope fit")
    p.add_argument("pulse_file")
    p.add_argument("bath_file")
    p.add_argument("--sweep", default="1e-3:1e-1:6", help="tau_p sweep min:max:points")
    p.add_argument("--regime", choices=tuple(SLOPE_BANDS), default="uncorrected")
    p.add_argument("--band", default=None, help="override slope band lo:hi")
    p.add_argument("--steps", type=int, default=SWEEP_STEPS)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("solve", parents=[out], help="solve a design problem file")
    p.add_argument("problem_file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=None)
    p.add_argument("--probe", action="store_true",
                   help="run as an infeasibility probe with certificate")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("nogo", parents=[out],
                       help="randomized corroboration of the no-go gaps")
    p.add_argument("check", help="|".join(NOGO_CHECKS))
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--grid", type=int, default=256)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_nogo)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        texts = {name.removesuffix("_file"): _read(path)
                 for name, path in vars(args).items() if name.endswith("_file")}
        for name, floor in _COUNT_FLOORS.items():
            if (value := getattr(args, name, None)) is not None and value < floor:
                raise SchemaError(f"--{name} must be at least {floor}")
        manifest = make_manifest(args.command, texts, seed=getattr(args, "seed", None),
                                 options=_options(args))
        return args.func(args, texts, manifest.digest())
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"invariant violation: input too large: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
