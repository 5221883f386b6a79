"""spinpulse benchmark: four CLI workloads, end-to-end metrics or a traced run.

    python3 bench/run.py --workload solve-fixed --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout (``src/spinpulse`` is imported from
there; nothing is installed).  The set-up time ``setup_s`` is the median over
five fresh processes, two before and three after the workload, of the time
to ``import spinpulse.cli``.  The
workload itself then runs in one more fresh process (``worker.py``), whose
batch wall time and peak resident memory give ``wall_s`` and
``peak_rss_mb``.  With ``--trace 1`` the metrics are the per-module ones
instead (see ``tracing.py``), plus ``setup.scipy_s`` from ``-X importtime``.

Human-readable lines (per-op times next to their accuracy, fail_frac) come
first; the last line of standard output is the JSON result.  Details and
traced spans are written under ``bench/.out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("solve-fixed", "probe-general", "check-pulse", "nogo-sample")
SETUP_SAMPLES = 5
TRACE_SETUP_SAMPLES = 2
DEADLINE_S = 170.0

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import spinpulse.cli; "
                "print(time.perf_counter() - t)")


def import_probe(importtime: bool) -> tuple[float, float]:
    """(seconds to import spinpulse.cli, seconds of it spent importing scipy)."""
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           "-c", IMPORT_PROBE, str(SRC)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout.split()[-1]), scipy_import_s(proc.stderr)


def scipy_import_s(importtime_log: str) -> float:
    """Cumulative import time of the outermost scipy modules in an importtime log.

    The log lists a module after its children, so it is read backwards to
    see each module's ancestors before the module itself.
    """
    total_us = 0
    ancestors: list[str] = []
    for line in reversed(importtime_log.splitlines()):
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue                                # the header line
        depth = (len(name) - len(name.lstrip()) - 3) // 2    # ' ' + 2 per level
        module = name.strip()
        del ancestors[depth:]
        if module.split(".")[0] == "scipy" and not any(
                a.split(".")[0] == "scipy" for a in ancestors):
            total_us += int(cumulative)
        ancestors.append(module)
    return total_us / 1e6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    if not (SRC / "spinpulse" / "cli.py").is_file():
        print(f"error: no spinpulse sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    # set-up samples are split around the workload because the host's speed
    # drifts over tens of seconds; the median also drops the first import of
    # a fresh checkout, which compiles bytecode once
    n_setup = TRACE_SETUP_SAMPLES if args.trace else SETUP_SAMPLES
    samples = [import_probe(bool(args.trace)) for _ in range(n_setup // 2)]

    out = BENCH / ".out"
    out.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    result_path = out / f"{tag}.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--result", str(result_path)]
    if args.trace:
        cmd += ["--spans", str(out / f"{tag}-spans.csv")]
    budget = max(10.0, DEADLINE_S - (time.perf_counter() - start))
    try:
        worker = subprocess.run(cmd, timeout=budget)
    except subprocess.TimeoutExpired:
        print(f"error: workload did not finish within {budget:.0f} s", file=sys.stderr)
        return 3
    if worker.returncode != 0 or not result_path.is_file():
        print(f"error: worker exited with {worker.returncode}", file=sys.stderr)
        return 3
    result = json.loads(result_path.read_text())
    samples += [import_probe(bool(args.trace)) for _ in range(n_setup - n_setup // 2)]

    records = [op for batch in result["batches"] for op in batch["ops"]]
    attempted = len(records)
    failed = sum(not op["ok"] for op in records)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"batches={len(result['batches'])}")
    for op in result["batches"][-1]["ops"]:
        acc = " ".join(f"{k}={v:.6g}" for k, v in op["accuracy"].items())
        status = "ok" if op["ok"] else f"FAILED ({op['reason']})"
        print(f"  {op['op']:<28} {op['seconds']:8.3f} s  rc={op['rc']}  {acc}  {status}")
    walls = " ".join(f"{b['wall_s']:.3f}" for b in result["batches"])
    print(f"  batch wall_s: {walls}")
    print(f"  fail_frac = {failed / attempted:.6g} ({failed}/{attempted} ops)")

    if args.trace:
        metrics = dict(result["metrics"])
        metrics["setup.scipy_s"] = statistics.median(s for _, s in samples)
    else:
        metrics = {"setup_s": statistics.median(t for t, _ in samples),
                   "wall_s": result["wall_s"],
                   "peak_rss_mb": result["peak_rss_mb"]}
    units = json.loads((ROOT / "BENCHMARK.json").read_text())
    unit_of = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer")
               for m in units[key]}
    for name, value in metrics.items():
        print(f"  {name:<32} {value:.6g} {unit_of[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
