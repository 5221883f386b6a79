"""One workload in one fresh process: import, generate inputs, run op batches.

Invoked by ``run.py``; writes its result as JSON to ``--result``.

Untraced, the fixed batch is repeated until the next batch would end past
``--seconds`` (at least one batch).  Traced, one untraced batch is followed
by one traced batch of the same ops, so the per-module counts repeat exactly
at a given seed and the traced-minus-untraced wall time is the tracing
overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import spinpulse.cli
    import_s = time.perf_counter() - t0
    if Path(spinpulse.cli.__file__).resolve().parent != SRC / "spinpulse":
        print(f"error: imported spinpulse from {spinpulse.cli.__file__}", file=sys.stderr)
        return 2

    import workloads

    (BENCH / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH / ".work"))
    try:
        ops = workloads.build_batch(args.workload, args.seed, work)
        reference: list = []
        batches = []
        result = {"workload": args.workload, "seed": args.seed, "import_s": import_s}
        if not args.trace:
            start = time.perf_counter()
            while True:
                records, wall, cpu = workloads.run_batch(ops, reference)
                batches.append({"wall_s": wall, "cpu_s": cpu, "traced": False,
                                "ops": [r.as_dict() for r in records]})
                elapsed = time.perf_counter() - start
                if elapsed + wall > args.seconds:
                    break
            result["wall_s"] = statistics.median(b["wall_s"] for b in batches)
        else:
            import tracing
            records, plain_wall, _ = workloads.run_batch(ops, reference)
            batches.append({"wall_s": plain_wall, "traced": False,
                            "ops": [r.as_dict() for r in records]})
            recorder = tracing.Recorder()
            recorder.install()
            try:
                records, wall, cpu = workloads.run_batch(ops, reference, recorder)
            finally:
                recorder.uninstall()
            batches.append({"wall_s": wall, "cpu_s": cpu, "traced": True,
                            "ops": [r.as_dict() for r in records]})
            metrics = recorder.metrics()
            metrics.update({"proc.cpu_s": cpu, "proc.cpu_util": cpu / wall,
                            "trace.overhead_s": wall - plain_wall})
            result["metrics"] = metrics
            if args.spans:
                recorder.write(args.spans)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["peak_rss_mb"] = peak_kib / 1024.0
        result["batches"] = batches
    finally:
        shutil.rmtree(work, ignore_errors=True)
    args.result.write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
