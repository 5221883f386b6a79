"""Self-test of the benchmark itself, to run before relying on its numbers.

    python3 bench/selftest.py

It smoke-runs every workload at a tiny size, shows that a deliberately
failing op and a changed output are counted as failures, runs the traced
path twice to show its counts repeat and that every per-layer metric of
``BENCHMARK.json`` is reported, and shows that ``run.py`` refuses to run in a
directory without the spinpulse sources.  Exits 0 when all checks hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

SEED = 1


def check(condition: bool, message: str):
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def smoke(work: Path):
    for name in workloads.WORKLOADS:
        sub = work / name
        sub.mkdir()
        ops = workloads.build_batch(name, SEED, sub, tiny=True)
        records, wall, _ = workloads.run_batch(ops, [])
        bad = [f"{r.name}: {r.reason}" for r in records if not r.ok]
        check(not bad, f"{name} tiny batch failed: {bad}")
        print(f"smoke {name}: {len(records)} ops ok in {wall:.2f} s")


def failure_accounting(work: Path):
    ops = workloads.build_batch("check-pulse", SEED, work, tiny=True)
    verify = ops[-1]
    impossible = workloads.Op("verify band 5:6", [*verify.argv, "--band", "5:6"], 0,
                              workloads.check_verify, verify.out)
    records, _, _ = workloads.run_batch([*ops, impossible], [])
    failed = [r for r in records if not r.ok]
    check([r.name for r in failed] == ["verify band 5:6"] and failed[0].rc == 1,
          f"the out-of-band verify was not the one failure: {[r.name for r in failed]}")
    print(f"failure accounting: fail_frac = {len(failed)}/{len(records)}")

    changed = [b"changed"] * len(ops)
    records, _, _ = workloads.run_batch(ops, changed)
    check(all(not r.ok and "differs" in r.reason for r in records),
          "outputs differing from the first batch were not counted as failures")


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    check(proc.returncode == 0, f"run.py exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end_and_trace():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = ("--workload", "nogo-sample", "--seed", str(SEED), "--seconds", "1")
    plain = last_json(run_bench(ROOT, *args, "--trace", "0"))
    check(set(plain) == {"correct", "attempted", "failed", "metrics"}, "result keys")
    check(plain["correct"] and plain["failed"] == 0, "untraced run failed")
    check(set(plain["metrics"]) == {m["name"] for m in spec["end_to_end"]},
          "untraced metrics differ from BENCHMARK.json end_to_end")

    traced = [last_json(run_bench(ROOT, *args, "--trace", "1")) for _ in range(2)]
    check(set(traced[0]["metrics"]) == {m["name"] for m in spec["per_layer"]},
          "traced metrics differ from BENCHMARK.json per_layer")
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    counts = [{k: v["value"] for k, v in t["metrics"].items() if units[k] == "count"}
              for t in traced]
    check(counts[0] == counts[1], f"traced counts differ between runs: {counts}")
    check(counts[0]["trajectory.integrate.calls"] > 0, "no frame integrations traced")
    print(f"trace: {len(traced[0]['metrics'])} per-layer metrics, counts repeat")


def refuses_without_sources(work: Path):
    bare = work / "bare"
    shutil.copytree(BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns(".work", ".out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run_bench(bare, "--workload", "nogo-sample", "--seed", "0",
                     "--seconds", "1", "--trace", "0")
    check(proc.returncode != 0 and not proc.stdout.strip(),
          f"run.py without sources: exit {proc.returncode}, stdout {proc.stdout!r}")
    print(f"without sources: exit {proc.returncode}, no result printed")


def main():
    (BENCH / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=BENCH / ".work"))
    try:
        smoke(work)
        failure_accounting(work)
        end_to_end_and_trace()
        refuses_without_sources(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
