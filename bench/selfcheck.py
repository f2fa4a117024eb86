"""Fast self-check of the benchmark harness: every workload at a tiny size.

Usage, from the root of a checkout:

    python3 bench/selfcheck.py

For each workload, untraced and traced, it runs run.py with --size tiny and
asserts that the last line is the result object, that every metric of
BENCHMARK.json is printed by name with its unit, and that no operation
failed its check (fail_ratio 0). It also checks that run.py refuses to run,
without a result, in a directory holding only BENCHMARK.json and bench/.
Takes well under a minute; exits 1 on the first problem.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from numbers import Real
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message: str) -> None:
    print(f"selfcheck FAILED: {message}")
    sys.exit(1)


def run(cwd: Path, workload: str, trace: int, size: str = "tiny"):
    command = [
        sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
        "--seconds", "1", "--trace", str(trace), "--size", size,
    ]
    return subprocess.run(command, capture_output=True, text=True, cwd=cwd, timeout=170)


def check_run(spec, workload: str, trace: int) -> None:
    proc = run(CHECKOUT, workload, trace)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        fail(f"{where}: exit code {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        fail(f"{where}: result keys {sorted(result)}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in wanted}:
        fail(f"{where}: metrics {sorted(result['metrics'])}")
    text = lines[:-1]
    for metric in wanted:
        entry = result["metrics"][metric["name"]]
        if entry["unit"] != metric["unit"] or isinstance(entry["value"], bool) or not isinstance(entry["value"], Real):
            fail(f"{where}: bad entry for {metric['name']}: {entry}")
        if not any(line.split()[:1] == [metric["name"]] and metric["unit"] in line.split() for line in text):
            fail(f"{where}: {metric['name']} is not printed with its unit")
    if not any(line.split()[:2] == ["fail_ratio", "0"] for line in text):
        fail(f"{where}: fail_ratio is not printed as 0")
    if result["failed"] != 0 or not result["correct"] or result["attempted"] < 1:
        fail(f"{where}: {result['failed']} of {result['attempted']} operations failed")
    print(f"ok  {where}: {result['attempted']} operations, {len(wanted)} metrics")


def check_bare_directory() -> None:
    """Without the library's sources run.py must exit non-zero and print no result."""
    bare = BENCH_DIR / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy2(CHECKOUT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = run(bare, "joint-lattice", 0, size="full")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or "{" in proc.stdout:
        fail(f"run.py without src/ exited {proc.returncode} with output {proc.stdout!r}")
    print(f"ok  without src/: exit code {proc.returncode}, no result")


def main() -> int:
    with open(CHECKOUT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    if spec["command"][1:] != ["bench/run.py"] or spec["paths"] != ["bench"]:
        fail("BENCHMARK.json does not point at bench/run.py")
    if any(m["bound"] > 0.25 for m in spec["end_to_end"]):
        fail("an end-to-end bound is above 0.25")
    for workload in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, workload["name"], trace)
    check_bare_directory()
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
