"""The boltzgas benchmark: one workload run, checked, with its metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, with every
timing divided by the run's load factor (see reference.py); ``--trace 1``
prints its per-layer metrics. Human-readable lines come first; the last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics. A result file with provenance goes to bench/out/.

The library is imported from the checkout's src/ directory; without it the
benchmark exits with code 2 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import reference
from workloads import BENCH_DIR, SIZES, THREAD_ENV, WORKLOADS, child_env, load_golden

CHECKOUT = BENCH_DIR.parent
DEADLINE_S = 170  # the whole run must end within 180 s
FRESH_IMPORT_REPEATS = {"full": 4, "tiny": 1}
TAIL_MIN_OPS = 20  # distinct operations a pass needs for a percentile tail

# Times the spawn of a fresh interpreter until `import boltzgas` returns: the
# child reports as soon as the import is done, before it tears down.
_SETUP_CODE = "import sys, boltzgas; sys.stdout.write(boltzgas.__file__ + '\\n'); sys.stdout.flush()"
# Times `import boltzgas.cli` inside a fresh interpreter.
_CLI_IMPORT_CODE = (
    "import time; t = time.perf_counter(); import boltzgas.cli; "
    "print(repr(time.perf_counter() - t))"
)


class BenchError(Exception):
    """The benchmark cannot run here; exit without a result."""


def remaining(started: float) -> float:
    left = DEADLINE_S - (time.monotonic() - started)
    if left <= 0:
        raise BenchError("the run is over its time limit")
    return left


def setup_times(env, repeats, started, warm_up=True) -> tuple:
    """Seconds from spawning a fresh interpreter until `import boltzgas` returns.

    Each timed sample is followed by one of the interpreter-start reference
    kernel, which gives the load factor for set-up. Returns both lists.
    """
    expected = (CHECKOUT / "src" / "boltzgas").resolve()
    times, kernel_times = [], []
    for attempt in range(repeats + warm_up):  # a warm-up compiles bytecode; not timed
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", _SETUP_CODE],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=CHECKOUT,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            _, err = proc.communicate(timeout=remaining(started))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or not line:
            raise BenchError(f"`import boltzgas` failed: {err.decode(errors='replace').strip()}")
        if Path(line.decode().strip()).resolve().parent != expected:
            raise BenchError(f"boltzgas was imported from {line.decode().strip()}, not {expected}")
        if attempt or not warm_up:
            times.append(elapsed)
            t0 = time.perf_counter()
            reference.interpreter_start(env, CHECKOUT)
            kernel_times.append(time.perf_counter() - t0)
    return times, kernel_times


def cli_import_times(env, repeats, started) -> list:
    times = []
    for _ in range(repeats + 1):
        proc = subprocess.run(
            [sys.executable, "-c", _CLI_IMPORT_CODE],
            capture_output=True, env=env, cwd=CHECKOUT, timeout=remaining(started),
        )
        if proc.returncode != 0:
            raise BenchError(f"`import boltzgas.cli` failed: {proc.stderr.decode(errors='replace')}")
        times.append(float(proc.stdout.decode().strip()))
    return times[1:]


def run_worker(args, env, spans_path, started) -> dict:
    command = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--size", args.size,
    ]
    if spans_path:
        command += ["--spans", str(spans_path)]
    try:
        proc = subprocess.run(
            command, capture_output=True, env=env, cwd=CHECKOUT, timeout=remaining(started)
        )
    except subprocess.TimeoutExpired as exc:  # subprocess.run kills and reaps the child
        raise BenchError("the workload did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchError(f"the workload process failed:\n{proc.stderr.decode(errors='replace')}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def work_median(sorted_values):
    """Smallest latency L such that operations no longer than L take half the timed work.

    Equal to the plain median when operations cost alike. On a workload of a
    few unlike products (paper-figures spans 0.7 ms to 2 s) the plain median
    is the edge of one small product's group, a value that flips with the
    machine's load; this one lands inside the group that holds the work.
    """
    half = sum(sorted_values) / 2
    running = 0.0
    for value in sorted_values:
        running += value
        if running >= half:
            return value
    return sorted_values[-1]


def tail(sorted_values):
    """Highest percentile with at least ten operations beyond it: (value, percentile).

    With fewer than TAIL_MIN_OPS operations there is no such tail worth the
    name, and the slowest operation stands in for it.
    """
    n = len(sorted_values)
    if n < TAIL_MIN_OPS:
        return sorted_values[-1], 100.0
    return sorted_values[n - 11], 100.0 * (n - 10) / n


def median_per_op(op_times, loads=None):
    """Each operation's median latency over the run's untraced passes.

    Every pass runs the same distinct queries with cold caches, so the
    passes are repeats of one another. With ``loads``, each pass's
    latencies are first divided by that pass's load factor.
    """
    if loads is not None:
        op_times = [[t / load for t in times] for times, load in zip(op_times, loads)]
    return [statistics.median(repeats) for repeats in zip(*op_times)]


def interquartile_mean(values):
    """Mean of the values left after dropping the lowest and highest quarter.

    On a shared virtual machine a process's time often comes in steps of
    about 25 ms. A median of a few such times jumps a whole step; this mean moves
    with the share of samples at each step and still ignores stragglers.
    """
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def pass_loads(kernel_times, reference_s):
    """Load factor of each pass: the interquartile mean of its kernel times over the reference time."""
    return [interquartile_mean(times) / reference_s for times in kernel_times]


def end_to_end(report, setup, setup_kernel, workload) -> tuple:
    """The end-to-end metrics, each timing divided by its load factor."""
    loads = pass_loads(report["reference_s"], workload.REFERENCE_S)
    load = statistics.median(loads)
    setup_load = statistics.median(setup_kernel) / reference.INTERPRETER_START_S
    passes = len(report["op_times_s"])
    measured = sorted(median_per_op(report["op_times_s"]))
    latencies = sorted(median_per_op(report["op_times_s"], loads))
    tail_value, tail_pct = tail(latencies)
    raw = {
        "wall_s": sum(measured),
        "op_p50_ms": work_median(measured) * 1e3,
        "op_tail_ms": tail(measured)[0] * 1e3,
        "items_per_s": report["items_per_pass"] / sum(measured),
        "setup_s": statistics.median(setup),
    }
    metrics = {
        "wall_s": sum(latencies),
        "op_p50_ms": work_median(latencies) * 1e3,
        "op_tail_ms": tail_value * 1e3,
        "items_per_s": report["items_per_pass"] / sum(latencies),
        "peak_rss_mb": report["peak_rss_kb"] / 1024,
        "setup_s": raw["setup_s"] / setup_load,
    }
    per_op = f"of {len(latencies)} operations, each its median over {passes} passes"
    adjusted = f"; measured {{:.6g}}, median pass load {load:.4f}"
    notes = {
        "wall_s": f"sum {per_op}" + adjusted.format(raw["wall_s"]),
        "op_p50_ms": f"work-weighted median {per_op}" + adjusted.format(raw["op_p50_ms"]),
        "op_tail_ms": f"p{tail_pct:.2f} {per_op}"
        + (" (10 beyond it)" if len(latencies) >= TAIL_MIN_OPS else " (the slowest; too few for a tail)")
        + adjusted.format(raw["op_tail_ms"]),
        "items_per_s": f"{report['items_per_pass']} items per pass" + adjusted.format(raw["items_per_s"]),
        "setup_s": f"median of {len(setup)} fresh interpreters; measured {raw['setup_s']:.6g} / load {setup_load:.4f}",
    }
    extra = {
        "tail_percentile": tail_pct,
        "operations_timed": len(latencies) * passes,
        "load_factor": load,
        "pass_load_factors": loads,
        "reference_kernel_samples": sum(map(len, report["reference_s"])),
        "setup_load_factor": setup_load,
        "unadjusted": raw,
    }
    return metrics, notes, extra


def per_layer(report, import_times) -> tuple:
    walls = lambda traced: [
        p["wall_s"] for p in report["passes"] if p["traced"] == traced and not p["warm_up"]
    ]
    traced_wall = statistics.median(walls(True))
    plain_wall = statistics.median(walls(False))
    layers = report["layers"]
    metrics = {}
    for layer in layers[0]:
        for key in layers[0][layer]:
            values = [summary[layer][key] for summary in layers]
            # counts repeat exactly from pass to pass; times take the median
            pick = statistics.median_low if key == "calls" else statistics.median
            metrics[f"{layer}.{key}"] = pick(values)
    samples = report["samples_per_pass"]
    mc_self = metrics["montecarlo.self_s"]
    metrics.update(
        {
            "cli.import_s": statistics.median(import_times),
            "distributions.max_numerator_bits": report["max_numerator_bits"],
            "montecarlo.us_per_sample": mc_self / samples * 1e6 if samples else 0.0,
            "montecarlo.bytes_per_sample": report["computed_bytes_per_pass"] / samples if samples else 0.0,
            "trace.overhead_s": traced_wall - plain_wall,
        }
    )
    notes = {
        "trace.overhead_s": f"median traced pass {traced_wall:.4f} s - median untraced {plain_wall:.4f} s "
        f"({100 * (traced_wall / plain_wall - 1):+.1f}%)",
        "cli.import_s": f"median of {len(import_times)} fresh interpreters",
        "montecarlo.bytes_per_sample": "computed from chunk shapes, not measured",
    }
    extra = {"traced_wall_s": traced_wall, "untraced_wall_s": plain_wall}
    return metrics, notes, extra


def provenance(args) -> dict:
    commit = "unknown: not a git checkout"
    if (CHECKOUT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, cwd=CHECKOUT, timeout=30
        )
        if proc.returncode == 0:
            commit = proc.stdout.decode().strip()
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "not installed"
    return {
        "commit": commit,
        "golden_commit": load_golden()["commit"],
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "thread_env": THREAD_ENV,
    }


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description="Run one boltzgas benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=SIZES, default="full", help="tiny: the self-check size")
    args = parser.parse_args(argv)

    try:
        if not (CHECKOUT / "src" / "boltzgas" / "__init__.py").is_file():
            raise BenchError(f"no boltzgas sources under {CHECKOUT / 'src'}")
        with open(CHECKOUT / "BENCHMARK.json", encoding="utf-8") as handle:
            spec = json.load(handle)
        env = child_env(CHECKOUT)
        repeats = FRESH_IMPORT_REPEATS[args.size]
        out_dir = BENCH_DIR / "out"
        out_dir.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.size == "tiny" else "")
        spans_path = out_dir / f"{stem}-spans.jsonl" if args.trace else None
        if args.trace:
            import_times = cli_import_times(env, repeats, started)
            report = run_worker(args, env, spans_path, started)
            metrics, notes, extra = per_layer(report, import_times)
            wanted = spec["per_layer"]
        else:
            # Half the set-up samples before the workload and half after, so
            # they span the run rather than one moment of the machine's load.
            setup, setup_kernel = setup_times(env, repeats, started)
            report = run_worker(args, env, None, started)
            more, more_kernel = setup_times(env, repeats, started, warm_up=False)
            metrics, notes, extra = end_to_end(
                report, setup + more, setup_kernel + more_kernel, WORKLOADS[args.workload]
            )
            wanted = spec["end_to_end"]
    except (BenchError, OSError, ValueError, KeyError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    attempted, failed = report["attempted"], report["failed"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} size={args.size}: "
          f"{len(report['passes'])} passes x {report['ops_per_pass']} operations")
    for metric in wanted:
        name = metric["name"]
        note = notes.get(name, "")
        value = metrics[name]
        text = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6g}"
        print(f"{name:34s} {text} {metric['unit']:10s} {note}")
    print(f"{'fail_ratio':34s} {failed / attempted:>14.6g} {'ratio':10s} {failed} of {attempted} operations failed a check")
    for failure in report["failures"]:
        print(f"  failed: {failure}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    record = {
        "provenance": provenance(args),
        "result": result,
        "fail_ratio": failed / attempted,
        "notes": notes,
        "operations": {
            "passes": len(report["passes"]),
            "per_pass": report["ops_per_pass"],
            "counts_per_pass": report["op_counts_per_pass"],
            "items_per_pass": report["items_per_pass"],
            "median_s_by_type": report["op_median_s"],
            **extra,
        },
        "pass_wall_s": report["passes"],
        "failures": report["failures"],
        "spans_file": spans_path.name if spans_path else None,
    }
    with open(out_dir / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
