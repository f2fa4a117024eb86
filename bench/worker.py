"""Runs one workload in a fresh process and prints its raw measurements.

Started by run.py, never by hand: the process's peak memory is the
workload's, and the spans file is written once, when the run ends.
Prints one JSON line with pass wall times, operation latencies, reference
kernel times, check failures, the peak resident set and, for traced passes,
the layer summary.
"""
from __future__ import annotations

import argparse
import collections
import gc
import importlib
import itertools
import json
import os
import random
import resource
import statistics
import sys
import time
from pathlib import Path

from tracer import Tracer
from workloads import BENCH_DIR, SIZES, WORKLOADS, child_env, load_golden

CHECKOUT = BENCH_DIR.parent


class Context:
    """What an operation may need besides the library: env, cwd, trace mode."""

    def __init__(self, spans_dir: Path):
        self.checkout = CHECKOUT
        self.env = child_env(CHECKOUT)
        self.traced = False
        self.op_index = None
        self.spans_dir = spans_dir
        self.child_files = []  # (op index, spans file of a traced child process)
        self.child_peak_kb = 0  # largest peak resident set of a CLI call

    def child_spans_path(self):
        path = self.spans_dir / f"child-{os.getpid()}-{len(self.child_files)}.jsonl"
        self.child_files.append((self.op_index, path))
        return path


def import_library():
    lib = importlib.import_module("boltzgas")
    expected = CHECKOUT / "src" / "boltzgas"
    if Path(lib.__file__).resolve().parent != expected.resolve():
        raise SystemExit(f"boltzgas imported from {lib.__file__}, not from {expected}")
    return lib


def library_caches(lib) -> list:
    """Every functools cache held by a boltzgas module, to empty between passes."""
    caches = []
    for name, module in sorted(sys.modules.items()):
        if name.startswith(lib.__name__ + ".") and module is not None:
            caches.extend(
                obj for obj in vars(module).values() if callable(getattr(obj, "cache_clear", None))
            )
    return caches


def read_child_spans(ctx, pass_index, origin):
    """Merge the spans files of a pass's traced CLI processes, then delete them."""
    summary, bits, records = None, 0, []
    for op_index, path in ctx.child_files:
        with open(path, encoding="utf-8") as handle:
            head = json.loads(handle.readline())
            for line in handle:
                record = json.loads(line)
                record.update(op=op_index, **{"pass": pass_index})
                record["start_s"] -= origin
                record["end_s"] -= origin
                records.append(record)
        path.unlink()
        bits = max(bits, head["max_numerator_bits"])
        if summary is None:
            summary = head["summary"]
        else:
            for layer, values in head["summary"].items():
                for key, value in values.items():
                    summary[layer][key] += value
    ctx.child_files.clear()
    return summary, bits, records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=SIZES, default="full")
    parser.add_argument("--spans", help="spans file written at the end of a traced run")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    golden = load_golden()["workloads"][workload.name]
    # cli-small drives separate processes; importing here would only add
    # this process's own memory to the peak.
    lib = None if workload.name == "cli-small" else import_library()
    ops = workload.plan(random.Random(args.seed), args.size)
    caches = library_caches(lib) if lib else []
    spans_dir = Path(args.spans).parent if args.spans else BENCH_DIR / "out"
    spans_dir.mkdir(parents=True, exist_ok=True)
    ctx = Context(spans_dir)

    # The harness's own objects (operation list, references, library
    # modules) leave the collector's view, so a collection during a timed
    # operation scans only what the library and its results hold.
    gc.collect()
    gc.freeze()

    origin = time.perf_counter()
    timed_from = None
    pass_records, op_times, layers, failures = [], [], [], []
    reference_s = []
    tracers, child_records = [], []
    by_label = collections.defaultdict(list)
    max_bits = 0
    failed = attempted = 0
    # Pass 0 is a warm-up: checked like every pass, but not timed. Then
    # passes run while the next one is expected to end within --seconds,
    # at least two of them. Traced and untraced passes alternate, so both
    # see the same machine.
    for pass_index in itertools.count():
        warm_up = pass_index == 0
        if pass_index == 1:
            timed_from = time.perf_counter()
        elif pass_index > 2:
            elapsed = time.perf_counter() - timed_from
            if elapsed + elapsed / (pass_index - 1) > args.seconds:
                break
        traced = bool(args.trace) and pass_index % 2 == 0 and not warm_up
        for cache in caches:
            cache.cache_clear()
        gc.collect()
        tracer = Tracer() if traced and lib else None
        ctx.traced = traced
        if tracer:
            tracer.install(lib)
        results, times = [], []
        clock = time.perf_counter
        kernel_s = 0.0  # reference kernel time inside this pass
        pass_kernel = []
        start = last_kernel = clock()
        for index, op in enumerate(ops):
            ctx.op_index = index
            if tracer:
                tracer.op = index
            t0 = clock()
            results.append(workload.execute(op, lib, ctx))
            t1 = clock()
            times.append(t1 - t0)
            # The reference kernel: after an operation, once per interval,
            # and at least once in every untraced timed pass.
            last_op = index == len(ops) - 1
            if not traced and not warm_up and (
                t1 - last_kernel >= workload.REFERENCE_EVERY_S or (last_op and not pass_kernel)
            ):
                workload.reference_kernel(ctx)
                last_kernel = clock()
                kernel_s += last_kernel - t1
                pass_kernel.append(last_kernel - t1)
        wall = clock() - start - kernel_s
        if tracer:
            tracer.uninstall()
            tracers.append((pass_index, tracer))
            layers.append(tracer.layer_summary())
            max_bits = max(max_bits, tracer.max_numerator_bits)
        elif traced:
            summary, bits, records = read_child_spans(ctx, pass_index, origin)
            layers.append(summary)
            max_bits = max(max_bits, bits)
            child_records.extend(records)
        if not traced and not warm_up:
            op_times.append(times)
            reference_s.append(pass_kernel)
            for op, seconds in zip(ops, times):
                by_label[op.label].append(seconds)
        pass_failures = workload.check(ops, results, golden, lib, pass_index == 0)
        del results
        failed_ops = {index for index, _ in pass_failures}
        failed += len(failed_ops)
        attempted += len(ops)
        failures.extend(f"pass {pass_index}: {reason}" for _, reason in pass_failures[:5])
        pass_records.append(
            {"wall_s": wall, "traced": traced, "warm_up": warm_up, "failed": len(failed_ops)}
        )

    if args.spans and args.trace:
        with open(args.spans, "w", encoding="utf-8") as handle:
            for pass_index, tracer in tracers:
                for record in tracer.span_records(origin):
                    record["pass"] = pass_index
                    handle.write(json.dumps(record) + "\n")
            for record in child_records:
                handle.write(json.dumps(record) + "\n")

    samples = bytes_computed = 0
    if workload.name == "mc-validate":
        samples = sum(op.items for op in ops)
        bytes_computed = sum(workload.computed_bytes(op.payload) for op in ops)
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        ctx.child_peak_kb,
    )
    report = {
        "passes": pass_records,
        "op_times_s": op_times,
        "reference_s": reference_s,
        "ops_per_pass": len(ops),
        "op_counts_per_pass": dict(collections.Counter(op.label for op in ops)),
        "op_median_s": {label: statistics.median(v) for label, v in sorted(by_label.items())},
        "items_per_pass": sum(op.items for op in ops),
        "samples_per_pass": samples,
        "computed_bytes_per_pass": bytes_computed,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "peak_rss_kb": peak_kb,
        "layers": layers,
        "max_numerator_bits": max_bits,
    }
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
