"""The benchmark's workloads: inputs drawn from a seed, operations, checks.

Each workload turns ``--seed`` into one pass: a fixed list of operations,
each a distinct query a user would issue. The seed only picks the order of
the operations and, where a workload has a choice, which inputs it takes
from a pool; every pool member has a reference output pinned in
``golden/golden.json``, so every seed is checked exactly.

A run repeats the pass with cold library caches, an untimed warm-up first,
until ``--seconds`` have gone by. Between operations of untraced passes it
runs the workload's reference kernel (see reference.py), outside the timing.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import os
import subprocess
import sys
import threading
from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral, Real
from pathlib import Path

import reference

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_PATH = BENCH_DIR / "golden" / "golden.json"

SIZES = ("full", "tiny")


@dataclass(frozen=True)
class Op:
    key: str  # reference key in golden.json (shared by a lattice's points)
    label: str  # operation type, for the per-workload operation counts
    payload: object
    items: int  # work items for items_per_s: samples, lattice points or calls


# --------------------------------------------------------------------------
# canonical text of results, so digests compare exact values

def canonical(value):
    """JSON-ready form in which equal results have equal text.

    Fractions become "numerator/denominator", floats their shortest repr,
    NumPy scalars the matching Python number.
    """
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, Integral):
        return int(value)
    if isinstance(value, Real):
        return repr(float(value))
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    raise TypeError(f"no canonical form for {type(value).__name__}")


def digest(value) -> str:
    text = json.dumps(canonical(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------
# paper-figures: the paper's products

class PaperFigures:
    """figure_data(1..7) and run_standard_battery(), in seed order.

    Figure 5 (the 1-D alternating transform at N <= 1024) is most of a
    pass and the battery (TruncatedSeries arithmetic) most of the rest.
    """

    name = "paper-figures"
    # reference kernel, its reference time in seconds, and how often it runs
    REFERENCE_S, REFERENCE_EVERY_S = 0.0105, 0.0
    FIGURES = {"full": (1, 2, 3, 4, 5, 6, 7), "tiny": (1, 2, 3, 6, 7)}

    def plan(self, rng, size):
        ops = [Op(f"figure:{i}", f"figure_data({i})", i, 1) for i in self.FIGURES[size]]
        if size == "full":
            ops.append(Op("battery", "run_standard_battery()", None, 1))
        rng.shuffle(ops)
        return ops

    def reference_kernel(self, ctx):
        reference.bigint_transform()

    def execute(self, op, lib, ctx):
        if op.payload is None:
            return lib.identities.run_standard_battery()
        return lib.figures.figure_data(op.payload)

    def reference(self, op, result, lib):
        if op.payload is None:
            return digest(lib.identities.reports_to_json(result))
        return digest(
            {
                "id": result.figure_id,
                "title": result.title,
                "manifest": result.manifest,
                "panels": [[p.name, p.header, p.rows] for p in result.panels],
            }
        )

    def check(self, ops, results, golden, lib, first_pass):
        failures = []
        for index, (op, result) in enumerate(zip(ops, results)):
            if self.reference(op, result, lib) != golden[op.key]:
                failures.append((index, f"{op.key}: digest differs from the reference"))
            elif op.payload is None and any(r.verdict == "mismatch" for r in result):
                failures.append((index, "battery: an asserted identity reports a mismatch"))
        return failures

    def references(self, lib, ctx):
        return {
            op.key: self.reference(op, self.execute(op, lib, ctx), lib)
            for op in self.plan(_NoShuffle(), "full")
        }


# --------------------------------------------------------------------------
# joint-lattice: the joint law over whole count lattices

class JointLattice:
    """joint_pdf_exact at every point of several 3-level count lattices.

    One operation is one lattice point. Lattices inside the enumeration cap
    are also checked point by point against oracle_joint_pdf (first pass);
    every lattice must sum to exactly 1 and match its reference digest.
    """

    name = "joint-lattice"
    REFERENCE_S, REFERENCE_EVERY_S = 0.00105, 0.05
    LATTICES = {
        "full": ((12, 16, (0, 1, 2)), (12, 16, (0, 2, 4)), (11, 15, (1, 2, 3)), (13, 17, (0, 1, 3))),
        "tiny": ((6, 8, (0, 1, 2)),),
    }

    @staticmethod
    def lattice_key(n, m, levels):
        return f"N={n} M={m} levels={','.join(map(str, levels))}"

    def plan(self, rng, size):
        from boltzgas import SystemParams

        lattices = list(self.LATTICES[size])
        rng.shuffle(lattices)
        ops = []
        for n, m, levels in lattices:
            key = self.lattice_key(n, m, levels)
            params = SystemParams(n, m)
            points = list(itertools.product(range(n + 1), repeat=len(levels)))
            rng.shuffle(points)
            ops.extend(Op(key, key, (params, levels, counts), 1) for counts in points)
        return ops

    def reference_kernel(self, ctx):
        reference.composition_sum()

    def execute(self, op, lib, ctx):
        params, levels, counts = op.payload
        return lib.distributions.joint_pdf_exact(params, levels, counts)

    @staticmethod
    def lattice_digest(points):
        return digest(sorted(points))

    def check(self, ops, results, golden, lib, first_pass):
        failures = []
        by_lattice = {}
        for index, (op, value) in enumerate(zip(ops, results)):
            by_lattice.setdefault(op.key, []).append((index, op, value))
        cap = lib.enumeration.enumeration_cap()
        for key, entries in by_lattice.items():
            points = [(op.payload[2], value) for _, op, value in entries]
            total = sum(value for _, value in points)
            if total != 1 or self.lattice_digest(points) != golden[key]:
                reason = f"{key}: sums to {total}" if total != 1 else f"{key}: digest differs"
                failures.extend((index, reason) for index, _, _ in entries)
                continue
            params, levels, _ = entries[0][1].payload
            if not first_pass or params.n_particles > cap[0] or params.energy_units > cap[1]:
                continue
            for index, op, value in entries:
                if value != lib.enumeration.oracle_joint_pdf(params, levels, op.payload[2]):
                    failures.append((index, f"{key} counts={op.payload[2]}: differs from the oracle"))
        return failures

    def references(self, lib, ctx):
        out = {}
        for size in SIZES:
            ops = self.plan(_NoShuffle(), size)
            points = {}
            for op in ops:
                points.setdefault(op.key, []).append((op.payload[2], self.execute(op, lib, ctx)))
            for key, values in points.items():
                if sum(v for _, v in values) != 1:
                    raise AssertionError(f"{key} does not sum to 1")
                out[key] = self.lattice_digest(values)
        return out


# --------------------------------------------------------------------------
# mc-validate: the sampler against the exact moments

class McValidate:
    """empirical_stats (default histograms) and z_score_report at pinned seeds.

    Narrow system N=50, M=100 and wide system N=100, M=1000; the wide one
    makes the per-chunk 16384 x (M+N-1) key arrays dominate memory. The seed
    picks the sampler seeds from SAMPLER_SEEDS.
    """

    name = "mc-validate"
    REFERENCE_S, REFERENCE_EVERY_S = 0.07, 0.0
    SAMPLER_SEEDS = tuple(range(101, 109))
    # (N, M, samples per configuration, configurations per pass)
    SYSTEMS = {
        "full": ((50, 100, 32768, 4), (100, 1000, 16384, 2)),
        "tiny": ((50, 100, 2048, 1), (100, 1000, 1024, 1)),
    }

    @staticmethod
    def z_levels(m):
        return range(min(m, 10) + 1)

    def plan(self, rng, size):
        from boltzgas import SamplerConfig, SystemParams

        ops = []
        for n, m, samples, configs in self.SYSTEMS[size]:
            for seed in rng.sample(self.SAMPLER_SEEDS, configs):
                config = SamplerConfig(SystemParams(n, m), samples, seed)
                tag = f"N={n} M={m} samples={samples} seed={seed}"
                ops.append(Op(f"empirical {tag}", f"empirical_stats N={n} M={m}", config, samples))
                ops.append(Op(f"zscore {tag}", f"z_score_report N={n} M={m}", config, samples))
        rng.shuffle(ops)
        return ops

    def reference_kernel(self, ctx):
        reference.sampler_chunk()

    def execute(self, op, lib, ctx):
        config = op.payload
        if op.key.startswith("empirical"):
            return lib.montecarlo.empirical_stats(config)
        return lib.montecarlo.z_score_report(config, self.z_levels(config.params.energy_units))

    @staticmethod
    def reference(op, result):
        if op.key.startswith("empirical"):
            return digest([result.count_sums, result.count_square_sums, result.histograms])
        return digest(
            [
                [r.level, r.empirical_mean, r.exact_mean, r.standard_error, r.z_score, r.flagged, r.note]
                for r in result
            ]
        )

    def check(self, ops, results, golden, lib, first_pass):
        failures = []
        for index, (op, result) in enumerate(zip(ops, results)):
            if self.reference(op, result) != golden[op.key]:
                failures.append((index, f"{op.key}: accumulators differ from the reference"))
            elif op.key.startswith("zscore") and any(r.flagged for r in result):
                failures.append((index, f"{op.key}: a z-score is flagged"))
        return failures

    @staticmethod
    def computed_bytes(config) -> int:
        """Bytes of the float64 keys and int64 argpartition indices of one run.

        Computed from the (batch, M+N-1) chunk shapes, not measured: each
        sample takes one row of M+N-1 keys and one row of indices.
        """
        slots = config.params.energy_units + config.params.n_particles - 1
        return 2 * 8 * slots * config.sample_count

    def references(self, lib, ctx):
        from boltzgas import SamplerConfig, SystemParams

        out = {}
        for size in SIZES:
            for n, m, samples, _ in self.SYSTEMS[size]:
                for seed in self.SAMPLER_SEEDS:
                    config = SamplerConfig(SystemParams(n, m), samples, seed)
                    tag = f"N={n} M={m} samples={samples} seed={seed}"
                    for kind in ("empirical", "zscore"):
                        op = Op(f"{kind} {tag}", kind, config, samples)
                        result = self.execute(op, lib, ctx)
                        if kind == "zscore" and any(r.flagged for r in result):
                            raise AssertionError(f"{op.key}: a z-score is flagged")
                        out[op.key] = self.reference(op, result)
        return out


# --------------------------------------------------------------------------
# cli-small: small CLI calls, each in a fresh interpreter

class CliSmall:
    """A closed loop with one client: each call waits for the previous one.

    Interpreter start and imports are most of each call, so this is where
    lazy imports, argparse and Fraction serialization show.
    """

    name = "cli-small"
    REFERENCE_S, REFERENCE_EVERY_S = reference.INTERPRETER_START_S, 0.5
    COMMANDS = (
        ("microstates --n 12 --m 16", "microstates --n 100 --m 1000", "microstates --n 1000 --m 4000"),
        (
            "moments --n 8 --m 10 --check-oracle",
            "moments --n 12 --m 16 --levels 0,1,2 --check-oracle",
            "moments --n 10 --m 14 --order-max 3 --check-oracle",
        ),
        (
            "pdf --n 50 --m 100 --level 1",
            "pdf --n 12 --m 16 --level 0 --check-oracle",
            "pdf --n 30 --m 60 --level 2 --format json",
        ),
        (
            "jointpdf --n 6 --m 8 --levels 0,1 --check-oracle",
            "jointpdf --n 5 --m 7 --levels 0,1,2 --check-oracle",
            "jointpdf --n 8 --m 10 --levels 1,2 --check-oracle",
        ),
        ("covariance --n 10 --m 6", "covariance --n 50 --m 10 --format json", "covariance --n 100 --m 20 --t 2.5"),
        (
            "fluctuation --n 10,50",
            "fluctuation --n 10,30,90 --t-grid log:0.1:100:31",
            "fluctuation --n 100 --t-grid lin:0.5:5:10 --format json",
        ),
    )
    TIMEOUT_S = 60

    def plan(self, rng, size):
        variants = [group[:1] if size == "tiny" else group for group in self.COMMANDS]
        ops = [Op(line, line.split()[0], line.split(), 1) for group in variants for line in group]
        rng.shuffle(ops)
        return ops

    def reference_kernel(self, ctx):
        reference.interpreter_start(ctx.env, ctx.checkout)

    def execute(self, op, lib, ctx):
        if ctx.traced:
            path = ctx.child_spans_path()
            argv = [sys.executable, str(BENCH_DIR / "cli_traced.py"), str(path), *op.payload]
        else:
            argv = [sys.executable, "-m", "boltzgas", *op.payload]
        # Reaped with wait4 for the call's own peak memory: the worker's
        # RUSAGE_CHILDREN would also count the reference kernel's processes.
        proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=ctx.env, cwd=ctx.checkout
        )
        timer = threading.Timer(self.TIMEOUT_S, proc.kill)
        timer.start()
        try:
            stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        ctx.child_peak_kb = max(ctx.child_peak_kb, usage.ru_maxrss)
        return proc.returncode, stdout.decode("utf-8", "replace")

    def check(self, ops, results, golden, lib, first_pass):
        failures = []
        for index, (op, (code, stdout)) in enumerate(zip(ops, results)):
            if code != 0:
                failures.append((index, f"{op.key}: exit code {code}"))
            elif stdout != golden[op.key]:
                failures.append((index, f"{op.key}: stdout differs from the golden output"))
        return failures

    def references(self, lib, ctx):
        out = {}
        for op in self.plan(_NoShuffle(), "full"):
            code, stdout = self.execute(op, lib, ctx)
            if code != 0:
                raise AssertionError(f"{op.key}: exit code {code}")
            out[op.key] = stdout
        return out


class _NoShuffle:
    """Stands in for random.Random where a fixed order is wanted."""

    def shuffle(self, items):
        return None


WORKLOADS = {w.name: w for w in (PaperFigures(), JointLattice(), McValidate(), CliSmall())}


# --------------------------------------------------------------------------
# the environment every child process of the benchmark runs in

THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env(checkout: Path) -> dict:
    env = dict(os.environ)
    env.pop("FLUCT_MAX_ENUM", None)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(checkout / "src")
    return env


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)
