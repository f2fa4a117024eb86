"""Command-line surface: every computation as a subcommand emitting CSV/JSON.

Conventions: CSV always carries a header row, exact rationals are serialized
as "numerator/denominator" strings, floats use 12 significant digits, output
is UTF-8 with LF line endings, and files are written atomically (temp file
plus rename). Exit codes: 0 all checks passed, 1 usage error, 2 an internal
assertion or oracle comparison failed.

The exact commands run on integers and Fractions alone. NumPy, and the
modules that use it, are imported only inside the commands that need them
(covariance, fluctuation, mc, figures), so the others start without it.
"""
from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from .combinatorics import json_default
from .distributions import (
    joint_pdf_exact,
    occupation_pdf_binomial_limit,
    occupation_pdf_exact,
)
from .enumeration import oracle_joint_pdf, oracle_moment, oracle_pdf
from .identities import reports_to_json, run_standard_battery
from .moments import exact_moment
from .system import SystemParams, microstate_count

# The most rows a fluctuation grid or a covariance matrix may have. Larger
# requests are usage errors, caught before NumPy allocates anything.
MAX_OUTPUT_ROWS = 1_000_000


class UsageError(Exception):
    """Bad arguments or parameter domain; exit code 1."""


class VerificationError(Exception):
    """An internal assertion or an oracle comparison failed; exit code 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _format_cell(value) -> str:
    if isinstance(value, Fraction):
        return json_default(value)
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def write_atomic(path, text: str) -> None:
    """Write text to ``path`` via a temp file in the same directory + rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    handle = tempfile.NamedTemporaryFile(
        mode="w",
        encoding="utf-8",
        newline="",
        dir=path.parent,
        suffix=".tmp",
        delete=False,
    )
    try:
        with handle:
            handle.write(text)
        os.replace(handle.name, path)
    except BaseException:
        os.unlink(handle.name)
        raise


def _write(out, text: str) -> None:
    """Write text to the path ``out`` atomically, or to stdout when it is empty."""
    if out:
        write_atomic(out, text)
    else:
        sys.stdout.write(text)


def _render_csv(header, rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_format_cell(v) for v in row])
    return buffer.getvalue()


def _render_json(header, rows) -> str:
    records = [dict(zip(header, row)) for row in rows]
    return json.dumps(records, indent=2, default=json_default) + "\n"


def _emit(args, header, rows) -> None:
    text = (
        _render_json(header, rows)
        if getattr(args, "format", "csv") == "json"
        else _render_csv(header, rows)
    )
    _write(getattr(args, "out", None), text)


def _parse_int_list(raw: str) -> list:
    try:
        return [int(part) for part in raw.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"expected a comma-separated integer list, got {raw!r}") from exc


def _parse_t_grid(raw: str):
    parts = raw.split(":")
    if len(parts) != 4 or parts[0] not in ("log", "lin"):
        raise UsageError(
            f"t-grid must look like log:START:STOP:COUNT or lin:START:STOP:COUNT, got {raw!r}"
        )
    try:
        start, stop, count = float(parts[1]), float(parts[2]), int(parts[3])
    except ValueError as exc:
        raise UsageError(f"bad t-grid numbers in {raw!r}") from exc
    # written so that a NaN START or STOP fails too
    if not (0 < start < stop < math.inf and 2 <= count <= MAX_OUTPUT_ROWS):
        raise UsageError(
            f"t-grid needs 0 < START < STOP < inf and 2 <= COUNT <= {MAX_OUTPUT_ROWS}, got {raw!r}"
        )
    import numpy as np

    if parts[0] == "log":
        return np.logspace(math.log10(start), math.log10(stop), count)
    return np.linspace(start, stop, count)


# --------------------------------------------------------------------------
# subcommands

def cmd_microstates(args) -> int:
    print(microstate_count(SystemParams(args.n, args.m)))
    return 0


def cmd_moments(args) -> int:
    params = SystemParams(args.n, args.m)
    if args.order_max < 0:
        raise UsageError(f"--order-max must be >= 0, got {args.order_max}")
    levels = _parse_int_list(args.levels) if args.levels else range(params.level_count)
    header = ["level", "order", "exact", "value"]
    if args.check_oracle:
        header.append("oracle")
    rows = []
    failed = False
    for level in levels:
        for order in range(args.order_max + 1):
            value = exact_moment(params, level, order)
            row = [level, order, value, float(value)]
            if args.check_oracle:
                agree = value == oracle_moment(params, level, order)
                row.append("exact-match" if agree else "MISMATCH")
                failed = failed or not agree
            rows.append(row)
    _emit(args, header, rows)
    if failed:
        raise VerificationError("closed-form moment disagrees with the enumeration oracle")
    return 0


def cmd_pdf(args) -> int:
    params = SystemParams(args.n, args.m)
    table = occupation_pdf_exact(params, args.level)
    header = ["count", "exact", "value"]
    columns = [table.support, table.probabilities, table.as_floats()]
    if args.compare_limit:
        limit = occupation_pdf_binomial_limit(
            params.n_particles, float(params.temperature), args.level
        )
        header.append("limit")
        columns.append(limit.probabilities)
    if args.check_oracle:
        reference = oracle_pdf(params, args.level)
        if reference.probabilities != table.probabilities:
            raise VerificationError("closed-form law disagrees with the enumeration oracle")
    rows = list(zip(*columns))
    _emit(args, header, rows)
    return 0


def cmd_jointpdf(args) -> int:
    params = SystemParams(args.n, args.m)
    levels = _parse_int_list(args.levels)
    arity = len(levels)
    header = [f"count_level_{j}" for j in levels] + ["exact", "value"]
    if args.counts:
        lattice = [_parse_int_list(args.counts)]
        if len(lattice[0]) != arity:
            raise UsageError("--counts must match the number of levels")
    else:
        if arity > 3:
            raise UsageError("full lattice output is limited to 3 levels; pass --counts")
        lattice = itertools.product(range(params.n_particles + 1), repeat=arity)
    rows = []
    failed = False
    for counts in lattice:
        value = joint_pdf_exact(params, levels, counts)
        if args.check_oracle and value != oracle_joint_pdf(params, levels, counts):
            failed = True
        rows.append(list(counts) + [value, float(value)])
    _emit(args, header, rows)
    if failed:
        raise VerificationError("closed-form joint law disagrees with the enumeration oracle")
    return 0


def cmd_covariance(args) -> int:
    if args.n < 1:
        raise UsageError("need at least one particle")
    if (args.m + 1) ** 2 > MAX_OUTPUT_ROWS:
        raise UsageError(f"a covariance matrix over 0..{args.m} exceeds {MAX_OUTPUT_ROWS} entries")
    from .fluctuations import covariance_matrix, mean_vector

    temperature = args.t if args.t is not None else args.m / args.n
    matrix = covariance_matrix(args.n, temperature, args.m)
    means = mean_vector(args.n, temperature, args.m)
    if getattr(args, "format", "csv") == "json":
        payload = {
            "n_particles": args.n,
            "temperature": temperature,
            "energy_cutoff": args.m,
            "means": [float(v) for v in means],
            "covariance": [[float(v) for v in row] for row in matrix.entries],
        }
        _write(args.out, json.dumps(payload, indent=2) + "\n")
        return 0
    header = ["level_a", "level_b", "covariance"]
    rows = [
        (a, b, float(matrix.entries[a, b]))
        for a in range(matrix.dimension)
        for b in range(matrix.dimension)
    ]
    _emit(args, header, rows)
    return 0


def cmd_fluctuation(args) -> int:
    sizes = _parse_int_list(args.n)
    if not sizes or any(n < 1 for n in sizes):
        raise UsageError("--n needs a comma-separated list of positive sizes")
    from .fluctuations import total_fluctuation_ratio

    grid = _parse_t_grid(args.t_grid)
    header = ["temperature"] + [f"n_{n}" for n in sizes]
    rows = [
        [float(t)] + [total_fluctuation_ratio(n, n * float(t)) for n in sizes]
        for t in grid
    ]
    _emit(args, header, rows)
    return 0


def cmd_mc(args) -> int:
    from .montecarlo import SamplerConfig, z_score_report

    params = SystemParams(args.n, args.m)
    config = SamplerConfig(params=params, sample_count=args.samples, seed=args.seed)
    levels = (
        _parse_int_list(args.levels)
        if args.levels
        else range(min(params.energy_units, 10) + 1)
    )
    rows = []
    for row in z_score_report(config, levels):
        rows.append(
            (
                row.level,
                row.empirical_mean,
                row.exact_mean,
                row.standard_error,
                row.z_score if row.z_score is not None else row.note,
                "FLAG" if row.flagged else "ok",
            )
        )
    _emit(args, ["level", "empirical_mean", "exact_mean", "std_error", "z", "status"], rows)
    return 0


def cmd_identities(args) -> int:
    reports = run_standard_battery()
    if args.name:
        reports = [r for r in reports if r.name == args.name]
        if not reports:
            raise UsageError(f"no identity named {args.name!r}")
    _write(args.out, reports_to_json(reports) + "\n")
    if any(r.verdict == "mismatch" for r in reports):
        raise VerificationError("an asserted identity failed")
    return 0


def cmd_figures(args) -> int:
    from . import figures as figures_mod

    if args.figure == "all":
        ids = list(figures_mod.FIGURE_IDS)
    else:
        try:
            ids = [int(args.figure)]
        except ValueError as exc:
            raise UsageError(f"--figure must be 1..7 or 'all', got {args.figure!r}") from exc
    out_dir = Path(args.out_dir)
    manifest = []
    for figure_id in ids:
        try:
            data = figures_mod.figure_data(figure_id)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        entry = {
            "figure": figure_id,
            "title": data.title,
            "parameters": data.manifest,
            "panels": [],
        }
        for panel in data.panels:
            name = f"fig{figure_id}_{panel.name}.csv"
            write_atomic(out_dir / name, _render_csv(panel.header, panel.rows))
            entry["panels"].append({"name": panel.name, "file": name})
            print(out_dir / name)
        manifest.append(entry)
    write_atomic(out_dir / "manifest.json", json.dumps(manifest, indent=2) + "\n")
    print(out_dir / "manifest.json")
    return 0


# --------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="boltzgas",
        description="Exact occupation statistics of an isolated quantized ideal gas.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_output_flags(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", help="output path (atomic write); default stdout")

    p = sub.add_parser("microstates", help="total number of microstates")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=cmd_microstates)

    p = sub.add_parser("moments", help="exact occupation-number moments")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--levels", help="comma-separated levels (default: all)")
    p.add_argument("--order-max", type=int, default=4, dest="order_max")
    p.add_argument("--check-oracle", action="store_true", dest="check_oracle")
    add_output_flags(p)
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("pdf", help="exact occupation-number law at one level")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--compare-limit", action="store_true", dest="compare_limit")
    p.add_argument("--check-oracle", action="store_true", dest="check_oracle")
    add_output_flags(p)
    p.set_defaults(func=cmd_pdf)

    p = sub.add_parser("jointpdf", help="exact joint occupation law")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--levels", required=True, help="comma-separated ascending levels")
    p.add_argument("--counts", help="comma-separated counts for a single evaluation")
    p.add_argument("--check-oracle", action="store_true", dest="check_oracle")
    add_output_flags(p)
    p.set_defaults(func=cmd_jointpdf)

    p = sub.add_parser("covariance", help="limit-model mean vector and covariance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True, help="energy cutoff (matrix spans 0..M)")
    p.add_argument("--t", type=float, help="temperature (default M/N)")
    add_output_flags(p)
    p.set_defaults(func=cmd_covariance)

    p = sub.add_parser("fluctuation", help="total fluctuation ratio over a T grid")
    p.add_argument("--n", required=True, help="comma-separated particle counts")
    p.add_argument(
        "--t-grid", default="log:0.01:10000:181", dest="t_grid",
        help="log:START:STOP:COUNT or lin:START:STOP:COUNT",
    )
    add_output_flags(p)
    p.set_defaults(func=cmd_fluctuation)

    p = sub.add_parser("mc", help="Monte Carlo validation against exact moments")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--levels", help="comma-separated levels (default: 0..min(M,10))")
    add_output_flags(p)
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("identities", help="run the identity-check battery (JSON)")
    p.add_argument("--name", help="restrict to one identity name")
    p.add_argument("--out", help="output path (atomic write); default stdout")
    p.set_defaults(func=cmd_identities)

    p = sub.add_parser("figures", help="emit CSV curve data for the result figures")
    p.add_argument("--figure", required=True, help="figure id 1..7 or 'all'")
    p.add_argument("--out-dir", required=True, dest="out_dir")
    p.set_defaults(func=cmd_figures)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (VerificationError, AssertionError) as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
