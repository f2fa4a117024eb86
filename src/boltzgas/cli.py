"""Command-line surface: every computation as a subcommand emitting CSV/JSON.

Every ``cmd_*`` returns its output text and a failure message or None; only
``figures`` writes files of its own. ``main`` alone writes the text, to
--out (temp file plus rename) or to stdout, and then sets the exit code, so
the rows of a failed check are always written before it exits 2.

argparse parses every flag: each list, the T grid and the figure id have a
``type`` callable, so a malformed value fails as "error: argument --FLAG:
..." before any command runs, and each ``cmd_*`` receives parsed values.

Conventions: CSV always carries a header row, exact rationals are serialized
as "numerator/denominator" strings in full (past Python's 4300-digit default
for int <-> str), floats use 12 significant digits, and output is UTF-8 with
LF line endings. A ``moments`` table or a ``jointpdf`` lattice of more than
MAX_OUTPUT_ROWS rows is refused before any row is computed. Exit codes: 0 all
checks passed, 1 a usage or parameter-domain error (a ValueError, numeric
overflow from a huge --n and an unwritable output path included), 2 an
internal assertion or oracle comparison failed (an AssertionError).

The exact commands run on integers and Fractions alone, and the covariance
and fluctuation commands on Python floats. A call imports only what it runs:
the exact laws and the enumeration oracle at start, fluctuations inside
covariance and fluctuation, montecarlo and NumPy inside mc, the identity
battery (and statistics) inside identities, figures and NumPy inside figures.
json loads with JSON output (--format json, identities, the figures
manifest), and tempfile and pathlib only when a file is written (--out,
figures).
"""
from __future__ import annotations

import argparse
import csv
import io
import itertools
import math
import os
import sys
from fractions import Fraction

from .combinatorics import json_default, json_text
from .distributions import (
    joint_pdf_exact,
    occupation_pdf_binomial_limit,
    occupation_pdf_exact,
)
from .enumeration import oracle_joint_pdf, oracle_moment, oracle_pdf
from .moments import exact_moment
from .system import MAX_OUTPUT_ROWS, SystemParams, microstate_count


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


def _format_cell(value) -> str:
    if isinstance(value, Fraction):
        return json_default(value)
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def write_atomic(path, text: str) -> None:
    """Write text to ``path`` via a temp file in the same directory + rename."""
    import tempfile
    from pathlib import Path

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


def _render_table(header, rows, fmt="csv") -> str:
    """Rows under ``header`` as CSV text, or as a JSON list of records when ``fmt`` is "json"."""
    if fmt == "json":
        return json_text([dict(zip(header, row)) for row in rows]) + "\n"
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_format_cell(v) for v in row])
    return buffer.getvalue()


# Python's default int_max_str_digits; longer integer text is refused even with the cap lifted
_MAX_INT_CHARS = 4300


def _shown(text: str) -> str:
    """``text`` quoted for an error message, or only its length past _MAX_INT_CHARS."""
    return repr(text) if len(text) <= _MAX_INT_CHARS else f"<{len(text)} characters>"


def _parse_int(text: str) -> int:
    """int(text), the type of every integer flag and of each list element."""
    if len(text) <= _MAX_INT_CHARS:
        try:
            return int(text)
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {_shown(text)}")


def _parse_int_list(raw: str) -> list:
    """The integers of a comma-separated list, the type of every list flag."""
    try:
        return [_parse_int(part) for part in raw.split(",") if part.strip() != ""]
    except argparse.ArgumentTypeError as exc:
        raise argparse.ArgumentTypeError(f"expected a comma-separated integer list; {exc}") from None


def _parse_figure(raw: str):
    """'all' or one figure id, the type of --figure."""
    if raw == "all":
        return raw
    try:
        return _parse_int(raw)
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(f"expected 1..7 or 'all', got {_shown(raw)}") from None


def _parse_t_grid(raw: str) -> list:
    """The temperatures of a log:START:STOP:COUNT or lin:START:STOP:COUNT grid.

    Points follow NumPy's linspace rule, i * step + start with the last point
    exactly STOP; a log grid is 10.0 ** v over the linear grid of the log10
    bounds, as in NumPy's logspace.
    """
    parts = raw.split(":")
    if len(parts) != 4 or parts[0] not in ("log", "lin"):
        raise argparse.ArgumentTypeError(
            f"expected log:START:STOP:COUNT or lin:START:STOP:COUNT, got {_shown(raw)}"
        )
    try:
        start, stop, count = float(parts[1]), float(parts[2]), int(parts[3])
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad numbers in {_shown(raw)}") from None
    # written so that a NaN START or STOP fails too
    if not (0 < start < stop < math.inf and 2 <= count <= MAX_OUTPUT_ROWS):
        raise argparse.ArgumentTypeError(
            f"need 0 < START < STOP < inf and 2 <= COUNT <= {MAX_OUTPUT_ROWS}, got {_shown(raw)}"
        )
    if parts[0] == "log":
        start, stop = math.log10(start), math.log10(stop)
    div = count - 1
    delta = stop - start
    step = delta / div
    if step == 0:  # a subnormal delta, which NumPy scales in two steps
        grid = [i / div * delta + start for i in range(div)]
    else:
        grid = [i * step + start for i in range(div)]
    grid.append(stop)
    if parts[0] == "log":
        return [10.0 ** v for v in grid]
    return grid


# --------------------------------------------------------------------------
# subcommands: each returns (text, failure), failure a message or None

def cmd_microstates(args) -> tuple:
    return f"{microstate_count(SystemParams(args.n, args.m))}\n", None


def cmd_moments(args) -> tuple:
    params = SystemParams(args.n, args.m)
    if args.order_max < 0:
        raise ValueError(f"--order-max must be >= 0, got {args.order_max}")
    level_count = len(args.levels) if args.levels else params.level_count
    if level_count * (args.order_max + 1) > MAX_OUTPUT_ROWS:
        raise ValueError(f"the moments table would exceed {MAX_OUTPUT_ROWS} rows")
    levels = args.levels or range(level_count)
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
    failure = "closed-form moment disagrees with the enumeration oracle" if failed else None
    return _render_table(header, rows, args.format), failure


def cmd_pdf(args) -> tuple:
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
    failed = args.check_oracle and oracle_pdf(params, args.level) != table
    failure = "closed-form law disagrees with the enumeration oracle" if failed else None
    return _render_table(header, zip(*columns), args.format), failure


def cmd_jointpdf(args) -> tuple:
    params = SystemParams(args.n, args.m)
    arity = len(args.levels)
    header = [f"count_level_{j}" for j in args.levels] + ["exact", "value"]
    if args.counts:
        if len(args.counts) != arity:
            raise ValueError("--counts must match the number of levels")
        lattice = [args.counts]
    else:
        if arity > 3:
            raise ValueError("full lattice output is limited to 3 levels; pass --counts")
        if (params.n_particles + 1) ** arity > MAX_OUTPUT_ROWS:
            raise ValueError(f"the full lattice would exceed {MAX_OUTPUT_ROWS} points; pass --counts")
        lattice = itertools.product(range(params.n_particles + 1), repeat=arity)
    rows = []
    failed = False
    for counts in lattice:
        value = joint_pdf_exact(params, args.levels, counts)
        if args.check_oracle and value != oracle_joint_pdf(params, args.levels, counts):
            failed = True
        rows.append(list(counts) + [value, float(value)])
    failure = "closed-form joint law disagrees with the enumeration oracle" if failed else None
    return _render_table(header, rows, args.format), failure


def cmd_covariance(args) -> tuple:
    if args.n < 1:
        raise ValueError("need at least one particle")
    from .fluctuations import covariance_matrix, mean_vector

    temperature = args.t if args.t is not None else args.m / args.n
    rows = covariance_matrix(args.n, temperature, args.m)
    means = mean_vector(args.n, temperature, args.m)
    if args.format == "json":
        payload = {
            "n_particles": args.n,
            "temperature": temperature,
            "energy_cutoff": args.m,
            "means": means,
            "covariance": rows,
        }
        return json_text(payload) + "\n", None
    header = ["level_a", "level_b", "covariance"]
    cells = [(a, b, value) for a, row in enumerate(rows) for b, value in enumerate(row)]
    return _render_table(header, cells), None


def cmd_fluctuation(args) -> tuple:
    sizes = args.n
    if not sizes or any(n < 1 for n in sizes):
        raise ValueError("--n needs a comma-separated list of positive sizes")
    from .fluctuations import total_fluctuation_ratio

    header = ["temperature"] + [f"n_{n}" for n in sizes]
    rows = [[t] + [total_fluctuation_ratio(n, n * t) for n in sizes] for t in args.t_grid]
    return _render_table(header, rows, args.format), None


def cmd_mc(args) -> tuple:
    from .montecarlo import SamplerConfig, z_score_report

    params = SystemParams(args.n, args.m)
    config = SamplerConfig(params=params, sample_count=args.samples, seed=args.seed)
    levels = args.levels or range(min(params.energy_units, 10) + 1)
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
    header = ["level", "empirical_mean", "exact_mean", "std_error", "z", "status"]
    return _render_table(header, rows, args.format), None


def cmd_identities(args) -> tuple:
    from .identities import reports_to_json, run_standard_battery

    reports = run_standard_battery()
    if args.name:
        reports = [r for r in reports if r.name == args.name]
        if not reports:
            raise ValueError(f"no identity named {args.name!r}")
    failed = any(r.verdict == "mismatch" for r in reports)
    return reports_to_json(reports) + "\n", "an asserted identity failed" if failed else None


def cmd_figures(args) -> tuple:
    """Writes the panel CSVs and manifest.json under --out-dir; returns their paths."""
    from pathlib import Path

    from . import figures as figures_mod

    ids = list(figures_mod.FIGURE_IDS) if args.figure == "all" else [args.figure]
    out_dir = Path(args.out_dir)
    manifest = []
    paths = []
    for figure_id in ids:
        data = figures_mod.figure_data(figure_id)
        entry = {
            "figure": figure_id,
            "title": data.title,
            "parameters": data.manifest,
            "panels": [],
        }
        for panel in data.panels:
            name = f"fig{figure_id}_{panel.name}.csv"
            write_atomic(out_dir / name, _render_table(panel.header, panel.rows))
            entry["panels"].append({"name": panel.name, "file": name})
            paths.append(out_dir / name)
        manifest.append(entry)
    write_atomic(out_dir / "manifest.json", json_text(manifest) + "\n")
    paths.append(out_dir / "manifest.json")
    return "".join(f"{path}\n" for path in paths), None


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

    # the system size, shared by the commands that build a SystemParams
    system = argparse.ArgumentParser(add_help=False)
    system.add_argument("--n", type=_parse_int, required=True)
    system.add_argument("--m", type=_parse_int, required=True)

    p = sub.add_parser("microstates", parents=[system], help="total number of microstates")
    p.set_defaults(func=cmd_microstates)

    p = sub.add_parser("moments", parents=[system], help="exact occupation-number moments")
    p.add_argument("--levels", type=_parse_int_list, help="comma-separated levels (default: all)")
    p.add_argument("--order-max", type=_parse_int, default=4, dest="order_max")
    p.add_argument("--check-oracle", action="store_true", dest="check_oracle")
    add_output_flags(p)
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("pdf", parents=[system], help="exact occupation-number law at one level")
    p.add_argument("--level", type=_parse_int, required=True)
    p.add_argument("--compare-limit", action="store_true", dest="compare_limit")
    p.add_argument("--check-oracle", action="store_true", dest="check_oracle")
    add_output_flags(p)
    p.set_defaults(func=cmd_pdf)

    p = sub.add_parser("jointpdf", parents=[system], help="exact joint occupation law")
    p.add_argument("--levels", type=_parse_int_list, required=True, help="comma-separated ascending levels")
    p.add_argument("--counts", type=_parse_int_list, help="comma-separated counts for a single evaluation")
    p.add_argument("--check-oracle", action="store_true", dest="check_oracle")
    add_output_flags(p)
    p.set_defaults(func=cmd_jointpdf)

    p = sub.add_parser("covariance", help="limit-model mean vector and covariance")
    p.add_argument("--n", type=_parse_int, required=True)
    p.add_argument("--m", type=_parse_int, required=True, help="energy cutoff (matrix spans 0..M)")
    p.add_argument("--t", type=float, help="temperature (default M/N)")
    add_output_flags(p)
    p.set_defaults(func=cmd_covariance)

    p = sub.add_parser("fluctuation", help="total fluctuation ratio over a T grid")
    p.add_argument("--n", type=_parse_int_list, required=True, help="comma-separated particle counts")
    p.add_argument(
        "--t-grid", type=_parse_t_grid, default="log:0.01:10000:181", dest="t_grid",
        help="log:START:STOP:COUNT or lin:START:STOP:COUNT",
    )
    add_output_flags(p)
    p.set_defaults(func=cmd_fluctuation)

    p = sub.add_parser("mc", parents=[system], help="Monte Carlo validation against exact moments")
    p.add_argument("--samples", type=_parse_int, default=100_000)
    p.add_argument("--seed", type=_parse_int, default=42)
    p.add_argument("--levels", type=_parse_int_list, help="comma-separated levels (default: 0..min(M,10))")
    add_output_flags(p)
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("identities", help="run the identity-check battery (JSON)")
    p.add_argument("--name", help="restrict to one identity name")
    p.add_argument("--out", help="output path (atomic write); default stdout")
    p.set_defaults(func=cmd_identities)

    p = sub.add_parser("figures", help="emit CSV curve data for the result figures")
    p.add_argument("--figure", type=_parse_figure, required=True, help="figure id 1..7 or 'all'")
    p.add_argument("--out-dir", required=True, dest="out_dir")
    p.set_defaults(func=cmd_figures)

    return parser


def main(argv=None) -> int:
    """Run one subcommand: write its text to --out (atomically) or stdout, then its verdict."""
    parser = build_parser()
    # parsing keeps Python's digit cap (3.10.7 on); the output lifts it until main returns
    digit_limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    try:
        args = parser.parse_args(argv)
        if digit_limit is not None:
            sys.set_int_max_str_digits(0)
        text, failure = args.func(args)
        out = getattr(args, "out", None)
        if out:
            write_atomic(out, text)
        else:
            sys.stdout.write(text)
        if failure:
            raise AssertionError(failure)
        return 0
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 2
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
