"""Curve data behind the library's standard result plots.

Each figure builder returns a FigureData object: named panels of (header,
rows) plus a manifest describing parameters, so callers can write CSVs or
plot directly. Values are floats; exact quantities are converted after the
exact computation finishes. Figures 3-5 read the exact laws as integer
numerators over C(M+N-1, N-1) (figure 5 through the public
``occupation_pdf_window``) and take each float as numerator / denominator,
which Python rounds correctly, so no Fraction is built; their cost is the
Taylor shift of each law (see ``distributions._pdf_numerators``).
"""
from __future__ import annotations

import math
import warnings
from functools import partial
from typing import NamedTuple

import numpy as np

from .distributions import (
    LimitValidityWarning,
    occupation_pdf_binomial_limit,
    occupation_pdf_exact,
    occupation_pdf_normal_limit,
    occupation_pdf_window,
)
from .combinatorics import integral_value
from .fluctuations import pearson_correlation, total_fluctuation_ratio
from .moments import density_moment_limit, std_over_mean, variance_limit
from .system import SystemParams


class Panel(NamedTuple):
    name: str
    header: tuple
    rows: tuple


class FigureData(NamedTuple):
    figure_id: int
    title: str
    panels: tuple
    manifest: dict


def figure_relative_std() -> FigureData:
    """Relative fluctuation of each level's density over temperature (figure 1)."""
    grid = np.logspace(-3, 3, 121)
    sizes = (10, 100, 1_000, 10_000, 100_000)
    levels = range(6)
    panels = []
    for n in sizes:
        rows = tuple(
            (t,) + tuple(std_over_mean(n, t, j) for j in levels) for t in grid
        )
        header = ("temperature",) + tuple(f"level_{j}" for j in levels)
        panels.append(Panel(f"n{n}", header, rows))
    manifest = {
        "quantity": "std of occupation density over its mean",
        "n_particles": list(sizes),
        "levels": list(levels),
        "temperature_grid": "logspace(-3, 3, 121)",
    }
    return FigureData(1, "relative occupation fluctuations", tuple(panels), manifest)


def figure_mean_vs_std() -> FigureData:
    """Mean density of level 1 with its standard deviation (figure 2)."""
    grid = np.logspace(-3, 3, 121)
    panels = []
    for n in (10, 100):
        rows = tuple(
            (t, density_moment_limit(t, 1), math.sqrt(variance_limit(n, t, 1)))
            for t in grid
        )
        panels.append(Panel(f"n{n}", ("temperature", "mean_density", "std_density"), rows))
    manifest = {
        "quantity": "limit mean density of level 1 and its standard deviation",
        "n_particles": [10, 100],
        "temperature_grid": "logspace(-3, 3, 121)",
    }
    return FigureData(2, "level-1 mean density vs its fluctuation", tuple(panels), manifest)


def figure_exact_vs_limit(figure_id: int, n_particles: int) -> FigureData:
    """Exact vs limit occupation laws at N = ``n_particles`` (figure 3 at N=50, figure 4 at N=100)."""
    temperatures = (1, 2, 3, 4)
    levels = (0, 1, 2, 3)
    panels = []
    for t in temperatures:
        params = SystemParams(n_particles, n_particles * t)
        exact = [occupation_pdf_exact(params, j).as_floats() for j in levels]
        with warnings.catch_warnings():
            # limit curves for level >= T are plotted anyway, outside validity
            warnings.simplefilter("ignore", LimitValidityWarning)
            limit = [
                occupation_pdf_binomial_limit(n_particles, t, j).probabilities
                for j in levels
            ]
        header = (
            ("count",)
            + tuple(f"exact_level_{j}" for j in levels)
            + tuple(f"limit_level_{j}" for j in levels)
        )
        rows = tuple(
            (k,)
            + tuple(exact[i][k] for i in range(len(levels)))
            + tuple(limit[i][k] for i in range(len(levels)))
            for k in range(n_particles + 1)
        )
        panels.append(Panel(f"t{t}", header, rows))
    manifest = {
        "quantity": "exact occupation law vs its binomial limit",
        "n_particles": n_particles,
        "temperatures": list(temperatures),
        "levels": list(levels),
        "note": "limit columns for level >= T fall outside the limit's stated validity",
    }
    return FigureData(figure_id, f"exact vs limit occupation laws, N={n_particles}", tuple(panels), manifest)


def figure_high_temperature_spread() -> FigureData:
    """Exact law of the level-1 occupation at high temperatures (figure 5).

    Long-format panels per temperature: (n_particles, count, probability),
    with counts restricted to a 12-sigma window around the limit mean (the
    exact law is narrower, so the window loses no visible mass).
    """
    temperatures = (10, 20, 50, 100)
    sizes = (16, 64, 256, 1024)
    level = 1
    panels = []
    for t in temperatures:
        rows = []
        for n in sizes:
            params = SystemParams(n, n * t)
            limit = occupation_pdf_normal_limit(n, t, level)
            sigma = math.sqrt(limit.variance)
            lo = int(limit.mean - 12.0 * sigma)
            hi = int(math.ceil(limit.mean + 12.0 * sigma))
            counts, numerators, total = occupation_pdf_window(params, level, lo, hi)
            rows.extend((n, k, v / total) for k, v in zip(counts, numerators))
        panels.append(Panel(f"t{t}", ("n_particles", "count", "probability"), tuple(rows)))
    manifest = {
        "quantity": "exact occupation law of level 1 at high temperature",
        "n_particles": list(sizes),
        "temperatures": list(temperatures),
        "level": level,
        "count_window": "limit mean +/- 12 limit standard deviations",
    }
    return FigureData(5, "level-1 occupation laws at high temperature", tuple(panels), manifest)


def figure_correlations() -> FigureData:
    """Correlation magnitude between level pairs over temperature (figure 6)."""
    grid = np.logspace(-3, 3, 121)
    partners = range(6)
    panels = []
    for j in (1, 2, 3, 4):
        others = [i for i in partners if i != j]
        header = ("temperature",) + tuple(f"abs_corr_level_{i}" for i in others)
        rows = tuple(
            (t,) + tuple(abs(pearson_correlation(t, i, j)) for i in others)
            for t in grid
        )
        panels.append(Panel(f"j{j}", header, rows))
    manifest = {
        "quantity": "absolute occupation-number correlation of level pairs",
        "levels": [1, 2, 3, 4],
        "partner_levels": list(partners),
        "temperature_grid": "logspace(-3, 3, 121)",
    }
    return FigureData(6, "pairwise occupation correlations", tuple(panels), manifest)


def figure_total_fluctuation() -> FigureData:
    """Total fluctuation ratio over temperature for several sizes (figure 7)."""
    grid = np.logspace(-2, 4, 181)
    sizes = (10, 30, 50, 70, 90)
    header = ("temperature",) + tuple(f"n_{n}" for n in sizes)
    rows = tuple(
        (t,) + tuple(total_fluctuation_ratio(n, n * t) for n in sizes) for t in grid
    )
    manifest = {
        "quantity": "root-trace of the covariance over the L1 norm of the mean",
        "n_particles": list(sizes),
        "temperature_grid": "logspace(-2, 4, 181)",
    }
    return FigureData(7, "total fluctuation ratio", (Panel("all", header, rows),), manifest)


_BUILDERS = {
    1: figure_relative_std,
    2: figure_mean_vs_std,
    3: partial(figure_exact_vs_limit, 3, 50),
    4: partial(figure_exact_vs_limit, 4, 100),
    5: figure_high_temperature_spread,
    6: figure_correlations,
    7: figure_total_fluctuation,
}
FIGURE_IDS = tuple(_BUILDERS)


def figure_data(figure_id: int) -> FigureData:
    """Build the curve data for one figure id (1..7)."""
    try:
        builder = _BUILDERS[integral_value("figure_id", figure_id)]
    except KeyError:
        raise ValueError(f"figure id must be one of {sorted(_BUILDERS)}, got {figure_id}")
    return builder()
