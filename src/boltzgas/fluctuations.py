"""Vector-level fluctuation measures in the large-system multinomial model.

All quantities here live in the limit model where the occupation vector is
multinomial with per-level probabilities p_l = T^l/(T+1)^(l+1): the mean
vector, the covariance matrix, pairwise correlations, and the trace-based
total-fluctuation ratio with its low- and high-temperature branches. The
domain checks and p_l, in its direct and its log form, live in ``moments``.
Vectors are tuples of floats and matrices tuples of row tuples, so the module
runs without NumPy.
"""
from __future__ import annotations

import math

from .combinatorics import integral_value
from .moments import (
    _log_level_probabilities,
    check_particle_count,
    check_temperature,
    density_moment_limit,
)
from .system import check_budget


def _level_probabilities(n_particles, temperature, energy_cutoff, rank: int) -> tuple:
    """Checked (N, (p_0, ..., p_M)) of the limit model for N particles at temperature T.

    ``rank`` is 1 for a vector over the levels and 2 for a matrix, of
    (M+1)**rank entries under the work budget of ``system.check_budget``.
    """
    n_particles = check_particle_count(n_particles)
    check_temperature(temperature)
    energy_cutoff = integral_value("energy_cutoff", energy_cutoff, 0)
    check_budget(f"energy_cutoff {energy_cutoff}", (energy_cutoff + 1) ** rank)
    p = tuple(math.exp(v) for v in _log_level_probabilities(temperature, energy_cutoff + 1))
    return n_particles, p


def mean_vector(n_particles: int, temperature: float, energy_cutoff: int) -> tuple:
    """Mean occupation numbers (N p_0, ..., N p_M) in the limit model, a tuple of floats."""
    n_particles, p = _level_probabilities(n_particles, temperature, energy_cutoff, 1)
    return tuple(n_particles * a for a in p)


def covariance_matrix(n_particles: int, temperature: float, energy_cutoff: int) -> tuple:
    """Covariance of (n_0, ..., n_M) in the limit model, a tuple of M+1 row tuples of floats.

    Diagonal N p_l (1 - p_l) > 0, off-diagonal -N p_l1 p_l2 < 0 (any two
    levels are anticorrelated); rows sum to N p_l (T/(T+1))^(M+1), which
    vanishes as the cutoff grows (the closed-population constraint).
    """
    n_particles, p = _level_probabilities(n_particles, temperature, energy_cutoff, 2)
    # the float operations, in order, of -N outer(p, p) with N p (1 - p) on the diagonal
    return tuple(
        tuple(
            n_particles * a * (1.0 - a) if i == j else -n_particles * (a * b)
            for j, b in enumerate(p)
        )
        for i, a in enumerate(p)
    )


def pearson_correlation(temperature: float, level_a: int, level_b: int) -> float:
    """Correlation of the occupations of two distinct levels in the limit model.

    Always negative: -sqrt(p_a p_b / ((1-p_a)(1-p_b))). Behaves like
    -T^((a+b)/2) as T -> 0 (levels >= 1) and like -1/T as T -> infinity.
    The degenerate case level_a == level_b is excluded by contract.
    """
    level_a = integral_value("level_a", level_a, 0)
    level_b = integral_value("level_b", level_b, 0)
    if level_a == level_b:
        raise ValueError("correlation formula requires two distinct levels")
    pa, pb = (density_moment_limit(float(temperature), level) for level in (level_a, level_b))
    return -math.sqrt(pa * pb / ((1.0 - pa) * (1.0 - pb)))


def total_fluctuation_ratio(n_particles: int, energy_units) -> float:
    """Root-trace of the covariance over the L1 norm of the mean vector.

    This is the independent-particle (multinomial) value, not the exact ratio,
    which fixing the total energy makes smaller. With x = T/(T+1) and T = M/N
    the closed form is

        sqrt(x/(1+x)) * sqrt(2 - x^M - x^(M+1) + x^(2M+1) - x^(2M+2))
        / (sqrt(N) * (1 - x^(M+1))).

    Behaves like sqrt(T/N) as T -> 0 (the exact ratio goes like T/sqrt(N)) and
    saturates at 1/sqrt(N (1 - e^(-N))) as T -> infinity. ``energy_units``
    may be non-integral (temperature sweeps treat M = N*T as continuous);
    powers of x near 1 are evaluated through expm1/log1p so the high-T
    plateau survives very large M.
    """
    n_particles = check_particle_count(n_particles)
    m = float(energy_units)
    # written so that a NaN energy fails too
    if not 0 <= m < math.inf:
        raise ValueError(f"energy must be nonnegative and finite, got {energy_units}")
    if m == 0.0:
        return 0.0
    t = m / n_particles
    log_x = -math.log1p(1.0 / t)
    x = math.exp(log_x)
    x_m = math.exp(m * log_x)
    x_m1 = math.exp((m + 1.0) * log_x)
    x_2m1 = math.exp((2.0 * m + 1.0) * log_x)
    x_2m2 = math.exp((2.0 * m + 2.0) * log_x)
    poly = 2.0 - x_m - x_m1 + x_2m1 - x_2m2
    one_minus_x_m1 = -math.expm1((m + 1.0) * log_x)
    return math.sqrt(x / (1.0 + x)) * math.sqrt(poly) / (math.sqrt(n_particles) * one_minus_x_m1)
