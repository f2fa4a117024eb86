"""Vector-level fluctuation measures in the large-system multinomial model.

All quantities here live in the limit model where the occupation vector is
multinomial with per-level probabilities p_l = T^l/(T+1)^(l+1): the mean
vector, the covariance matrix, pairwise correlations, and the trace-based
total-fluctuation ratio with its low- and high-temperature branches.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def _check_args(n_particles, temperature, energy_cutoff):
    if n_particles < 1:
        raise ValueError(f"need at least one particle, got {n_particles}")
    # written so that a NaN temperature fails too
    if not 0 < temperature < math.inf:
        raise ValueError(f"temperature must be positive and finite, got {temperature}")
    if energy_cutoff < 0:
        raise ValueError(f"energy cutoff must be nonnegative, got {energy_cutoff}")


def _level_probabilities(temperature: float, energy_cutoff: int) -> np.ndarray:
    # p_l = (1/(T+1)) * (T/(T+1))^l, evaluated in log space for large cutoffs
    levels = np.arange(energy_cutoff + 1, dtype=np.float64)
    log_ratio = math.log(temperature) - math.log1p(temperature)
    return np.exp(levels * log_ratio - math.log1p(temperature))


def mean_vector(n_particles: int, temperature: float, energy_cutoff: int) -> np.ndarray:
    """Mean occupation numbers (N p_0, ..., N p_M) in the limit model."""
    _check_args(n_particles, temperature, energy_cutoff)
    return n_particles * _level_probabilities(float(temperature), energy_cutoff)


@dataclass(frozen=True)
class CovarianceMatrix:
    """Occupation-number covariance of the limit model.

    Diagonal N p_l (1 - p_l) > 0, off-diagonal -N p_l1 p_l2 < 0 (any two
    levels are anticorrelated); rows sum to N p_l (T/(T+1))^(M+1), which
    vanishes as the cutoff grows (the closed-population constraint).
    """

    n_particles: int
    temperature: float
    energy_cutoff: int
    entries: np.ndarray = field(repr=False)

    @property
    def dimension(self) -> int:
        return self.energy_cutoff + 1


def covariance_matrix(n_particles: int, temperature: float, energy_cutoff: int) -> CovarianceMatrix:
    """Covariance matrix of (n_0, ..., n_M) in the limit model."""
    _check_args(n_particles, temperature, energy_cutoff)
    p = _level_probabilities(float(temperature), energy_cutoff)
    entries = -n_particles * np.outer(p, p)
    entries[np.diag_indices_from(entries)] = n_particles * p * (1.0 - p)
    entries.setflags(write=False)
    return CovarianceMatrix(
        n_particles=n_particles,
        temperature=float(temperature),
        energy_cutoff=energy_cutoff,
        entries=entries,
    )


def pearson_correlation(temperature: float, level_a: int, level_b: int) -> float:
    """Correlation of the occupations of two distinct levels in the limit model.

    Always negative: -sqrt(p_a p_b / ((1-p_a)(1-p_b))). Behaves like
    -T^((a+b)/2) as T -> 0 (levels >= 1) and like -1/T as T -> infinity.
    The degenerate case level_a == level_b is excluded by contract.
    """
    if level_a == level_b:
        raise ValueError("correlation formula requires two distinct levels")
    if min(level_a, level_b) < 0:
        raise ValueError("levels must be nonnegative")
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    t = float(temperature)
    pa = t**level_a / (t + 1) ** (level_a + 1)
    pb = t**level_b / (t + 1) ** (level_b + 1)
    return -math.sqrt(pa * pb / ((1.0 - pa) * (1.0 - pb)))


def total_fluctuation_ratio(n_particles: int, energy_units) -> float:
    """Root-trace of the covariance over the L1 norm of the mean vector.

    With x = T/(T+1) and T = M/N the closed form is

        sqrt(x/(1+x)) * sqrt(2 - x^M - x^(M+1) + x^(2M+1) - x^(2M+2))
        / (sqrt(N) * (1 - x^(M+1))).

    Behaves like sqrt(T/N) as T -> 0 and saturates at
    1/sqrt(N (1 - e^(-N))) as T -> infinity. ``energy_units`` may be
    non-integral (temperature sweeps treat M = N*T as continuous); powers
    of x near 1 are evaluated through expm1/log1p so the high-T plateau
    survives very large M.
    """
    if n_particles < 1:
        raise ValueError(f"need at least one particle, got {n_particles}")
    m = float(energy_units)
    if m < 0:
        raise ValueError(f"energy must be nonnegative, got {energy_units}")
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
