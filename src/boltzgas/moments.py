"""Closed-form occupation-number moments and fluctuation measures.

Exact quantities are reduced rationals valid for any (N, M); the ``*_limit``
functions evaluate the large-system forms, which depend on the specific energy
T = M/N alone. The domain checks and the level probability p_j of that model
live here only; ``distributions`` and ``fluctuations`` use them too.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .combinatorics import power_of_sum_coefficient, triangle_coefficient, weak_compositions
from .system import SystemParams, microstate_count

BOLTZMANN_CONSTANT = 1.380649e-23  # J/K, exact SI value


def check_particle_count(n_particles) -> None:
    """Reject a large-system model without particles."""
    if n_particles < 1:
        raise ValueError(f"need at least one particle, got {n_particles}")


def check_temperature(temperature) -> None:
    """Reject a temperature outside the large-system domain 0 < T < inf."""
    # written so that a NaN temperature fails too
    if not 0 < temperature < math.inf:
        raise ValueError(f"temperature must be positive and finite, got {temperature}")


def exact_moment(params: SystemParams, level: int, order: int) -> Fraction:
    """Exact m-th raw moment <n_j^m> of the occupation number at ``level``.

    Evaluates the finite alternating-free sum

        sum_{q=1}^{min(N, m)} a_q^(m) q! A_q,   A_q = C(N,q) W(M-qj, N-q),

    normalized by C(M+N-1, N-1), where a_q^(m) are the coefficient-triangle
    entries and A_q is ``power_of_sum_coefficient`` at z^M u^q: the weak
    compositions W of the leftover energy times the ways to pick the q
    particles. The q = N term is nonzero only when N*j == M, i.e. all N
    particles can sit on the requested level.
    """
    params.check_level(level)
    if order < 0:
        raise ValueError(f"moment order must be nonnegative, got {order}")
    if order == 0:
        return Fraction(1)
    n, m_units, j = params.n_particles, params.energy_units, level
    total = sum(
        triangle_coefficient(q, order)
        * math.factorial(q)
        * power_of_sum_coefficient(m_units, j, n, q)
        for q in range(1, min(n, order) + 1)
    )
    return Fraction(total, microstate_count(params))


def density_moment_factorized(params: SystemParams, level: int, order: int) -> Fraction:
    """Leading-order m-th moment of the occupation density x_j = n_j / N.

    Returns W(M-mj, N-m) / C(M+N-1, N-1) exactly, where W counts the weak
    compositions of the residual energy M-mj into the N-m remaining particles;
    the dropped remainder is O(1/N). At m == N the numerator is the indicator
    of mj == M, which keeps the mean densities summing to 1 down to N = 1.
    For order 1 the value is the exact mean density.
    """
    params.check_level(level)
    if order < 0:
        raise ValueError(f"moment order must be nonnegative, got {order}")
    n, m_units, j = params.n_particles, params.energy_units, level
    numerator = weak_compositions(m_units - order * j, n - order)
    return Fraction(numerator, microstate_count(params))


def density_moment_limit(temperature, level: int, order: int = 1):
    """Thermodynamic-limit density moment p_j^m, with p_j = T^j / (T+1)^(j+1).

    The one place p_j is written. A float or an exact rational temperature gives
    a result of its own type, so rational inputs give exact values.
    """
    check_temperature(temperature)
    if level < 0 or order < 0:
        raise ValueError("level and order must be nonnegative")
    base = temperature**level / (temperature + 1) ** (level + 1)
    return base**order


def variance_exact(params: SystemParams, level: int) -> Fraction:
    """Exact variance of the occupation density x_j = n_j / N.

    (<n_j^2> - <n_j>^2) / N^2 from ``exact_moment``, so it equals the
    enumeration variance for every valid (N, M, j).
    """
    mean = exact_moment(params, level, 1)
    return (exact_moment(params, level, 2) - mean * mean) / params.n_particles**2


def variance_limit(n_particles: int, temperature, level: int):
    """Independent-particle variance of x_j: p(1-p)/N with p the limit mean density.

    This is the paper's large-system variance, that of Binomial(N, p)/N. It is
    the limit of ``variance_exact`` only at level j = T: fixing the total energy
    narrows every other level, and ``conditioned_variance_limit`` is the limit
    of the exact variance. A Fraction temperature gives an exact result.
    """
    check_particle_count(n_particles)
    p = density_moment_limit(temperature, level)
    if not isinstance(p, Fraction):
        p = float(p)
    return p * (1 - p) / n_particles


def conditioned_variance_limit(n_particles: int, temperature, level: int):
    """Large-system variance of x_j at fixed total energy: sigma_c^2 / N.

    sigma_c^2 = p(1-p) - p^2 (j-T)^2 / (T(T+1)), with p = T^j/(T+1)^(j+1), is
    the independent-particle variance less the part of n_j that moves with the
    energy (Lebowitz, Percus & Verlet, Phys. Rev. 153, 250 (1967)). N times
    ``variance_exact`` tends to it at every level; it is T/(T+1) times
    ``variance_limit`` at j = 0 and equals it at j = T.

    Evaluated in exact arithmetic, because at level 0 and small T the two terms
    nearly cancel. A Fraction temperature gives the exact result; any other
    gives it rounded to a float.
    """
    check_particle_count(n_particles)
    check_temperature(temperature)
    t = Fraction(temperature)
    p = density_moment_limit(t, level)
    value = (p * (1 - p) - p * p * (level - t) ** 2 / (t * (t + 1))) / n_particles
    return value if isinstance(temperature, Fraction) else float(value)


def std_over_mean(n_particles: int, temperature, level: int) -> float:
    """Relative fluctuation sqrt((1-p)/p)/sqrt(N) of the occupation density.

    Diverges like T^(-j/2)/sqrt(N) as T -> 0 (for j >= 1) and like
    sqrt(T/N) as T -> infinity.
    """
    check_particle_count(n_particles)
    p = float(density_moment_limit(temperature, level))
    return math.sqrt((1.0 - p) / p) / math.sqrt(n_particles)


def max_variance_point(n_particles: int, level: int) -> tuple:
    """Temperature and size of the variance peak for a level j >= 1.

    Returns (T_star, x_max, sigma_sq_max): the limit variance of x_j over
    temperature peaks at T = j where the mean density is j^j/(j+1)^(j+1).
    """
    if level < 1:
        raise ValueError(f"the variance peak is defined for levels >= 1, got {level}")
    check_particle_count(n_particles)
    x_max = density_moment_limit(level, level)
    return (float(level), x_max, x_max * (1.0 - x_max) / n_particles)


def physical_temperature(params: SystemParams, epsilon_joules: float) -> float:
    """Absolute temperature in kelvin for a given level spacing in joules.

    Uses the ideal-gas relation E = (3/2) N k_B T_abs = M * epsilon, i.e.
    T_abs = (2 epsilon / 3 k_B) * (M/N).
    """
    if epsilon_joules <= 0:
        raise ValueError(f"level spacing must be positive, got {epsilon_joules}")
    return (2.0 * epsilon_joules / (3.0 * BOLTZMANN_CONSTANT)) * float(params.temperature)
