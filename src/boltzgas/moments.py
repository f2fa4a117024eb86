"""Closed-form occupation-number moments and fluctuation measures.

Exact quantities are reduced rationals valid for any (N, M). The m-th moment
swaps the sums in sum_k k^m P(n_j = k): the weights A_q of
``power_of_sum_coefficient`` meet the forward differences of the powers
0^m, 1^m, ..., min(N, m)^m, refused first past the work budget of
``system.check_budget`` (README, "Limits"). The ``*_limit``
functions evaluate the large-system forms, which depend on the specific energy
T = M/N alone. The domain checks and the level probability p_j of that model
live here only; ``distributions`` and ``fluctuations`` use them too.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .combinatorics import power_of_sum_coefficient, weak_compositions
from .system import SystemParams, check_budget, integral_value, microstate_count


def check_particle_count(n_particles) -> int:
    """The particle count of a large-system model as a Python int, N >= 1."""
    return integral_value("n_particles", n_particles, 1)


def check_temperature(temperature) -> None:
    """Reject a temperature outside the large-system domain 0 < T < inf."""
    # written so that a NaN temperature fails too
    if not 0 < temperature < math.inf:
        raise ValueError(f"temperature must be positive and finite, got {temperature}")


def exact_moment(params: SystemParams, level: int, order: int) -> Fraction:
    """Exact m-th raw moment <n_j^m> of the occupation number at ``level``.

    A_q = C(N,q) W(M-qj, N-q), ``power_of_sum_coefficient`` at z^M u^q, sums
    C(n_j, q) over the microstates. Writing k^m = sum_q C(k, q) Delta^q[x^m](0)
    in sum_k k^m P(n_j = k) and swapping the sums gives

        C(M+N-1, N-1) <n_j^m> = sum_{q=1}^{min(N, m)} Delta^q[x^m](0) A_q,

    where Delta^q[x^m](0) = q! S(m, q) is the q-th forward difference of
    0^m, 1^m, 2^m, ... at 0; at m >= 1 the q = 0 term is 0^m = 0. The
    q = N term is nonzero only when N*j == M. The powers i^m, i = 0..min(N, m),
    are differenced in place with subtractions only: about min(N, m)^2 / 2
    subtractions of integers of m log2(min(N, m) + 1) bits, refused past the
    work budget before any power is built.
    """
    level = params.check_level(level)
    order = integral_value("order", order, 0)
    if order == 0:
        return Fraction(1)
    n, m_units, j = params.n_particles, params.energy_units, level
    top = min(n, order)
    bits = order * math.log2(top + 1)
    what = f"moment of N={n}, M={m_units}, level {j}, order {order}"
    check_budget(what, top + 1, (top + 1) * bits, top * top / 2 * bits / 64)
    differences = [i**order for i in range(top + 1)]
    for q in range(1, top + 1):
        for i in range(top, q - 1, -1):
            differences[i] -= differences[i - 1]
    total = sum(
        differences[q] * power_of_sum_coefficient(m_units, j, n, q) for q in range(1, top + 1)
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
    level = params.check_level(level)
    order = integral_value("order", order, 0)
    n, m_units, j = params.n_particles, params.energy_units, level
    numerator = weak_compositions(m_units - order * j, n - order)
    return Fraction(numerator, microstate_count(params))


def density_moment_limit(temperature, level: int, order: int = 1):
    """Thermodynamic-limit density moment p_j^m, with p_j = T^j / (T+1)^(j+1).

    The one place p_j is written directly; ``_log_level_probabilities`` holds
    its log form. A float or an exact rational temperature gives a result of
    its own type, so rational inputs give exact values. A float temperature so
    large that (T+1)^(j+1) leaves the float range is rejected.
    """
    check_temperature(temperature)
    level = integral_value("level", level, 0)
    order = integral_value("order", order, 0)
    try:
        base = temperature**level / (temperature + 1) ** (level + 1)
    except OverflowError:
        raise ValueError(
            f"p_j leaves the float range at temperature {temperature}, level {level}"
        ) from None
    return base**order


def _log_level_probabilities(temperature, count: int) -> list:
    """[log p_0, ..., log p_(count-1)] of the limit model at a checked temperature.

    The log form l*log(T/(T+1)) - log(1+T) of ``density_moment_limit``'s
    T^l/(T+1)^(l+1), whose T^l overflows at large levels.
    """
    t = float(temperature)
    log_norm = math.log1p(t)
    log_ratio = math.log(t) - log_norm
    return [l * log_ratio - log_norm for l in range(count)]


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
    n_particles = check_particle_count(n_particles)
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
    n_particles = check_particle_count(n_particles)
    level = integral_value("level", level, 0)
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
    n_particles = check_particle_count(n_particles)
    p = float(density_moment_limit(temperature, level))
    if p == 0.0:
        raise ValueError(f"p_j underflows to 0 at level={level}, T={temperature}")
    return math.sqrt((1.0 - p) / p) / math.sqrt(n_particles)


def max_variance_point(n_particles: int, level: int) -> tuple:
    """Temperature and size of the variance peak for a level j >= 1.

    Returns (T_star, x_max, sigma_sq_max): the limit variance of x_j over
    temperature peaks at T = j where the mean density is j^j/(j+1)^(j+1).
    """
    level = integral_value("level", level, 1)
    n_particles = check_particle_count(n_particles)
    x_max = density_moment_limit(level, level)
    return (float(level), x_max, x_max * (1.0 - x_max) / n_particles)
