"""Occupation-number distributions: exact finite-size laws and their limits.

The exact univariate and joint laws are alternating sums of products of
binomial coefficients, evaluated in integer arithmetic and normalized once at
the end, so cancellation is never an issue. A 1-D law is integer numerators
over C(M+N-1, N-1), read through one entry point, ``occupation_pdf_window``;
the joint law inverts a table of binomial moments, one entry per count vector
of ``system.fitting_vectors``, and the numerators of its whole count lattice,
read through ``joint_pdf_lattice`` alone, are the 1-D law's Taylor shift of it.
Each is refused before it is built past the work budget of
``system.check_budget`` (README, "Limits"). The limit laws (binomial, normal,
energy-conditioned normal, multinomial) depend on the specific energy T alone
and are evaluated in log space to stay finite at large N.
"""
from __future__ import annotations

import math
import warnings
from fractions import Fraction

from .combinatorics import _binomial, integral_value, multinomial_weight, power_of_sum_row
from .moments import (
    _log_level_probabilities,
    check_particle_count,
    check_temperature,
    conditioned_variance_limit,
    density_moment_limit,
)
from .system import (
    _LIMIT_SUM_TOLERANCE,
    DistributionTable,
    SystemParams,
    _Value,
    as_occupation,
    check_budget,
    entry_bits,
    fitting_vector_count,
    fitting_vectors,
    microstate_count,
    normalize_selection,
    one_slot_cache,
)


class LimitValidityWarning(UserWarning):
    """A limit law was requested outside its stated range of validity."""


def _pdf_numerators(n: int, m: int, level: int, top: int) -> list:
    """Integer numerators of P(n_level = k), k = 0..top, over C(M+N-1, N-1).

    The weight row A_0..A_N, the z^M u^q coefficients at ``level``, comes from
    ``power_of_sum_row``: one binomial and two big-integer operations per entry.
    The numerator of count k is sum_{q >= k} (-1)^(q-k) C(q, k) A_q, the y^k
    coefficient of sum_q A_q (y - 1)^q: ``_taylor_shift`` over the support
    s = min(N, M // j) (N at level 0), for 0 <= top <= N, where the time goes.
    """
    a = power_of_sum_row(m, level, n)
    _taylor_shift(a, min(n, m // level) if level else n, top)
    return a[: top + 1]


def _taylor_shift(a: list, support: int, top: int) -> None:
    """The coefficients a of p(y) become those of p(y - 1) in place, through entry ``top`` (Ruffini-Horner).

    The one transform kernel of the 1-D law and the joint lattice. ``a`` is 0
    past ``support`` and holds at least support + 1 entries. Pass i touches
    entries i..support-1 alone, so entry k is final once pass k ends: about
    (top + 1) support integer subtractions, support (support + 1) / 2 for all.
    """
    for i in range(min(top, support - 1) + 1):
        for j in range(support - 1, i - 1, -1):
            a[j] -= a[j + 1]


def occupation_pdf_window(params: SystemParams, level: int, lo: int, hi: int) -> tuple:
    """(counts, numerators, denominator): the exact law on the count window lo..hi.

    P(n_level = counts[i]) = numerators[i] / denominator, over C(M+N-1, N-1).
    Fraction(v, denominator) is the exact value and v / denominator its
    correctly rounded float. The window is clamped to 0..N, an empty one
    returns empty lists without a shift, and its mass need not sum to 1. It
    costs the shift of ``_pdf_numerators`` to ``hi`` over the support
    s = min(N, M // j) (N at level 0) of the level's N+1 weights: refused
    before the first is built past N+1 entries, s+1 entries of ``entry_bits``
    or (min(hi, s) + 1)(s + 1) subtractions of them (README, "Limits").
    """
    level = params.check_level(level)
    n, m = params.n_particles, params.energy_units
    lo = max(0, integral_value("lo", lo))
    hi = min(n, integral_value("hi", hi))
    support = min(n, m // level) if level else n
    bits = (support + 1) * entry_bits(n, m, 1)
    passes = min(hi, support) + 1 if lo <= hi else 0
    check_budget(f"law of N={n}, M={m}, level {level}", n + 1, bits, passes * bits / 64)
    total = microstate_count(params)
    if hi < lo:
        return [], [], total
    return list(range(lo, hi + 1)), _pdf_numerators(n, m, level, hi)[lo:], total


def occupation_pdf_exact(params: SystemParams, level: int) -> DistributionTable:
    """Exact law of the occupation number at ``level``: P(n_j = k) for k = 0..N.

    Held as integer numerators over C(M+N-1, N-1), so it costs the full shift
    of ``_pdf_numerators`` (s^2 / 2 subtractions over the support s) and no
    Fraction until one is read.
    """
    _, numerators, total = occupation_pdf_window(params, level, 0, params.n_particles)
    return DistributionTable.from_numerators(numerators, total)


def _multinomial_log_pmf(n: int, counts, log_probs) -> float:
    """log(n!/prod(c!) prod(p^c)) at ``counts`` summing to n: the limit laws' one log-factorial.

    Summed left to right: log n!, then each -log c!, then each c log p.
    """
    log_prob = math.lgamma(n + 1)
    for c in counts:
        log_prob -= math.lgamma(c + 1)
    for c, log_p in zip(counts, log_probs):
        log_prob += c * log_p
    return log_prob


def _success_probability(n_particles: int, temperature, level: int) -> tuple:
    """Checked (N, p), p = T^j/(T+1)^(j+1), for a limit law over the counts 0..N.

    Warns on behalf of the public law that calls it when level >= T, once T is valid.
    """
    n_particles = check_particle_count(n_particles)
    level = integral_value("level", level, 0)
    check_temperature(temperature)
    if level >= temperature:
        warnings.warn(
            f"the limit law is only valid for level < T; got level={level}, T={temperature}",
            LimitValidityWarning,
            stacklevel=3,
        )
    p = float(density_moment_limit(temperature, level))
    if p <= 0.0 or p >= 1.0:
        raise ValueError(f"success probability degenerate for level={level}, T={temperature}")
    return n_particles, p


def occupation_pdf_binomial_limit(n_particles: int, temperature, level: int) -> DistributionTable:
    """Independent-particle law of the occupation number: Binomial(N, p), p = T^j/(T+1)^(j+1).

    This is the paper's large-system law. It treats the particles as
    independent, so it ignores that the total energy is fixed: it is the limit
    of the exact law only at level j = T, and elsewhere stays wider than it for
    every N. ``occupation_pdf_conditioned_limit`` is the limit of the exact law.

    Warns (not errors) when level >= T, where the limit is outside its stated
    validity; the exact law remains the source of truth there.

    The rounding error of log N! is common to every term, so from N ~ 1000 the
    terms sum to 1 only within more than 1e-12; such a table is divided by its
    ``math.fsum``. A table that sums to 1 within 1e-12 keeps its terms as they are.
    """
    n_particles, p = _success_probability(n_particles, temperature, level)
    log_probs = (math.log(p), math.log1p(-p))
    probs = tuple(
        math.exp(_multinomial_log_pmf(n_particles, (k, n_particles - k), log_probs))
        for k in range(n_particles + 1)
    )
    total = math.fsum(probs)
    if not abs(total - 1.0) <= _LIMIT_SUM_TOLERANCE:
        probs = tuple(w / total for w in probs)
    return DistributionTable(probs, "limit")


def occupation_pdf_conditioned_limit(
    n_particles: int, temperature, level: int
) -> DistributionTable:
    """Large-system limit of the exact occupation law, at fixed total energy.

    A normal law with mean N p and variance N sigma_c^2 (see
    ``conditioned_variance_limit``), evaluated at the counts 0..N and
    normalized. Validates and warns as the binomial limit does, and also
    raises when the variance underflows to 0 (far outside validity, T ~ 1e-170).
    """
    n_particles, p = _success_probability(n_particles, temperature, level)
    mean = n_particles * p
    variance = n_particles**2 * float(conditioned_variance_limit(n_particles, temperature, level))
    if variance <= 0.0:
        raise ValueError(f"limit variance underflows for level={level}, T={temperature}")
    exponents = [-((k - mean) ** 2) / (2.0 * variance) for k in range(n_particles + 1)]
    top = max(exponents)
    weights = [math.exp(e - top) for e in exponents]
    total = math.fsum(weights)
    probs = tuple(w / total for w in weights)
    return DistributionTable(probs, "limit")


class NormalApproximation(_Value):
    """Gaussian density callable with the moments of the binomial limit law."""

    _fields = ("mean", "variance")

    def __init__(self, mean: float, variance: float):
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "variance", variance)

    def __call__(self, x: float) -> float:
        return math.exp(-((x - self.mean) ** 2) / (2.0 * self.variance)) / math.sqrt(
            2.0 * math.pi * self.variance
        )


def occupation_pdf_normal_limit(n_particles: int, temperature, level: int) -> NormalApproximation:
    """Normal approximation N(Np, Np(1-p)) to the independent-particle binomial law.

    Like that law, it is the limit of the exact law only at level j = T; the
    exact law converges to ``occupation_pdf_conditioned_limit``, whose
    variance is smaller by the part that moves with the fixed total energy.
    """
    n_particles, p = _success_probability(n_particles, temperature, level)
    return NormalApproximation(mean=n_particles * p, variance=n_particles * p * (1.0 - p))


@one_slot_cache  # every caller reads one table at a time; a table may hold a million entries
def _joint_term_table(n: int, m: int, levels: tuple) -> tuple:
    """Nonzero binomial moments B[r] of the occupations at ``levels``, as (r, B[r]) pairs.

    B[r] is the z^M prod_s u_s^(r_s) coefficient of
    ((1 - z^(M+1))/(1 - z) + sum_s z^(j_s) u_s)^N, namely
    N!/(prod_s r_s! (N - |r|)!) W(M - r.j, N - |r|), so B[r] / C(M+N-1, N-1) is
    the joint binomial moment E[prod_s C(n_(j_s), r_s)]. It is the one-level
    weight row of the last level, ``power_of_sum_row``, times the multinomial
    weight of each fitting prefix on the levels before it; r runs in
    lexicographic order. Raises ValueError, before any entry is built, past
    the work budget on the ``fitting_vector_count`` entries of ``entry_bits``.
    """
    count = fitting_vector_count(n, m, levels)
    law = f"joint law of N={n}, M={m}, levels {list(levels)}"
    check_budget(law, count, count * entry_bits(n, m, len(levels)))
    *head, last = levels
    terms = []
    for prefix, particles, quanta in fitting_vectors(n, m, head):
        weight = multinomial_weight(prefix + (particles,))
        row = power_of_sum_row(quanta, last, particles)
        terms.extend((prefix + (q,), weight * entry) for q, entry in enumerate(row) if entry)
    return tuple(terms)


def _joint_numerator(table: tuple, counts: tuple) -> int:
    """Numerator over C(M+N-1, N-1) of the joint law at ``counts``, given in the table's level order.

    Inverts the binomial moments B[r] of the table: the numerator is
    sum_r (-1)^(|r| - |c|) prod_s C(r_s, c_s) B[r], a read of every entry.
    """
    count_sum = sum(counts)
    numerator = 0
    for comp, weight in table:
        factor = 1
        for mi, ci in zip(comp, counts):
            if ci > mi:
                factor = 0
                break
            factor *= _binomial(mi, ci)
        if factor == 0:
            continue
        if (sum(comp) - count_sum) % 2:
            factor = -factor
        numerator += weight * factor
    return numerator


def joint_pdf_exact(params: SystemParams, levels, counts) -> Fraction:
    """Exact probability that the occupation at levels[s] equals counts[s] for all s.

    One inversion of the binomial moments of ``_joint_term_table``, over
    C(M+N-1, N-1): a read of each entry, where a lattice's shift costs about
    N per entry. Impossible joint events return 0.
    """
    levels, counts = normalize_selection(params, levels, counts)
    table = _joint_term_table(params.n_particles, params.energy_units, levels)
    return Fraction(_joint_numerator(table, counts), microstate_count(params))


def joint_pdf_lattice(params: SystemParams, levels) -> tuple:
    """(numerators, denominator): the exact joint law at every point of its count lattice.

    The points run over 0..N at each of ``levels``, in ``itertools.product``
    order over the levels as given, and the law at the i-th point is
    numerators[i] / denominator, over C(M+N-1, N-1). The binomial moments of
    ``_joint_term_table`` fill the (N+1)^k box, and ``_taylor_shift`` runs on
    each line of it that meets the table, axis by axis. A line of support s
    costs s(s+1)/2 subtractions and the fitting count vectors are down-closed,
    so the lattice is refused before its table is built past (N+1)^k rows, or
    past k ``fitting_vector_count`` (N+1)/2 max(1, ``entry_bits`` / 64) words
    (README, "Limits").
    """
    levels = tuple(levels)
    ordered, order = normalize_selection(params, levels, range(len(levels)))
    n, m, k = params.n_particles, params.energy_units, len(levels)
    law = f"joint lattice of N={n}, M={m}, levels {list(levels)}"
    points = (n + 1) ** k
    check_budget(law, points)
    words = k * fitting_vector_count(n, m, ordered) * (n + 1) / 2 * max(1, entry_bits(n, m, k) / 64)
    check_budget(law, points, 0, words)
    table = _joint_term_table(n, m, ordered)
    strides = [(n + 1) ** (k - 1 - i) for i in order]  # of the sorted levels, in a box over the levels as given
    cells = [(counts, sum(c * stride for c, stride in zip(counts, strides))) for counts, _ in table]
    box = [0] * points
    for (_, moment), (_, cell) in zip(table, cells):
        box[cell] = moment
    for axis, stride in enumerate(strides):
        # the table is down-closed and in lexicographic order: a line's last count is its support
        supports = {cell - counts[axis] * stride: counts[axis] for counts, cell in cells if counts[axis]}
        for start, support in supports.items():
            line = slice(start, start + support * stride + 1, stride)
            values = box[line]
            _taylor_shift(values, support, support)
            box[line] = values
    return box, microstate_count(params)


def joint_pdf_multinomial_limit(n_particles: int, temperature, counts) -> float:
    """Independent-particle joint law on the lowest len(counts) levels (multinomial).

    This is the paper's large-system joint law. Like
    ``occupation_pdf_binomial_limit``, it treats the particles as independent,
    so it ignores that the total energy is fixed, and it is not the limit of
    the exact joint law. counts[l] is the occupation of level l; the remaining
    N - sum(counts) particles fall in the overflow class. Evaluated in log space.
    """
    n_particles = check_particle_count(n_particles)
    counts = [integral_value("count", c, 0) for c in counts]
    occupied = sum(counts)
    if occupied > n_particles:
        raise ValueError(f"counts sum to {occupied} > N = {n_particles}")
    check_temperature(temperature)
    arity = len(counts)
    log_probs = _log_level_probabilities(temperature, arity + 1)
    # the overflow class holds the levels >= arity: (T/(T+1))^arity = p_arity (T+1)
    log_probs[-1] += math.log1p(float(temperature))
    return math.exp(_multinomial_log_pmf(n_particles, counts + [n_particles - occupied], log_probs))


def macrostate_probability_exact(params: SystemParams, state) -> Fraction:
    """Exact probability of a full macrostate: multiplicity over the microstate total."""
    state = as_occupation(state)
    state.check_conservation(params)
    return Fraction(multinomial_weight(state), microstate_count(params))


def macrostate_probability_largeN(n_particles: int, temperature, state) -> float:
    """Independent-particle macrostate weight N!/prod(n_l!) * T^M / (T+1)^(N+M).

    The multinomial law of ``joint_pdf_multinomial_limit`` over every level
    of the state: it treats the particles as independent and ignores that
    the total energy is fixed. Carries a non-unity prefactor relative to the
    exact probability; the exact-to-limit ratio approaches
    1/sqrt(2 pi N T (T+1)) as the system grows. Requires the state to hold
    exactly N particles and M = T*N quanta.
    """
    n_particles = check_particle_count(n_particles)
    check_temperature(temperature)
    state = as_occupation(state)
    if state.particle_count != n_particles:
        raise ValueError(
            f"particle number not conserved: {state.particle_count} != {n_particles}"
        )
    energy = state.energy
    expected = float(temperature) * n_particles
    if abs(energy - expected) > 1e-9 * max(1.0, abs(expected)):
        raise ValueError(f"state energy {energy} != T*N = {expected}")
    # the joint limit over every level of the state; its overflow class is empty
    return joint_pdf_multinomial_limit(n_particles, temperature, state.counts)
