"""Occupation-number distributions: exact finite-size laws and their limits.

The exact univariate and joint laws are alternating sums of products of
binomial coefficients, evaluated in integer arithmetic and normalized once at
the end, so cancellation is never an issue. The limit laws (binomial, normal,
energy-conditioned normal, multinomial) depend on the specific energy T alone
and are evaluated in log space to stay finite at large N.
"""
from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .combinatorics import (
    binomial,
    multinomial_weight,
    power_of_sum_coefficient,
    weak_compositions,
)
from .moments import (
    check_particle_count,
    check_temperature,
    conditioned_variance_limit,
    density_moment_limit,
)
from .system import SystemParams, as_occupation, microstate_count, normalize_selection

_LIMIT_SUM_TOLERANCE = 1e-12


class LimitValidityWarning(UserWarning):
    """A limit law was requested outside its stated range of validity."""


@dataclass(frozen=True)
class DistributionTable:
    """A finite probability table over integer (or integer-tuple) outcomes.

    mode "exact" carries ExactRational probabilities summing to exactly 1;
    mode "limit" carries floats summing to 1 within 1e-12.
    """

    support: tuple
    probabilities: tuple
    mode: str

    def __post_init__(self):
        if self.mode not in ("exact", "limit"):
            raise ValueError(f"mode must be 'exact' or 'limit', got {self.mode!r}")
        if len(self.support) != len(self.probabilities):
            raise ValueError("support and probabilities must have equal length")
        # written so that a NaN fails both checks
        if not all(p >= 0 for p in self.probabilities):
            raise ValueError("probabilities must be nonnegative")
        total = sum(self.probabilities)
        if self.mode == "exact":
            if total != 1:
                raise ValueError(f"exact probabilities must sum to 1, got {total}")
        elif not abs(total - 1.0) <= _LIMIT_SUM_TOLERANCE:
            raise ValueError(f"limit probabilities sum to {total!r}, off by more than 1e-12")

    def probability(self, outcome):
        try:
            index = self.support.index(outcome)
        except ValueError:
            return Fraction(0) if self.mode == "exact" else 0.0
        return self.probabilities[index]

    def as_floats(self) -> list:
        return [float(p) for p in self.probabilities]

    def mean(self):
        return sum(o * p for o, p in zip(self.support, self.probabilities))

    def variance(self):
        mu = self.mean()
        return sum((o - mu) ** 2 * p for o, p in zip(self.support, self.probabilities))

    def total_variation(self, other: "DistributionTable") -> float:
        """Total-variation distance, aligning the two supports."""
        outcomes = set(self.support) | set(other.support)
        gap = sum(
            abs(float(self.probability(o)) - float(other.probability(o)))
            for o in outcomes
        )
        return 0.5 * gap


@lru_cache(maxsize=64)
def _pdf_numerators(n: int, m: int, level: int) -> tuple:
    """Integer numerators of P(n_level = k), k = 0..N, over C(M+N-1, N-1).

    With A_q the z^M u^q coefficient at ``level``, the numerator of count k is
    sum_{q >= k} (-1)^(q-k) C(q, k) A_q: the y^k coefficient of
    sum_q A_q (y - 1)^q. That Taylor shift by -1 runs in place with integer
    subtractions only (Ruffini-Horner).
    """
    a = [power_of_sum_coefficient(m, level, n, q) for q in range(n + 1)]
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            a[j] -= a[j + 1]
    return tuple(a)


def occupation_pdf_exact(params: SystemParams, level: int) -> DistributionTable:
    """Exact law of the occupation number at ``level``: P(n_j = k) for k = 0..N."""
    counts, probs = occupation_pdf_window(params, level, 0, params.n_particles)
    return DistributionTable(tuple(counts), tuple(probs), "exact")


def occupation_pdf_window(params: SystemParams, level: int, lo: int, hi: int):
    """Exact occupation probabilities on the count window lo..hi (inclusive).

    Returns (counts, probabilities) as plain lists; the probabilities are the
    same exact values as the full table restricted to the window. Intended for
    plotting large systems where the full support is mostly negligible mass.
    A window is not a ``DistributionTable``: its mass need not sum to 1.
    """
    params.check_level(level)
    n, m = params.n_particles, params.energy_units
    lo = max(0, int(lo))
    hi = min(n, int(hi))
    numerators = _pdf_numerators(n, m, level)
    total = microstate_count(params)
    counts = list(range(lo, hi + 1))
    return counts, [Fraction(numerators[k], total) for k in counts]


def _binomial_log_pmf(n: int, p: float, k: int) -> float:
    return (
        math.lgamma(n + 1)
        - math.lgamma(k + 1)
        - math.lgamma(n - k + 1)
        + k * math.log(p)
        + (n - k) * math.log1p(-p)
    )


def _success_probability(n_particles: int, temperature, level: int) -> float:
    """Validated p = T^j/(T+1)^(j+1) for a limit law over the counts 0..N.

    Warns on behalf of the public law that calls it when level >= T.
    """
    check_particle_count(n_particles)
    if level >= temperature:
        warnings.warn(
            f"the limit law is only valid for level < T; got level={level}, T={temperature}",
            LimitValidityWarning,
            stacklevel=3,
        )
    p = float(density_moment_limit(temperature, level))
    if p <= 0.0 or p >= 1.0:
        raise ValueError(f"success probability degenerate for level={level}, T={temperature}")
    return p


def occupation_pdf_binomial_limit(n_particles: int, temperature, level: int) -> DistributionTable:
    """Independent-particle law of the occupation number: Binomial(N, p), p = T^j/(T+1)^(j+1).

    This is the paper's large-system law. It treats the particles as
    independent, so it ignores that the total energy is fixed: it is the limit
    of the exact law only at level j = T, and elsewhere stays wider than it for
    every N. ``occupation_pdf_conditioned_limit`` is the limit of the exact law.

    Warns (not errors) when level >= T, where the limit is outside its stated
    validity; the exact law remains the source of truth there.
    """
    p = _success_probability(n_particles, temperature, level)
    probs = tuple(
        math.exp(_binomial_log_pmf(n_particles, p, k)) for k in range(n_particles + 1)
    )
    return DistributionTable(tuple(range(n_particles + 1)), probs, "limit")


def occupation_pdf_conditioned_limit(
    n_particles: int, temperature, level: int
) -> DistributionTable:
    """Large-system limit of the exact occupation law, at fixed total energy.

    A normal law with mean N p and variance N sigma_c^2 (see
    ``conditioned_variance_limit``), evaluated at the counts 0..N and
    normalized. Validates and warns as the binomial limit does, and also
    raises when the variance underflows to 0 (far outside validity, T ~ 1e-170).
    """
    p = _success_probability(n_particles, temperature, level)
    mean = n_particles * p
    variance = n_particles**2 * float(conditioned_variance_limit(n_particles, temperature, level))
    if variance <= 0.0:
        raise ValueError(f"limit variance underflows for level={level}, T={temperature}")
    exponents = [-((k - mean) ** 2) / (2.0 * variance) for k in range(n_particles + 1)]
    top = max(exponents)
    weights = [math.exp(e - top) for e in exponents]
    total = math.fsum(weights)
    probs = tuple(w / total for w in weights)
    return DistributionTable(tuple(range(n_particles + 1)), probs, "limit")


@dataclass(frozen=True)
class NormalApproximation:
    """Gaussian density callable with the moments of the binomial limit law."""

    mean: float
    variance: float

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
    p = _success_probability(n_particles, temperature, level)
    return NormalApproximation(mean=n_particles * p, variance=n_particles * p * (1.0 - p))


@lru_cache(maxsize=64)
def _joint_term_table(n: int, m: int, levels: tuple) -> tuple:
    """Composition-indexed terms of the exact joint law at ``levels``.

    Each entry is (composition, weight) where the composition (m_1..m_p) sums
    to some q <= N and the integer weight is q!/prod(m_l!) times C(N, q) times
    the weak compositions of the leftover energy into the other N - q
    particles (the multi-level ``power_of_sum_coefficient``). The compositions
    of q are read off the bar positions of stars and bars.
    """
    terms = []
    bars = len(levels) - 1
    for q in range(n + 1):
        base = binomial(n, q)
        for cuts in itertools.combinations(range(q + bars), bars):
            edges = (-1,) + cuts + (q + bars,)
            comp = tuple(b - a - 1 for a, b in zip(edges, edges[1:]))
            energy = sum(mi * ji for mi, ji in zip(comp, levels))
            weight = multinomial_weight(comp) * base * weak_compositions(m - energy, n - q)
            if weight:
                terms.append((comp, weight))
    return tuple(terms)


def joint_pdf_exact(params: SystemParams, levels, counts) -> Fraction:
    """Exact probability that the occupation at levels[s] equals counts[s] for all s.

    The hypercube-gridpoint expansion is re-indexed by compositions (grouping
    gridpoints by their coordinate multiplicities), which shrinks p^q terms to
    C(q+p-1, p-1) per order without changing the exact value. Impossible joint
    events return 0.
    """
    levels, counts = normalize_selection(params, levels, counts)
    if any(c < 0 or c > params.n_particles for c in counts):
        return Fraction(0)
    n, m = params.n_particles, params.energy_units
    count_sum = sum(counts)
    numerator = 0
    for comp, weight in _joint_term_table(n, m, levels):
        factor = 1
        for mi, ci in zip(comp, counts):
            if ci > mi:
                factor = 0
                break
            factor *= binomial(mi, ci)
        if factor == 0:
            continue
        if (sum(comp) - count_sum) % 2:
            factor = -factor
        numerator += weight * factor
    return Fraction(numerator, microstate_count(params))


def multinomial_trial_probabilities(temperature, arity: int) -> list:
    """Trial probabilities of the large-system joint law on levels 0..arity-1.

    Classes l = 1..arity are the selected levels (l-1 quanta each); class
    arity+1 collects everything above. The probabilities sum to exactly 1.
    """
    if arity < 1:
        raise ValueError(f"arity must be >= 1, got {arity}")
    probs = [density_moment_limit(temperature, l) for l in range(arity)]
    probs.append((temperature / (temperature + 1)) ** arity)
    return probs


def joint_pdf_multinomial_limit(n_particles: int, temperature, counts) -> float:
    """Large-system joint law on the lowest len(counts) levels (multinomial).

    counts[l] is the occupation of level l; the remaining N - sum(counts)
    particles fall in the overflow class. Evaluated in log space.
    """
    counts = [int(c) for c in counts]
    if any(c < 0 for c in counts):
        raise ValueError(f"counts must be nonnegative, got {counts}")
    occupied = sum(counts)
    if occupied > n_particles:
        raise ValueError(f"counts sum to {occupied} > N = {n_particles}")
    check_temperature(temperature)
    t = float(temperature)
    log_ratio = math.log(t) - math.log1p(t)
    arity = len(counts)
    log_prob = math.lgamma(n_particles + 1) - math.lgamma(n_particles - occupied + 1)
    for l, c in enumerate(counts, start=1):
        log_prob -= math.lgamma(c + 1)
        log_prob += c * (l * log_ratio - math.log(t))
    log_prob += (n_particles - occupied) * arity * log_ratio
    return math.exp(log_prob)


def macrostate_probability_exact(params: SystemParams, state) -> Fraction:
    """Exact probability of a full macrostate: multiplicity over the microstate total."""
    state = as_occupation(state)
    state.check_conservation(params)
    return Fraction(multinomial_weight(state), microstate_count(params))


def macrostate_probability_largeN(n_particles: int, temperature, state) -> float:
    """Large-system macrostate weight N!/prod(n_l!) * T^M / (T+1)^(N+M).

    Carries a non-unity prefactor relative to the exact probability; the
    exact-to-limit ratio approaches 1/sqrt(2 pi N T (T+1)) as the system
    grows. Requires the state to hold exactly N particles and M = T*N quanta.
    """
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
    t = float(temperature)
    log_prob = math.lgamma(n_particles + 1)
    for c in state:
        log_prob -= math.lgamma(c + 1)
    log_prob += energy * math.log(t) - (n_particles + energy) * math.log1p(t)
    return math.exp(log_prob)
