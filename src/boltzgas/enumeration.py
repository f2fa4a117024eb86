"""Brute-force ground truth by exhaustive macrostate enumeration.

This module deliberately shares no summation logic with the closed-form
modules: every quantity is obtained by walking all occupation vectors that
satisfy both conservation laws and summing multiplicity weights directly, so
agreement with the analytic formulas is evidence rather than tautology.

Enumeration size is capped at desk scale (macrostate counts grow like integer
partitions). The default caps N <= 12, M <= 16 can be raised through the
``FLUCT_MAX_ENUM`` environment variable ("N,M" pair or a single integer for
both) or per call via ``max_size``.
"""
from __future__ import annotations

import os
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, NamedTuple

from .combinatorics import binomial, multinomial_weight
from .system import OccupationVector, SystemParams

DEFAULT_MAX_PARTICLES = 12
DEFAULT_MAX_UNITS = 16

ENUM_CAP_ENV = "FLUCT_MAX_ENUM"


class WeightedMacrostate(NamedTuple):
    state: OccupationVector
    multiplicity: int


def enumeration_cap() -> tuple:
    """Current (max particles, max quanta) cap, honoring FLUCT_MAX_ENUM."""
    raw = os.environ.get(ENUM_CAP_ENV)
    if not raw:
        return (DEFAULT_MAX_PARTICLES, DEFAULT_MAX_UNITS)
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    try:
        values = [int(p) for p in parts]
    except ValueError as exc:
        raise ValueError(
            f"{ENUM_CAP_ENV} must be an integer or 'N,M' pair, got {raw!r}"
        ) from exc
    if len(values) == 1:
        return (values[0], values[0])
    if len(values) == 2:
        return (values[0], values[1])
    raise ValueError(f"{ENUM_CAP_ENV} must be an integer or 'N,M' pair, got {raw!r}")


def _check_cap(params: SystemParams, max_size) -> None:
    n_cap, m_cap = max_size if max_size is not None else enumeration_cap()
    if params.n_particles > n_cap or params.energy_units > m_cap:
        raise ValueError(
            f"enumeration of N={params.n_particles}, M={params.energy_units} exceeds "
            f"the cap N<={n_cap}, M<={m_cap}; raise {ENUM_CAP_ENV} or pass max_size"
        )


def enumerate_macrostates(params: SystemParams, max_size=None) -> Iterator[WeightedMacrostate]:
    """Yield every macrostate of ``params`` exactly once, with its multiplicity.

    States are produced by recursive descent from the top energy level, i.e.
    lexicographically over (n_M, n_(M-1), ...); the order is an implementation
    detail, not a contract. The multiplicities over the stream sum to
    C(M+N-1, N-1).
    """
    _check_cap(params, max_size)
    n, m = params.n_particles, params.energy_units
    counts = [0] * (m + 1)

    def descend(level, particles, energy):
        if level == 0:
            if energy == 0:
                counts[0] = particles
                state = OccupationVector(tuple(counts))
                counts[0] = 0
                yield WeightedMacrostate(state, multinomial_weight(state))
            return
        for k in range(min(particles, energy // level) + 1):
            counts[level] = k
            yield from descend(level - 1, particles - k, energy - k * level)
        counts[level] = 0

    yield from descend(m, n, m)


def microstate_count(params: SystemParams) -> int:
    """Total number of equally likely labeled assignments: C(M+N-1, N-1)."""
    return binomial(params.energy_units + params.n_particles - 1, params.n_particles - 1)


@lru_cache(maxsize=64)
def _weighted_states(n_particles: int, energy_units: int) -> tuple:
    params = SystemParams(n_particles, energy_units)
    return tuple(enumerate_macrostates(params))


def oracle_moment(params: SystemParams, level: int, order: int) -> Fraction:
    """m-th raw moment of the occupation number at ``level`` by direct summation."""
    if not 0 <= level <= params.energy_units:
        raise ValueError(f"level must lie in 0..{params.energy_units}, got {level}")
    if order < 0:
        raise ValueError(f"moment order must be nonnegative, got {order}")
    total = 0
    for state, weight in _weighted_states(params.n_particles, params.energy_units):
        total += weight * state[level] ** order
    return Fraction(total, microstate_count(params))


def oracle_pdf(params: SystemParams, level: int):
    """Exact distribution of the occupation number at ``level`` by enumeration."""
    from .distributions import DistributionTable

    if not 0 <= level <= params.energy_units:
        raise ValueError(f"level must lie in 0..{params.energy_units}, got {level}")
    weights = [0] * (params.n_particles + 1)
    for state, weight in _weighted_states(params.n_particles, params.energy_units):
        weights[state[level]] += weight
    total = microstate_count(params)
    return DistributionTable(
        support=tuple(range(params.n_particles + 1)),
        probabilities=tuple(Fraction(w, total) for w in weights),
        mode="exact",
    )


@lru_cache(maxsize=64)
def _joint_weight_table(n_particles: int, energy_units: int, levels: tuple) -> dict:
    table = {}
    for state, weight in _weighted_states(n_particles, energy_units):
        key = tuple(state[j] for j in levels)
        table[key] = table.get(key, 0) + weight
    return table


def validate_levels(params: SystemParams, levels) -> tuple:
    """Validate a selection of distinct levels within 0..M (any order)."""
    levels = tuple(int(j) for j in levels)
    if not levels:
        raise ValueError("need at least one level")
    if any(j < 0 or j > params.energy_units for j in levels):
        raise ValueError(f"levels must lie in 0..{params.energy_units}, got {levels}")
    if len(set(levels)) != len(levels):
        raise ValueError(f"levels must be distinct, got {levels}")
    return levels


def normalize_selection(params: SystemParams, levels, counts) -> tuple:
    """Sort a (levels, counts) selection into canonical ascending level order.

    Joint probabilities are invariant under simultaneous permutation of the
    two sequences, so any distinct-level order is accepted.
    """
    levels = validate_levels(params, levels)
    counts = tuple(int(c) for c in counts)
    if len(counts) != len(levels):
        raise ValueError("levels and counts must have equal length")
    pairs = sorted(zip(levels, counts))
    return tuple(j for j, _ in pairs), tuple(c for _, c in pairs)


def oracle_joint_pdf(params: SystemParams, levels, counts) -> Fraction:
    """Exact joint probability of observing ``counts`` at ``levels``, by enumeration.

    Impossible joint events have probability 0; counts need not be feasible.
    """
    levels, counts = normalize_selection(params, levels, counts)
    table = _joint_weight_table(params.n_particles, params.energy_units, levels)
    weight = table.get(counts, 0)
    return Fraction(weight, microstate_count(params))
