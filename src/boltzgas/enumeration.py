"""Brute-force ground truth by exhaustive macrostate enumeration.

This module deliberately shares no summation logic with the closed-form
modules: every quantity is obtained by walking all occupation vectors that
satisfy both conservation laws and summing multiplicity weights directly, so
agreement with the analytic formulas is evidence rather than tautology. It
imports nothing from the closed forms: the model's domain (level checks,
selections, the microstate total, the law type) comes from ``system``.

Enumeration size is capped at desk scale (macrostate counts grow like integer
partitions). The default caps N <= 12, M <= 16 can be raised through the
``FLUCT_MAX_ENUM`` environment variable ("N,M" pair or a single integer for
both).
"""
from __future__ import annotations

import os
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, NamedTuple

from .combinatorics import integral_value, multinomial_weight
from .system import (
    DistributionTable,
    OccupationVector,
    SystemParams,
    microstate_count,
    normalize_selection,
)

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


def enumerate_macrostates(params: SystemParams) -> Iterator[WeightedMacrostate]:
    """Yield every macrostate of ``params`` exactly once, with its multiplicity.

    States are produced by recursive descent from the top energy level, i.e.
    lexicographically over (n_M, n_(M-1), ...); the order is an implementation
    detail, not a contract. The multiplicities over the stream sum to
    C(M+N-1, N-1). Raises ValueError beyond ``enumeration_cap()``.
    """
    n, m = params.n_particles, params.energy_units
    n_cap, m_cap = enumeration_cap()
    if n > n_cap or m > m_cap:
        raise ValueError(
            f"enumeration of N={n}, M={m} exceeds the cap N<={n_cap}, M<={m_cap}; "
            f"raise {ENUM_CAP_ENV}"
        )
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


@lru_cache(maxsize=64)
def _weighted_states(n_particles: int, energy_units: int) -> tuple:
    params = SystemParams(n_particles, energy_units)
    return tuple(enumerate_macrostates(params))


@lru_cache(maxsize=64)
def _joint_weight_table(n_particles: int, energy_units: int, levels: tuple) -> dict:
    table = {}
    for state, weight in _weighted_states(n_particles, energy_units):
        key = tuple(state[j] for j in levels)
        table[key] = table.get(key, 0) + weight
    return table


def oracle_moment(params: SystemParams, level: int, order: int) -> Fraction:
    """m-th raw moment of the occupation number at ``level`` by direct summation."""
    level = params.check_level(level)
    order = integral_value("order", order, 0)
    table = _joint_weight_table(params.n_particles, params.energy_units, (level,))
    total = sum(weight * count**order for (count,), weight in table.items())
    return Fraction(total, microstate_count(params))


def oracle_pdf(params: SystemParams, level: int) -> DistributionTable:
    """Exact distribution of the occupation number at ``level`` by enumeration.

    Its numerators are the enumerated weights per count, over the microstate total.
    """
    level = params.check_level(level)
    table = _joint_weight_table(params.n_particles, params.energy_units, (level,))
    weights = [table.get((k,), 0) for k in range(params.n_particles + 1)]
    return DistributionTable.from_numerators(weights, microstate_count(params))


def oracle_joint_pdf(params: SystemParams, levels, counts) -> Fraction:
    """Exact joint probability of observing ``counts`` at ``levels``, by enumeration.

    Impossible joint events have probability 0; counts need not be feasible.
    """
    levels, counts = normalize_selection(params, levels, counts)
    table = _joint_weight_table(params.n_particles, params.energy_units, levels)
    weight = table.get(counts, 0)
    return Fraction(weight, microstate_count(params))
