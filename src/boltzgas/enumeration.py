"""Brute-force ground truth that shares no summation logic with the closed forms.

``enumerate_macrostates`` walks every macrostate up to N <= 12, M <= 16
(``FLUCT_MAX_ENUM``, "N,M" or one integer, raises it). The per-level oracles
count the microstates behind each count vector as weak compositions that avoid
the selected levels, in O(N*M*(1+|S|)) additions with no alternating sum,
binomial moment or Taylor shift; they refuse more than MAX_OUTPUT_ROWS cells
(N+1)*(M+1) or count vectors. The domain comes from ``system``.
"""
from __future__ import annotations

import os
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate, islice
from typing import Iterator, NamedTuple

from .combinatorics import integral_value, multinomial_weight
from .system import (
    MAX_OUTPUT_ROWS,
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
    """Current (max particles, max quanta) cap, honoring FLUCT_MAX_ENUM (N >= 1, M >= 0)."""
    raw = os.environ.get(ENUM_CAP_ENV)
    if not raw:
        return (DEFAULT_MAX_PARTICLES, DEFAULT_MAX_UNITS)
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    try:
        values = [int(p) for p in parts]
    except ValueError:
        values = []
    if len(values) == 1:
        values *= 2
    if len(values) != 2 or values[0] < 1 or values[1] < 0:
        raise ValueError(f"{ENUM_CAP_ENV} must be an integer or 'N,M' pair, got {raw!r}")
    return tuple(values)


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


def _extend(vectors, level: int):
    """(counts, particles left, quanta left) of each fitting vector with one more level, lazily."""
    return ((c + (k,), p - k, e - k * level) for c, p, e in vectors
            for k in range((min(p, e // level) if level else p) + 1))


@lru_cache(maxsize=4)  # callers read one table many times in a row; a table may hold a million entries
def _joint_weight_table(n_particles: int, energy_units: int, levels: tuple) -> dict:
    """Microstates per feasible count vector c at ``levels``: N!/(prod c_s! P!) f(P, M - c.levels).

    P = N - |c|; row P of f (P particles off ``levels``) is row P-1's prefix sum minus its level shifts.
    """
    n, m = n_particles, energy_units
    fits = (n + 1) * (m + 1) <= MAX_OUTPUT_ROWS
    vectors = list(islice(reduce(_extend, levels, [((), n, m)]), MAX_OUTPUT_ROWS + 1)) if fits else []
    if not fits or len(vectors) > MAX_OUTPUT_ROWS:
        raise ValueError(f"oracle for N={n}, M={m}, levels {list(levels)}: over {MAX_OUTPUT_ROWS} entries")
    by_free = {}  # feasible count vectors by P, with the quanta left to the other levels
    for counts, free, energy in vectors:
        by_free.setdefault(free, []).append((counts, energy))
    table, row = {}, [1] + [0] * m
    for free in range(n + 1):
        for counts, energy in by_free.get(free, ()):
            if row[energy]:
                table[counts] = multinomial_weight(counts + (free,)) * row[energy]
        previous, row = row, list(accumulate(row))
        for s in levels:
            row[s:] = [a - b for a, b in zip(row[s:], previous)]
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
