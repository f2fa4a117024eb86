"""Brute-force ground truth that shares no summation logic with the closed forms.

``enumerate_macrostates`` walks every macrostate, a partition of M into at most
N parts (Andrews, The Theory of Partitions, 1976, ch. 1). The per-level
oracles count the microstates behind each count vector as weak compositions
that avoid the selected levels, in O(N*M*(1+|S|)) additions with no
alternating sum, binomial moment or Taylor shift. Each refuses its cells
(N+1)*(M+1), then its macrostates or count vectors, past the work budget of
``system.check_budget`` before it yields or builds any (README, "Limits"). The
domain, the walk of the count vectors and the budget come from ``system``.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb

from .combinatorics import integral_value, multinomial_weight
from .system import (
    MAX_OUTPUT_ROWS,
    DistributionTable,
    OccupationVector,
    SystemParams,
    check_budget,
    entry_bits,
    fitting_vector_count,
    fitting_vectors,
    microstate_count,
    normalize_selection,
)

WeightedMacrostate = namedtuple("WeightedMacrostate", "state multiplicity")


def enumeration_cap() -> tuple:
    """(12, 16), the N and M of the largest walk once allowed; it limits nothing now."""
    return (12, 16)


def _macrostate_count(n: int, m: int) -> int:
    """Partitions of m into at most n parts, i.e. into parts <= n, counted until past MAX_OUTPUT_ROWS."""
    ways = [1] + [0] * m  # ways[e]: partitions of e into the part sizes added so far, which never falls
    for part in range(1, min(n, m) + 1):
        if ways[m] > MAX_OUTPUT_ROWS:
            break
        for total in range(part, m + 1):
            ways[total] += ways[total - part]
    return ways[m]


def enumerate_macrostates(params: SystemParams) -> Iterator[WeightedMacrostate]:
    """Yield every macrostate of ``params`` exactly once, with its multiplicity.

    States come lexicographically over (n_M, ..., n_1): by top occupied level, its count, then
    likewise below, so the recursion is as deep as a state's occupied levels. The order is an
    implementation detail, not a contract; the multiplicities sum to C(M+N-1, N-1). Raises
    ValueError, before the first state, past the budget's rows in cells (N+1)*(M+1), then in macrostates.
    """
    n, m = params.n_particles, params.energy_units
    walk = f"enumeration of N={n}, M={m}"
    check_budget(walk, (n + 1) * (m + 1))
    check_budget(walk, _macrostate_count(n, m))
    counts = [0] * (m + 1)

    def descend(top, particles, energy, weight):
        """States of ``energy`` quanta on ``particles`` at levels <= ``top``; ``weight`` places those above."""
        if energy == 0:
            yield WeightedMacrostate(OccupationVector((particles, *counts[1:])), weight)
            return
        # the top levels the particles reach, and the counts there that leave the rest room below
        for level in range(-(-energy // particles), min(top, energy) + 1):
            for k in range(max(1, energy - particles * (level - 1)), min(particles, energy // level) + 1):
                counts[level] = k
                yield from descend(level - 1, particles - k, energy - k * level, weight * comb(particles, k))
            counts[level] = 0

    yield from descend(m, n, m, 1)


@lru_cache(maxsize=1)  # every caller reads one table at a time; a table may hold a million entries
def _joint_weight_table(n_particles: int, energy_units: int, levels: tuple) -> dict:
    """Microstates per fitting count vector c at ``levels``: N!/(prod c_s! P!) f(P, M - c.levels).

    P = N - |c|; row P of f (P particles off ``levels``) is row P-1's prefix sum minus its level shifts.
    Refused before any vector is built past the budget's rows in cells (N+1)(M+1), then as the closed
    form's table is: an entry is at most its binomial moment B[c], as f(P, E) counts some of W(E, P).
    """
    n, m = n_particles, energy_units
    law = f"oracle for N={n}, M={m}, levels {list(levels)}"
    check_budget(law, (n + 1) * (m + 1))
    count = fitting_vector_count(n, m, levels)
    check_budget(law, count, count * entry_bits(n, m, len(levels)))
    by_free = {}  # fitting count vectors by P, with the quanta left to the other levels
    for counts, free, energy in fitting_vectors(n, m, levels):
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
