"""System parameters and occupation vectors for the quantized ideal-gas model.

The model: N distinguishable particles share M indivisible energy quanta over
equidistant levels j = 0..M. A macrostate is the vector of per-level particle
counts; every labeled assignment (microstate) with total energy M is equally
likely, and there are C(M+N-1, N-1) of them. The "temperature" of a system is
the specific energy M/N. The level-range check, the level selections of the
joint laws and the law type ``DistributionTable`` are defined here, once, for
the exact laws, their limits and the oracle alike.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

from .combinatorics import _binomial, integral_value

_LIMIT_SUM_TOLERANCE = 1e-12

# The most rows a CLI table or grid, or the most entries a mean vector or a
# covariance matrix, may have. Larger requests fail before anything is built.
MAX_OUTPUT_ROWS = 1_000_000


def store_integral_fields(instance, **minimums) -> None:
    """Store each ``field=minimum`` of a frozen dataclass as a checked int (see ``integral_value``)."""
    for name, minimum in minimums.items():
        object.__setattr__(instance, name, integral_value(name, getattr(instance, name), minimum))


@dataclass(frozen=True)
class SystemParams:
    """An isolated system: particle count N >= 1 and total energy quanta M >= 0."""

    n_particles: int
    energy_units: int

    def __post_init__(self):
        store_integral_fields(self, n_particles=1, energy_units=0)

    @property
    def temperature(self) -> Fraction:
        """Energy quanta per particle, M/N, as an exact rational."""
        return Fraction(self.energy_units, self.n_particles)

    @property
    def level_count(self) -> int:
        """Number of accessible energy levels, M + 1 (levels 0..M)."""
        return self.energy_units + 1

    def check_level(self, level: int) -> int:
        """``level`` as a Python int; TypeError unless integral, ValueError outside 0..M."""
        level = integral_value("level", level, 0)
        if level > self.energy_units:
            raise ValueError(f"level must lie in 0..{self.energy_units}, got {level}")
        return level


@dataclass(frozen=True)
class OccupationVector:
    """Particle counts per energy level: counts[j] particles carry j quanta each."""

    counts: tuple

    def __post_init__(self):
        counts = tuple(integral_value("occupation number", c, 0) for c in self.counts)
        object.__setattr__(self, "counts", counts)

    def __len__(self):
        return len(self.counts)

    def __iter__(self):
        return iter(self.counts)

    def __getitem__(self, level):
        return self.counts[level]

    @property
    def particle_count(self) -> int:
        return sum(self.counts)

    @property
    def energy(self) -> int:
        return sum(j * c for j, c in enumerate(self.counts))

    def check_conservation(self, params: SystemParams) -> None:
        """Raise ValueError unless both conservation laws hold for ``params``."""
        if len(self.counts) != params.level_count:
            raise ValueError(
                f"expected {params.level_count} levels, got {len(self.counts)}"
            )
        if self.particle_count != params.n_particles:
            raise ValueError(
                f"particle number not conserved: {self.particle_count} != {params.n_particles}"
            )
        if self.energy != params.energy_units:
            raise ValueError(
                f"energy not conserved: {self.energy} != {params.energy_units}"
            )


def as_occupation(state) -> OccupationVector:
    """Coerce a sequence of per-level counts into an OccupationVector."""
    if isinstance(state, OccupationVector):
        return state
    return OccupationVector(tuple(state))


def microstate_count(params: SystemParams) -> int:
    """Total number of equally likely labeled assignments: C(M+N-1, N-1)."""
    return _binomial(params.energy_units + params.n_particles - 1, params.n_particles - 1)


def normalize_selection(params: SystemParams, levels, counts) -> tuple:
    """Check a (levels, counts) selection and sort it into ascending level order.

    The levels must be distinct and lie in 0..M, with one count each. Joint
    probabilities are invariant under simultaneous permutation of the two
    sequences, so any level order is accepted.
    """
    levels = tuple(params.check_level(j) for j in levels)
    if not levels:
        raise ValueError("need at least one level")
    if len(set(levels)) != len(levels):
        raise ValueError(f"levels must be distinct, got {levels}")
    counts = tuple(integral_value("count", c) for c in counts)
    if len(counts) != len(levels):
        raise ValueError("levels and counts must have equal length")
    pairs = sorted(zip(levels, counts))
    return tuple(j for j, _ in pairs), tuple(c for _, c in pairs)


class _HeldProbabilities:
    """The ``probabilities`` field of ``DistributionTable``: its weights, each read as a value."""

    def __get__(self, table, owner=None):
        if table is None:
            raise AttributeError("probabilities")
        return tuple(map(table._value, table._weights))

    def __set__(self, table, probabilities):
        object.__setattr__(table, "_weights", probabilities)  # DistributionTable._store checks them


@dataclass(frozen=True)
class DistributionTable:
    """A law of one occupation number over the counts 0..len-1: entry k is P(count = k).

    Every table holds weights over one total, and entry k is weight k / total.
    mode "exact" holds integer numerators over an integer total: the
    C(M+N-1, N-1) that ``from_numerators`` is given, or the least common
    denominator of the rationals given to the constructor. Its weights must
    sum to the total exactly, and its values are Fractions. mode "limit" holds
    floats over the total 1; they must sum to 1 within 1e-12, and its values
    are floats. ``probabilities``, ``probability`` and ``mean`` divide a weight
    by the total; ``as_floats`` divides without building a Fraction (integer
    true division is correctly rounded, so each float equals float(Fraction)).
    Equal laws compare equal, whatever total each is held over.
    """

    probabilities: tuple = _HeldProbabilities()  # a descriptor, not a default: still required
    mode: str

    def __post_init__(self):
        if self.mode not in ("exact", "limit"):
            raise ValueError(f"mode must be 'exact' or 'limit', got {self.mode!r}")
        if self.mode == "limit":
            self._store(self._weights, 1)
            return
        values = [Fraction(p) for p in self._weights]
        total = math.lcm(*(v.denominator for v in values))
        self._store((v.numerator * (total // v.denominator) for v in values), total)

    @classmethod
    def from_numerators(cls, numerators, denominator: int) -> "DistributionTable":
        """The exact law P(count = k) = numerators[k] / denominator, built without a Fraction.

        The numerators are nonnegative ints summing to the denominator (>= 1).
        """
        table = cls.__new__(cls)
        object.__setattr__(table, "mode", "exact")
        table._store(numerators, integral_value("denominator", denominator, 1))
        return table

    def _store(self, weights, total) -> None:
        weights = tuple(weights)
        # written so that a NaN fails both checks
        if not all(w >= 0 for w in weights):
            raise ValueError("probabilities must be nonnegative")
        mass = sum(weights)
        if self.mode == "exact":
            if mass != total:
                raise ValueError(f"exact probabilities must sum to 1, got {Fraction(mass, total)}")
        elif not abs(mass - total) <= _LIMIT_SUM_TOLERANCE:
            raise ValueError(f"limit probabilities sum to {mass!r}, off by more than 1e-12")
        object.__setattr__(self, "_weights", weights)
        object.__setattr__(self, "_total", total)

    def _value(self, weight):
        """``weight`` over the total: a Fraction when exact, a float when limit."""
        return Fraction(weight, self._total) if self.mode == "exact" else weight / self._total

    def __eq__(self, other):
        if not isinstance(other, DistributionTable):
            return NotImplemented
        if self.mode != other.mode or len(self._weights) != len(other._weights):
            return False
        pairs = zip(self._weights, other._weights)
        return all(x * other._total == y * self._total for x, y in pairs)

    @property
    def support(self) -> tuple:
        """The counts 0..len-1."""
        return tuple(range(len(self._weights)))

    def probability(self, count):
        """P(count); 0 outside 0..len-1."""
        return self._value(self._weights[count] if 0 <= count < len(self._weights) else 0)

    def as_floats(self) -> list:
        return [float(w / self._total) for w in self._weights]

    def mean(self):
        return self._value(sum(k * w for k, w in enumerate(self._weights)))

    def variance(self):
        if self.mode == "limit":
            # the total is 1; the two-pass float sum keeps the printed digits
            mu = self.mean()
            return sum((k - mu) ** 2 * p for k, p in enumerate(self._weights))
        first = sum(k * w for k, w in enumerate(self._weights))
        second = sum(k * k * w for k, w in enumerate(self._weights))
        return Fraction(second * self._total - first * first, self._total**2)

    def total_variation(self, other: "DistributionTable") -> float:
        """Total-variation distance, the shorter table padded with zeros."""
        pairs = zip_longest(self.as_floats(), other.as_floats(), fillvalue=0.0)
        return 0.5 * sum(abs(x - y) for x, y in pairs)
