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

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

from .combinatorics import _binomial, integral_value

_LIMIT_SUM_TOLERANCE = 1e-12


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


@dataclass(frozen=True)
class DistributionTable:
    """A law of one occupation number over the counts 0..len-1: entry k is P(count = k).

    mode "exact" carries ExactRational probabilities summing to exactly 1;
    mode "limit" carries floats summing to 1 within 1e-12.
    """

    probabilities: tuple
    mode: str

    def __post_init__(self):
        if self.mode not in ("exact", "limit"):
            raise ValueError(f"mode must be 'exact' or 'limit', got {self.mode!r}")
        # written so that a NaN fails both checks
        if not all(p >= 0 for p in self.probabilities):
            raise ValueError("probabilities must be nonnegative")
        total = sum(self.probabilities)
        if self.mode == "exact":
            if total != 1:
                raise ValueError(f"exact probabilities must sum to 1, got {total}")
        elif not abs(total - 1.0) <= _LIMIT_SUM_TOLERANCE:
            raise ValueError(f"limit probabilities sum to {total!r}, off by more than 1e-12")

    @property
    def support(self) -> tuple:
        """The counts 0..len-1."""
        return tuple(range(len(self.probabilities)))

    def probability(self, count):
        """P(count); 0 outside 0..len-1."""
        if 0 <= count < len(self.probabilities):
            return self.probabilities[count]
        return Fraction(0) if self.mode == "exact" else 0.0

    def as_floats(self) -> list:
        return [float(p) for p in self.probabilities]

    def mean(self):
        return sum(k * p for k, p in enumerate(self.probabilities))

    def variance(self):
        mu = self.mean()
        return sum((k - mu) ** 2 * p for k, p in enumerate(self.probabilities))

    def total_variation(self, other: "DistributionTable") -> float:
        """Total-variation distance, the shorter table padded with zeros."""
        pairs = zip_longest(self.as_floats(), other.as_floats(), fillvalue=0.0)
        return 0.5 * sum(abs(x - y) for x, y in pairs)
