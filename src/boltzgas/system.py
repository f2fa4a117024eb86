"""System parameters and occupation vectors for the quantized ideal-gas model.

The model: N distinguishable particles share M indivisible energy quanta over
equidistant levels j = 0..M. A macrostate is the vector of per-level particle
counts; every labeled assignment (microstate) with total energy M is equally
likely, and there are C(M+N-1, N-1) of them. The "temperature" of a system is
the specific energy M/N. The level-range check and the level selections of the
joint laws are defined here, once, for the exact laws and the oracle alike.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .combinatorics import _binomial, integral_value


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

