"""System parameters and occupation vectors for the quantized ideal-gas model.

The model: N distinguishable particles share M indivisible energy quanta over
equidistant levels j = 0..M. A macrostate is the vector of per-level particle
counts; every labeled assignment (microstate) with total energy M is equally
likely. The "temperature" of a system is the specific energy M/N.
"""
from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class SystemParams:
    """An isolated system: particle count N >= 1 and total energy quanta M >= 0."""

    n_particles: int
    energy_units: int

    def __post_init__(self):
        # Any integral type (a NumPy integer, say) is stored as a Python int,
        # so the exact arithmetic never runs on fixed-width integers.
        for name in ("n_particles", "energy_units"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise TypeError(f"{name} must be an integer")
            object.__setattr__(self, name, operator.index(value))
        if self.n_particles < 1:
            raise ValueError(f"need at least one particle, got {self.n_particles}")
        if self.energy_units < 0:
            raise ValueError(f"energy quanta must be nonnegative, got {self.energy_units}")

    @property
    def temperature(self) -> Fraction:
        """Energy quanta per particle, M/N, as an exact rational."""
        return Fraction(self.energy_units, self.n_particles)

    @property
    def level_count(self) -> int:
        """Number of accessible energy levels, M + 1 (levels 0..M)."""
        return self.energy_units + 1


@dataclass(frozen=True)
class OccupationVector:
    """Particle counts per energy level: counts[j] particles carry j quanta each."""

    counts: tuple

    def __post_init__(self):
        counts = tuple(int(c) for c in self.counts)
        if any(c < 0 for c in counts):
            raise ValueError(f"occupation numbers must be nonnegative: {counts}")
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
