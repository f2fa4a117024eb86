"""System parameters and occupation vectors for the quantized ideal-gas model.

The model: N distinguishable particles share M indivisible energy quanta over
equidistant levels j = 0..M. A macrostate is the vector of per-level particle
counts; every labeled assignment (microstate) with total energy M is equally
likely, and there are C(M+N-1, N-1) of them. The "temperature" of a system is
the specific energy M/N. The level-range check, the level selections of the
joint laws and the law type ``DistributionTable`` are defined here, once, for
the exact laws, their limits and the oracle alike, and so are the one walk and
count of the count vectors that fit a selection, and the one work budget that
every exact path checks before it starts (README, "Limits").
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce, update_wrapper
from itertools import zip_longest

from .combinatorics import _binomial, integral_value

_LIMIT_SUM_TOLERANCE = 1e-12

# The one work budget, read by ``check_budget`` alone (README, "Limits"): the
# most entries or output rows, bytes of integers and 64-bit word operations a
# computation may estimate before it starts. 2^30 words of shift took about
# 1.7 s on a shared 2-core Xeon with Python 3.11.
MAX_OUTPUT_ROWS = 1_000_000
MAX_TABLE_BYTES = 1 << 28
MAX_SHIFT_WORDS = 1 << 30


def store_integral_fields(instance, **minimums) -> None:
    """Store each ``field=minimum`` of a value type as a checked int (see ``integral_value``)."""
    for name, minimum in minimums.items():
        object.__setattr__(instance, name, integral_value(name, getattr(instance, name), minimum))


class _Value:
    """The package's immutable value type: equality, hash and repr over ``_fields``.

    A subclass lists its fields in order and stores each one in its own
    ``__init__`` with ``object.__setattr__``. Instances of different classes
    never compare equal, and assigning or deleting an attribute raises
    AttributeError.
    """

    _fields = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class SystemParams(_Value):
    """An isolated system: particle count N >= 1 and total energy quanta M >= 0."""

    _fields = ("n_particles", "energy_units")

    def __init__(self, n_particles: int, energy_units: int):
        object.__setattr__(self, "n_particles", n_particles)
        object.__setattr__(self, "energy_units", energy_units)
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


class OccupationVector(_Value):
    """Particle counts per energy level: counts[j] particles carry j quanta each."""

    _fields = ("counts",)

    def __init__(self, counts: tuple):
        counts = tuple(counts)
        # counts that are all non-negative ints need no per-count check
        if not (list(map(type, counts)).count(int) == len(counts) and min(counts, default=0) >= 0):
            counts = tuple(integral_value("occupation number", c, 0) for c in counts)
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


def _fitting_counts(particles: int, quanta: int, level: int) -> int:
    """How many counts k = 0, 1, ... fit at ``level``, with ``particles`` and ``quanta`` left.

    k stops at the particles and at the quanta's room; k = every particle needs exactly the quanta.
    """
    top = min(particles, quanta // level) if level else particles
    return top + 1 - (top == particles and particles * level != quanta)


def fitting_vectors(n: int, m: int, levels: tuple):
    """(counts, particles left, quanta left) of every count vector at ``levels`` that fits, lazily.

    A vector fits when it leaves no quanta without a particle: these index the joint law's
    nonzero binomial moments and hold every count vector the oracle can weigh, in lexicographic order.
    """
    def extend(vectors, level):
        return ((c + (k,), p - k, e - k * level) for c, p, e in vectors
                for k in range(_fitting_counts(p, e, level)))

    return reduce(extend, levels, [((), n, m)])


def fitting_vector_count(n: int, m: int, levels: tuple) -> int:
    """The number of ``fitting_vectors``, counted until past MAX_OUTPUT_ROWS: the last level's arithmetically."""
    *head, last = levels
    count = 0
    for _, particles, quanta in fitting_vectors(n, m, head):
        if count > MAX_OUTPUT_ROWS:
            break
        count += _fitting_counts(particles, quanta, last)
    return count


def entry_bits(n: int, m: int, arity: int) -> float:
    """Estimated bits of one entry of an exact law over ``arity`` levels, from ``math.log2`` alone.

    An entry of the N+1 weights of one level or of a joint table (the closed
    form's, or the oracle's, whose entries are at most the closed form's) is a
    multinomial coefficient, below (arity + 1)^N, times a binomial of at most
    C(M+N-1, k) < (e (M+N) / k)^k, k = min(N-1, M).
    """
    k = min(n - 1, m)
    return n * math.log2(arity + 1) + k * (math.log2(m + n) - math.log2(max(k, 1)) + math.log2(math.e))


def one_slot_cache(build):
    """``build`` behind a cache of one result, emptied before a build under a new key and by ``cache_clear``."""
    slot = {}

    def cached(*key):
        if key not in slot:
            slot.clear()
            slot[key] = build(*key)
        return slot[key]

    cached.cache_clear = slot.clear
    return update_wrapper(cached, build)


def check_budget(what: str, rows: int, bits: float = 0, words: float = 0) -> None:
    """Refuse work past the one budget of the package before any of it is done (README, "Limits").

    ``rows`` entries or output rows against MAX_OUTPUT_ROWS, ``bits`` of
    integers in all against 8 MAX_TABLE_BYTES, and ``words`` 64-bit word
    operations against MAX_SHIFT_WORDS, each a caller's estimate; the
    ValueError names ``what``.
    """
    if rows > MAX_OUTPUT_ROWS:
        raise ValueError(f"{what}: over {MAX_OUTPUT_ROWS} entries")
    if bits > 8 * MAX_TABLE_BYTES:
        raise ValueError(f"{what}: about {bits / 8:.3g} bytes of integers, over {MAX_TABLE_BYTES}")
    if words > MAX_SHIFT_WORDS:
        raise ValueError(f"{what}: about {words:.3g} word operations, over {MAX_SHIFT_WORDS}")


class DistributionTable(_Value):
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
    Equal laws compare and hash equal, whatever total each is held over.
    """

    _fields = ("probabilities", "mode")

    def __init__(self, probabilities: tuple, mode: str):
        if mode not in ("exact", "limit"):
            raise ValueError(f"mode must be 'exact' or 'limit', got {mode!r}")
        object.__setattr__(self, "mode", mode)
        if mode == "limit":
            self._store(probabilities, 1)
            return
        values = [Fraction(p) for p in probabilities]
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

    __hash__ = _Value.__hash__  # hashes the values, so equal laws over other totals hash equal

    @property
    def probabilities(self) -> tuple:
        """Entry k is P(count = k): a Fraction when exact, a float when limit."""
        return tuple(map(self._value, self._weights))

    def probability(self, count):
        """P(count); 0 outside 0..len-1. ``count`` is an integer (see ``integral_value``)."""
        count = integral_value("count", count)
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
