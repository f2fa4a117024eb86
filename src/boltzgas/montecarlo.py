"""Uniform microstate sampling and empirical validation statistics.

Sampling uses the stars-and-bars bijection: a uniform (N-1)-subset of the
M+N-1 slot positions determines per-particle energies, so every labeled
microstate is drawn with equal probability and no rejection. Work is split
into fixed-size chunks whose generators derive from (seed, chunk index);
statistics accumulate in exact integer counters, so results are bit-identical
however the chunks are distributed over workers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

import numpy as np

from .moments import exact_moment
from .system import OccupationVector, SystemParams

CHUNK_SIZE = 1 << 14


@dataclass(frozen=True)
class SamplerConfig:
    """Reproducibility key for a sampling run: identical configs give identical output."""

    params: SystemParams
    sample_count: int
    seed: int

    def __post_init__(self):
        if self.sample_count < 1:
            raise ValueError(f"sample_count must be >= 1, got {self.sample_count}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")


def chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    """Generator for one chunk; the derivation rule is part of the output contract."""
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, chunk_index)))


def sample_microstate(params: SystemParams, rng: np.random.Generator) -> OccupationVector:
    """Draw one occupation vector uniformly over all microstates (a batch of one)."""
    return OccupationVector(tuple(int(c) for c in _level_counts_batch(params, rng, 1)[0]))


def _level_counts_batch(params: SystemParams, rng: np.random.Generator, batch: int) -> np.ndarray:
    """(batch, M+1) array of level counts for a batch of independent microstates."""
    n, m = params.n_particles, params.energy_units
    counts = np.zeros((batch, m + 1), dtype=np.int64)
    if m == 0:
        counts[:, 0] = n
        return counts
    if n == 1:
        counts[:, m] = 1
        return counts
    slots = m + n - 1
    keys = rng.random((batch, slots))
    bars = np.sort(np.argpartition(keys, n - 1, axis=1)[:, : n - 1], axis=1)
    edges = np.concatenate(
        (np.full((batch, 1), -1), bars, np.full((batch, 1), slots)), axis=1
    )
    energies = np.diff(edges, axis=1) - 1  # (batch, N) per-particle energies
    if energies.min() < 0 or not np.all(energies.sum(axis=1) == m):
        raise AssertionError("sampled microstate violates a conservation law")
    flat = energies + (m + 1) * np.arange(batch)[:, None]
    counts = np.bincount(flat.ravel(), minlength=batch * (m + 1)).reshape(batch, m + 1)
    return counts.astype(np.int64)


@dataclass(frozen=True)
class EmpiricalStats:
    """Integer-exact accumulators of a sampling run plus derived statistics."""

    config: SamplerConfig
    count_sums: tuple  # sum of n_j over samples, per level
    count_square_sums: tuple  # sum of n_j^2 over samples, per level
    histograms: dict  # level -> tuple of outcome counts over 0..N

    @cached_property
    def means(self) -> tuple:
        s = self.config.sample_count
        return tuple(v / s for v in self.count_sums)

    @cached_property
    def variances(self) -> tuple:
        s = self.config.sample_count
        return tuple(
            sq / s - (v / s) ** 2
            for v, sq in zip(self.count_sums, self.count_square_sums)
        )

    def histogram_frequencies(self, level: int) -> tuple:
        counts = self.histograms[level]
        return tuple(c / self.config.sample_count for c in counts)


def empirical_stats(config: SamplerConfig, histogram_cutoff: Optional[int] = None) -> EmpiricalStats:
    """Sample config.sample_count microstates and tabulate per-level statistics.

    Histograms are kept for levels 0..histogram_cutoff (default: up to level
    min(M, 12)). Deterministic: a fixed config always returns the same object.
    """
    params = config.params
    n, m = params.n_particles, params.energy_units
    # A level's int64 square sum reaches sample_count * N^2 (all particles on it).
    square_sum_bound = config.sample_count * n * n
    if square_sum_bound >= 2**63:
        raise ValueError(
            f"sample_count * N^2 = {square_sum_bound} overflows the int64 square sums; "
            "need sample_count * N^2 < 2^63"
        )
    if histogram_cutoff is None:
        histogram_cutoff = min(m, 12)
    histogram_cutoff = min(histogram_cutoff, m)
    sums = np.zeros(m + 1, dtype=np.int64)
    square_sums = np.zeros(m + 1, dtype=np.int64)
    histograms = np.zeros((histogram_cutoff + 1, n + 1), dtype=np.int64)
    remaining = config.sample_count
    chunk_index = 0
    while remaining > 0:
        batch = min(CHUNK_SIZE, remaining)
        counts = _level_counts_batch(params, chunk_rng(config.seed, chunk_index), batch)
        sums += counts.sum(axis=0)
        square_sums += (counts * counts).sum(axis=0)
        for level in range(histogram_cutoff + 1):
            histograms[level] += np.bincount(counts[:, level], minlength=n + 1)
        remaining -= batch
        chunk_index += 1
    return EmpiricalStats(
        config=config,
        count_sums=tuple(int(v) for v in sums),
        count_square_sums=tuple(int(v) for v in square_sums),
        histograms={
            level: tuple(int(c) for c in histograms[level])
            for level in range(histogram_cutoff + 1)
        },
    )


@dataclass(frozen=True)
class ZScoreRow:
    level: int
    empirical_mean: float
    exact_mean: Fraction
    standard_error: float
    z_score: Optional[float]
    flagged: bool
    note: str = ""


def z_score_report(config: SamplerConfig, levels) -> list:
    """Per-level z-scores of the empirical mean against the exact mean.

    The standard error uses the exact occupation variance, so z is a clean
    N(0,1) statistic under the sampler's null; |z| > 4 is flagged. Levels with
    zero exact variance report an exact-match sentinel instead of a z-score.
    """
    levels = [int(j) for j in levels]
    if any(j < 0 or j > config.params.energy_units for j in levels):
        raise ValueError(f"levels must lie in 0..{config.params.energy_units}")
    stats = empirical_stats(config, histogram_cutoff=0)
    rows = []
    for level in levels:
        exact_mean = exact_moment(config.params, level, 1)
        exact_second = exact_moment(config.params, level, 2)
        variance = exact_second - exact_mean * exact_mean
        empirical = stats.means[level]
        if variance == 0:
            exact = empirical == float(exact_mean)
            rows.append(
                ZScoreRow(
                    level=level,
                    empirical_mean=empirical,
                    exact_mean=exact_mean,
                    standard_error=0.0,
                    z_score=None,
                    flagged=not exact,
                    note="exact-match" if exact else "deterministic-mismatch",
                )
            )
            continue
        se = math.sqrt(float(variance) / config.sample_count)
        z = (empirical - float(exact_mean)) / se
        rows.append(
            ZScoreRow(
                level=level,
                empirical_mean=empirical,
                exact_mean=exact_mean,
                standard_error=se,
                z_score=z,
                flagged=abs(z) > 4.0,
            )
        )
    return rows
