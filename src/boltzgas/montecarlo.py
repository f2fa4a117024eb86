"""Uniform microstate sampling and empirical validation statistics.

Sampling uses the stars-and-bars bijection (Nijenhuis & Wilf, *Combinatorial
Algorithms*, 1978): a uniform (N-1)-subset of the M+N-1 slot positions
determines per-particle energies, so every labeled microstate is drawn with
equal probability and no rejection.

The output contract: sample i belongs to chunk i // CHUNK_SIZE, whose generator
derives from (seed, chunk index) alone. A chunk is drawn in blocks that consume
its generator in order, and each block's counts are added to exact integer
accumulators. So neither the block size nor the order in which chunks are
reduced changes the result: a fixed config gives bit-identical statistics.
A block has BLOCK_ROWS rows, or fewer when a wide system's block would pass
BLOCK_BYTES, so the sampler's memory does not grow with M + N.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .moments import exact_moment
from .system import OccupationVector, SystemParams, _Value, integral_value, store_integral_fields

CHUNK_SIZE = 1 << 14
# Rows held in memory at once. A row's arrays peak at about 24 * (M+N-1) bytes
# (traced: 47 MiB for 1024 rows of 2019 slots), so a block has BLOCK_ROWS rows,
# or as many as fit in BLOCK_BYTES (at least one) once M+N-1 passes 2730.
BLOCK_ROWS = 1 << 10
BLOCK_BYTES = 64 << 20


class SamplerConfig(_Value):
    """Reproducibility key for a sampling run: identical configs give identical output."""

    _fields = ("params", "sample_count", "seed")

    def __init__(self, params: SystemParams, sample_count: int, seed: int):
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "sample_count", sample_count)
        object.__setattr__(self, "seed", seed)
        store_integral_fields(self, sample_count=1, seed=0)
        if self.seed >= 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")


def chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    """Generator for one chunk; the derivation rule is part of the output contract."""
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, chunk_index)))


def sample_microstate(params: SystemParams, rng: np.random.Generator) -> OccupationVector:
    """Draw one occupation vector uniformly over all microstates (a batch of one)."""
    return OccupationVector(tuple(_level_counts_batch(params, rng, 1)[0]))


def _level_counts_batch(params: SystemParams, rng: np.random.Generator, batch: int) -> np.ndarray:
    """(batch, M+1) array of level counts for a batch of independent microstates."""
    n, m = params.n_particles, params.energy_units
    if m == 0 or n == 1:  # one microstate: every particle on level M
        counts = np.zeros((batch, m + 1), dtype=np.int64)
        counts[:, m] = n
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
    return counts.astype(np.int64, copy=False)  # bincount may return int32 on Windows


class EmpiricalStats(_Value):
    """Integer-exact accumulators of a sampling run plus derived statistics."""

    _fields = ("config", "count_sums", "count_square_sums", "histograms")

    def __init__(
        self, config: SamplerConfig, count_sums: tuple, count_square_sums: tuple, histograms: dict
    ):
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "count_sums", count_sums)  # sum of n_j over samples, per level
        object.__setattr__(self, "count_square_sums", count_square_sums)  # sum of n_j^2, per level
        object.__setattr__(self, "histograms", histograms)  # level -> outcome counts over 0..N

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


def empirical_stats(config: SamplerConfig, histogram_cutoff: Optional[int] = None) -> EmpiricalStats:
    """Sample config.sample_count microstates and tabulate per-level statistics.

    Histograms are kept for levels 0..min(histogram_cutoff, M), cutoff 12 by
    default. Deterministic: a fixed config always returns the same object.
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
        histogram_cutoff = 12
    histogram_cutoff = min(integral_value("histogram_cutoff", histogram_cutoff, 0), m)
    sums = np.zeros(m + 1, dtype=np.int64)
    square_sums = np.zeros(m + 1, dtype=np.int64)
    histograms = np.zeros((histogram_cutoff + 1, n + 1), dtype=np.int64)
    block_rows = max(1, min(BLOCK_ROWS, BLOCK_BYTES // (24 * max(m + n - 1, 1))))
    remaining = config.sample_count
    chunk_index = 0
    while remaining > 0:
        rng = chunk_rng(config.seed, chunk_index)
        chunk_rows = min(CHUNK_SIZE, remaining)
        for start in range(0, chunk_rows, block_rows):
            counts = _level_counts_batch(params, rng, min(block_rows, chunk_rows - start))
            sums += counts.sum(axis=0)
            square_sums += np.einsum("ij,ij->j", counts, counts)
            for level in range(histogram_cutoff + 1):
                histograms[level] += np.bincount(counts[:, level], minlength=n + 1)
        remaining -= chunk_rows
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


class ZScoreRow(NamedTuple):
    level: int
    empirical_mean: float
    exact_mean: Fraction
    standard_error: float
    z_score: Optional[float]
    flagged: bool
    note: str = ""


def z_score_report(config: SamplerConfig | EmpiricalStats, levels) -> list:
    """Per-level z-scores of the empirical mean against the exact mean.

    ``config`` is a ``SamplerConfig``, which is sampled here, or the
    ``EmpiricalStats`` of a run already drawn; the means do not depend on the
    histogram cutoff, so both give the same rows. The standard error uses the
    exact variance of the count, <n_j^2> - <n_j>^2 from ``exact_moment``, so
    z is a clean N(0,1) statistic under the sampler's null; |z| > 4 is
    flagged. Levels with zero exact variance report an exact-match sentinel
    instead of a z-score.
    """
    if isinstance(config, EmpiricalStats):
        stats, config = config, config.config
    else:
        stats = None
    levels = [config.params.check_level(j) for j in levels]
    if stats is None:
        stats = empirical_stats(config, histogram_cutoff=0)
    rows = []
    for level in levels:
        exact_mean = exact_moment(config.params, level, 1)
        variance = exact_moment(config.params, level, 2) - exact_mean**2
        empirical = stats.means[level]
        if variance == 0:
            se, z = 0.0, None
            flagged = empirical != float(exact_mean)
            note = "deterministic-mismatch" if flagged else "exact-match"
        else:
            se = math.sqrt(float(variance) / config.sample_count)
            z = (empirical - float(exact_mean)) / se
            flagged, note = abs(z) > 4.0, ""
        rows.append(ZScoreRow(level, empirical, exact_mean, se, z, flagged, note))
    return rows
