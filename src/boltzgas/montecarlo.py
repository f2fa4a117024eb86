"""Uniform microstate sampling and empirical validation statistics.

Sampling uses the stars-and-bars bijection (Nijenhuis & Wilf, *Combinatorial
Algorithms*, 1978): a uniform (N-1)-subset of the M+N-1 slot positions
determines per-particle energies, so every labeled microstate is drawn with
equal probability and no rejection.

The statistics accumulate from those N per-particle energies, never from a
sample's M+1 level counts: sorting a sample's energies makes each run of
equal energy one occupied level, and the run's length is that level's count.
So post-processing a sample costs O(N log N), whatever M is; drawing it
costs O(M+N).

The output contract: sample i belongs to chunk i // CHUNK_SIZE, whose generator
derives from (seed, chunk index) alone. A chunk is drawn in blocks that consume
its generator in order, and each block's statistics are added to exact integer
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

from .combinatorics import integral_value
from .moments import exact_moment
from .system import OccupationVector, SystemParams, _Value, check_budget, store_integral_fields

CHUNK_SIZE = 1 << 14
# Rows held in memory at once. A block peaks while its float64 keys and their
# int64 argpartition indices are both held, about 16 bytes per slot (traced:
# 32.5 MiB for 1024 rows of 2019 slots, 46.8 MiB for 254 rows of 10999); the
# byte budget counts 24 per slot, so a block has BLOCK_ROWS rows, or as many as
# fit in BLOCK_BYTES once M+N-1 passes 2730; a run whose one row does not fit is refused.
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
    energies = _energies_batch(params, rng, 1)[0]
    return OccupationVector(tuple(np.bincount(energies, minlength=params.level_count).tolist()))


def _energies_batch(params: SystemParams, rng: np.random.Generator, batch: int) -> np.ndarray:
    """(batch, N) int64 array of per-particle energies for a batch of independent microstates."""
    n, m = params.n_particles, params.energy_units
    if m == 0 or n == 1:  # one microstate: every particle on level M
        return np.full((batch, n), m, dtype=np.int64)
    slots = m + n - 1
    keys = rng.random((batch, slots))
    bars = np.argpartition(keys, n - 1, axis=1)[:, : n - 1]
    # a slot index is < M+N-1, below 2^31 in any row of keys that fits in memory:
    # int32 rows sort in about half the time of int64
    bars = np.sort(bars.astype(np.int32), axis=1)
    edges = np.concatenate(
        (np.full((batch, 1), -1), bars, np.full((batch, 1), slots)), axis=1
    )
    energies = np.diff(edges, axis=1) - 1
    if energies.min() < 0 or not np.all(energies.sum(axis=1) == m):
        raise AssertionError("sampled microstate violates a conservation law")
    return energies.astype(np.int64, copy=False)  # NumPy's default int is int32 on some hosts


def _add_block(energies: np.ndarray, sums, square_sums, histograms) -> None:
    """Add one block's per-level statistics to the int64 accumulators, in place.

    Sorting each row of ``energies`` makes every run of equal energy one
    occupied (sample, level) cell, of count c = the run's length; levels no
    particle of a sample holds have count 0 and add nothing to Σc or Σc².
    Histogram row j counts its cells at c, and its bin 0 takes the samples
    with no run at level j.
    """
    rows, n = energies.shape
    # every energy is <= M, below 2^31 as above: int32 rows sort in about half the time of int64
    energies = energies.astype(np.int32)
    energies.sort(axis=1)
    flat = energies.ravel()
    run_start = np.empty(flat.size, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=run_start[1:])
    run_start[::n] = True  # each row's first particle starts a run
    starts = np.flatnonzero(run_start)
    levels = flat[starts]
    lengths = np.diff(starts, append=flat.size)
    np.add.at(sums, levels, lengths)
    np.add.at(square_sums, levels, lengths * lengths)
    cutoff = len(histograms) - 1
    low = levels <= cutoff
    cell_index = (n + 1) * levels[low].astype(np.int64) + lengths[low]
    cells = np.bincount(cell_index, minlength=histograms.size).reshape(histograms.shape)
    cells[:, 0] = rows - cells.sum(axis=1)
    histograms += cells


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
    Raises ValueError before the first draw when sample_count * N^2 reaches
    2^63, when one row of M+N-1 keys passes BLOCK_BYTES, or past the work
    budget's rows in histogram cells (cutoff + 1)(N + 1).
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
    slots, cells = max(m + n - 1, 1), (histogram_cutoff + 1) * (n + 1)
    if slots > BLOCK_BYTES // 24:
        raise ValueError(f"N={n}, M={m}: needs a row of {slots} keys, at most {BLOCK_BYTES // 24}")
    check_budget(f"{cells} histogram cells of N={n}, M={m}", cells)
    sums = np.zeros(m + 1, dtype=np.int64)
    square_sums = np.zeros(m + 1, dtype=np.int64)
    histograms = np.zeros((histogram_cutoff + 1, n + 1), dtype=np.int64)
    block_rows = min(BLOCK_ROWS, BLOCK_BYTES // (24 * slots))
    remaining = config.sample_count
    chunk_index = 0
    while remaining > 0:
        rng = chunk_rng(config.seed, chunk_index)
        chunk_rows = min(CHUNK_SIZE, remaining)
        for start in range(0, chunk_rows, block_rows):
            energies = _energies_batch(params, rng, min(block_rows, chunk_rows - start))
            _add_block(energies, sums, square_sums, histograms)
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
