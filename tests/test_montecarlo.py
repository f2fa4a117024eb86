import math
from fractions import Fraction

import numpy as np
import pytest

from boltzgas.distributions import occupation_pdf_exact
from boltzgas.enumeration import enumerate_macrostates, microstate_count
from boltzgas.montecarlo import (
    CHUNK_SIZE,
    SamplerConfig,
    _level_counts_batch,
    chunk_rng,
    empirical_stats,
    sample_microstate,
    z_score_report,
)
from boltzgas.system import SystemParams


class TestSamplerConfig:
    def test_rejects_bad_values(self):
        params = SystemParams(2, 2)
        with pytest.raises(ValueError):
            SamplerConfig(params, 0, 1)
        with pytest.raises(ValueError):
            SamplerConfig(params, 10, -1)
        with pytest.raises(ValueError):
            SamplerConfig(params, 10, 2**64)


class TestSampleMicrostate:
    def test_single_particle_is_forced(self):
        rng = chunk_rng(7, 0)
        for _ in range(20):
            state = sample_microstate(SystemParams(1, 5), rng)
            assert tuple(state) == (0, 0, 0, 0, 0, 1)

    def test_two_particles_one_quantum(self):
        rng = chunk_rng(11, 0)
        for _ in range(50):
            state = sample_microstate(SystemParams(2, 1), rng)
            assert tuple(state) == (1, 1)

    def test_zero_energy(self):
        state = sample_microstate(SystemParams(4, 0), chunk_rng(3, 0))
        assert tuple(state) == (4,)

    def test_conservation(self):
        rng = chunk_rng(13, 0)
        for n, m in [(2, 2), (5, 7), (9, 4), (3, 11)]:
            params = SystemParams(n, m)
            for _ in range(25):
                sample_microstate(params, rng).check_conservation(params)


class TestBatchSampling:
    def test_batch_conserves(self):
        params = SystemParams(6, 9)
        counts = _level_counts_batch(params, chunk_rng(5, 0), 500)
        assert counts.shape == (500, 10)
        assert np.all(counts.sum(axis=1) == 6)
        energies = counts @ np.arange(10)
        assert np.all(energies == 9)

    def test_uniform_over_microstates(self):
        # chi-squared against multiplicity/total for every macrostate of (3, 3)
        params = SystemParams(3, 3)
        expected = {
            tuple(item.state): item.multiplicity / microstate_count(params)
            for item in enumerate_macrostates(params)
        }
        samples = 1_000_000
        observed = {key: 0 for key in expected}
        remaining, index = samples, 0
        while remaining:
            batch = min(CHUNK_SIZE, remaining)
            counts = _level_counts_batch(params, chunk_rng(99, index), batch)
            keys, freq = np.unique(counts, axis=0, return_counts=True)
            for key, count in zip(map(tuple, keys), freq):
                observed[key] += int(count)
            remaining -= batch
            index += 1
        chi_sq = sum(
            (observed[key] - samples * p) ** 2 / (samples * p)
            for key, p in expected.items()
        )
        # dof = 2; p-value exp(-x/2) must stay above 1e-4
        assert math.exp(-chi_sq / 2) > 1e-4


class TestEmpiricalStats:
    def test_reproducible(self):
        config = SamplerConfig(SystemParams(5, 8), 40_000, 12345)
        assert empirical_stats(config) == empirical_stats(config)

    def test_seed_changes_output(self):
        params = SystemParams(5, 8)
        a = empirical_stats(SamplerConfig(params, 40_000, 1))
        b = empirical_stats(SamplerConfig(params, 40_000, 2))
        assert a.count_sums != b.count_sums

    def test_chunk_order_independent(self):
        # reductions are integer-exact, so worker partitioning cannot matter
        config = SamplerConfig(SystemParams(4, 6), 40_000, 77)
        reference = empirical_stats(config)
        sums = np.zeros(7, dtype=np.int64)
        chunks = []
        remaining, index = config.sample_count, 0
        while remaining:
            batch = min(CHUNK_SIZE, remaining)
            chunks.append((index, batch))
            remaining -= batch
            index += 1
        for index, batch in reversed(chunks):
            counts = _level_counts_batch(config.params, chunk_rng(config.seed, index), batch)
            sums += counts.sum(axis=0)
        assert tuple(int(v) for v in sums) == reference.count_sums

    def test_rejects_square_sum_overflow(self, monkeypatch):
        # 2^24 samples of N = 2^20 particles: sample_count * N^2 = 2^64
        def no_draws(*args):
            raise AssertionError("sampled before the overflow check")

        monkeypatch.setattr("boltzgas.montecarlo.chunk_rng", no_draws)
        config = SamplerConfig(SystemParams(2**20, 3), 2**24, 5)
        with pytest.raises(ValueError, match="2\\^63"):
            empirical_stats(config)

    def test_single_particle_zero_variance(self):
        config = SamplerConfig(SystemParams(1, 5), 5_000, 3)
        stats = empirical_stats(config)
        assert all(v == 0.0 for v in stats.variances)
        assert stats.means[5] == 1.0

    def test_macrostate_frequency(self):
        # P(n_1 = 2) picks out the all-on-level-1 macrostate of (2, 2)
        config = SamplerConfig(SystemParams(2, 2), 1_000_000, 4242)
        stats = empirical_stats(config)
        frequency = stats.histograms[1][2] / config.sample_count
        tolerance = 3 * math.sqrt((2 / 9) / config.sample_count)
        assert abs(frequency - 1 / 3) <= tolerance

    def test_histogram_close_to_exact_law(self):
        params = SystemParams(20, 40)
        config = SamplerConfig(params, 200_000, 2024)
        stats = empirical_stats(config)
        table = occupation_pdf_exact(params, 1)
        tv = 0.5 * sum(
            abs(stats.histograms[1][k] / config.sample_count - float(table.probabilities[k]))
            for k in range(21)
        )
        assert tv <= 0.01


class TestZScoreReport:
    def test_all_levels_within_four_sigma(self):
        config = SamplerConfig(SystemParams(50, 100), 100_000, 42)
        rows = z_score_report(config, range(11))
        assert all(not row.flagged for row in rows)
        assert all(abs(row.z_score) <= 4 for row in rows)

    def test_zero_variance_sentinel(self):
        config = SamplerConfig(SystemParams(1, 5), 1_000, 9)
        (row,) = z_score_report(config, [5])
        assert row.z_score is None
        assert row.note == "exact-match"
        assert not row.flagged
        assert row.exact_mean == Fraction(1)

    def test_standard_error_scaling(self):
        params = SystemParams(10, 15)
        small = z_score_report(SamplerConfig(params, 20_000, 5), [1])[0]
        large = z_score_report(SamplerConfig(params, 40_000, 5), [1])[0]
        ratio = large.standard_error / small.standard_error
        assert abs(ratio - 1 / math.sqrt(2)) <= 0.2 / math.sqrt(2)

    def test_rejects_bad_levels(self):
        config = SamplerConfig(SystemParams(2, 2), 100, 1)
        with pytest.raises(ValueError):
            z_score_report(config, [5])
