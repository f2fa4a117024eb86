import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boltzgas import montecarlo
from boltzgas.cli import main
from boltzgas.distributions import occupation_pdf_exact
from boltzgas.enumeration import enumerate_macrostates
from boltzgas.montecarlo import (
    CHUNK_SIZE,
    SamplerConfig,
    _add_block,
    _energies_batch,
    chunk_rng,
    empirical_stats,
    sample_microstate,
    z_score_report,
)
from boltzgas.system import SystemParams, microstate_count


@pytest.fixture
def no_draws(monkeypatch):
    """Make any sampling fail, to show that a check raises before the first draw."""

    def fail(*args):
        raise AssertionError("sampled before the input check")

    monkeypatch.setattr(montecarlo, "chunk_rng", fail)


# SHA-256 of repr((count_sums, count_square_sums, histograms)) for 20_000
# samples (a full chunk plus 3616 rows) at seed 29, keyed by (N, M, cutoff),
# recorded before the sampler's statistics were accumulated from per-particle
# energies. Any change to the stream or to the accumulators shows here.
STREAM_DIGESTS = {
    (50, 100, None): "7ba5bd5bdd046762ac976fc2e4e150467af8fe2b78402e198b90445ceae5692a",
    (50, 100, 0): "a44c1d4fbfd7d1b2d06c13f97864e62b8ab22e495643e82f2d7d1b469cd181aa",
    (50, 100, 3): "3c2bf854267b276f4b5a4aae9b422a59693b078367359cafcad66ee2080cefa7",
    (100, 1000, None): "62a40628d6983a56fda6bbcd22762b7af2ec13f5d67fefdb1d29884aec9355f8",
    (100, 1000, 0): "802f38131d06d19d19f7f8533dee3e898532df9ad5a069d0cc2c4ef80998ea61",
    (100, 1000, 3): "fc2321649652642476b8bda90e39c18ad0b6409acd963b9402f9bae289694130",
    (50, 5000, None): "c157da184c5fa9f419d881811022c5d7d096b720a8f395b130f494de30adb933",
    (50, 5000, 0): "a287c3aeab9a48aba85d2962759e0bc9bdc1eeefd23a299aa1a7b95cf1ca3e7f",
    (50, 5000, 3): "c1be3b25f0414ca6c0bdcdbd8db0536d118cc08e44cd06fbdf47c147f2e95901",
    (1, 5, None): "cd56fd18e3ad395d7d35e29c2d4acb02c236a128de648b505a7bfb9644f95ba8",
    (1, 5, 0): "1ca6c0e1508dabbbd1a5c9dced40948e5ddd97491b529f24192ca022fcbf1e0c",
    (1, 5, 3): "954554d868e701d819a565b78bd77440ddae2a953852953e03c4ecde51f99c07",
    (4, 0, None): "7995b6be7697a61da9556a3b726a91ab8e34d48f647df52032bda43ea7ca4b1f",
    (4, 0, 0): "7995b6be7697a61da9556a3b726a91ab8e34d48f647df52032bda43ea7ca4b1f",
    (4, 0, 3): "7995b6be7697a61da9556a3b726a91ab8e34d48f647df52032bda43ea7ca4b1f",
    (3, 2, None): "d5336efecd0841234a6d7d35fe47d28ecafc52e9f8a07ad985ccf18d9a1f3e58",
    (3, 2, 0): "98f0c95270ce4e993ecb7e42af7b75005cd454824d48fae4a5a18d524eedb79b",
    (3, 2, 3): "d5336efecd0841234a6d7d35fe47d28ecafc52e9f8a07ad985ccf18d9a1f3e58",
}
# SHA-256 of the stdout of `mc --n 10 --m 15 --samples 20000 --seed 7`
MC_REPORT_DIGEST = "dcc8240f564f9020d39cb60fa9c0522b553f5bddf25a1b226412c9dce6c9afde"


class TestPinnedStream:
    @pytest.mark.parametrize("n, m, cutoff", list(STREAM_DIGESTS))
    def test_accumulators_match_the_recorded_digest(self, n, m, cutoff):
        stats = empirical_stats(SamplerConfig(SystemParams(n, m), 20_000, 29), cutoff)
        payload = (stats.count_sums, stats.count_square_sums, stats.histograms)
        digest = hashlib.sha256(repr(payload).encode()).hexdigest()
        assert digest == STREAM_DIGESTS[n, m, cutoff]

    def test_mc_report_matches_the_recorded_digest(self, capsys):
        assert main("mc --n 10 --m 15 --samples 20000 --seed 7".split()) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == MC_REPORT_DIGEST


class TestSamplerConfig:
    def test_rejects_bad_values(self):
        params = SystemParams(2, 2)
        with pytest.raises(ValueError):
            SamplerConfig(params, 0, 1)
        with pytest.raises(ValueError):
            SamplerConfig(params, 10, -1)
        with pytest.raises(ValueError):
            SamplerConfig(params, 10, 2**64)

    @pytest.mark.parametrize("sample_count, seed", [(True, 1), (2.5, 1), (10, True), (10, 1.0)])
    def test_rejects_non_integers(self, sample_count, seed):
        with pytest.raises(TypeError, match="must be an integer"):
            SamplerConfig(SystemParams(2, 2), sample_count, seed)

    def test_numpy_integers_stored_as_int(self):
        config = SamplerConfig(SystemParams(2, 2), np.int64(10), np.uint64(2**64 - 1))
        assert type(config.sample_count) is int and config.sample_count == 10
        assert type(config.seed) is int and config.seed == 2**64 - 1


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

    def test_counts_are_python_ints(self):
        state = sample_microstate(SystemParams(5, 7), chunk_rng(3, 0))
        assert all(type(c) is int for c in state.counts)

    def test_conservation(self):
        rng = chunk_rng(13, 0)
        for n, m in [(2, 2), (5, 7), (9, 4), (3, 11)]:
            params = SystemParams(n, m)
            for _ in range(25):
                sample_microstate(params, rng).check_conservation(params)


class TestBatchSampling:
    def test_batch_conserves(self):
        params = SystemParams(6, 9)
        energies = _energies_batch(params, chunk_rng(5, 0), 500)
        assert energies.shape == (500, 6) and energies.dtype == np.int64
        assert np.all(energies >= 0)
        assert np.all(energies.sum(axis=1) == 9)

    @settings(max_examples=150, deadline=None)
    @example(n=1, m=50, batch=3, seed=0)  # one microstate: N = 1
    @example(n=17, m=0, batch=5, seed=1)  # one microstate: M = 0
    @example(n=40, m=80, batch=64, seed=2)  # the general path at its largest
    @given(
        n=st.integers(1, 40),
        m=st.integers(0, 80),
        batch=st.integers(1, 64),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_conservation_at_random_sizes(self, n, m, batch, seed):
        energies = _energies_batch(SystemParams(n, m), chunk_rng(seed, 0), batch)
        assert energies.dtype == np.int64 and energies.shape == (batch, n)
        assert np.all(energies >= 0)
        assert np.all(energies.sum(axis=1) == m)

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 30),
        m=st.integers(0, 60),
        batch=st.integers(1, 40),
        cutoff=st.integers(0, 70),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_block_statistics_match_the_count_vectors(self, n, m, batch, cutoff, seed):
        # the runs of sorted energies against each sample's M+1 counts, built one by one
        energies = _energies_batch(SystemParams(n, m), chunk_rng(seed, 0), batch)
        drawn = energies.copy()
        counts = np.array([np.bincount(row, minlength=m + 1) for row in energies])
        cutoff = min(cutoff, m)
        sums, square_sums = np.zeros(m + 1, np.int64), np.zeros(m + 1, np.int64)
        histograms = np.zeros((cutoff + 1, n + 1), np.int64)
        _add_block(energies, sums, square_sums, histograms)
        assert np.array_equal(energies, drawn)
        assert np.array_equal(sums, counts.sum(axis=0))
        assert np.array_equal(square_sums, (counts * counts).sum(axis=0))
        for level in range(cutoff + 1):
            assert np.array_equal(histograms[level], np.bincount(counts[:, level], minlength=n + 1))

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
            energies = _energies_batch(params, chunk_rng(99, index), batch)
            # one bincount per row, offset so that the rows share one call
            width = params.level_count
            flat = energies + width * np.arange(batch)[:, None]
            counts = np.bincount(flat.ravel(), minlength=width * batch).reshape(batch, width)
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
            energies = _energies_batch(config.params, chunk_rng(config.seed, index), batch)
            sums += np.bincount(energies.ravel(), minlength=7)
        assert tuple(int(v) for v in sums) == reference.count_sums

    def test_rejects_square_sum_overflow(self, no_draws):
        # 2^24 samples of N = 2^20 particles: sample_count * N^2 = 2^64, which
        # wraps to 0 if the product is taken in int64
        for sample_count in (2**24, np.int64(2**24)):
            config = SamplerConfig(SystemParams(2**20, 3), sample_count, 5)
            with pytest.raises(ValueError, match="2\\^63"):
                empirical_stats(config)

    @pytest.mark.parametrize(
        "n, m, cutoff, match",
        [
            # one row of 3,000,009 keys passes BLOCK_BYTES // 24 = 2,796,202
            (10, 3 * 10**6, 0, "3000009 keys"),
            # (10**6 + 1) * 1001 int64 histogram cells, about 8 GB
            (1000, 10**6, 10**6, "1001001001 histogram cells"),
        ],
    )
    def test_rejects_a_run_past_its_memory_bounds(self, no_draws, n, m, cutoff, match):
        config = SamplerConfig(SystemParams(n, m), 1, 1)
        with pytest.raises(ValueError, match=match):
            empirical_stats(config, histogram_cutoff=cutoff)

    @pytest.mark.parametrize("cutoff", [-1, -3])
    def test_rejects_negative_histogram_cutoff(self, no_draws, cutoff):
        config = SamplerConfig(SystemParams(4, 6), 100, 5)
        with pytest.raises(ValueError, match="histogram_cutoff must be >= 0"):
            empirical_stats(config, histogram_cutoff=cutoff)

    @pytest.mark.parametrize("cutoff", [True, 2.5, "2"])
    def test_rejects_non_integer_histogram_cutoff(self, no_draws, cutoff):
        config = SamplerConfig(SystemParams(4, 6), 100, 5)
        with pytest.raises(TypeError, match="histogram_cutoff must be an integer"):
            empirical_stats(config, histogram_cutoff=cutoff)

    @pytest.mark.parametrize("cutoff", [np.int64(2), np.uint8(2)])
    def test_numpy_integer_histogram_cutoff(self, cutoff):
        config = SamplerConfig(SystemParams(4, 6), 100, 5)
        stats = empirical_stats(config, histogram_cutoff=cutoff)
        assert stats == empirical_stats(config, histogram_cutoff=2)
        assert all(type(level) is int for level in stats.histograms)

    @pytest.mark.parametrize("n, m", [(4, 6), (3, 0), (1, 5)])
    def test_block_size_does_not_change_stream(self, monkeypatch, n, m):
        # 20_000 samples: a full chunk plus 3616 rows, neither a multiple of 7 or 1000
        config = SamplerConfig(SystemParams(n, m), 20_000, 31)
        reference = empirical_stats(config)
        for rows in (1, 7, 1000, CHUNK_SIZE):
            monkeypatch.setattr(montecarlo, "BLOCK_ROWS", rows)
            assert empirical_stats(config) == reference

    def test_peak_memory_is_bounded_by_a_block(self):
        # One 16384-row chunk of the wide system: 19 MiB traced in 1024-row
        # blocks, where its keys and indices alone would take 275 MiB at once.
        config = SamplerConfig(SystemParams(100, 1000), CHUNK_SIZE, 101)
        tracemalloc.start()
        try:
            empirical_stats(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 2**20

    def test_wide_blocks_keep_to_the_byte_budget(self, monkeypatch):
        # 2019 slots: 1024-row blocks trace about 32 MiB, and a 1 MiB budget
        # gives 21-row blocks that draw the same stream.
        config = SamplerConfig(SystemParams(20, 2000), 2000, 17)
        reference = empirical_stats(config)
        monkeypatch.setattr(montecarlo, "BLOCK_BYTES", 2**20, raising=False)
        tracemalloc.start()
        try:
            stats = empirical_stats(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stats == reference
        assert peak <= 4 * 2**20

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

    def test_deterministic_mismatch_is_flagged(self, monkeypatch):
        # mean 2 and second moment 4: zero variance, while every sample reads 1
        monkeypatch.setattr(
            montecarlo, "exact_moment", lambda params, level, order: Fraction(2**order)
        )
        config = SamplerConfig(SystemParams(1, 5), 1_000, 9)
        (row,) = z_score_report(config, [5])
        assert row.flagged and row.note == "deterministic-mismatch"
        assert row.z_score is None and row.standard_error == 0.0
        assert (row.empirical_mean, row.exact_mean) == (1.0, 2)

    def test_standard_error_scaling(self):
        params = SystemParams(10, 15)
        small = z_score_report(SamplerConfig(params, 20_000, 5), [1])[0]
        large = z_score_report(SamplerConfig(params, 40_000, 5), [1])[0]
        ratio = large.standard_error / small.standard_error
        assert abs(ratio - 1 / math.sqrt(2)) <= 0.2 / math.sqrt(2)

    def test_stats_and_config_give_equal_rows(self):
        config = SamplerConfig(SystemParams(8, 12), 5_000, 17)
        from_config = z_score_report(config, range(13))
        assert z_score_report(empirical_stats(config), range(13)) == from_config
        assert z_score_report(empirical_stats(config, histogram_cutoff=3), range(13)) == from_config

    def test_rejects_bad_levels(self):
        config = SamplerConfig(SystemParams(2, 2), 100, 1)
        with pytest.raises(ValueError):
            z_score_report(config, [5])
        with pytest.raises(TypeError, match="level must be an integer"):
            z_score_report(config, [1.0])
        with pytest.raises(TypeError, match="level must be an integer"):
            z_score_report(config, [True])

    def test_numpy_levels(self):
        config = SamplerConfig(SystemParams(4, 6), 500, 3)
        rows = z_score_report(config, np.array([0, 2]))
        assert rows == z_score_report(config, [0, 2])
        assert [type(row.level) for row in rows] == [int, int]
