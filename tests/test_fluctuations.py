import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from boltzgas import fluctuations, system
from boltzgas.fluctuations import (
    covariance_matrix,
    mean_vector,
    pearson_correlation,
    total_fluctuation_ratio,
)
from boltzgas.moments import variance_limit


class TestMeanVector:
    def test_ground_level_value(self):
        means = mean_vector(100, 1.0, 5)
        assert means[0] == pytest.approx(50.0, rel=1e-12)

    def test_strictly_decreasing(self):
        means = mean_vector(30, 2.5, 12)
        assert all(a > b for a, b in zip(means, means[1:]))

    def test_total_mass(self):
        n, t, m = 100, 1.0, 20
        means = mean_vector(n, t, m)
        expected = n * (1.0 - (t / (1 + t)) ** (m + 1))
        assert sum(means) == pytest.approx(expected, rel=1e-12)

    def test_rejects_bad_temperature(self):
        with pytest.raises(ValueError):
            mean_vector(10, 0.0, 4)
        for temperature in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                mean_vector(10, temperature, 4)
            with pytest.raises(ValueError, match="finite"):
                covariance_matrix(10, temperature, 4)


class TestCovarianceMatrix:
    def test_frozen_entries(self):
        # pinned bit for bit: the same float operations in the same order
        assert covariance_matrix(100, 1.0, 3) == (
            (25.0, -12.5, -6.250000000000002, -3.125),
            (-12.5, 18.75, -3.125000000000001, -1.5625),
            (-6.250000000000002, -3.125000000000001, 10.937500000000004, -0.7812500000000002),
            (-3.125, -1.5625, -0.7812500000000002, 5.859375),
        )

    def test_rows_are_immutable(self):
        cov = covariance_matrix(100, 1.0, 3)
        with pytest.raises(TypeError):
            cov[0][1] = 0.0
        with pytest.raises(TypeError):
            cov[0] = (0.0,) * 4

    def test_diagonal_matches_variance_limit(self):
        n, t, m = 100, 3.0, 15
        cov = covariance_matrix(n, t, m)
        for level in range(m + 1):
            expected = n * n * variance_limit(n, t, level)
            assert cov[level][level] == pytest.approx(expected, rel=1e-12)

    def test_symmetry_and_sign_pattern(self):
        for t in np.logspace(-2, 2, 50):
            entries = covariance_matrix(25, float(t), 8)
            for a, b in itertools.product(range(9), repeat=2):
                assert entries[a][b] == pytest.approx(entries[b][a], rel=1e-13, abs=0.0)
                assert entries[a][b] > 0 if a == b else entries[a][b] < 0

    def test_row_sums(self):
        n, t, m = 40, 2.0, 10
        cov = covariance_matrix(n, t, m)
        ratio = t / (1 + t)
        p = np.array([ratio**l / (1 + t) for l in range(m + 1)])
        expected = n * p * ratio ** (m + 1)
        assert [sum(row) for row in cov] == pytest.approx(expected, rel=1e-10)

    def test_row_sums_vanish_at_large_cutoff(self):
        cov = covariance_matrix(40, 2.0, 300)
        assert max(abs(sum(row)) for row in cov) < 1e-12

    def test_matches_brute_force_multinomial(self):
        # exact multinomial moments at N=8 over the three lowest levels
        n, t = 8, Fraction(2)
        ratio = t / (t + 1)
        probs = [ratio**l / t for l in (1, 2, 3)] + [ratio**3]
        mean = [Fraction(0)] * 3
        second = [[Fraction(0)] * 3 for _ in range(3)]
        for outcome in itertools.product(range(n + 1), repeat=3):
            rest = n - sum(outcome)
            if rest < 0:
                continue
            weight = Fraction(math.factorial(n), math.factorial(rest))
            for k in outcome:
                weight /= math.factorial(k)
            weight *= probs[3] ** rest
            for level, k in enumerate(outcome):
                weight *= probs[level] ** k
            for a in range(3):
                mean[a] += outcome[a] * weight
                for b in range(3):
                    second[a][b] += outcome[a] * outcome[b] * weight
        means = mean_vector(n, float(t), 2)
        cov = covariance_matrix(n, float(t), 2)
        for a in range(3):
            assert means[a] == pytest.approx(float(mean[a]), rel=1e-12)
            for b in range(3):
                expected = float(second[a][b] - mean[a] * mean[b])
                assert cov[a][b] == pytest.approx(expected, rel=1e-12)

    def test_matches_numpy_outer_form(self):
        # The NumPy expressions this module used as the reference. On the same
        # p the float operations are the same, so the entries agree exactly.
        # NumPy's vectorized exp may differ from math.exp in the last bit of
        # p, which stays within 1e-15 relative off the diagonal; on it, 1 - p
        # amplifies that bit where p is near 1, so the bound there is 1e-15 N p.
        m = 12
        for n, t in itertools.product((1, 7, 1000), np.logspace(-3, 3, 61)):
            entries = np.array(covariance_matrix(n, float(t), m))
            diagonal = np.eye(m + 1, dtype=bool)
            p = np.array(fluctuations._level_probabilities(n, float(t), m, 2)[1])
            same_p = -n * np.outer(p, p)
            same_p[diagonal] = n * p * (1.0 - p)
            assert np.array_equal(entries, same_p)
            levels = np.arange(m + 1, dtype=np.float64)
            log_ratio = math.log(t) - math.log1p(t)
            p = np.exp(levels * log_ratio - math.log1p(t))
            reference = -n * np.outer(p, p)
            reference[diagonal] = n * p * (1.0 - p)
            scale = np.where(diagonal, n * p[:, None], np.abs(reference))
            assert np.all(np.abs(entries - reference) <= 1e-15 * scale)

    def test_oversized_cutoff_fails_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="energy_cutoff"):
                covariance_matrix(10, 1.0, 10**8)
            with pytest.raises(ValueError, match="energy_cutoff"):
                mean_vector(10, 1.0, 10**8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**16

    def test_size_cap_counts_entries(self, monkeypatch):
        monkeypatch.setattr(system, "MAX_OUTPUT_ROWS", 16)
        assert len(covariance_matrix(10, 1.0, 3)) == 4
        assert len(mean_vector(10, 1.0, 15)) == 16
        with pytest.raises(ValueError, match="energy_cutoff"):
            covariance_matrix(10, 1.0, 4)
        with pytest.raises(ValueError, match="energy_cutoff"):
            mean_vector(10, 1.0, 16)


class TestPearsonCorrelation:
    def test_always_negative(self):
        for t in np.logspace(-3, 3, 40):
            assert pearson_correlation(float(t), 0, 2) < 0
            assert pearson_correlation(float(t), 1, 3) < 0

    def test_low_temperature_branch(self):
        t = 1e-3
        for i, j in [(1, 2), (2, 3)]:
            assert pearson_correlation(t, i, j) / (-(t ** ((i + j) / 2))) == pytest.approx(
                1.0, abs=0.02
            )

    def test_high_temperature_branch(self):
        t = 1e3
        for i, j in [(1, 2), (2, 3), (0, 4)]:
            assert pearson_correlation(t, i, j) / (-1.0 / t) == pytest.approx(1.0, abs=0.02)

    def test_interior_maximum_of_magnitude(self):
        grid = np.logspace(-3, 3, 200)
        for i in range(6):
            for j in range(i + 1, 6):
                values = [abs(pearson_correlation(float(t), i, j)) for t in grid]
                k = int(np.argmax(values))
                if (i, j) == (0, 1):
                    # |corr(0,1)| = 1/sqrt(T^2+T+1): strictly decreasing, edge max
                    assert k == 0
                    assert all(a > b for a, b in zip(values, values[1:]))
                else:
                    assert 0 < k < len(grid) - 1, (i, j)

    def test_level_pair_symmetric(self):
        assert pearson_correlation(2.5, 1, 4) == pearson_correlation(2.5, 4, 1)

    def test_rejects_equal_levels(self):
        with pytest.raises(ValueError):
            pearson_correlation(1.0, 2, 2)


class TestTotalFluctuationRatio:
    def test_zero_energy(self):
        assert total_fluctuation_ratio(5, 0) == 0.0

    def test_matches_direct_trace_computation(self):
        n, m = 7, 9
        t = m / n
        ratio = t / (1 + t)
        p = np.array([ratio**l / (1 + t) for l in range(m + 1)])
        trace = (n * p * (1 - p)).sum()
        norm = (n * p).sum()
        assert total_fluctuation_ratio(n, m) == pytest.approx(
            math.sqrt(trace) / norm, rel=1e-12
        )

    def test_low_temperature_branch(self):
        n, t = 10, 1e-4
        assert total_fluctuation_ratio(n, n * t) / math.sqrt(t / n) == pytest.approx(
            1.0, abs=0.01
        )

    def test_high_temperature_plateau(self):
        t = 1e4
        for n in (10, 30, 50, 70, 90):
            plateau = 1.0 / math.sqrt(n * (1.0 - math.exp(-n)))
            assert total_fluctuation_ratio(n, n * t) == pytest.approx(plateau, rel=0.02)

    def test_plateau_survives_extreme_temperature(self):
        # x^M near 1 must be evaluated in log space or the plateau collapses
        n = 20
        value = total_fluctuation_ratio(n, n * 1e8)
        assert value == pytest.approx(1.0 / math.sqrt(n), rel=1e-3)

    def test_scales_as_inverse_root_n(self):
        v_small = total_fluctuation_ratio(100, 100)
        v_large = total_fluctuation_ratio(10_000, 10_000)
        assert v_small / v_large == pytest.approx(10.0, rel=0.01)

    def test_increases_with_temperature(self):
        values = [total_fluctuation_ratio(30, 30 * t) for t in (0.1, 1.0, 10.0, 100.0)]
        assert all(a < b for a, b in zip(values, values[1:]))
