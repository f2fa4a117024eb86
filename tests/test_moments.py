import hashlib
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boltzgas import moments, system

from boltzgas.distributions import (
    joint_pdf_multinomial_limit,
    macrostate_probability_largeN,
    multinomial_trial_probabilities,
    occupation_pdf_binomial_limit,
    occupation_pdf_conditioned_limit,
    occupation_pdf_normal_limit,
)
from boltzgas.enumeration import oracle_moment
from boltzgas.fluctuations import (
    covariance_matrix,
    mean_vector,
    pearson_correlation,
    total_fluctuation_ratio,
)
from boltzgas.moments import (
    BOLTZMANN_CONSTANT,
    conditioned_variance_limit,
    density_moment_factorized,
    density_moment_limit,
    exact_moment,
    max_variance_point,
    physical_temperature,
    std_over_mean,
    variance_exact,
    variance_limit,
)
from boltzgas.system import SystemParams

# SHA-256 of repr() of the moment lists, recorded when the moments were read
# through the coefficient triangle
MOMENT_DIGESTS = {
    "N <= 12, M <= 16, every level, orders 0..12":
        "0796632851c981efa4c4f5886be2a341e8a9451c14a1a5ea3a72408268e1ecbf",
    "N = 200, M = 400, level 1, orders 0..200":
        "0a09966ff8f9b7ffb38d245deb55b96165519c4bad3d2bee2138f736b85d9c3d",
}


def _digest(values) -> str:
    return hashlib.sha256(repr(list(values)).encode()).hexdigest()


class TestExactMoment:
    def test_frozen_values(self):
        params = SystemParams(2, 2)
        assert exact_moment(params, 0, 1) == Fraction(2, 3)
        assert exact_moment(params, 1, 2) == Fraction(4, 3)
        assert exact_moment(params, 2, 0) == 1

    def test_level_types(self):
        params = SystemParams(5, 7)
        with pytest.raises(TypeError, match="level must be an integer"):
            exact_moment(params, True, 2)
        with pytest.raises(TypeError, match="level must be an integer"):
            exact_moment(params, 1.0, 2)
        assert exact_moment(params, np.int64(2), 3) == exact_moment(params, 2, 3)

    def test_matches_oracle_small_grid(self):
        for n in range(1, 7):
            for m in range(0, 9):
                params = SystemParams(n, m)
                for j in range(m + 1):
                    for order in range(5):
                        assert exact_moment(params, j, order) == oracle_moment(
                            params, j, order
                        ), (n, m, j, order)

    def test_boundary_term_cases(self):
        # N*j == M puts every particle on one level; the boundary term fires
        for n, j in [(2, 1), (2, 3), (3, 2), (4, 2)]:
            params = SystemParams(n, n * j)
            for order in range(5):
                assert exact_moment(params, j, order) == oracle_moment(params, j, order)

    def test_single_particle(self):
        params = SystemParams(1, 4)
        assert exact_moment(params, 4, 3) == 1
        assert exact_moment(params, 2, 3) == 0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            exact_moment(SystemParams(2, 2), 3, 1)
        with pytest.raises(ValueError):
            exact_moment(SystemParams(2, 2), 1, -1)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_oracle_at_random_sizes(self, data):
        params = SystemParams(data.draw(st.integers(1, 10)), data.draw(st.integers(0, 14)))
        level = data.draw(st.integers(0, params.energy_units))
        order = data.draw(st.integers(0, 12))
        assert exact_moment(params, level, order) == oracle_moment(params, level, order)

    @pytest.mark.parametrize("n, m", [(2, 2), (6, 8)])
    def test_matches_oracle_to_order_200(self, n, m):
        params = SystemParams(n, m)
        for level in range(m + 1):
            for order in range(201):
                expected = oracle_moment(params, level, order)
                assert exact_moment(params, level, order) == expected, (level, order)

    def test_small_grid_matches_the_recorded_digest(self):
        values = (
            exact_moment(SystemParams(n, m), level, order)
            for n in range(1, 13)
            for m in range(17)
            for level in range(m + 1)
            for order in range(13)
        )
        assert _digest(values) == MOMENT_DIGESTS["N <= 12, M <= 16, every level, orders 0..12"]

    def test_high_orders_match_the_recorded_digest(self):
        params = SystemParams(200, 400)
        values = (exact_moment(params, 1, order) for order in range(201))
        assert _digest(values) == MOMENT_DIGESTS["N = 200, M = 400, level 1, orders 0..200"]

    @pytest.mark.parametrize(
        "n, m, level, order",
        [(1000, 2000, 1, 10**6), (2, 2, 0, 10**9), (10**6, 5, 0, 10**5)],
    )
    def test_refuses_a_huge_order_before_any_weight(self, monkeypatch, n, m, level, order):
        def fail(*args):
            raise AssertionError("a refused moment computed a weight")

        monkeypatch.setattr(moments, "power_of_sum_coefficient", fail)
        monkeypatch.setattr(moments, "microstate_count", fail)
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"N={n}, M={m}, level {level}, order {order}: "):
            exact_moment(SystemParams(n, m), level, order)
        assert time.perf_counter() - start < 0.05

    @pytest.mark.parametrize("n, m, level, order", [(8, 10, 1, 12), (3, 4, 0, 200), (40, 30, 2, 60)])
    def test_a_budget_one_short_refuses_the_moment(self, monkeypatch, n, m, level, order):
        params = SystemParams(n, m)
        top = min(n, order)
        bits = order * math.log2(top + 1)
        expected = oracle_moment(params, level, order)
        needs = {
            "MAX_SHIFT_WORDS": (top * top / 2 * bits / 64, "word operations"),
            "MAX_TABLE_BYTES": ((top + 1) * bits / 8, "bytes of integers"),
        }
        for name, (need, unit) in needs.items():
            monkeypatch.setattr(system, name, math.ceil(need) - 1)
            with pytest.raises(ValueError, match=f"order {order}: about .* {unit}, over {math.ceil(need) - 1}$"):
                exact_moment(params, level, order)
            monkeypatch.setattr(system, name, math.ceil(need))
            assert exact_moment(params, level, order) == expected


def test_concurrent_sweep_matches_sequential():
    from concurrent.futures import ThreadPoolExecutor

    jobs = [
        (SystemParams(n, m), j, order)
        for n in (2, 4, 6)
        for m in (3, 6)
        for j in range(4)
        for order in range(4)
        if j <= m
    ]
    sequential = [exact_moment(*job) for job in jobs]
    with ThreadPoolExecutor(max_workers=8) as pool:
        concurrent = list(pool.map(lambda job: exact_moment(*job), jobs))
    assert concurrent == sequential


class TestDensityMomentFactorized:
    def test_frozen_values(self):
        params = SystemParams(2, 2)
        assert density_moment_factorized(params, 0, 1) == Fraction(1, 3)
        assert density_moment_factorized(params, 1, 1) == Fraction(1, 3)

    def test_indicator_gate(self):
        assert density_moment_factorized(SystemParams(4, 3), 2, 2) == 0

    def test_first_order_is_exact_mean_density(self):
        for n in range(1, 8):
            for m in range(0, 9):
                params = SystemParams(n, m)
                for j in range(m + 1):
                    expected = oracle_moment(params, j, 1) / n
                    assert density_moment_factorized(params, j, 1) == expected

    def test_product_form(self):
        # the binomial ratio equals prod(N-p) * prod(M-p) / prod(M+N-p)
        n, m, j, order = 7, 9, 2, 2
        value = density_moment_factorized(SystemParams(n, m), j, order)
        numerator = Fraction(1)
        for p in range(1, order + 1):
            numerator *= n - p
        for p in range(order * j):
            numerator *= m - p
        denominator = Fraction(1)
        for p in range(1, order * j + order + 1):
            denominator *= m + n - p
        assert value == numerator / denominator

    def test_mean_densities_sum_to_one(self):
        for n in range(1, 11):
            for m in range(0, 15):
                params = SystemParams(n, m)
                total = sum(
                    density_moment_factorized(params, j, 1) for j in range(m + 1)
                )
                assert total == 1, (n, m)


class TestDensityMomentLimit:
    @pytest.mark.parametrize(
        "t, level, order, expected",
        [(1, 0, 1, 0.5), (1, 1, 1, 0.25), (1, 1, 2, 0.0625)],
    )
    def test_values(self, t, level, order, expected):
        assert density_moment_limit(t, level, order) == pytest.approx(expected, rel=1e-12)

    def test_exact_for_rational_input(self):
        assert density_moment_limit(Fraction(1), 5, 1) == Fraction(1, 64)
        assert density_moment_limit(Fraction(2), 1, 2) == Fraction(4, 81)

    def test_geometric_normalization(self):
        # sum_{j<=M} of the limit means is 1 - (T/(1+T))^(M+1), exactly
        for t in (Fraction(1, 2), Fraction(1), Fraction(3)):
            for m in (0, 3, 10):
                total = sum(density_moment_limit(t, j, 1) for j in range(m + 1))
                assert total == 1 - (t / (1 + t)) ** (m + 1)

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(ValueError):
            density_moment_limit(0, 1, 1)
        with pytest.raises(ValueError):
            density_moment_limit(-2.0, 1, 1)

    @pytest.mark.parametrize("order", [1, 2])
    def test_factorized_converges_at_rate_one_over_n(self, order):
        for j in range(6):
            gaps = {}
            for n in (100, 1_000, 10_000):
                params = SystemParams(n, n)
                exact = density_moment_factorized(params, j, order)
                gaps[n] = abs(exact - Fraction(1, 2 ** (j + 1)) ** order)
            # fitted constant N*gap stays bounded as N grows
            assert all(gap * n <= 1 for n, gap in gaps.items()), (j, order, gaps)
            assert gaps[10_000] < gaps[1_000] < gaps[100]


class TestVarianceExact:
    def test_frozen_values(self):
        assert variance_exact(SystemParams(2, 2), 1) == Fraction(2, 9)
        assert variance_exact(SystemParams(2, 2), 2) == Fraction(1, 18)
        assert variance_exact(SystemParams(1, 0), 0) == 0

    def test_matches_oracle_variance(self):
        for n in range(1, 7):
            for m in range(0, 9):
                params = SystemParams(n, m)
                for j in range(m + 1):
                    first = oracle_moment(params, j, 1)
                    second = oracle_moment(params, j, 2)
                    expected = (second - first * first) / n**2
                    assert variance_exact(params, j) == expected, (n, m, j)


class TestVarianceLimit:
    def test_frozen_value(self):
        assert variance_limit(100, 1, 0) == pytest.approx(0.0025, rel=1e-12)

    def test_peak_at_temperature_equal_level(self):
        grid = np.logspace(-1, 1, 241)
        for j in (1, 2, 3):
            values = [variance_limit(100, t, j) for t in grid]
            best = grid[int(np.argmax(values))]
            assert abs(math.log(best) - math.log(j)) <= math.log(grid[1] / grid[0]) * 1.01

    def test_shrinks_as_one_over_n(self):
        v_small = variance_limit(100, 2.0, 1)
        v_large = variance_limit(100_000, 2.0, 1)
        assert v_large == pytest.approx(v_small / 1000.0, rel=1e-12)


class TestStdOverMean:
    def test_frozen_value(self):
        assert std_over_mean(10_000, 1, 0) == pytest.approx(0.01, rel=1e-12)

    def test_low_temperature_branch(self):
        t = 1e-4
        for j in (1, 2):
            ratio = std_over_mean(100, t, j) / (t ** (-j / 2) / 10.0)
            assert ratio == pytest.approx(1.0, abs=1e-3)

    def test_high_temperature_branch(self):
        t = 1e4
        for j in (0, 1, 2):
            ratio = std_over_mean(100, t, j) / (math.sqrt(t) / 10.0)
            assert ratio == pytest.approx(1.0, abs=1e-3)


class TestMaxVariancePoint:
    def test_level_one(self):
        t_star, x_max, sigma_sq = max_variance_point(100, 1)
        assert t_star == 1.0
        assert x_max == pytest.approx(0.25, rel=1e-15)
        assert sigma_sq == pytest.approx(0.001875, rel=1e-15)

    def test_level_two(self):
        t_star, x_max, sigma_sq = max_variance_point(100, 2)
        assert t_star == 2.0
        assert x_max == pytest.approx(4 / 27, rel=1e-12)
        assert sigma_sq == pytest.approx((4 / 27) * (23 / 27) / 100, rel=1e-12)

    def test_agrees_with_grid_search(self):
        grid = np.logspace(-0.5, 1.2, 400)
        for j in (1, 2, 3):
            t_star, _, sigma_sq = max_variance_point(50, j)
            values = [variance_limit(50, t, j) for t in grid]
            best = grid[int(np.argmax(values))]
            assert abs(math.log(best) - math.log(t_star)) <= math.log(grid[1] / grid[0]) * 1.01
            assert max(values) <= sigma_sq * (1 + 1e-9)

    def test_rejects_level_zero(self):
        with pytest.raises(ValueError):
            max_variance_point(10, 0)


class TestPhysicalTemperature:
    def test_infrared_quantum_example(self):
        params = SystemParams(1, 1000)
        kelvin = physical_temperature(params, 1.6e-20)
        assert kelvin == pytest.approx(7.7e5, rel=0.02)

    def test_zero_energy(self):
        assert physical_temperature(SystemParams(5, 0), 1e-20) == 0.0

    def test_constants_cancel(self):
        params = SystemParams(3, 3)
        assert physical_temperature(params, 1.5 * BOLTZMANN_CONSTANT) == pytest.approx(1.0)

    @pytest.mark.parametrize("spacing", [0.0, -1e-20, math.nan, math.inf])
    def test_rejects_bad_spacing(self, spacing):
        with pytest.raises(ValueError, match="level spacing must be positive and finite"):
            physical_temperature(SystemParams(1, 1), spacing)


# Every public entry point of the large-system model, as a function of T.
LARGE_N_ENTRY_POINTS = {
    "density_moment_limit": lambda t: density_moment_limit(t, 1),
    "variance_limit": lambda t: variance_limit(10, t, 1),
    "conditioned_variance_limit": lambda t: conditioned_variance_limit(10, t, 1),
    "std_over_mean": lambda t: std_over_mean(10, t, 1),
    "occupation_pdf_binomial_limit": lambda t: occupation_pdf_binomial_limit(10, t, 1),
    "occupation_pdf_conditioned_limit": lambda t: occupation_pdf_conditioned_limit(10, t, 1),
    "occupation_pdf_normal_limit": lambda t: occupation_pdf_normal_limit(10, t, 1),
    "multinomial_trial_probabilities": lambda t: multinomial_trial_probabilities(t, 2),
    "joint_pdf_multinomial_limit": lambda t: joint_pdf_multinomial_limit(10, t, [1, 2]),
    "macrostate_probability_largeN": lambda t: macrostate_probability_largeN(10, t, [10]),
    "mean_vector": lambda t: mean_vector(10, t, 3),
    "covariance_matrix": lambda t: covariance_matrix(10, t, 3),
    "pearson_correlation": lambda t: pearson_correlation(t, 0, 1),
}


@pytest.mark.filterwarnings("ignore::boltzgas.distributions.LimitValidityWarning")
@pytest.mark.parametrize("temperature", [0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize(
    "call", LARGE_N_ENTRY_POINTS.values(), ids=LARGE_N_ENTRY_POINTS.keys()
)
def test_large_n_entry_points_reject_temperature_outside_domain(call, temperature):
    with pytest.raises(ValueError, match="temperature must be positive and finite"):
        call(temperature)


@pytest.mark.parametrize(
    "name",
    [
        "density_moment_limit",
        "variance_limit",
        "std_over_mean",
        "pearson_correlation",
        "multinomial_trial_probabilities",
        "occupation_pdf_binomial_limit",
        "occupation_pdf_conditioned_limit",
        "occupation_pdf_normal_limit",
    ],
)
def test_float_p_overflow_is_a_value_error(name):
    # (T+1)^2 leaves the float range, so p_1 has no float form
    with pytest.raises(ValueError, match=r"temperature 1e\+200, level 1"):
        LARGE_N_ENTRY_POINTS[name](1e200)


@pytest.mark.parametrize("n_particles", [0, -1])
@pytest.mark.parametrize("law", [joint_pdf_multinomial_limit, macrostate_probability_largeN])
def test_multinomial_laws_reject_empty_system(law, n_particles):
    with pytest.raises(ValueError, match="n_particles must be >= 1"):
        law(n_particles, 1.0, [])


@pytest.mark.parametrize("energy", [-1, math.nan, math.inf])
def test_total_fluctuation_ratio_rejects_energy_outside_domain(energy):
    with pytest.raises(ValueError, match="energy must be nonnegative and finite"):
        total_fluctuation_ratio(10, energy)
