"""One integer policy for every public count, level, order and size argument.

Each row names an entry point, the argument under test and its lower bound
(None where the argument has none). For every row: True and 1.5 raise a
TypeError that names the argument; one below the bound raises a ValueError
that names it; and a NumPy integer gives the same result as a Python int.
"""
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from boltzgas import (
    OccupationVector,
    SamplerConfig,
    SystemParams,
    binomial,
    check_differential_identity,
    check_power_of_sum,
    check_simplex_sum_ii,
    conditioned_variance_limit,
    covariance_matrix,
    density_moment_factorized,
    density_moment_limit,
    empirical_stats,
    exact_moment,
    figure_data,
    joint_pdf_exact,
    joint_pdf_lattice,
    joint_pdf_multinomial_limit,
    macrostate_probability_largeN,
    max_variance_point,
    mean_vector,
    measure_sum_of_powers_residual,
    multinomial_weight,
    occupation_pdf_binomial_limit,
    occupation_pdf_conditioned_limit,
    occupation_pdf_exact,
    occupation_pdf_normal_limit,
    occupation_pdf_window,
    oracle_joint_pdf,
    oracle_moment,
    pearson_correlation,
    power_of_sum_coefficient,
    std_over_mean,
    stirling_like_row,
    sum_of_powers_residual_slope,
    total_fluctuation_ratio,
    variance_limit,
)
from boltzgas.combinatorics import power_of_sum_row

P = SystemParams(4, 6)

# (entry point, call with the argument under test, a valid value, argument name, minimum)
POLICY = [
    ("SystemParams", lambda v: SystemParams(v, 6), 4, "n_particles", 1),
    ("SystemParams", lambda v: SystemParams(4, v), 6, "energy_units", 0),
    ("OccupationVector", lambda v: OccupationVector((v, 1)), 2, "occupation number", 0),
    ("SystemParams.check_level", P.check_level, 2, "level", 0),
    ("multinomial_weight", lambda v: multinomial_weight((v, 1)), 2, "occupation number", 0),
    ("stirling_like_row", stirling_like_row, 3, "m", 1),
    ("binomial", lambda v: binomial(v, 2), 4, "n", None),
    ("binomial", lambda v: binomial(4, v), 2, "k", None),
    ("power_of_sum_coefficient", lambda v: power_of_sum_coefficient(v, 1, 4, 1), 6, "p", None),
    ("power_of_sum_coefficient", lambda v: power_of_sum_coefficient(6, v, 4, 1), 1, "j", 0),
    ("power_of_sum_coefficient", lambda v: power_of_sum_coefficient(6, 1, v, 1), 4, "N", None),
    ("power_of_sum_coefficient", lambda v: power_of_sum_coefficient(6, 1, 4, v), 1, "q", None),
    ("power_of_sum_row", lambda v: power_of_sum_row(v, 1, 4), 6, "p", None),
    ("power_of_sum_row", lambda v: power_of_sum_row(6, v, 4), 1, "j", 0),
    ("power_of_sum_row", lambda v: power_of_sum_row(6, 1, v), 4, "N", None),
    ("exact_moment", lambda v: exact_moment(P, v, 2), 1, "level", 0),
    ("exact_moment", lambda v: exact_moment(P, 1, v), 2, "order", 0),
    ("density_moment_factorized", lambda v: density_moment_factorized(P, 1, v), 2, "order", 0),
    ("density_moment_limit", lambda v: density_moment_limit(1.0, v), 1, "level", 0),
    ("density_moment_limit", lambda v: density_moment_limit(1.0, 1, v), 2, "order", 0),
    ("variance_limit", lambda v: variance_limit(v, 1.0, 0), 10, "n_particles", 1),
    ("variance_limit", lambda v: variance_limit(10, 1.0, v), 1, "level", 0),
    ("conditioned_variance_limit", lambda v: conditioned_variance_limit(v, 1.0, 0), 4, "n_particles", 1),
    ("conditioned_variance_limit", lambda v: conditioned_variance_limit(4, 1.0, v), 1, "level", 0),
    ("std_over_mean", lambda v: std_over_mean(v, 1.0, 0), 10, "n_particles", 1),
    ("std_over_mean", lambda v: std_over_mean(10, 1.0, v), 1, "level", 0),
    ("max_variance_point", lambda v: max_variance_point(v, 2), 10, "n_particles", 1),
    ("max_variance_point", lambda v: max_variance_point(10, v), 2, "level", 1),
    ("oracle_moment", lambda v: oracle_moment(P, 1, v), 2, "order", 0),
    ("occupation_pdf_window", lambda v: occupation_pdf_window(P, 1, v, 3), 1, "lo", None),
    ("occupation_pdf_window", lambda v: occupation_pdf_window(P, 1, 0, v), 3, "hi", None),
    ("occupation_pdf_binomial_limit", lambda v: occupation_pdf_binomial_limit(v, 2.0, 1), 4, "n_particles", 1),
    ("occupation_pdf_binomial_limit", lambda v: occupation_pdf_binomial_limit(4, 2.0, v), 1, "level", 0),
    ("occupation_pdf_conditioned_limit", lambda v: occupation_pdf_conditioned_limit(v, 2.0, 1), 4, "n_particles", 1),
    ("occupation_pdf_conditioned_limit", lambda v: occupation_pdf_conditioned_limit(4, 2.0, v), 1, "level", 0),
    ("occupation_pdf_normal_limit", lambda v: occupation_pdf_normal_limit(v, 2.0, 1), 4, "n_particles", 1),
    ("occupation_pdf_normal_limit", lambda v: occupation_pdf_normal_limit(4, 2.0, v), 1, "level", 0),
    ("joint_pdf_exact", lambda v: joint_pdf_exact(P, (0, 1), (v, 1)), 2, "count", None),
    ("joint_pdf_lattice", lambda v: joint_pdf_lattice(P, (0, v)), 1, "level", 0),
    ("oracle_joint_pdf", lambda v: oracle_joint_pdf(P, (0, 1), (v, 1)), 2, "count", None),
    ("DistributionTable.probability", lambda v: occupation_pdf_exact(P, 1).probability(v), 2, "count", None),
    ("DistributionTable.probability", lambda v: occupation_pdf_binomial_limit(4, 2.0, 1).probability(v), 2, "count", None),
    ("joint_pdf_multinomial_limit", lambda v: joint_pdf_multinomial_limit(v, 1.0, [1, 2]), 10, "n_particles", 1),
    ("joint_pdf_multinomial_limit", lambda v: joint_pdf_multinomial_limit(10, 1.0, [v, 2]), 1, "count", 0),
    ("macrostate_probability_largeN", lambda v: macrostate_probability_largeN(v, 1.0, (1, 0, 1)), 2, "n_particles", 1),
    ("mean_vector", lambda v: mean_vector(v, 1.0, 2), 10, "n_particles", 1),
    ("mean_vector", lambda v: mean_vector(10, 1.0, v), 2, "energy_cutoff", 0),
    ("covariance_matrix", lambda v: covariance_matrix(v, 1.0, 2), 10, "n_particles", 1),
    ("covariance_matrix", lambda v: covariance_matrix(10, 1.0, v), 2, "energy_cutoff", 0),
    ("pearson_correlation", lambda v: pearson_correlation(1.0, v, 2), 0, "level_a", 0),
    ("pearson_correlation", lambda v: pearson_correlation(1.0, 0, v), 2, "level_b", 0),
    ("total_fluctuation_ratio", lambda v: total_fluctuation_ratio(v, 5), 10, "n_particles", 1),
    ("SamplerConfig", lambda v: SamplerConfig(P, v, 1), 10, "sample_count", 1),
    ("SamplerConfig", lambda v: SamplerConfig(P, 10, v), 1, "seed", 0),
    ("empirical_stats", lambda v: empirical_stats(SamplerConfig(P, 50, 1), v), 2, "histogram_cutoff", 0),
    ("check_power_of_sum", lambda v: check_power_of_sum(v, 3, 1), 2, "n", 0),
    ("check_power_of_sum", lambda v: check_power_of_sum(2, v, 1), 3, "m", 0),
    ("check_power_of_sum", lambda v: check_power_of_sum(2, 3, v), 1, "level", 0),
    ("check_differential_identity", lambda v: check_differential_identity(v, 2), 2, "q", 1),
    ("check_differential_identity", lambda v: check_differential_identity(2, v), 2, "order", 1),
    ("check_simplex_sum_ii", lambda v: check_simplex_sum_ii(v, [Fraction(1, 2)], 3), 1, "arity", 1),
    ("check_simplex_sum_ii", lambda v: check_simplex_sum_ii(1, [Fraction(1, 2)], v), 3, "n_top", 0),
    ("measure_sum_of_powers_residual", lambda v: measure_sum_of_powers_residual(v, 10), 2, "n", 1),
    ("measure_sum_of_powers_residual", lambda v: measure_sum_of_powers_residual(2, v), 10, "t", 2),
    ("sum_of_powers_residual_slope", sum_of_powers_residual_slope, 2, "n", 1),
    ("figure_data", figure_data, 2, "figure_id", None),
]

ROWS = pytest.mark.parametrize(
    "call, valid, name, minimum",
    [pytest.param(*row[1:], id=f"{row[0]}-{row[3]}") for row in POLICY],
)
BOUNDED_ROWS = pytest.mark.parametrize(
    "call, valid, name, minimum",
    [pytest.param(*row[1:], id=f"{row[0]}-{row[3]}") for row in POLICY if row[4] is not None],
)


def _call(call, value):
    # Limit laws warn outside their validity (level >= T); the policy is about errors.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return call(value)


def _assert_identical(a, b):
    """Equal values of the same types, through containers, value types and arrays."""
    assert type(a) is type(b)
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    elif hasattr(a, "_fields"):  # the package's value types and NamedTuples
        assert a._fields
        for name in a._fields:
            _assert_identical(getattr(a, name), getattr(b, name))
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _assert_identical(x, y)
    elif isinstance(a, dict):
        assert a.keys() == b.keys()
        for key in a:
            _assert_identical(a[key], b[key])
    else:
        assert a == b


@ROWS
@pytest.mark.parametrize("bad", [True, 1.5], ids=["bool", "float"])
def test_non_integers_raise_type_error(call, valid, name, minimum, bad):
    with pytest.raises(TypeError, match=f"^{re.escape(name)} must be an integer"):
        _call(call, bad)


@BOUNDED_ROWS
def test_below_minimum_raises_value_error(call, valid, name, minimum):
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be >= {minimum}, got {minimum - 1}$"):
        _call(call, minimum - 1)


@ROWS
def test_numpy_integer_matches_python_int(call, valid, name, minimum):
    _assert_identical(_call(call, np.int64(valid)), _call(call, valid))
