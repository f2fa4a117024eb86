"""Exact occupation statistics of an isolated quantized ideal gas.

N distinguishable particles share M indivisible energy quanta over levels
0..M; every labeled assignment with total energy M is equally likely. The
library provides exact (rational-arithmetic) microstate counts, occupation
moments and distributions, their large-system limits, fluctuation measures,
a uniform Monte Carlo sampler, and executable checks of the algebraic
identities underlying the closed forms.
"""

import importlib
import types

from .combinatorics import (
    binomial,
    multinomial_weight,
    power_of_sum_coefficient,
    stirling_like_row,
)
from .distributions import (
    DistributionTable,
    LimitValidityWarning,
    NormalApproximation,
    joint_pdf_exact,
    joint_pdf_lattice,
    joint_pdf_multinomial_limit,
    macrostate_probability_exact,
    macrostate_probability_largeN,
    occupation_pdf_binomial_limit,
    occupation_pdf_conditioned_limit,
    occupation_pdf_exact,
    occupation_pdf_normal_limit,
    occupation_pdf_window,
)
from .enumeration import (
    WeightedMacrostate,
    enumerate_macrostates,
    oracle_joint_pdf,
    oracle_moment,
    oracle_pdf,
)
from .moments import (
    conditioned_variance_limit,
    density_moment_factorized,
    density_moment_limit,
    exact_moment,
    max_variance_point,
    std_over_mean,
    variance_exact,
    variance_limit,
)
from .system import OccupationVector, SystemParams, as_occupation, microstate_count

__version__ = "0.1.0"

# The public names of the modules not needed by the exact laws, by module.
# They load on first access (PEP 562), so the exact paths start without them:
# figures and montecarlo bring NumPy, and identities the identity battery with
# statistics. Every module that holds a functools cache stays imported above,
# because bench/worker.py empties the caches of the modules loaded at its start.
_LAZY = {
    "FigureData": "figures",
    "figure_data": "figures",
    "covariance_matrix": "fluctuations",
    "mean_vector": "fluctuations",
    "pearson_correlation": "fluctuations",
    "total_fluctuation_ratio": "fluctuations",
    "IdentityReport": "identities",
    "check_differential_identity": "identities",
    "check_joint_normalization": "identities",
    "check_power_of_sum": "identities",
    "check_simplex_sum_ii": "identities",
    "measure_sum_of_powers_residual": "identities",
    "reports_to_json": "identities",
    "run_standard_battery": "identities",
    "sum_of_powers_residual_slope": "identities",
    "EmpiricalStats": "montecarlo",
    "SamplerConfig": "montecarlo",
    "ZScoreRow": "montecarlo",
    "empirical_stats": "montecarlo",
    "sample_microstate": "montecarlo",
    "z_score_report": "montecarlo",
}

# Every name imported above is public, and so is every lazy name.
__all__ = sorted(
    {
        name
        for name, value in globals().items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    | set(_LAZY)
)


def __getattr__(name):
    if name in _LAZY.values():
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY) | set(_LAZY.values()))
