"""Executable verification of the algebraic identities behind the closed forms.

Identities the production formulas rely on (the bivariate power expansion, the
log-derivative expansion, the nested geometric sum, joint normalization) are
asserted exactly; the log-derivative expansion is compared as two integer
exponential polynomials, and joint normalization checks that the integer
numerators of ``distributions.joint_pdf_lattice``, which alone shifts and
bounds the count lattice, sum to its denominator. The power-sum expansion,
whose claimed coefficients conflict with the classical ones, is measured and reported, never asserted.
"""
from __future__ import annotations

import itertools
import math
import statistics
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

from .combinatorics import integral_value, json_text, power_of_sum_row, stirling_like_row
from .distributions import joint_pdf_lattice
from .system import SystemParams


class IdentityReport(NamedTuple):
    """Outcome of one identity check at one parameter point."""

    name: str
    params: dict
    verdict: str  # "exact-equal" | "mismatch" | "residual" | "domain-error"
    residual: object = None
    notes: str = ""


def reports_to_json(reports) -> str:
    return json_text([r._asdict() for r in reports])


# --------------------------------------------------------------------------
# asserted identities

_SERIES_ORDER = 16  # K, the last Taylor coefficient the differential identity compares


def check_power_of_sum(n: int, m: int, level: int) -> IdentityReport:
    """Compare ``power_of_sum_row``, the weight row of both exact laws, with the
    coefficients of (1 + z + ... + z^M + z^j u)^N, multiplied out factor by
    factor and truncated at z^M."""
    n = integral_value("n", n, 0)
    m = integral_value("m", m, 0)
    level = integral_value("level", level, 0)
    params = {"N": n, "M": m, "j": level}
    poly = Counter({(0, 0): 1})  # (z power, u power) -> coefficient
    for _ in range(n):
        product = Counter()
        for (zp, uq), c in poly.items():
            for zb in range(m + 1 - zp):  # 1 + z + ... + z^M, truncated at z^M
                product[zp + zb, uq] += c
            if zp + level <= m:  # z^j u
                product[zp + level, uq + 1] += c
        poly = product
    for p in range(m + 1):
        for q, expected in enumerate(power_of_sum_row(p, level, n)):
            if poly[p, q] != expected:
                return IdentityReport(
                    name="power-of-sum",
                    params=params,
                    verdict="mismatch",
                    residual=Fraction(poly[p, q] - expected),
                    notes=f"first mismatch at z^{p} u^{q}: {poly[p, q]} vs {expected}",
                )
    return IdentityReport(name="power-of-sum", params=params, verdict="exact-equal")


def check_differential_identity(q: int, order: int) -> IdentityReport:
    """Check d^m/dy^m (e^y - 1)^q against its falling-factorial expansion.

    Each side is an exponential polynomial sum_{i=0..q} c_i e^(iy) with
    integer c_i. The left side has c_i = (-1)^(q-i) C(q,i) i^m; the right
    side sums q^(s) a_s^(m) e^(sy) (e^y - 1)^(q-s), a binomial row shifted up
    by s. The y^k Taylor coefficient of their difference is
    sum_i gap_i i^k / k!, compared for k = 0..K with K = 16. That is exact at
    every order, not only up to y^K: for K >= q the map from the gap_i to
    these coefficients is a Vandermonde matrix on the distinct nodes 0..q, so
    they all vanish only when the two sides are equal. So q <= 16.
    """
    q = integral_value("q", q, 1)
    order = integral_value("order", order, 1)
    params = {"q": q, "m": order, "K": _SERIES_ORDER}
    if q > _SERIES_ORDER:
        raise ValueError(f"q={q} needs a series past y^{_SERIES_ORDER}; need q <= {_SERIES_ORDER}")
    gap = [(-1) ** (q - i) * math.comb(q, i) * i**order for i in range(q + 1)]
    row = stirling_like_row(order)
    for s in range(1, min(order, q) + 1):
        weight = math.perm(q, s) * row[s - 1]
        for i in range(q - s + 1):
            gap[i + s] -= weight * (-1) ** (q - s - i) * math.comb(q - s, i)
    for k in range(_SERIES_ORDER + 1):
        coefficient = Fraction(sum(c * i**k for i, c in enumerate(gap)), math.factorial(k))
        if coefficient:
            return IdentityReport(
                name="differential",
                params=params,
                verdict="mismatch",
                residual=coefficient,
                notes=f"first differing series coefficient at y^{k}",
            )
    return IdentityReport(name="differential", params=params, verdict="exact-equal")


def check_simplex_sum_ii(arity: int, a_values, n_top: int) -> IdentityReport:
    """Nested ascending geometric sum against its alternating closed form.

    LHS: sum over 0 <= n_0 <= ... <= n_(p-1) <= n_top of prod a_q^(n_q).
    RHS: sum_q (-1)^(p+q) [prod_{l=q}^{p-1} a_l^(n_top+p-l)] over the two
    telescoping denominator products. Parameter points where any contiguous
    product of the a's equals 1 are rejected (vanishing denominator).
    """
    arity = integral_value("arity", arity, 1)
    n_top = integral_value("n_top", n_top, 0)
    a_values = [Fraction(a) for a in a_values]
    params = {"p": arity, "a": list(a_values), "n_top": n_top}
    if len(a_values) != arity:
        raise ValueError("need exactly p ratio values")
    if any(math.prod(a_values[i:k]) == 1 for i in range(arity) for k in range(i + 1, arity + 1)):
        return IdentityReport(
            name="simplex-sum-ii",
            params=params,
            verdict="domain-error",
            notes="a contiguous product of the ratios equals 1 (degenerate geometric sum)",
        )

    # With a_q = r_q / s_q, each term times D = prod_q s_q^n_top is the integer
    # prod_q r_q^(n_q) s_q^(n_top - n_q); powers[q][v] holds r_q^v s_q^(n_top - v).
    powers = [
        [a.numerator**v * a.denominator ** (n_top - v) for v in range(n_top + 1)]
        for a in a_values
    ]
    sequences = itertools.combinations_with_replacement(range(n_top + 1), arity)
    scaled_lhs = sum(math.prod(powers[q][v] for q, v in enumerate(seq)) for seq in sequences)
    lhs = Fraction(scaled_lhs, math.prod(a.denominator**n_top for a in a_values))
    rhs = Fraction(0)
    for q in range(arity + 1):
        numerator = math.prod(a_values[l] ** (n_top + arity - l) for l in range(q, arity))
        denominator = math.prod(1 - math.prod(a_values[l:q]) for l in range(q))
        denominator *= math.prod(1 - math.prod(a_values[q : l + 1]) for l in range(q, arity))
        rhs += (-1) ** (arity + q) * numerator / denominator
    if lhs == rhs:
        return IdentityReport(
            name="simplex-sum-ii",
            params=params,
            verdict="exact-equal",
            notes="alternating sign (-1)^(p+q)",
        )
    return IdentityReport(
        name="simplex-sum-ii",
        params=params,
        verdict="mismatch",
        residual=lhs - rhs,
    )


# --------------------------------------------------------------------------
# measured (never asserted) identity

POWER_SUM_COEFFICIENTS = (Fraction(1), Fraction(-1, 2), Fraction(1, 12), Fraction(-1, 8))


def _power_sum_residual(n: int, t: int, truncation: int) -> Fraction:
    """sum_{l<t} l^n minus the claimed expansion truncated at k = ``truncation``."""
    expansion = sum(
        Fraction(t) ** (n - k + 1)
        * Fraction(math.factorial(n), math.factorial(n - k + 1))
        * POWER_SUM_COEFFICIENTS[k]
        for k in range(min(truncation, n + 1) + 1)
    )
    return sum(l**n for l in range(t)) - expansion


def measure_sum_of_powers_residual(n: int, t: int) -> IdentityReport:
    """Residual of sum_{l<t} l^n against the claimed coefficient expansion.

    The expansion's k=3 coefficient (-1/8) conflicts with the classical value
    (0) and its k=n+1 constant term breaks exactness at small n, so this
    check reports residuals instead of asserting equality. The k<=1
    truncation is leading-order correct with residual O(t^(n-1)).
    """
    n = integral_value("n", n, 1)
    t = integral_value("t", t, 2)
    if n > 4:
        raise ValueError(f"n must lie in 1..4, got {n}")
    return IdentityReport(
        name="sum-of-powers",
        params={"n": n, "t": t},
        verdict="residual",
        residual=_power_sum_residual(n, t, truncation=3),
        notes=f"k<=1 truncation residual {_power_sum_residual(n, t, truncation=1)}",
    )


def sum_of_powers_residual_slope(n: int):
    """Log-log growth slope over t = 10..50 of the k<=1 truncation's residual.

    Returns None when fewer than two residuals are nonzero.
    """
    n = integral_value("n", n, 1)
    points = [
        (math.log(t), math.log(abs(float(residual))))
        for t in range(10, 51)
        if (residual := _power_sum_residual(n, t, truncation=1))
    ]
    if len(points) < 2:
        return None
    return statistics.linear_regression(*zip(*points)).slope


# --------------------------------------------------------------------------
# joint-law normalization (full-lattice sum)

def check_joint_normalization(n: int, m: int, levels) -> IdentityReport:
    """Sum the exact joint law over its whole count lattice; must equal 1.

    Sums ``joint_pdf_lattice``'s integer numerators, refused past its budget before its table is built.
    """
    params_obj = SystemParams(n, m)
    levels = [params_obj.check_level(j) for j in levels]
    params = {"N": params_obj.n_particles, "M": params_obj.energy_units, "levels": levels}
    numerators, total = joint_pdf_lattice(params_obj, levels)
    mass = sum(numerators)
    if mass == total:
        return IdentityReport(name="joint-normalization", params=params, verdict="exact-equal")
    return IdentityReport(
        name="joint-normalization",
        params=params,
        verdict="mismatch",
        residual=Fraction(mass - total, total),
    )


# --------------------------------------------------------------------------
# standard battery (what the command-line `identities` run executes): one
# table of families, keyed by the name their reports carry, in battery order.
# Each entry yields its family's reports on the standard grid and looks the
# checks up by their module names when it runs.

SIMPLEX_RATIOS = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), Fraction(3, 7))

JOINT_NORMALIZATION_POINTS = (
    (1, 1, (0,)),
    (2, 2, (0, 1)),
    (3, 4, (0, 2)),
    (4, 5, (0, 2, 4)),
    (5, 6, (1, 3, 5)),
    (6, 8, (0, 1, 2)),
    (6, 8, (3,)),
)

IDENTITY_FAMILIES = {
    "power-of-sum": lambda: (
        check_power_of_sum(n, m, level) for n in range(1, 7) for m in range(9) for level in range(m + 1)
    ),
    "differential": lambda: (check_differential_identity(q, k) for q in range(1, 7) for k in range(1, 7)),
    "simplex-sum-ii": lambda: (
        check_simplex_sum_ii(p, SIMPLEX_RATIOS[:p], n_top) for p in range(1, 5) for n_top in (3, 5, 8)
    ),
    "sum-of-powers": lambda: (
        measure_sum_of_powers_residual(n, t) for n in range(1, 5) for t in (10, 30, 50)
    ),
    "joint-normalization": lambda: (check_joint_normalization(*point) for point in JOINT_NORMALIZATION_POINTS),
}


def run_standard_battery() -> list:
    """Every identity check at its standard grid, as a flat report list: the families in table order."""
    return [report for family in IDENTITY_FAMILIES.values() for report in family()]
