"""Exact combinatorial primitives shared by the closed-form formulas.

Everything here is integer or rational arithmetic with no rounding: binomial
coefficients under the zero-outside-range convention, multinomial placement
weights, the Stirling-style coefficient triangle that converts log-derivatives
into falling factorials, and the expansion coefficients of
((1 - z^(M+1))/(1 - z) + z^j u)^N, whose rows the joint laws nest per level.
The one integer check of the library, ``integral_value``, which every count,
level, order and size argument of the public API passes with its lower bound,
and the JSON text of exact values live here too, below every other module.
"""
from __future__ import annotations

import math
import numbers
import operator
from fractions import Fraction
from functools import lru_cache

# Exact probabilities and moments reach callers as reduced arbitrary-precision
# rationals; an exact law holds integer numerators over one denominator until
# one is read.
ExactRational = Fraction


def json_default(value):
    """``default=`` hook for ``json.dumps``.

    An exact rational becomes the string "numerator/denominator"; anything
    else is not serializable and raises TypeError.
    """
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def json_text(value) -> str:
    """``value`` as indented JSON text, exact rationals through ``json_default``."""
    import json

    return json.dumps(value, indent=2, default=json_default)


def integral_value(name: str, value, minimum: int | None = None) -> int:
    """``value`` as a Python int: the one check of every integer argument called ``name``.

    Any integral type (a NumPy integer, say) is accepted, so the exact
    arithmetic and the overflow guards never run on fixed-width integers;
    bool, float and other non-integers raise TypeError, and a value below
    ``minimum`` raises ValueError; both messages name the argument. Upper
    bounds, such as level <= M, stay with the callers that know them.
    """
    if type(value) is not int:  # the common case skips the slower ABC check
        if not isinstance(value, numbers.Integral) or isinstance(value, bool):
            raise TypeError(f"{name} must be an integer, got {value!r}")
        value = operator.index(value)
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def _binomial(n: int, k: int) -> int:
    """``binomial`` without the argument check, for the library's own hot loops."""
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


def binomial(n: int, k: int) -> int:
    """C(n, k), with C(n, k) = 0 whenever k < 0, n < 0 or k > n.

    The zero convention mirrors the indicator gates of the summation formulas
    (terms outside their valid range vanish), so callers never range-check.
    """
    return _binomial(integral_value("n", n), integral_value("k", k))


def multinomial_weight(occupation) -> int:
    """Number of distinct labeled placements realizing an occupation vector.

    For counts (n_0, ..., n_M) with total N this is N! / (n_0! ... n_M!),
    computed as a product of binomials to stay in integer arithmetic.
    """
    total = 0
    weight = 1
    for n in occupation:
        n = integral_value("occupation number", n, 0)
        total += n
        weight *= math.comb(total, n)
    return weight


def _closed_form_entry(s: int, m: int) -> int:
    # Inclusion-exclusion surjection count divided by s!; integer by construction.
    total = sum((-1) ** q * _binomial(s, q) * (s - q) ** m for q in range(s + 1))
    quotient, remainder = divmod(total, math.factorial(s))
    if remainder:
        raise AssertionError(f"closed form not integral at s={s}, m={m}")
    return quotient


@lru_cache(maxsize=32)
def _triangle_row(m: int) -> tuple:
    row = (1,)
    for order in range(1, m):
        # row is row `order`; a_s(order+1) = s*a_s(order) + a_(s-1)(order)
        row = tuple(s * a + b for s, a, b in zip(range(1, order + 2), row + (0,), (0,) + row))
    for s, value in enumerate(row, start=1):
        check = _closed_form_entry(s, m)
        if check != value:
            raise AssertionError(
                f"coefficient triangle broken at order {m}, entry {s}: "
                f"recursion {value} vs closed form {check}"
            )
    return row


def stirling_like_row(m: int) -> list:
    """Row m of the coefficient triangle (entries a_s for s = 1..m).

    Row m follows from row 1 = (1) via a_s -> s*a_s + a_(s-1); every entry of
    row m is cross-checked against the independent inclusion-exclusion closed
    form sum((-1)^q C(s,q) (s-q)^m) / s!, and construction fails loudly on any
    disagreement. The 32 most recently used rows are cached. These are the
    weights expanding the m-th derivative of f(e^y) into falling-factorial
    derivatives of f.
    """
    return list(_triangle_row(integral_value("m", m, 1)))


def triangle_coefficient(s: int, m: int) -> int:
    """Entry a_s of row m, with the convention 0 outside 1 <= s <= m."""
    s, m = integral_value("s", s), integral_value("m", m)
    if m < 1 or s < 1 or s > m:
        return 0
    return _triangle_row(m)[s - 1]


def weak_compositions(total: int, parts: int) -> int:
    """Ways to write ``total`` as an ordered sum of ``parts`` nonnegative integers.

    C(total+parts-1, parts-1) for parts >= 1; a zero total fits into zero
    parts in exactly one way, and a negative total fits in none.
    """
    if parts == 0:
        return 1 if total == 0 else 0
    return _binomial(total + parts - 1, parts - 1)


def power_of_sum_coefficient(p: int, j: int, N: int, q: int) -> int:
    """Coefficient of z^p u^q in ((1 - z^(M+1))/(1 - z) + z^j u)^N, for j >= 0.

    C(N, q) ways to pick the q particles on level j, times W(p - qj, N - q)
    weak compositions of the leftover energy; at q = N it is [N*j == p]. Zero
    for q outside 0..N or qj > p, so sums may run unguarded. Entry q of
    ``power_of_sum_row``; ``exact_moment`` takes it for q <= order alone.
    """
    p, j = integral_value("p", p), integral_value("j", j, 0)
    N, q = integral_value("N", N), integral_value("q", q)
    return _binomial(N, q) * weak_compositions(p - q * j, N - q)


def power_of_sum_row(p: int, j: int, N: int) -> list:
    """[power_of_sum_coefficient(p, j, N, q) for q = 0..N], from one binomial.

    Entry q is C(N, q) C(a, b) with a = p - qj + N - q - 1, b = N - q - 1. Going
    to q + 1, C(N, q) gains (N - q)/(q + 1), and C(a, b) becomes C(a - j - 1, b - 1)
    = C(a, b) b perm(a - b, j) / (a perm(a - 1, j)). So each entry is the last one
    times one factor and divided exactly by another, both built by ``math.perm``:
    a row costs one binomial and two big-integer operations per entry, whatever
    j is. While (q + 1)j <= p and b >= 1 every factor is at least 1; past that
    gate the entries are 0. The last entry is the indicator [N*j == p].
    """
    p, j, N = integral_value("p", p), integral_value("j", j, 0), integral_value("N", N)
    row = [0] * (N + 1)
    if N < 0 or p < 0:
        return row
    row[N] = int(N * j == p)
    a, b = p + N - 1, N - 1
    entry = _binomial(a, b)
    for q in range(N):
        row[q] = entry
        if q + 1 == N or (q + 1) * j > p:
            break
        up = (N - q) * b * math.perm(a - b, j)
        down = (q + 1) * a * math.perm(a - 1, j)
        entry = entry * up // down
        a -= j + 1
        b -= 1
    return row
