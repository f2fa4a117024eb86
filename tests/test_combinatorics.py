import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boltzgas.combinatorics import (
    binomial,
    json_default,
    multinomial_weight,
    power_of_sum_coefficient,
    power_of_sum_row,
    stirling_like_row,
    weak_compositions,
)

# rows printed for orders 1..6
KNOWN_ROWS = {
    1: [1],
    2: [1, 1],
    3: [1, 3, 1],
    4: [1, 7, 6, 1],
    5: [1, 15, 25, 10, 1],
    6: [1, 31, 90, 65, 15, 1],
}


class TestBinomial:
    @pytest.mark.parametrize(
        "n, k, expected",
        [(4, 2, 6), (5, 0, 1), (3, 5, 0), (-1, 0, 0), (10, -2, 0), (0, 0, 1)],
    )
    def test_values(self, n, k, expected):
        assert binomial(n, k) == expected

    @given(st.integers(min_value=1, max_value=120), st.integers(min_value=0, max_value=120))
    def test_pascal(self, n, k):
        # the two-term recursion, valid for n >= 1 with the zero convention
        assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)

    @given(st.integers(min_value=0, max_value=60), st.integers(min_value=0, max_value=60))
    def test_matches_math_comb(self, n, k):
        if k <= n:
            assert binomial(n, k) == math.comb(n, k)


class TestMultinomialWeight:
    @pytest.mark.parametrize(
        "occupation, expected",
        [([1, 2, 0], 3), ([4], 1), ([2, 2], 6), ([0, 0, 3], 1), ([1, 1, 1], 6)],
    )
    def test_values(self, occupation, expected):
        assert multinomial_weight(occupation) == expected

    def test_matches_factorial_formula(self):
        counts = [3, 1, 4, 0, 2]
        expected = math.factorial(10)
        for c in counts:
            expected //= math.factorial(c)
        assert multinomial_weight(counts) == expected

    @given(st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=6))
    @settings(max_examples=60)
    def test_permutation_invariant(self, counts):
        assert multinomial_weight(counts) == multinomial_weight(sorted(counts))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            multinomial_weight([2, -1])

    @pytest.mark.parametrize("occupation", [[1.5, 2], [True, 1], [2, np.float64(1.0)]])
    def test_rejects_non_integers(self, occupation):
        with pytest.raises(TypeError, match="must be an integer"):
            multinomial_weight(occupation)

    def test_numpy_integers(self):
        weight = multinomial_weight(np.array([3, 1, 4, 0, 2], dtype=np.int64))
        assert type(weight) is int and weight == multinomial_weight([3, 1, 4, 0, 2])


def _bell_numbers(count):
    # Aitken triangle, an independent route to the row totals
    row = [1]
    bells = [row[-1]]
    for _ in range(count - 1):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
        bells.append(row[-1])
    return bells


class TestCoefficientTriangle:
    @pytest.mark.parametrize("order", sorted(KNOWN_ROWS))
    def test_known_rows(self, order):
        assert stirling_like_row(order) == KNOWN_ROWS[order]

    def test_row_sums_are_bell_numbers(self):
        bells = _bell_numbers(12)
        for order in range(1, 13):
            assert sum(stirling_like_row(order)) == bells[order - 1]

    def test_first_and_last_entries(self):
        for order in range(1, 13):
            row = stirling_like_row(order)
            assert row[0] == 1 and row[-1] == 1

    def test_a_long_row(self):
        row = stirling_like_row(34)
        assert row[0] == 1 and row[1] == 2**33 - 1

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            stirling_like_row(0)

    def test_concurrent_construction(self):
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=8) as pool:
            rows = list(pool.map(stirling_like_row, [20] * 32))
        assert all(row == rows[0] for row in rows)

    @pytest.mark.parametrize("order", range(1, 41))
    def test_entries_are_the_forward_differences_of_the_powers(self, order):
        # q! S(m, q) three ways: the q-th difference of 0^m, 1^m, ... at 0, the
        # recurrence row, and the inclusion-exclusion sum
        row = stirling_like_row(order)
        values = [i**order for i in range(order + 1)]
        for q in range(1, order + 1):
            values = [b - a for a, b in zip(values, values[1:])]
            surjections = sum((-1) ** (q - i) * math.comb(q, i) * i**order for i in range(q + 1))
            assert values[0] == math.factorial(q) * row[q - 1] == surjections, q


class TestJsonDefault:
    def test_rational_becomes_its_text(self):
        assert json_default(Fraction(-6, 4)) == "-3/2"
        assert json_default(Fraction(5)) == "5/1"

    @pytest.mark.parametrize("value", [object(), {1, 2}, np.int64(3), np.float64(0.5)])
    def test_anything_else_is_refused(self, value):
        with pytest.raises(TypeError, match="not JSON serializable"):
            json_default(value)


def _brute_bivariate_coefficients(n, m, j):
    """z/u coefficients of ((1 + z + ... + z^M) + z^j u)^N, truncated at z^M."""
    base = [[0] * (n + 1) for _ in range(m + 1)]
    for p in range(m + 1):
        base[p][0] += 1
    base[j][1] += 1
    poly = [[0] * (n + 1) for _ in range(m + 1)]
    poly[0][0] = 1
    for _ in range(n):
        nxt = [[0] * (n + 1) for _ in range(m + 1)]
        for zp in range(m + 1):
            for uq in range(n + 1):
                if not poly[zp][uq]:
                    continue
                for zb in range(m + 1 - zp):
                    for ub in (0, 1):
                        if base[zb][ub] and uq + ub <= n:
                            nxt[zp + zb][uq + ub] += poly[zp][uq] * base[zb][ub]
        poly = nxt
    return poly


class TestWeakCompositions:
    def test_against_brute_force_count(self):
        for parts in range(4):
            for total in range(-2, 7):
                brute = sum(
                    1
                    for split in itertools.product(range(max(total, 0) + 1), repeat=parts)
                    if sum(split) == total
                )
                assert weak_compositions(total, parts) == brute, (total, parts)

    def test_edge_cases(self):
        assert weak_compositions(0, 0) == 1
        assert weak_compositions(3, 0) == 0
        assert weak_compositions(-1, 2) == 0


class TestPowerOfSumCoefficient:
    def test_single_u_coefficient(self):
        # the z^2 u coefficient of ((1-z^(M+1))/(1-z) + z u)^2 is 2
        assert power_of_sum_coefficient(2, 1, 2, 1) == 2

    @pytest.mark.parametrize("p, j, n", [(3, 1, 4), (5, 2, 3), (0, 0, 2)])
    def test_u_free_term_is_plain_count(self, p, j, n):
        assert power_of_sum_coefficient(p, j, n, 0) == binomial(p + n - 1, n - 1)

    def test_gate_closes(self):
        assert power_of_sum_coefficient(1, 2, 3, 1) == 0

    def test_out_of_range_q(self):
        assert power_of_sum_coefficient(3, 1, 2, 3) == 0
        assert power_of_sum_coefficient(3, 1, 2, -1) == 0

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("m", [0, 2, 5])
    def test_against_polynomial_expansion(self, n, m):
        for j in range(m + 1):
            brute = _brute_bivariate_coefficients(n, m, j)
            for p in range(m + 1):
                for q in range(n + 1):
                    assert brute[p][q] == power_of_sum_coefficient(p, j, n, q)


def _coefficients(p, j, n):
    return [power_of_sum_coefficient(p, j, n, q) for q in range(n + 1)]


class TestPowerOfSumRow:
    @pytest.mark.parametrize(
        "p, j, n",
        [
            (7, 3, 5),  # the gate: qj > p from q = 3 on
            (6, 2, 3),  # N*j == p: the last entry is 1
            (7, 2, 3),  # N*j != p: the last entry is 0
            (9, 0, 6),  # j = 0: no gate
            (4, 2, 1),  # N = 1
            (0, 0, 4),  # p = 0
            (-1, 1, 4),  # a negative p: every entry is 0
        ],
    )
    def test_fixed_cases_match_coefficients(self, p, j, n):
        assert power_of_sum_row(p, j, n) == _coefficients(p, j, n)

    def test_gated_tail_and_indicator(self):
        assert power_of_sum_row(7, 3, 5)[3:] == [0, 0, 0]
        assert power_of_sum_row(6, 2, 3)[-1] == 1
        assert power_of_sum_row(7, 2, 3)[-1] == 0
        assert power_of_sum_row(-1, 1, 4) == [0] * 5

    def test_large_row(self):
        assert power_of_sum_row(10240, 1, 1024) == _coefficients(10240, 1, 1024)

    def test_level_sweep(self):
        # every tenth level of N = 200 particles sharing 2000 quanta, j = 0 and j = p included
        for j in range(0, 2001, 10):
            assert power_of_sum_row(2000, j, 200) == _coefficients(2000, j, 200), j

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_equals_per_entry_coefficients(self, data):
        n = data.draw(st.integers(0, 60), label="N")
        p = data.draw(st.integers(0, 150), label="p")
        # j past p too: there the row stops after its first entry
        j = data.draw(st.integers(0, p + 3), label="j")
        assert power_of_sum_row(p, j, n) == _coefficients(p, j, n)
