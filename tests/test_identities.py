import itertools
import json
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import boltzgas.identities as identities
from boltzgas import distributions, system
from boltzgas.identities import (
    IDENTITY_FAMILIES,
    SIMPLEX_RATIOS,
    check_differential_identity,
    check_joint_normalization,
    check_power_of_sum,
    check_simplex_sum_ii,
    measure_sum_of_powers_residual,
    reports_to_json,
    run_standard_battery,
    sum_of_powers_residual_slope,
)


class TestPowerOfSum:
    @pytest.mark.parametrize("n, m, j", [(2, 3, 1), (4, 4, 1), (1, 5, 2), (3, 6, 0)])
    def test_exact_equal(self, n, m, j):
        assert check_power_of_sum(n, m, j).verdict == "exact-equal"

    def test_small_grid(self):
        for n in range(1, 5):
            for m in range(0, 6):
                for j in range(m + 1):
                    assert check_power_of_sum(n, m, j).verdict == "exact-equal"

    def test_reports_the_first_mismatch(self, monkeypatch):
        row = identities.power_of_sum_row

        def one_entry_off(p, j, n):
            entries = row(p, j, n)
            if p == 2:
                entries[1] += 1
            return entries

        monkeypatch.setattr(identities, "power_of_sum_row", one_entry_off)
        report = check_power_of_sum(3, 4, 1)
        assert report.verdict == "mismatch"
        assert report.residual == -1
        assert report.notes == "first mismatch at z^2 u^1: 6 vs 7"


class TestDifferentialIdentity:
    def test_first_order(self):
        assert check_differential_identity(1, 1).verdict == "exact-equal"

    @pytest.mark.parametrize("q, m", [(2, 3), (3, 5), (6, 6), (16, 12)])
    def test_exact_equal(self, q, m):
        report = check_differential_identity(q, m)
        assert report.verdict == "exact-equal" and report.params["K"] == 16

    # K = 16 coefficients decide the identity for every q <= K, whatever the order m
    @given(st.integers(min_value=1, max_value=16), st.integers(min_value=1, max_value=12))
    def test_exact_equal_at_smallest_order(self, q, m):
        assert check_differential_identity(q, m).verdict == "exact-equal"

    def test_rejects_small_order(self):
        with pytest.raises(ValueError, match="q <= 16"):
            check_differential_identity(17, 4)

    def test_perturbed_row_is_a_mismatch(self, monkeypatch):
        row = identities.stirling_like_row
        monkeypatch.setattr(identities, "stirling_like_row", lambda m: [row(m)[0] + 1] + row(m)[1:])
        report = check_differential_identity(3, 2)
        # a_1 + 1 adds 3 e^y (e^y - 1)^2 to the right side, which starts at 3 y^2
        assert report.verdict == "mismatch"
        assert report.residual == -3
        assert report.notes == "first differing series coefficient at y^2"


class TestSimplexSumII:
    def test_single_ratio(self):
        report = check_simplex_sum_ii(1, [Fraction(1, 2)], 3)
        assert report.verdict == "exact-equal"

    def test_two_ratios(self):
        report = check_simplex_sum_ii(2, [Fraction(1, 2), Fraction(1, 3)], 4)
        assert report.verdict == "exact-equal"

    @pytest.mark.parametrize("arity", [1, 2, 3, 4])
    @pytest.mark.parametrize("n_top", [3, 5, 8])
    def test_standard_points(self, arity, n_top):
        report = check_simplex_sum_ii(arity, SIMPLEX_RATIOS[:arity], n_top)
        assert report.verdict == "exact-equal"

    def test_degenerate_ratio_rejected(self):
        report = check_simplex_sum_ii(1, [Fraction(1)], 3)
        assert report.verdict == "domain-error"

    def test_degenerate_product_rejected(self):
        report = check_simplex_sum_ii(2, [Fraction(2), Fraction(1, 2)], 3)
        assert report.verdict == "domain-error"

    def test_mismatch_reports_the_residual(self, monkeypatch):
        every = itertools.combinations_with_replacement
        # drop the first sequence, all zeros, whose term is 1
        monkeypatch.setattr(
            identities.itertools,
            "combinations_with_replacement",
            lambda *args: itertools.islice(every(*args), 1, None),
        )
        report = check_simplex_sum_ii(2, SIMPLEX_RATIOS[:2], 3)
        assert report.verdict == "mismatch" and report.residual == -1


class TestSumOfPowersResidual:
    def test_linear_case(self):
        report = measure_sum_of_powers_residual(1, 10)
        assert report.verdict == "residual"
        # sum_{l<10} l = 45; the k=2 coefficient leaves a spurious constant 1/12
        assert report.residual == Fraction(-1, 12)
        assert "0" in report.notes  # leading-order truncation is exact for n=1

    def test_quadratic_case(self):
        report = measure_sum_of_powers_residual(2, 10)
        assert report.residual == Fraction(1, 4)

    def test_trivial_case(self):
        report = measure_sum_of_powers_residual(1, 2)
        assert report.verdict == "residual"

    def test_never_asserts(self):
        for n in range(1, 5):
            for t in (2, 10, 30):
                assert measure_sum_of_powers_residual(n, t).verdict == "residual"

    def test_leading_truncation_growth_order(self):
        assert sum_of_powers_residual_slope(1) is None  # exact, no residuals
        for n in (2, 3, 4):
            slope = sum_of_powers_residual_slope(n)
            assert slope == pytest.approx(n - 1, abs=0.15)


class TestJointNormalization:
    @pytest.mark.parametrize(
        "n, m, levels",
        [(2, 2, (0, 1)), (1, 1, (0,)), (4, 5, (0, 2, 4)), (3, 4, (1, 3))],
    )
    def test_exact_equal(self, n, m, levels):
        assert check_joint_normalization(n, m, levels).verdict == "exact-equal"

    def test_rejects_non_integer_levels(self):
        with pytest.raises(TypeError, match="level must be an integer"):
            check_joint_normalization(3, 4, (0, 1.0))

    def test_mismatch_reports_the_residual(self, monkeypatch):
        # three numerators of 1 over 2: the lattice sums to 3/2
        monkeypatch.setattr(identities, "joint_pdf_lattice", lambda *args: ([1, 1, 1], 2))
        report = check_joint_normalization(2, 2, (0,))
        assert report.verdict == "mismatch" and report.residual == Fraction(1, 2)
        assert report.params == {"N": 2, "M": 2, "levels": [0]}

    @staticmethod
    def fail(*args):
        raise AssertionError("built the table of a refused lattice")

    @pytest.mark.parametrize(
        "n, m, levels, match",
        [
            # 201**5, about 3.3e11 points
            (200, 10, (0, 1, 2, 3, 4), "N=200, M=10, levels [0, 1, 2, 3, 4]: over 1000000 entries"),
            # 2 axes x 499,501 entries x 1000 / 2 subtractions of 63 words, about 3.1e10
            (999, 999, (0, 1), "N=999, M=999, levels [0, 1]: about 3.14e+10 word operations"),
        ],
    )
    def test_refuses_a_lattice_past_the_budget_before_any_point(self, monkeypatch, n, m, levels, match):
        monkeypatch.setattr(distributions, "_joint_term_table", self.fail)
        start = time.perf_counter()
        with pytest.raises(ValueError, match=re.escape(f"joint lattice of {match}")):
            check_joint_normalization(n, m, levels)
        assert time.perf_counter() - start < 1.0

    def test_a_budget_one_point_short_refuses_the_lattice(self, monkeypatch):
        # 4 * 4 points
        monkeypatch.setattr(system, "MAX_OUTPUT_ROWS", 15)
        monkeypatch.setattr(distributions, "_joint_term_table", self.fail)
        with pytest.raises(ValueError, match="over 15 entries"):
            check_joint_normalization(3, 4, (0, 2))
        monkeypatch.undo()
        monkeypatch.setattr(system, "MAX_OUTPUT_ROWS", 16)
        assert check_joint_normalization(3, 4, (0, 2)).verdict == "exact-equal"


class TestReports:
    def test_json_round_trip(self):
        reports = [
            check_power_of_sum(2, 2, 1),
            measure_sum_of_powers_residual(2, 10),
            check_simplex_sum_ii(1, [Fraction(1)], 3),
        ]
        payload = json.loads(reports_to_json(reports))
        assert [r["name"] for r in payload] == [
            "power-of-sum",
            "sum-of-powers",
            "simplex-sum-ii",
        ]
        assert payload[0]["verdict"] == "exact-equal"
        assert payload[1]["residual"] == "1/4"
        assert payload[2]["verdict"] == "domain-error"
        assert payload[2]["params"]["a"] == ["1/1"]

    def test_standard_battery_has_no_mismatches(self):
        reports = run_standard_battery()
        assert len(reports) > 300
        assert not [r for r in reports if r.verdict == "mismatch"]
        names = {r.name for r in reports}
        assert names == {
            "power-of-sum",
            "differential",
            "simplex-sum-ii",
            "sum-of-powers",
            "joint-normalization",
        }


class TestFamilyTable:
    def test_keys_in_battery_order(self):
        assert list(IDENTITY_FAMILIES) == [
            "power-of-sum",
            "differential",
            "simplex-sum-ii",
            "sum-of-powers",
            "joint-normalization",
        ]

    @pytest.mark.parametrize("name", list(IDENTITY_FAMILIES))
    def test_each_family_reports_under_its_key(self, name):
        reports = list(IDENTITY_FAMILIES[name]())
        assert reports and all(r.name == name for r in reports)

    def test_battery_joins_the_families_in_table_order(self):
        joined = [r for family in IDENTITY_FAMILIES.values() for r in family()]
        assert run_standard_battery() == joined
        assert len(joined) == 337

    def test_families_call_the_checks_by_module_name(self, monkeypatch):
        monkeypatch.setattr(identities, "measure_sum_of_powers_residual", lambda n, t: (n, t))
        assert list(IDENTITY_FAMILIES["sum-of-powers"]())[:4] == [(1, 10), (1, 30), (1, 50), (2, 10)]
