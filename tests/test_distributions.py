import hashlib
import itertools
import math
import re
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boltzgas import distributions, enumeration, system
from boltzgas.combinatorics import binomial, multinomial_weight, power_of_sum_row, weak_compositions
from boltzgas.distributions import (
    DistributionTable,
    LimitValidityWarning,
    joint_pdf_exact,
    joint_pdf_lattice,
    joint_pdf_multinomial_limit,
    macrostate_probability_exact,
    macrostate_probability_largeN,
    multinomial_trial_probabilities,
    occupation_pdf_binomial_limit,
    occupation_pdf_conditioned_limit,
    occupation_pdf_exact,
    occupation_pdf_normal_limit,
    occupation_pdf_window,
)
from boltzgas.enumeration import enumerate_macrostates, oracle_joint_pdf, oracle_pdf
from boltzgas.figures import figure_data
from boltzgas.identities import JOINT_NORMALIZATION_POINTS
from boltzgas.moments import (
    conditioned_variance_limit,
    exact_moment,
    variance_exact,
    variance_limit,
)
from boltzgas.system import SystemParams, normalize_selection


class TestDistributionTable:
    def test_fields_are_probabilities_and_mode(self):
        assert DistributionTable._fields == ("probabilities", "mode")
        table = DistributionTable((Fraction(1, 2), Fraction(1, 2)), "exact")
        assert table.support == (0, 1)
        with pytest.raises(AttributeError):
            table.support = (0, 1)

    def test_exact_mode_requires_unit_total(self):
        with pytest.raises(ValueError):
            DistributionTable((Fraction(1, 2), Fraction(1, 3)), "exact")

    def test_rejects_negative_probability(self):
        with pytest.raises(ValueError):
            DistributionTable((Fraction(3, 2), Fraction(-1, 2)), "exact")

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            DistributionTable((1.0,), "approximate")

    def test_limit_mode_tolerance(self):
        DistributionTable((0.5, 0.5 + 1e-13), "limit")
        with pytest.raises(ValueError):
            DistributionTable((0.5, 0.51), "limit")

    def test_rejects_nan_probability(self):
        with pytest.raises(ValueError):
            DistributionTable((float("nan"), 1.0), "limit")

    def test_lookup_and_moments_across_a_gap(self):
        table = DistributionTable((Fraction(1, 4), Fraction(0), Fraction(3, 4)), "exact")
        assert table.support == (0, 1, 2)
        assert table.probability(0) == Fraction(1, 4)
        assert table.probability(1) == 0
        assert table.probability(2) == Fraction(3, 4)
        assert table.mean() == Fraction(3, 2)
        assert table.variance() == Fraction(3, 4)

    @pytest.mark.parametrize("mode, zero", [("exact", Fraction(0)), ("limit", 0.0)])
    def test_probability_outside_the_counts_is_zero(self, mode, zero):
        one = Fraction(1) if mode == "exact" else 1.0
        table = DistributionTable((one / 4, one * 3 / 4), mode)
        # -1 must not wrap around to the last entry
        for count in (-1, -2, 2, 5):
            value = table.probability(count)
            assert value == 0 and type(value) is type(zero), count

    def test_limit_equality(self):
        table = DistributionTable((0.25, 0.75), "limit")
        assert table == DistributionTable((0.25, 0.75), "limit")
        assert hash(table) == hash(DistributionTable((0.25, 0.75), "limit"))
        assert table != DistributionTable((0.75, 0.25), "limit")
        assert table != DistributionTable((0.25, 0.75, 0.0), "limit")
        assert table != DistributionTable((Fraction(1, 4), Fraction(3, 4)), "exact")
        assert table.__eq__(1) is NotImplemented and (table == 1) is False

    def test_total_variation(self):
        a = DistributionTable((Fraction(1, 2), Fraction(1, 2)), "exact")
        b = DistributionTable((Fraction(1, 4), Fraction(3, 4)), "exact")
        assert a.total_variation(b) == pytest.approx(0.25)

    def test_total_variation_pads_the_shorter_table(self):
        short = DistributionTable((0.5, 0.5), "limit")
        long = DistributionTable((0.25, 0.25, 0.25, 0.25), "limit")
        # |0.5-0.25| + |0.5-0.25| + 0.25 + 0.25 = 1
        assert short.total_variation(long) == 0.5
        assert long.total_variation(short) == 0.5
        assert short.total_variation(DistributionTable((0.0, 0.0, 1.0), "limit")) == 1.0


class TestOccupationPdfExact:
    def test_frozen_tables(self):
        params = SystemParams(2, 2)
        assert occupation_pdf_exact(params, 1).probabilities == (
            Fraction(2, 3),
            Fraction(0),
            Fraction(1, 3),
        )
        assert occupation_pdf_exact(params, 0).probabilities == (
            Fraction(1, 3),
            Fraction(2, 3),
            Fraction(0),
        )

    def test_forced_placement(self):
        table = occupation_pdf_exact(SystemParams(1, 3), 3)
        assert table.probability(1) == 1

    def test_matches_oracle_and_normalizes(self):
        for n in range(1, 7):
            for m in range(0, 9):
                params = SystemParams(n, m)
                for j in range(m + 1):
                    table = occupation_pdf_exact(params, j)
                    assert sum(table.probabilities) == 1
                    assert table.probabilities == oracle_pdf(params, j).probabilities
                    assert table == oracle_pdf(params, j)

    def test_first_moment_consistency(self):
        # The two larger systems lie past the enumeration cap: there the
        # moments are the only exact check of the table.
        systems = [(4, 6, range(7)), (6, 8, range(9)), (200, 2000, range(6)), (300, 600, range(6))]
        for n, m, levels in systems:
            params = SystemParams(n, m)
            for j in levels:
                table = occupation_pdf_exact(params, j)
                assert table.mean() == exact_moment(params, j, 1)
                second = sum(k * k * p for k, p in zip(table.support, table.probabilities))
                assert second == exact_moment(params, j, 2)

    def test_level_zero_is_hypergeometric(self):
        # P(n_0 = k) = C(N, k) C(M-1, N-k-1) / C(M+N-1, N-1) for M >= 1: a
        # witness independent of the enumeration oracle and past its cap.
        systems = [(n, m) for n in range(1, 25) for m in range(1, 40)] + [(300, 3000)]
        for n, m in systems:
            table = occupation_pdf_exact(SystemParams(n, m), 0)
            total = binomial(m + n - 1, n - 1)
            assert table.probabilities == tuple(
                Fraction(binomial(n, k) * binomial(m - 1, n - k - 1), total)
                for k in range(n + 1)
            ), (n, m)

    def test_weight_row_takes_one_binomial(self, monkeypatch):
        calls = []
        comb = math.comb

        def counting_comb(n, k):
            calls.append((n, k))
            return comb(n, k)

        monkeypatch.setattr(math, "comb", counting_comb)
        distributions._pdf_numerators(200, 2000, 1, 200)
        assert len(calls) == 1

    @pytest.mark.parametrize("n", [1, 2, 5, 13, 40])
    @pytest.mark.parametrize("m", [0, 7, 60])
    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_truncated_shift_is_a_prefix_of_the_full_shift(self, n, m, level):
        # the weight row from its closed form, then every Ruffini-Horner pass
        a = [binomial(n, q) * weak_compositions(m - q * level, n - q) for q in range(n + 1)]
        for i in range(n):
            for j in range(n - 1, i - 1, -1):
                a[j] -= a[j + 1]
        for top in sorted({0, 1, n - 1, n}):
            assert distributions._pdf_numerators(n, m, level, top) == a[: top + 1], top

    def test_every_levels_numerators_match_the_recorded_digest(self):
        # SHA-256 recorded when the shift ran over all N + 1 weights of every level
        grid = [(n, m) for n in (1, 2, 3, 5, 8, 13, 40) for m in (0, 1, 2, 7, 20, 64)]
        numerators = [
            distributions._pdf_numerators(n, m, level, top)
            for n, m in grid + [(100, 300), (64, 1000), (300, 100)]
            for level in range(m + 1)
            for top in (n, n // 3)
        ]
        digest = hashlib.sha256(repr(numerators).encode()).hexdigest()
        assert digest == "ae05821146604dcceaaf4ae3c22b8448cabe1e49b30afe72d285f8315b415ccb"

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_figure_5_windows_match_the_full_table(self, n):
        for t in (10, 20, 50, 100):
            params = SystemParams(n, n * t)
            table = occupation_pdf_exact(params, 1)
            limit = occupation_pdf_normal_limit(n, t, 1)
            sigma = math.sqrt(limit.variance)
            lo = int(limit.mean - 12.0 * sigma)
            hi = int(math.ceil(limit.mean + 12.0 * sigma))
            counts, numerators, denominator = occupation_pdf_window(params, 1, lo, hi)
            kept = slice(max(lo, 0), min(hi, n) + 1)
            assert counts == list(table.support[kept]), t
            assert [Fraction(v, denominator) for v in numerators] == list(table.probabilities[kept]), t

    @pytest.mark.parametrize("lo, hi", [(5, 3), (-5, -1), (9, 12)])
    def test_empty_window_does_no_shift(self, monkeypatch, lo, hi):
        def no_shift(*args):
            raise AssertionError("an empty window shifted")

        monkeypatch.setattr(distributions, "_pdf_numerators", no_shift)
        assert occupation_pdf_window(SystemParams(8, 10), 1, lo, hi) == ([], [], binomial(17, 7))

    @pytest.mark.parametrize("level", [True, 1.0, np.float64(1.0)])
    def test_rejects_non_integer_levels(self, level):
        with pytest.raises(TypeError, match="level must be an integer"):
            occupation_pdf_exact(SystemParams(4, 6), level)

    def test_numpy_level_gives_the_same_law(self):
        params = SystemParams(6, 9)
        assert occupation_pdf_exact(params, np.int64(2)) == occupation_pdf_exact(params, 2)
        assert occupation_pdf_window(params, 2, np.int64(1), np.uint8(3)) == (
            occupation_pdf_window(params, 2, 1, 3)
        )

    def test_window_rejects_non_integer_bounds(self):
        with pytest.raises(TypeError, match="lo must be an integer"):
            occupation_pdf_window(SystemParams(6, 9), 2, 1.5, 3)
        with pytest.raises(TypeError, match="hi must be an integer"):
            occupation_pdf_window(SystemParams(6, 9), 2, 1, 3.0)

    def test_window_matches_full_table(self):
        params = SystemParams(8, 10)
        table = occupation_pdf_exact(params, 1)
        counts, numerators, denominator = occupation_pdf_window(params, 1, 2, 5)
        assert counts == [2, 3, 4, 5]
        assert [Fraction(v, denominator) for v in numerators] == list(table.probabilities[2:6])


class TestExactRepresentation:
    """An exact law is integer numerators over C(M+N-1, N-1); Fractions and floats read them."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_numerators_give_the_fractions_and_floats(self, data):
        n = data.draw(st.integers(1, 40), label="N")
        m = data.draw(st.integers(0, 80), label="M")
        params = SystemParams(n, m)
        total = binomial(m + n - 1, n - 1)
        for level in range(m + 1):
            counts, numerators, denominator = occupation_pdf_window(params, level, 0, n)
            assert counts == list(range(n + 1)) and denominator == total
            assert sum(numerators) == total
            table = occupation_pdf_exact(params, level)
            fractions = tuple(Fraction(v, total) for v in numerators)
            assert table.probabilities == fractions
            assert [x.hex() for x in table.as_floats()] == [float(p).hex() for p in fractions]
            assert table.mean() == sum(k * p for k, p in enumerate(fractions))
            mu = table.mean()
            assert table.variance() == sum((k - mu) ** 2 * p for k, p in enumerate(fractions))
            lo = data.draw(st.integers(-3, n + 3), label="lo")
            hi = data.draw(st.integers(-3, n + 3), label="hi")
            counts, numerators, denominator = occupation_pdf_window(params, level, lo, hi)
            probs = [Fraction(v, denominator) for v in numerators]
            assert counts == [k for k in range(n + 1) if lo <= k <= hi] and denominator == total
            assert probs == [fractions[k] for k in counts]
            assert [v / total for v in numerators] == [float(p) for p in probs]

    def test_figure_5_floats_are_the_rounded_fractions(self):
        data = figure_data(5)
        for panel, t in zip(data.panels, (10, 20, 50, 100)):
            expected = []
            for n in (16, 64, 256, 1024):
                limit = occupation_pdf_normal_limit(n, t, 1)
                sigma = math.sqrt(limit.variance)
                lo = int(limit.mean - 12.0 * sigma)
                hi = int(math.ceil(limit.mean + 12.0 * sigma))
                params = SystemParams(n, n * t)
                total = binomial(n * t + n - 1, n - 1)
                counts, numerators, denominator = occupation_pdf_window(params, 1, lo, hi)
                assert denominator == total, (n, t)
                probs = [Fraction(v, denominator) for v in numerators]
                expected.extend((n, k, float(p)) for k, p in zip(counts, probs))
            assert list(panel.rows) == expected, t

    def test_figures_3_to_5_build_no_fraction(self, monkeypatch):
        def no_fraction(*args):
            raise AssertionError("a Fraction was built")

        monkeypatch.setattr(distributions, "Fraction", no_fraction)
        monkeypatch.setattr(system, "Fraction", no_fraction)
        for figure_id in (3, 4, 5):
            figure_data(figure_id)

    def test_equal_laws_compare_equal_over_any_denominator(self):
        halves = DistributionTable((Fraction(1, 2), Fraction(1, 2)), "exact")
        sixths = DistributionTable.from_numerators((3, 3), 6)
        assert halves == sixths and hash(halves) == hash(sixths)
        assert sixths.probabilities == (Fraction(1, 2), Fraction(1, 2))
        assert halves != DistributionTable.from_numerators((1, 3), 4)
        assert halves != DistributionTable.from_numerators((2, 2, 0), 4)
        assert halves != DistributionTable((0.5, 0.5), "limit")

    @pytest.mark.parametrize(
        "numerators, denominator, error",
        [
            ((1, 1), 3, ValueError),
            ((3, -1), 2, ValueError),
            ((0,), 0, ValueError),
            ((1,), 1.0, TypeError),
        ],
    )
    def test_from_numerators_checks_the_table(self, numerators, denominator, error):
        with pytest.raises(error):
            DistributionTable.from_numerators(numerators, denominator)


class TestBinomialLimit:
    def test_frozen_table(self):
        table = occupation_pdf_binomial_limit(2, 1.0, 0)
        assert table.as_floats() == pytest.approx([0.25, 0.5, 0.25], rel=1e-12)

    def test_mean_is_n_times_p(self):
        n, t, j = 40, 3.0, 1
        table = occupation_pdf_binomial_limit(n, t, j)
        p = t**j / (t + 1) ** (j + 1)
        assert table.mean() == pytest.approx(n * p, rel=1e-10)

    @pytest.mark.parametrize("n", [10_000, 100_000])
    def test_builds_at_large_n(self, n):
        # the rounding error of log N! once put the sum of the terms off 1 by more than 1e-12
        t, j = 2, 1
        table = occupation_pdf_binomial_limit(n, t, j)
        p = t**j / (t + 1) ** (j + 1)
        assert len(table.probabilities) == n + 1
        assert abs(math.fsum(table.probabilities) - 1.0) <= 1e-12
        assert table.mean() == pytest.approx(n * p, rel=1e-9)

    @pytest.mark.parametrize("n, t, j", [(50, 2.0, 1), (100, 4.0, 2), (1000, 3.0, 0)])
    def test_terms_that_sum_to_one_are_not_rescaled(self, n, t, j):
        p = t**j / (t + 1) ** (j + 1)
        log_probs = (math.log(p), math.log1p(-p))
        terms = tuple(
            math.exp(distributions._multinomial_log_pmf(n, (k, n - k), log_probs))
            for k in range(n + 1)
        )
        assert occupation_pdf_binomial_limit(n, t, j).probabilities == terms

    def test_close_to_exact_inside_validity(self):
        params = SystemParams(50, 100)
        exact = occupation_pdf_exact(params, 1)
        limit = occupation_pdf_binomial_limit(50, 2.0, 1)
        assert exact.total_variation(limit) <= 0.05

    def test_warns_outside_validity(self):
        with pytest.warns(LimitValidityWarning):
            occupation_pdf_binomial_limit(10, 1.0, 1)
        with pytest.warns(LimitValidityWarning):
            occupation_pdf_binomial_limit(10, 0.5, 2)


class TestConditionedLimit:
    def test_level_zero_variance_is_binomial_times_t_over_t_plus_one(self):
        # the binomial limit's level-0 gap to the exact law, which never closes
        for t in (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3), Fraction(4)):
            ratio = conditioned_variance_limit(10, t, 0) / variance_limit(10, t, 0)
            assert ratio == t / (t + 1)

    def test_exact_variance_converges_at_rate_one_over_n(self):
        for n in (250, 1000, 4000):
            for t in range(1, 5):
                for j in range(6):
                    limit = conditioned_variance_limit(n, Fraction(t), j)
                    gap = abs(variance_exact(SystemParams(n, n * t), j) - limit) / limit
                    assert gap <= Fraction(1, n), (n, t, j, float(gap * n))

    def test_normalized_with_mean_n_times_p(self):
        # variance >= 2 and the mean >= 8 sd from both ends: the lattice and
        # truncation errors of the mean lie far below the 1e-12 asserted
        for n, t, j in [(1000, 1, 0), (1000, 2, 1), (1000, 3, 2), (4000, 4, 3)]:
            table = occupation_pdf_conditioned_limit(n, t, j)
            p = t**j / (t + 1) ** (j + 1)
            assert table.mode == "limit"
            assert table.support == tuple(range(n + 1))
            assert abs(math.fsum(table.probabilities) - 1.0) <= 1e-12
            assert table.mean() == pytest.approx(n * p, rel=1e-12)
            expected_variance = n * n * conditioned_variance_limit(n, t, j)
            assert table.variance() == pytest.approx(expected_variance, rel=1e-12)

    @pytest.mark.parametrize(
        "law",
        [
            occupation_pdf_binomial_limit,
            occupation_pdf_conditioned_limit,
            occupation_pdf_normal_limit,
        ],
    )
    def test_warns_and_raises_like_the_binomial_limit(self, law):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            law(10, 2.0, 1)
        with pytest.warns(LimitValidityWarning):
            law(10, 1.0, 1)
        with pytest.warns(LimitValidityWarning):
            law(10, 0.5, 2)
        with pytest.raises(ValueError):
            law(0, 2.0, 1)
        with pytest.warns(LimitValidityWarning), pytest.raises(ValueError):
            law(10, 0.0, 0)
        with pytest.warns(LimitValidityWarning), pytest.raises(ValueError):
            law(10, 1e-300, 5)  # p underflows to 0
        with pytest.warns(LimitValidityWarning) as record:
            law(10, 1.0, 1)
        assert record[0].filename == __file__  # the warning points at the caller

    def test_rejects_underflowing_variance(self):
        # p = 1e-170 is a float but the variance, about 5 T^2, is not
        with pytest.warns(LimitValidityWarning), pytest.raises(ValueError):
            occupation_pdf_conditioned_limit(10, 1e-170, 1)

    def test_total_variation_to_exact_law_shrinks_with_n(self):
        for t in range(1, 5):
            for j in range(t):
                distances = [
                    occupation_pdf_exact(SystemParams(n, n * t), j).total_variation(
                        occupation_pdf_conditioned_limit(n, t, j)
                    )
                    for n in (50, 100, 200)
                ]
                assert distances[0] > distances[1] > distances[2], (t, j, distances)


class TestNormalLimit:
    def test_moments(self):
        density = occupation_pdf_normal_limit(100, 1.0, 0)
        assert density.mean == pytest.approx(50.0)
        assert density.variance == pytest.approx(25.0)

    def test_peak_value(self):
        density = occupation_pdf_normal_limit(100, 1.0, 0)
        assert density(50.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi * 25.0), rel=1e-12)

    def test_integrates_to_one(self):
        # midpoint sum over mean +- 12 sigma in 0.01 steps: the cut tails hold
        # under 1e-32 and the rule's error on a Gaussian is far below 1e-15
        density = occupation_pdf_normal_limit(100, 1.0, 0)
        step, lower = 0.01, density.mean - 12 * math.sqrt(density.variance)
        points = round(24 * math.sqrt(density.variance) / step)
        integral = step * math.fsum(density(lower + (i + 0.5) * step) for i in range(points))
        assert abs(integral - 1.0) <= 1e-9


def _joint_pdf_gridpoint(params: SystemParams, levels, counts) -> Fraction:
    """Direct hypercube-gridpoint evaluation of the joint law (p^q terms).

    Cross-check implementation for small systems only; the composition route
    of ``joint_pdf_exact`` is the production path.
    """
    levels, counts = normalize_selection(params, levels, counts)
    n, m = params.n_particles, params.energy_units
    p = len(levels)
    numerator = 0
    for q in range(n + 1):
        boundary = q == n
        for gridpoint in itertools.product(range(p), repeat=q):
            multiplicities = [0] * p
            for s in gridpoint:
                multiplicities[s] += 1
            energy = sum(mi * ji for mi, ji in zip(multiplicities, levels))
            if boundary:
                if energy != m:
                    continue
                weight = 1
            else:
                if energy > m:
                    continue
                weight = binomial(n, q) * binomial(m - energy + n - 1 - q, n - 1 - q)
            factor = 1
            for mi, ci in zip(multiplicities, counts):
                if ci > mi:
                    factor = 0
                    break
                factor *= binomial(mi, ci) * (-1) ** (mi - ci)
            numerator += weight * factor
    return Fraction(numerator, binomial(m + n - 1, n - 1))


def _joint_coefficient(m, levels, n, counts):
    """Per-entry reference for the term table: N!/(prod_s r_s! (N - |r|)!) W(M - r.j, N - |r|).

    Built from a fresh multinomial and a fresh weak-composition count for
    every r; 0 for a negative count, |r| > N or r.j > M.
    """
    rest = n - sum(counts)
    energy = sum(r * j for r, j in zip(counts, levels))
    if rest < 0 or energy > m or min(counts) < 0:
        return 0
    return multinomial_weight((*counts, rest)) * weak_compositions(m - energy, rest)


def _reference_table(n, m, levels):
    """The nonzero (r, ``_joint_coefficient``) over the whole cube 0..N per level."""
    cube = itertools.product(range(n + 1), repeat=len(levels))
    return tuple((r, w) for r in cube if (w := _joint_coefficient(m, levels, n, r)))


def _oracle_term_table(n, m, levels):
    """Every nonzero (r, sum of multiplicity * prod_s C(n_(j_s), r_s)), r in lexicographic order."""
    moments = {}
    for weighted in enumerate_macrostates(SystemParams(n, m)):
        occupied = [weighted.state[j] for j in levels]
        for r in itertools.product(*(range(k + 1) for k in occupied)):
            term = weighted.multiplicity * math.prod(map(binomial, occupied, r))
            moments[r] = moments.get(r, 0) + term
    return tuple(sorted(moments.items()))


class TestJointTermTable:
    @pytest.mark.parametrize(
        "n, m, levels",
        [
            (12, 16, (0, 1, 2)),
            (12, 16, (0, 2, 4)),
            (11, 15, (1, 2, 3)),
            (13, 17, (0, 1, 3)),
            (40, 60, (0, 1, 2)),
            (30, 5, (0, 3)),
            (20, 30, (0, 2)),
            (5, 0, (0,)),
        ],
    )
    def test_equals_the_per_entry_reference(self, n, m, levels):
        assert distributions._joint_term_table(n, m, levels) == _reference_table(n, m, levels)

    @pytest.mark.parametrize(
        "n, m, levels, counts",
        [
            (3, 4, (1, 2), (2, 1)),  # |r| = N and r.j = M
            (4, 4, (0, 2), (1, 2)),  # r.j = M with particles left over
            (4, 6, (0, 1, 3), (0, 0, 0)),  # the plain microstate count
            (4, 6, (0, 1, 3), (2, 2, 0)),  # |r| = N
            (3, 5, (1, 2), (2, 2)),  # r.j > M
            (3, 5, (0, 1), (2, 2)),  # |r| = N + 1
            (3, 5, (0, 1), (-1, 1)),  # a negative count
            (3, 5, (2,), (4,)),  # a count above N
        ],
    )
    def test_boundary_entries_match_oracle(self, n, m, levels, counts):
        oracle = dict(_oracle_term_table(n, m, levels)).get(counts, 0)
        assert dict(distributions._joint_term_table(n, m, levels)).get(counts, 0) == oracle

    def test_out_of_range_entries_are_absent(self):
        assert distributions._joint_term_table(3, -1, (0,)) == ()
        for r, weight in distributions._joint_term_table(12, 16, (0, 2, 4)):
            assert sum(r) <= 12 and 2 * r[1] + 4 * r[2] <= 16 and weight > 0

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_is_the_oracle_and_the_reference(self, data):
        n = data.draw(st.integers(1, 8), label="N")
        m = data.draw(st.integers(0, 12), label="M")
        levels = tuple(
            data.draw(
                st.lists(st.integers(0, m), min_size=1, max_size=4, unique=True).map(sorted),
                label="levels",
            )
        )
        table = distributions._joint_term_table(n, m, levels)
        assert table == _reference_table(n, m, levels) == _oracle_term_table(n, m, levels)

    def test_takes_one_binomial_per_last_level_row(self, monkeypatch):
        weight, row = distributions.multinomial_weight, distributions.power_of_sum_row
        weights, rows = [], []

        def counting_weight(counts):
            weights.append(counts)
            return weight(counts)

        def counting_row(p, j, n):
            rows.append((p, j, n))
            return row(p, j, n)

        monkeypatch.setattr(distributions, "multinomial_weight", counting_weight)
        monkeypatch.setattr(distributions, "power_of_sum_row", counting_row)
        distributions._joint_term_table.cache_clear()
        distributions._joint_term_table(12, 16, (0, 1, 2))
        # one row per (r_0, r_1) with r_0 + r_1 < 12; r_0 + r_1 = 12 would leave quanta without a particle
        assert len(rows) == 78
        # one multinomial weight, a product of binomials, per row; the row itself takes one binomial
        assert len(weights) <= len(rows)

    # the bench lattices, whose tables the joint-lattice benchmark reads, and the battery's points
    @pytest.mark.parametrize(
        "n, m, levels",
        [(12, 16, (0, 1, 2)), (12, 16, (0, 2, 4)), (11, 15, (1, 2, 3)), (13, 17, (0, 1, 3))]
        + list(JOINT_NORMALIZATION_POINTS),
    )
    def test_bound_counts_every_entry(self, monkeypatch, n, m, levels):
        self._assert_bound_is_the_length(monkeypatch, n, m, levels)
        assert distributions._joint_term_table(n, m, levels) == _reference_table(n, m, levels)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_count_is_the_table_length(self, data):
        n = data.draw(st.integers(1, 12), label="N")
        m = data.draw(st.integers(0, 16), label="M")
        levels = tuple(
            data.draw(
                st.lists(st.integers(0, m), min_size=1, max_size=4, unique=True).map(sorted),
                label="levels",
            )
        )
        with pytest.MonkeyPatch.context() as monkeypatch:
            self._assert_bound_is_the_length(monkeypatch, n, m, levels)

    @staticmethod
    def _assert_bound_is_the_length(monkeypatch, n, m, levels):
        """A row budget of exactly a table's need admits it, and one less refuses it.

        The closed form needs its length; the oracle, which checks its (N+1)(M+1)
        cells first, the larger of the two.
        """
        tables = (distributions._joint_term_table, enumeration._joint_weight_table)
        for table in tables:
            table.cache_clear()
        built = [table(n, m, levels) for table in tables]
        size = len(built[0])
        for table, need, expected in zip(tables, (size, max(size, (n + 1) * (m + 1))), built):
            table.cache_clear()
            monkeypatch.setattr(system, "MAX_OUTPUT_ROWS", need - 1)
            with pytest.raises(ValueError, match=f"N={n}, M={m}, .*: over {need - 1} entries"):
                table(n, m, levels)
            monkeypatch.setattr(system, "MAX_OUTPUT_ROWS", need)
            assert table(n, m, levels) == expected
        for table in tables:
            table.cache_clear()

    def test_refuses_a_table_past_the_row_bound_before_building_it(self, monkeypatch):
        def no_build(*args):
            raise AssertionError("an entry was built")

        monkeypatch.setattr(distributions, "power_of_sum_row", no_build)
        start = time.perf_counter()
        for n, m, levels in ((1000, 1000, (0, 1, 2)), (200, 200, (0, 1, 2)), (10**6, 5, (0, 1))):
            with pytest.raises(ValueError, match=rf"N={n}, M={m}, levels \[{', '.join(map(str, levels))}\]"):
                joint_pdf_exact(SystemParams(n, m), levels, (1,) * len(levels))
        assert time.perf_counter() - start < 1.0

    def test_answers_a_table_just_under_the_bound(self):
        # (150, 150, (0,1,2)) has 433,276 entries; (200, 200) has 1,020,201 and is refused
        params, levels, counts = SystemParams(150, 150), (0, 1, 2), (75, 37, 19)
        try:
            value = joint_pdf_exact(params, levels, counts)
            assert len(distributions._joint_term_table(150, 150, levels)) == 433_276
            distributions._joint_term_table.cache_clear()
            assert value == oracle_joint_pdf(params, levels, counts) > 0
        finally:
            distributions._joint_term_table.cache_clear()
            enumeration._joint_weight_table.cache_clear()

    def test_a_second_table_evicts_the_first(self):
        # both joint caches hold one table: every caller reads one at a time
        for table in (distributions._joint_term_table, enumeration._joint_weight_table):
            table.cache_clear()
            first = table(6, 8, (0, 1, 2))
            table(6, 8, (0, 1, 3))
            assert table.cache_info().currsize == 1
            assert table(6, 8, (0, 1, 2)) == first
            assert table.cache_info().misses == 3
            table.cache_clear()


class TestTableSizeBound:
    """An exact law refuses a table past the budget's rows or bytes of integers."""

    def test_refuses_before_any_binomial(self, monkeypatch):
        def no_build(*args):
            raise AssertionError("a binomial or an entry was computed")

        for name in ("power_of_sum_row", "microstate_count", "_binomial"):
            monkeypatch.setattr(distributions, name, no_build)
        calls = [
            (lambda: occupation_pdf_exact(SystemParams(10**6, 5), 0), "over 1000000 entries"),
            # about 10**5 entries of 1.5e6 bits
            (lambda: occupation_pdf_window(SystemParams(10**5, 10**9), 1, 0, 10), "bytes of integers"),
            (lambda: joint_pdf_exact(SystemParams(10**6, 10**6), (0,), (1,)), "bytes of integers"),
            # within the budget's bytes, but shifts past its words: about 1.5e12 and 1.2e10 words
            (lambda: occupation_pdf_exact(SystemParams(46000, 8), 0), "N=46000, M=8, level 0: .* word"),
            (lambda: occupation_pdf_exact(SystemParams(5000, 50000), 1), "word operations"),
        ]
        start = time.perf_counter()
        for call, match in calls:
            with pytest.raises(ValueError, match=match):
                call()
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "n, m, levels",
        [(1, 0, (0,)), (8, 10, (1,)), (40, 7, (0,)), (30, 600, (2,)), (12, 16, (0, 1, 2)), (20, 30, (0, 2))],
    )
    def test_a_budget_one_byte_short_refuses_the_table(self, monkeypatch, n, m, levels):
        # so the estimate is at least the bits the table holds
        params = SystemParams(n, m)
        distributions._joint_term_table.cache_clear()
        bits = sum(weight.bit_length() for _, weight in distributions._joint_term_table(n, m, levels))
        distributions._joint_term_table.cache_clear()
        monkeypatch.setattr(system, "MAX_TABLE_BYTES", (bits - 1) // 8)
        with pytest.raises(ValueError, match=r"joint law .* bytes of integers"):
            joint_pdf_exact(params, levels, (0,) * len(levels))
        if len(levels) == 1:
            bits = sum(weight.bit_length() for weight in power_of_sum_row(m, levels[0], n))
            monkeypatch.setattr(system, "MAX_TABLE_BYTES", (bits - 1) // 8)
            with pytest.raises(ValueError, match=r"law .* bytes of integers"):
                occupation_pdf_window(params, levels[0], 0, n)

    @pytest.mark.parametrize("n, m", [(1024, 10240), (5000, 50000)])
    def test_answers_the_sizes_the_cli_is_run_at(self, n, m):
        counts, numerators, total = occupation_pdf_window(SystemParams(n, m), 1, 0, 0)
        assert counts == [0] and 0 < numerators[0] < total


class TestShiftWorkBound:
    """A 1-D law refuses a shift past the budget's estimated word operations.

    The shift runs over the support s = min(N, M // j) (N at level 0), so the
    estimate of the full law is (s + 1)^2 subtractions of the entry bits.
    """

    @pytest.mark.parametrize(
        "n, m, level",
        [(8, 10, 1), (12, 16, 0), (40, 7, 0), (30, 600, 2), (40, 20, 3), (100, 30, 10)],
    )
    def test_a_budget_one_word_short_refuses_the_law(self, monkeypatch, n, m, level):
        params = SystemParams(n, m)
        support = min(n, m // level) if level else n
        bits = (support + 1) * system.entry_bits(n, m, 1)
        words = math.ceil((support + 1) * bits / 64)
        monkeypatch.setattr(system, "MAX_SHIFT_WORDS", words - 1)
        with pytest.raises(ValueError, match=r"law .* word operations"):
            occupation_pdf_exact(params, level)
        # a window below the support's top count shifts less
        assert occupation_pdf_window(params, level, 0, support - 1)[0] == list(range(support))
        monkeypatch.setattr(system, "MAX_SHIFT_WORDS", words)
        assert occupation_pdf_exact(params, level) == oracle_pdf(params, level)

    def test_answers_the_full_law_the_cli_is_run_at(self):
        table = occupation_pdf_exact(SystemParams(1024, 10240), 1)
        assert len(table.probabilities) == 1025

    def test_a_high_level_is_bounded_by_its_support(self):
        # level 0 of (46000, 8) shifts over 46001 weights and is refused, and level 0 of
        # (10**6, 5) has over a million entries; level 1 holds and shifts its 9 nonzero
        # weights alone, also at N = 50000, where all N+1 would pass the budget's bytes
        refusals = [(46000, 8, "N=46000, M=8, level 0: .* word operations"), (10**6, 5, "over 1000000 entries")]
        for n, m, match in refusals:
            with pytest.raises(ValueError, match=match):
                occupation_pdf_exact(SystemParams(n, m), 0)
        for n in (46000, 50000):
            params = SystemParams(n, 8)
            assert occupation_pdf_exact(params, 1) == oracle_pdf(params, 1)

    @pytest.mark.parametrize("n, m, level", [(8, 10, 1), (40, 20, 3), (100, 30, 10)])
    def test_a_budget_one_byte_short_of_the_support_refuses_the_law(self, monkeypatch, n, m, level):
        params = SystemParams(n, m)
        support = min(n, m // level)
        need = math.ceil((support + 1) * system.entry_bits(n, m, 1) / 8)
        monkeypatch.setattr(system, "MAX_TABLE_BYTES", need - 1)
        with pytest.raises(ValueError, match=r"law .* bytes of integers"):
            occupation_pdf_exact(params, level)
        monkeypatch.setattr(system, "MAX_TABLE_BYTES", need)
        assert occupation_pdf_exact(params, level) == oracle_pdf(params, level)


class TestJointPdfExact:
    def test_frozen_values(self):
        params = SystemParams(2, 2)
        assert joint_pdf_exact(params, [0, 1], [1, 0]) == Fraction(2, 3)
        assert joint_pdf_exact(params, [0, 1, 2], [0, 2, 0]) == Fraction(1, 3)

    @pytest.mark.parametrize(
        "levels, counts", [((0, 1), (1.9, 0)), ((0.0, 1), (1, 0)), ((0, True), (1, 0))]
    )
    def test_rejects_non_integers(self, levels, counts):
        with pytest.raises(TypeError, match="must be an integer"):
            joint_pdf_exact(SystemParams(4, 6), levels, counts)

    def test_numpy_integers_give_the_same_fraction(self):
        params = SystemParams(4, 6)
        value = joint_pdf_exact(params, np.array([2, 0]), np.array([1, 2], dtype=np.uint8))
        assert value == joint_pdf_exact(params, (2, 0), (1, 2))
        assert type(value.numerator) is int

    def test_single_level_reduces_to_univariate(self):
        for n, m in [(2, 2), (4, 5), (6, 7)]:
            params = SystemParams(n, m)
            for j in range(m + 1):
                table = occupation_pdf_exact(params, j)
                for k in range(n + 1):
                    assert joint_pdf_exact(params, [j], [k]) == table.probability(k)

    def test_matches_oracle(self):
        for n in range(1, 5):
            for m in range(0, 7):
                params = SystemParams(n, m)
                levelsets = [
                    ls
                    for p in (1, 2, 3)
                    for ls in itertools.combinations(range(m + 1), p)
                ]
                for levels in levelsets:
                    for counts in itertools.product(range(n + 1), repeat=len(levels)):
                        assert joint_pdf_exact(params, levels, counts) == oracle_joint_pdf(
                            params, levels, counts
                        ), (n, m, levels, counts)

    def test_matches_gridpoint_route(self):
        for n, m in [(2, 3), (3, 4), (4, 5)]:
            params = SystemParams(n, m)
            for levels in itertools.combinations(range(m + 1), 2):
                for counts in itertools.product(range(n + 1), repeat=2):
                    assert joint_pdf_exact(params, levels, counts) == _joint_pdf_gridpoint(
                        params, levels, counts
                    )

    def test_permutation_invariance(self):
        params = SystemParams(4, 6)
        levels, counts = (1, 3, 5), (1, 1, 0)
        reference = joint_pdf_exact(params, levels, counts)
        for order in itertools.permutations(range(3)):
            assert (
                joint_pdf_exact(
                    params,
                    [levels[i] for i in order],
                    [counts[i] for i in order],
                )
                == reference
            )

    def test_marginalization(self):
        params = SystemParams(4, 5)
        for c0 in range(5):
            for c1 in range(5):
                total = sum(
                    joint_pdf_exact(params, [0, 1, 3], [c0, c1, c3]) for c3 in range(5)
                )
                assert total == joint_pdf_exact(params, [0, 1], [c0, c1])

    def test_impossible_counts_are_zero(self):
        params = SystemParams(2, 2)
        assert joint_pdf_exact(params, [0], [2]) == 0
        assert joint_pdf_exact(params, [0, 1], [9, 0]) == 0

    @pytest.mark.parametrize("n, m, levels", JOINT_NORMALIZATION_POINTS)
    def test_each_marginal_is_the_one_level_law(self, n, m, levels):
        params = SystemParams(n, m)
        marginals = [[Fraction(0)] * (n + 1) for _ in levels]
        for counts in itertools.product(range(n + 1), repeat=len(levels)):
            value = joint_pdf_exact(params, levels, counts)
            for axis, count in enumerate(counts):
                marginals[axis][count] += value
        for level, marginal in zip(levels, marginals):
            assert tuple(marginal) == occupation_pdf_exact(params, level).probabilities


class TestJointPdfLattice:
    """The whole count lattice of the joint law, read from one table and refused before its first point."""

    @staticmethod
    def fail(*args):
        raise AssertionError("inverted the table at a point of a refused lattice")

    @pytest.mark.parametrize(
        "n, m, levels", list(JOINT_NORMALIZATION_POINTS) + [(12, 16, (0, 1, 2)), (3, 4, (0, 1, 2, 3))]
    )
    def test_every_point_is_the_per_point_law_and_the_oracle(self, n, m, levels):
        params = SystemParams(n, m)
        points, numerators, total = joint_pdf_lattice(params, levels)
        assert points == list(itertools.product(range(n + 1), repeat=len(levels)))
        assert total == system.microstate_count(params) and sum(numerators) == total
        for counts, numerator in zip(points, numerators):
            value = Fraction(numerator, total)
            assert value == joint_pdf_exact(params, levels, counts) == oracle_joint_pdf(params, levels, counts)

    def test_reads_the_table_once(self, monkeypatch):
        reads = []
        monkeypatch.setattr(distributions, "_joint_term_table", lambda *key: reads.append(key) or ())
        joint_pdf_lattice(SystemParams(3, 4), (2, 0))
        assert reads == [(3, 4, (0, 2))]

    def test_levels_out_of_order_follow_the_levels_as_given(self):
        # the rows `jointpdf --levels 2,0` prints: the first count is at level 2
        params = SystemParams(3, 4)
        points, numerators, total = joint_pdf_lattice(params, (2, 0))
        assert points == list(itertools.product(range(4), repeat=2))
        assert [Fraction(v, total) for v in numerators] == [
            joint_pdf_exact(params, (0, 2), (c0, c2)) for c2, c0 in points
        ]
        # two particles at level 2 hold the 4 quanta and one sits at level 0, so 3 of the 15 microstates
        assert Fraction(numerators[points.index((2, 1))], total) == Fraction(1, 5)
        assert numerators[points.index((1, 2))] == 0

    @pytest.mark.parametrize(
        "n, m, levels, match",
        [
            (99, 200, (0, 1, 2), "N=99, M=200, levels [0, 1, 2]: about 1.29e+12 word operations"),
            (40, 60, (0, 1, 2), "N=40, M=60, levels [0, 1, 2]: about 2.27e+09 word operations"),
            (30, 30, (0, 1, 2, 3), "N=30, M=30, levels [0, 1, 2, 3]: about 3.46e+10 word operations"),
            (200, 10, (0, 1, 2, 3, 4), "N=200, M=10, levels [0, 1, 2, 3, 4]: over 1000000 entries"),
        ],
    )
    def test_refuses_a_lattice_past_the_budget_before_any_point(self, monkeypatch, n, m, levels, match):
        monkeypatch.setattr(distributions, "_joint_numerator", self.fail)
        start = time.perf_counter()
        with pytest.raises(ValueError, match=re.escape(f"joint lattice of {match}")):
            joint_pdf_lattice(SystemParams(n, m), levels)
        assert time.perf_counter() - start < 1.0

    def test_a_budget_one_row_short_refuses_the_lattice(self, monkeypatch):
        # 4 * 4 points; the table holds fewer entries
        params = SystemParams(3, 4)
        monkeypatch.setattr(system, "MAX_OUTPUT_ROWS", 15)
        monkeypatch.setattr(distributions, "_joint_numerator", self.fail)
        with pytest.raises(ValueError, match=re.escape("N=3, M=4, levels [0, 2]: over 15 entries")):
            joint_pdf_lattice(params, (0, 2))
        monkeypatch.undo()
        monkeypatch.setattr(system, "MAX_OUTPUT_ROWS", 16)
        assert len(joint_pdf_lattice(params, (0, 2))[0]) == 16

    def test_a_budget_one_word_short_refuses_the_lattice(self, monkeypatch):
        # entries of fewer than 64 bits are one word each: 2197 points x 349 entries
        params, levels = SystemParams(12, 16), (0, 1, 2)
        assert system.entry_bits(12, 16, 3) < 64
        words = 13**3 * system.fitting_vector_count(12, 16, levels)
        assert words == 766_753
        monkeypatch.setattr(system, "MAX_SHIFT_WORDS", words - 1)
        monkeypatch.setattr(distributions, "_joint_numerator", self.fail)
        with pytest.raises(ValueError, match=r"joint lattice of N=12, M=16, .* word operations"):
            joint_pdf_lattice(params, levels)
        monkeypatch.undo()
        monkeypatch.setattr(system, "MAX_SHIFT_WORDS", words)
        assert len(joint_pdf_lattice(params, levels)[0]) == 13**3

    @pytest.mark.parametrize("levels", [(), (0, 0), (0, 5)])
    def test_rejects_the_levels_joint_pdf_exact_rejects(self, levels):
        with pytest.raises(ValueError):
            joint_pdf_lattice(SystemParams(3, 4), levels)


class TestMultinomialLimit:
    def test_trial_probabilities(self):
        probs = multinomial_trial_probabilities(1.0, 2)
        assert probs == pytest.approx([0.5, 0.25, 0.25], rel=1e-12)
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)

    def test_trial_probabilities_sum_to_one(self):
        for t in (0.25, 1.0, 7.5):
            for arity in (1, 3, 8):
                assert sum(multinomial_trial_probabilities(t, arity)) == pytest.approx(
                    1.0, abs=1e-12
                )

    @pytest.mark.parametrize("counts", [(1.5, 0), (True, 2), (np.float64(1.0),)])
    def test_rejects_non_integer_counts(self, counts):
        with pytest.raises(TypeError, match="count must be an integer"):
            joint_pdf_multinomial_limit(4, 1.0, counts)

    def test_numpy_counts(self):
        assert joint_pdf_multinomial_limit(8, 1.0, np.array([4, 2])) == (
            joint_pdf_multinomial_limit(8, 1.0, [4, 2])
        )

    def test_single_level_reduces_to_binomial(self):
        n, t = 30, 2.0
        table = occupation_pdf_binomial_limit(n, t, 0)
        for k in range(n + 1):
            assert joint_pdf_multinomial_limit(n, t, [k]) == pytest.approx(
                table.probability(k), rel=1e-10
            )

    def test_matches_direct_enumeration(self):
        # all length-N class sequences, classes weighted by the trial probabilities
        n, t, counts = 8, 1.0, (4, 2)
        probs = multinomial_trial_probabilities(t, len(counts))
        total = 0.0
        for sequence in itertools.product(range(len(probs)), repeat=n):
            observed = [sequence.count(c) for c in range(len(counts))]
            if observed == list(counts):
                weight = 1.0
                for c in sequence:
                    weight *= probs[c]
                total += weight
        assert joint_pdf_multinomial_limit(n, t, counts) == pytest.approx(total, rel=1e-10)

    def test_rejects_overfull_counts(self):
        with pytest.raises(ValueError):
            joint_pdf_multinomial_limit(4, 1.0, [3, 2])

    def test_large_system_stays_finite(self):
        value = joint_pdf_multinomial_limit(10_000, 2.0, [3333, 1111])
        assert 0.0 <= value < 1.0 and not math.isnan(value)


class TestMacrostateProbability:
    def test_exact_frozen_values(self):
        params = SystemParams(2, 2)
        assert macrostate_probability_exact(params, (0, 2, 0)) == Fraction(1, 3)
        assert macrostate_probability_exact(params, (1, 0, 1)) == Fraction(2, 3)

    def test_exact_forced_state(self):
        params = SystemParams(1, 4)
        assert macrostate_probability_exact(params, (0, 0, 0, 0, 1)) == 1

    def test_exact_rejects_violation(self):
        with pytest.raises(ValueError):
            macrostate_probability_exact(SystemParams(2, 2), (2, 0, 0))

    def test_largeN_rejects_violation(self):
        with pytest.raises(ValueError):
            macrostate_probability_largeN(3, 1.0, (2, 1, 1, 0))  # four particles
        with pytest.raises(ValueError):
            macrostate_probability_largeN(3, 1.0, (1, 2, 0, 0))  # energy 2 != 3

    def test_largeN_prefactor(self):
        # ratio to the exact value approaches 1/sqrt(2 pi N T (T+1))
        n, t = 200, 1
        params = SystemParams(n, n * t)
        state = (n - 1,) + (0,) * (n * t - 1) + (1,)
        ratio = macrostate_probability_largeN(n, float(t), state) / float(
            macrostate_probability_exact(params, state)
        )
        predicted = 1.0 / math.sqrt(2 * math.pi * n * t * (t + 1))
        assert ratio == pytest.approx(predicted, rel=0.10)

    def test_largeN_peaks_at_geometric_profile(self):
        # hill-climb over energy-preserving moves ends at a decreasing profile
        n = 50
        state = [0] * (n + 1)
        state[1] = n  # start: every particle carries one quantum

        def neighbors(current):
            for a in range(1, n + 1):
                if current[a] == 0:
                    continue
                for b in range(n):
                    lowered = list(current)
                    lowered[a] -= 1
                    lowered[a - 1] += 1
                    if lowered[b] == 0:
                        continue
                    raised = list(lowered)
                    raised[b] -= 1
                    raised[b + 1] += 1
                    yield raised

        def log_weight(current):
            return math.lgamma(n + 1) - sum(math.lgamma(c + 1) for c in current)

        current = state
        for _ in range(200):
            best = max(neighbors(current), key=log_weight)
            if log_weight(best) <= log_weight(current):
                break
            current = best
        else:
            pytest.fail("hill climb did not converge")
        populated = current[:6]
        assert all(a >= b for a, b in zip(populated, populated[1:]))
        assert macrostate_probability_largeN(n, 1.0, current) >= max(
            macrostate_probability_largeN(n, 1.0, s) for s in neighbors(current)
        )
