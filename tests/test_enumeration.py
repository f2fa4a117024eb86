import itertools
import os
import random
import re
import time
import tracemalloc
from fractions import Fraction

import pytest

from boltzgas import enumeration, system
from boltzgas.distributions import joint_pdf_exact, occupation_pdf_exact
from boltzgas.enumeration import (
    WeightedMacrostate,
    _joint_weight_table,
    _macrostate_count,
    enumerate_macrostates,
    enumeration_cap,
    oracle_joint_pdf,
    oracle_moment,
    oracle_pdf,
)
from boltzgas.system import MAX_OUTPUT_ROWS, SystemParams, microstate_count, normalize_selection


class TestEnumerateMacrostates:
    def test_two_particles_two_quanta(self):
        states = {
            tuple(item.state): item.multiplicity
            for item in enumerate_macrostates(SystemParams(2, 2))
        }
        assert states == {(1, 0, 1): 2, (0, 2, 0): 1}

    def test_single_particle(self):
        items = list(enumerate_macrostates(SystemParams(1, 5)))
        assert len(items) == 1
        assert tuple(items[0].state) == (0, 0, 0, 0, 0, 1)
        assert items[0].multiplicity == 1

    def test_ground_state(self):
        items = list(enumerate_macrostates(SystemParams(3, 0)))
        assert len(items) == 1
        assert tuple(items[0].state) == (3,)

    def test_total_weight_matches_count(self):
        for n in range(1, 11):
            for m in range(0, 15):
                params = SystemParams(n, m)
                items = list(enumerate_macrostates(params))
                assert sum(item.multiplicity for item in items) == microstate_count(params)
                assert len(items) == _macrostate_count(n, m), (n, m)

    def test_every_state_conserves(self):
        params = SystemParams(5, 7)
        for state, multiplicity in enumerate_macrostates(params):
            state.check_conservation(params)
            assert multiplicity > 0

    def test_states_are_unique(self):
        params = SystemParams(6, 9)
        states = [tuple(item.state) for item in enumerate_macrostates(params)]
        assert len(states) == len(set(states))

    def test_lexicographic_order(self):
        # ascending over (n_M, ..., n_1), the order of the level-by-level descent
        for n, m in [(3, 4), (6, 9), (12, 16), (20, 30)]:
            states = [tuple(item.state) for item in enumerate_macrostates(SystemParams(n, m))]
            assert states == sorted(states, key=lambda state: state[:0:-1]), (n, m)

    def test_named_fields(self):
        item = next(enumerate_macrostates(SystemParams(2, 2)))
        assert WeightedMacrostate._fields == ("state", "multiplicity")
        assert WeightedMacrostate.__module__ == "boltzgas.enumeration"
        assert repr(item) == "WeightedMacrostate(state=OccupationVector(counts=(0, 2, 0)), multiplicity=1)"


class _NoEnvironment(dict):
    def __getitem__(self, name):
        raise AssertionError(f"read the environment variable {name!r}")

    def get(self, name, default=None):
        return self[name]

    def __contains__(self, name):
        return self[name]


class TestWalkBound:
    """The walk refuses cells or macrostates past the budget's rows, and reads no knob."""

    @staticmethod
    def fail(*args, **kwargs):
        raise AssertionError("built a state of a refused walk")

    def test_reads_no_environment(self, monkeypatch):
        monkeypatch.setattr(os, "environ", _NoEnvironment())
        assert enumeration_cap() == (12, 16)
        for n, m, states in [(13, 5, 7), (20, 30, 5507)]:
            items = list(enumerate_macrostates(SystemParams(n, m)))
            assert len(items) == states
            assert sum(item.multiplicity for item in items) == microstate_count(SystemParams(n, m))

    def test_refuses_past_the_macrostate_count(self, monkeypatch):
        assert 62 * 62 <= MAX_OUTPUT_ROWS < _macrostate_count(61, 61)
        monkeypatch.setattr(enumeration, "OccupationVector", self.fail)
        with pytest.raises(ValueError, match=re.escape("N=61, M=61")):
            next(enumerate_macrostates(SystemParams(61, 61)))

    def test_refuses_past_the_cells_before_counting(self, monkeypatch):
        monkeypatch.setattr(enumeration, "_macrostate_count", self.fail)
        monkeypatch.setattr(enumeration, "OccupationVector", self.fail)
        with pytest.raises(ValueError, match=re.escape("N=1, M=1000000")):
            next(enumerate_macrostates(SystemParams(1, 10**6)))

    def test_refuses_a_large_system_fast(self, monkeypatch):
        monkeypatch.setattr(enumeration, "OccupationVector", self.fail)
        start = time.perf_counter()
        with pytest.raises(ValueError, match=re.escape("N=999, M=999")):
            next(enumerate_macrostates(SystemParams(999, 999)))
        assert time.perf_counter() - start < 1.0

    def test_admits_a_walk_at_the_bound(self, monkeypatch):
        # 13 * 17 = 221 cells, under the 224 macrostates
        params = SystemParams(12, 16)
        monkeypatch.setattr(system, "MAX_OUTPUT_ROWS", 223)
        with pytest.raises(ValueError, match=re.escape("N=12, M=16: over 223 entries")):
            next(enumerate_macrostates(params))
        monkeypatch.setattr(system, "MAX_OUTPUT_ROWS", 224)
        assert len(list(enumerate_macrostates(params))) == 224

    def test_depth_does_not_grow_with_the_levels(self):
        # one state on the top level of nearly a million cells: far past the recursion limit in levels
        (item,) = enumerate_macrostates(SystemParams(1, 499_998))
        assert item.state[499_998] == 1 and item.multiplicity == 1


class TestMicrostateCount:
    @pytest.mark.parametrize(
        "n, m, expected", [(3, 2, 6), (1, 7, 1), (2, 2, 3), (4, 0, 1)]
    )
    def test_values(self, n, m, expected):
        assert microstate_count(SystemParams(n, m)) == expected


class TestOracleMoment:
    def test_frozen_values(self):
        params = SystemParams(2, 2)
        assert oracle_moment(params, 0, 1) == Fraction(2, 3)
        assert oracle_moment(params, 1, 2) == Fraction(4, 3)

    def test_zeroth_moment_is_one(self):
        for n, m in [(1, 0), (3, 4), (6, 6)]:
            params = SystemParams(n, m)
            for j in range(m + 1):
                assert oracle_moment(params, j, 0) == 1

    def test_rejects_bad_level(self):
        with pytest.raises(ValueError):
            oracle_moment(SystemParams(2, 2), 3, 1)


class TestOraclePdf:
    def test_frozen_tables(self):
        params = SystemParams(2, 2)
        assert oracle_pdf(params, 1).probabilities == (
            Fraction(2, 3),
            Fraction(0),
            Fraction(1, 3),
        )
        assert oracle_pdf(params, 0).probabilities == (
            Fraction(1, 3),
            Fraction(2, 3),
            Fraction(0),
        )

    def test_forced_placement(self):
        table = oracle_pdf(SystemParams(1, 3), 3)
        assert table.probability(1) == 1

    def test_tables_normalize(self):
        for n, m in [(3, 3), (5, 6), (4, 8)]:
            params = SystemParams(n, m)
            for j in range(m + 1):
                assert sum(oracle_pdf(params, j).probabilities) == 1


class TestOracleJointPdf:
    def test_frozen_values(self):
        params = SystemParams(2, 2)
        assert oracle_joint_pdf(params, [0, 1], [1, 0]) == Fraction(2, 3)
        assert oracle_joint_pdf(params, [0, 1, 2], [0, 2, 0]) == Fraction(1, 3)
        assert oracle_joint_pdf(params, [0], [2]) == 0

    def test_rejects_non_integers(self):
        params = SystemParams(4, 6)
        with pytest.raises(TypeError, match="level must be an integer"):
            oracle_joint_pdf(params, (0.9,), (3,))
        with pytest.raises(TypeError, match="level must be an integer"):
            oracle_pdf(params, True)
        with pytest.raises(TypeError, match="level must be an integer"):
            oracle_moment(params, 1.0, 2)

    def test_permutation_invariance(self):
        params = SystemParams(4, 5)
        levels, counts = (0, 2, 4), (1, 2, 0)
        reference = oracle_joint_pdf(params, levels, counts)
        for order in itertools.permutations(range(3)):
            permuted_levels = [levels[i] for i in order]
            permuted_counts = [counts[i] for i in order]
            assert oracle_joint_pdf(params, permuted_levels, permuted_counts) == reference

    def test_marginalization(self):
        params = SystemParams(3, 4)
        for c0 in range(4):
            for c2 in range(4):
                total = sum(
                    oracle_joint_pdf(params, [0, 2, 3], [c0, c2, c3])
                    for c3 in range(params.n_particles + 1)
                )
                assert total == oracle_joint_pdf(params, [0, 2], [c0, c2])

    def test_rejects_bad_selection(self):
        params = SystemParams(2, 2)
        with pytest.raises(ValueError):
            oracle_joint_pdf(params, [0, 0], [1, 1])
        with pytest.raises(ValueError):
            oracle_joint_pdf(params, [0, 3], [1, 1])
        with pytest.raises(ValueError):
            oracle_joint_pdf(params, [0, 1], [1])


class TestJointWeightTable:
    """The composition count equals the walk at desk scale, and the closed forms past it."""

    @staticmethod
    def walked(states, levels):
        table = {}
        for state, weight in states:
            key = tuple(state[j] for j in levels)
            table[key] = table.get(key, 0) + weight
        return table

    def test_equals_the_walk_at_desk_scale(self):
        for n in range(1, 9):
            for m in range(0, 11):
                states = list(enumerate_macrostates(SystemParams(n, m)))
                selections = [
                    levels
                    for size in (1, 2, 3)
                    for levels in itertools.islice(
                        itertools.combinations(range(m + 1), size), 1 + m if size == 1 else 6
                    )
                ]
                for levels in selections:
                    assert _joint_weight_table(n, m, levels) == self.walked(states, levels), (
                        n, m, levels
                    )

    @pytest.mark.parametrize("n, m, level", [(200, 400, 0), (200, 400, 3), (200, 2000, 1)])
    def test_equals_the_closed_form_past_the_walk(self, n, m, level):
        params = SystemParams(n, m)
        exact = occupation_pdf_exact(params, level).probabilities
        assert oracle_pdf(params, level).probabilities == exact

    def test_equals_the_joint_law_at_random_points(self):
        params, levels = SystemParams(40, 60), (0, 1, 2)
        rng = random.Random(20071)
        for _ in range(200):
            counts = tuple(rng.randrange(21) for _ in levels)
            exact = joint_pdf_exact(params, levels, counts)
            assert oracle_joint_pdf(params, levels, counts) == exact, counts

    @pytest.mark.parametrize(
        "n, m, levels, counts",
        [(3, 10, tuple(range(10)), (1, 1, 1, 0, 0, 0, 0, 0, 0, 0)), (12, 16, tuple(range(6)), (6, 2, 1, 1, 0, 0))],
    )
    def test_many_levels_of_a_small_system_equal_the_walk(self, n, m, levels, counts):
        params = SystemParams(n, m)
        walked = self.walked(enumerate_macrostates(params), levels)
        assert _joint_weight_table(n, m, levels) == walked
        assert oracle_joint_pdf(params, levels, counts) == Fraction(walked.get(counts, 0), microstate_count(params))

    @staticmethod
    def fail(*args, **kwargs):
        raise AssertionError("built a row of a refused table")

    def test_guard_refuses_before_any_row(self, monkeypatch):
        monkeypatch.setattr(enumeration, "accumulate", self.fail)
        with pytest.raises(ValueError, match=re.escape("N=1000000000, M=1000000000, levels [0]")):
            _joint_weight_table(10**9, 10**9, (0,))
        # 4 * 11 cells fit under 58, the 59 fitting count vectors of 3 particles on 10 levels do not
        _joint_weight_table.cache_clear()
        monkeypatch.setattr(system, "MAX_OUTPUT_ROWS", 58)
        with pytest.raises(ValueError, match=re.escape("N=3, M=10, levels [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]")):
            _joint_weight_table(3, 10, tuple(range(10)))

    def test_refuses_past_the_closed_form_bound_before_any_vector(self, monkeypatch):
        # 401 * 2001 cells fit; over a million fitting count vectors do not, and none is built
        monkeypatch.setattr(enumeration, "accumulate", self.fail)
        monkeypatch.setattr(enumeration, "multinomial_weight", self.fail)
        _joint_weight_table.cache_clear()
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=re.escape("N=400, M=2000, levels [0, 1, 2]: over 1000000 entries")):
                oracle_joint_pdf(SystemParams(400, 2000), (0, 1, 2), (1, 1, 1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_guard_admits_a_table_at_the_bound(self, monkeypatch):
        _joint_weight_table.cache_clear()
        monkeypatch.setattr(system, "MAX_OUTPUT_ROWS", 5 * 7 - 1)
        with pytest.raises(ValueError, match=re.escape("N=4, M=6, levels [2]: over 34 entries")):
            oracle_pdf(SystemParams(4, 6), 2)
        monkeypatch.setattr(system, "MAX_OUTPUT_ROWS", 5 * 7)
        assert sum(oracle_pdf(SystemParams(4, 6), 2).probabilities) == 1


class TestNormalizeSelection:
    def test_sorts_pairs_together(self):
        params = SystemParams(3, 5)
        levels, counts = normalize_selection(params, [4, 0, 2], [1, 2, 0])
        assert levels == (0, 2, 4)
        assert counts == (2, 0, 1)
