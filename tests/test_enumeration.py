import itertools
from fractions import Fraction

import pytest

from boltzgas.enumeration import (
    enumerate_macrostates,
    enumeration_cap,
    oracle_joint_pdf,
    oracle_moment,
    oracle_pdf,
)
from boltzgas.system import SystemParams, microstate_count, normalize_selection


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
                total = sum(item.multiplicity for item in enumerate_macrostates(params))
                assert total == microstate_count(params)

    def test_every_state_conserves(self):
        params = SystemParams(5, 7)
        for state, multiplicity in enumerate_macrostates(params):
            state.check_conservation(params)
            assert multiplicity > 0

    def test_states_are_unique(self):
        params = SystemParams(6, 9)
        states = [tuple(item.state) for item in enumerate_macrostates(params)]
        assert len(states) == len(set(states))

    def test_cap_enforced(self):
        with pytest.raises(ValueError, match="cap"):
            list(enumerate_macrostates(SystemParams(13, 5)))

    def test_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("FLUCT_MAX_ENUM", "14,20")
        assert list(enumerate_macrostates(SystemParams(13, 2)))
        monkeypatch.setenv("FLUCT_MAX_ENUM", "nonsense")
        with pytest.raises(ValueError, match="FLUCT_MAX_ENUM"):
            list(enumerate_macrostates(SystemParams(2, 2)))

    def test_cap_env_single_integer_caps_both(self, monkeypatch):
        monkeypatch.setenv("FLUCT_MAX_ENUM", "14")
        assert enumeration_cap() == (14, 14)
        assert list(enumerate_macrostates(SystemParams(14, 2)))
        with pytest.raises(ValueError, match="cap"):
            list(enumerate_macrostates(SystemParams(2, 15)))

    def test_cap_env_rejects_three_values(self, monkeypatch):
        monkeypatch.setenv("FLUCT_MAX_ENUM", "1,2,3")
        with pytest.raises(ValueError, match="'N,M' pair, got '1,2,3'"):
            enumeration_cap()

    @pytest.mark.parametrize("raw", ["-1", "0,5", "3,-1"])
    def test_cap_env_rejects_caps_below_the_domain(self, monkeypatch, raw):
        # a cap below N = 1 or M = 0 would refuse every oracle call
        monkeypatch.setenv("FLUCT_MAX_ENUM", raw)
        with pytest.raises(ValueError, match=f"'N,M' pair, got '{raw}'"):
            enumeration_cap()

    def test_cap_env_accepts_the_smallest_caps(self, monkeypatch):
        monkeypatch.setenv("FLUCT_MAX_ENUM", "1,0")
        assert enumeration_cap() == (1, 0)
        assert [item.multiplicity for item in enumerate_macrostates(SystemParams(1, 0))] == [1]


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


class TestNormalizeSelection:
    def test_sorts_pairs_together(self):
        params = SystemParams(3, 5)
        levels, counts = normalize_selection(params, [4, 0, 2], [1, 2, 0])
        assert levels == (0, 2, 4)
        assert counts == (2, 0, 1)
