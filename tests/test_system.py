from fractions import Fraction

import numpy as np
import pytest

from boltzgas.system import OccupationVector, SystemParams, as_occupation, normalize_selection


class TestSystemParams:
    def test_temperature_is_exact(self):
        for n, m in [(3, 7), (np.int64(3), np.uint8(7))]:
            params = SystemParams(n, m)
            assert params.temperature == Fraction(7, 3)
            assert isinstance(params.temperature, Fraction)
            assert type(params.n_particles) is int and type(params.energy_units) is int

    def test_level_count(self):
        assert SystemParams(2, 5).level_count == 6

    @pytest.mark.parametrize("n, m", [(0, 3), (-1, 0), (2, -1)])
    def test_rejects_bad_values(self, n, m):
        with pytest.raises(ValueError):
            SystemParams(n, m)

    def test_rejects_non_integers(self):
        for n, m in [(2.0, 3), (True, 3), (2, np.float64(3.0))]:
            with pytest.raises(TypeError):
                SystemParams(n, m)

    @pytest.mark.parametrize("level", [True, 1.0, np.float64(2.0), "1"])
    def test_check_level_rejects_non_integers(self, level):
        with pytest.raises(TypeError, match="level must be an integer"):
            SystemParams(4, 6).check_level(level)

    def test_check_level_returns_a_python_int(self):
        for level in (3, np.int64(3), np.uint8(3)):
            checked = SystemParams(4, 6).check_level(level)
            assert checked == 3 and type(checked) is int

    def test_hashable(self):
        assert SystemParams(2, 2) == SystemParams(2, 2)
        assert len({SystemParams(2, 2), SystemParams(2, 2)}) == 1


class TestOccupationVector:
    def test_sequence_protocol(self):
        state = OccupationVector((1, 0, 1))
        assert len(state) == 3
        assert state[2] == 1
        assert list(state) == [1, 0, 1]

    def test_derived_quantities(self):
        state = OccupationVector((1, 0, 1))
        assert state.particle_count == 2
        assert state.energy == 2

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            OccupationVector((1, -1))

    @pytest.mark.parametrize("counts", [(1.7, 2, 0), (True, 2), (np.float64(1.0),)])
    def test_rejects_non_integers(self, counts):
        with pytest.raises(TypeError, match="occupation number must be an integer"):
            OccupationVector(counts)

    def test_numpy_counts_stored_as_int(self):
        state = OccupationVector(tuple(np.array([1, 2, 0], dtype=np.int64)))
        assert state.counts == (1, 2, 0)
        assert all(type(c) is int for c in state.counts)
        mixed = OccupationVector((1, np.int64(2), 0))
        assert mixed == state and all(type(c) is int for c in mixed.counts)

    @pytest.mark.parametrize(
        "counts, error, message",
        [
            ((1, True), TypeError, "occupation number must be an integer, got True"),
            ((0, 2.0, -1), TypeError, "occupation number must be an integer, got 2.0"),
            ((1, -1), ValueError, "occupation number must be >= 0, got -1"),
            ((np.int64(-2), 1), ValueError, "occupation number must be >= 0, got -2"),
            ((2, np.int64(1), -3), ValueError, "occupation number must be >= 0, got -3"),
        ],
    )
    def test_error_messages(self, counts, error, message):
        # the first bad count is named, whichever check finds it
        with pytest.raises(error) as info:
            OccupationVector(counts)
        assert str(info.value) == message

    def test_conservation_check(self):
        params = SystemParams(2, 2)
        OccupationVector((1, 0, 1)).check_conservation(params)
        with pytest.raises(ValueError):
            OccupationVector((2, 0, 0)).check_conservation(params)
        with pytest.raises(ValueError):
            OccupationVector((1, 0, 1, 0)).check_conservation(params)

    def test_as_occupation_coerces(self):
        assert as_occupation([2, 1]).counts == (2, 1)
        state = OccupationVector((2, 1))
        assert as_occupation(state) is state


class TestNormalizeSelectionTypes:
    @pytest.mark.parametrize(
        "levels, counts", [((0.9,), (3,)), ((True,), (1,)), ((0, 1), (1.9, 0)), ((0,), (False,))]
    )
    def test_rejects_non_integers(self, levels, counts):
        with pytest.raises(TypeError, match="must be an integer"):
            normalize_selection(SystemParams(4, 6), levels, counts)

    def test_numpy_integers_become_python_ints(self):
        levels, counts = normalize_selection(
            SystemParams(4, 6), np.array([3, 1]), np.array([0, 2], dtype=np.uint8)
        )
        assert levels == (1, 3) and counts == (2, 0)
        assert all(type(v) is int for v in levels + counts)
