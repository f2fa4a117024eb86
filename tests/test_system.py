from fractions import Fraction

import numpy as np
import pytest

from boltzgas.system import OccupationVector, SystemParams, as_occupation


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
