import math

import numpy as np
import pytest

from boltzgas.figures import FIGURE_IDS, figure_data


class TestFigureData:
    def test_rejects_unknown_id(self):
        with pytest.raises(ValueError):
            figure_data(8)

    def test_relative_std_panels(self):
        data = figure_data(1)
        assert [p.name for p in data.panels] == ["n10", "n100", "n1000", "n10000", "n100000"]
        panel = data.panels[1]
        assert panel.header[0] == "temperature"
        assert len(panel.header) == 7
        assert len(panel.rows) == 121

    def test_relative_std_dips_near_level(self):
        data = figure_data(1)
        panel = data.panels[1]  # N = 100
        grid = np.array([row[0] for row in panel.rows])
        step = math.log(grid[1] / grid[0])
        for j in (1, 2, 3, 4, 5):
            values = np.array([row[j + 1] for row in panel.rows])
            k = int(np.argmin(values))
            assert abs(math.log(grid[k]) - math.log(j)) <= step * 1.01
            assert values[0] > 3 * values[k] and values[-1] > 3 * values[k]

    def test_mean_vs_std_crossover(self):
        data = figure_data(2)
        for panel in data.panels:
            mean = np.array([row[1] for row in panel.rows])
            std = np.array([row[2] for row in panel.rows])
            # fluctuations exceed the mean at both temperature extremes
            assert std[0] > mean[0] and std[-1] > mean[-1]
            assert np.any(std < mean)

    def test_exact_vs_limit_panel_shape(self):
        data = figure_data(3)
        assert [p.name for p in data.panels] == ["t1", "t2", "t3", "t4"]
        panel = data.panels[1]
        assert len(panel.rows) == 51
        assert panel.header[1] == "exact_level_0"
        exact_mass = sum(row[1] for row in panel.rows)
        limit_mass = sum(row[5] for row in panel.rows)
        assert exact_mass == pytest.approx(1.0, abs=1e-9)
        assert limit_mass == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("figure_id, n", [(3, 50), (4, 100)])
    def test_exact_vs_limit_figures_name_their_size(self, figure_id, n):
        data = figure_data(figure_id)
        assert data.figure_id == figure_id and data.manifest["n_particles"] == n
        assert data.title == f"exact vs limit occupation laws, N={n}"
        assert len(data.panels[0].rows) == n + 1

    def test_correlation_panels(self):
        data = figure_data(6)
        assert [p.name for p in data.panels] == ["j1", "j2", "j3", "j4"]
        panel = data.panels[0]
        assert panel.header == (
            "temperature",
            "abs_corr_level_0",
            "abs_corr_level_2",
            "abs_corr_level_3",
            "abs_corr_level_4",
            "abs_corr_level_5",
        )
        for row in panel.rows:
            assert all(0 < value < 1 for value in row[1:])

    def test_total_fluctuation_panel(self):
        data = figure_data(7)
        (panel,) = data.panels
        assert panel.header == ("temperature", "n_10", "n_30", "n_50", "n_70", "n_90")
        last = panel.rows[-1]
        for column, n in zip(last[1:], (10, 30, 50, 70, 90)):
            assert column == pytest.approx(1 / math.sqrt(n * (1 - math.exp(-n))), rel=0.02)

    def test_manifest_lists_parameters(self):
        data = figure_data(7)
        assert data.manifest["n_particles"] == [10, 30, 50, 70, 90]
        assert data.figure_id == 7
        assert FIGURE_IDS == (1, 2, 3, 4, 5, 6, 7)
