import dataclasses
import math

import pytest

import polalign as pa
from polalign.errors import FitError

D = pa.Direction


def power_law_cells(alpha=0.02, beta=1.5, gamma=-1.0, n_values=(400, 1600), fs_values=(0.9, 1.0)):
    """Cells whose mean QBER follows the fitted model exactly."""
    return [
        pa.SweepCell(
            direction=D.FORWARD, n_detected=n, signal_fidelity=fs, background_mean=0.0,
            subtract_background=False, samples=10, failures=0,
            mean_qber=alpha * (2 * fs - 1) ** beta * n ** gamma, std_qber=None,
        )
        for n in n_values
        for fs in fs_values
    ]


class TestFitPowerLaw:
    def test_recovers_exact_power_law(self):
        cells = power_law_cells(n_values=(400, 1600, 6400), fs_values=(0.8, 0.9, 1.0))
        fit = pa.fit_power_law(cells)
        assert fit.alpha == pytest.approx(0.02, rel=1e-9)
        assert fit.beta == pytest.approx(1.5, abs=1e-9)
        assert fit.gamma == pytest.approx(-1.0, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_non_positive_mean_rejected(self):
        cells = power_law_cells()
        cells[2] = dataclasses.replace(cells[2], mean_qber=0.0)
        with pytest.raises(FitError, match="non-positive mean QBER"):
            pa.fit_power_law(cells)

    def test_fidelity_at_half_rejected(self):
        # the model gives 0 at F_S = 0.5, so set a positive mean to reach the check
        cells = [dataclasses.replace(c, mean_qber=0.01)
                 for c in power_law_cells(fs_values=(0.5, 1.0))]
        with pytest.raises(FitError, match="F_S <= 0.5"):
            pa.fit_power_law(cells)

    def test_fewer_than_four_cells_rejected(self):
        with pytest.raises(FitError, match="at least four cells"):
            pa.fit_power_law(power_law_cells()[:3])

    @pytest.mark.parametrize(
        "grid,regressor",
        [
            (dict(n_values=(400,), fs_values=(0.8, 0.9, 0.95, 1.0)), "n"),
            (dict(n_values=(100, 400, 1600, 6400), fs_values=(0.9,)), "fs"),
        ],
    )
    def test_regressor_without_spread_named(self, grid, regressor):
        with pytest.raises(FitError) as err:
            pa.fit_power_law(power_law_cells(**grid))
        assert err.value.regressor == regressor


class TestBackgroundStudy:
    def test_arms_equal_plain_sweeps(self):
        # trial seeds leave out the subtraction flag, so each arm replays
        # the sweep run with that flag, draw for draw
        grid = dict(directions=["forward"], n_values=[400], fs_values=[0.95],
                    background_means=[20.0], samples=40, master_seed=11)
        study = pa.background_study(**grid).cells[0]
        plain = pa.run_sweep(**grid, subtract_background=False).cells[0]
        subtracted = pa.run_sweep(**grid, subtract_background=True).cells[0]
        assert study.failures == plain.failures == subtracted.failures == 0
        assert study.mean_with_background == plain.mean_qber
        assert study.std_with_background == plain.std_qber
        assert study.mean_subtracted == subtracted.mean_qber
        assert study.std_subtracted == subtracted.std_qber
        assert study.delta == study.mean_subtracted - study.mean_with_background
        assert math.isfinite(study.std_delta)
