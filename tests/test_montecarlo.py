import dataclasses
import math
import re

import numpy as np
import pytest

import polalign as pa
from polalign import compensation, montecarlo
from polalign.errors import FitError, InsufficientCountsError

from conftest import default_jobs
import oracles
from oracles import KETS

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

    @pytest.mark.parametrize(
        "change,match",
        [
            (dict(n_detected=0), r"cell \(n=0, fs=1.0\) has N < 1"),
            (dict(n_detected=-5), r"cell \(n=-5, fs=1.0\) has N < 1"),
            (dict(signal_fidelity=1.5), r"cell \(n=1600, fs=1.5\) has F_S > 1"),
        ],
    )
    def test_cell_outside_model_domain_named(self, change, match):
        # log N is undefined (N = 0) or NaN (N < 0), and F_S > 1 is no fidelity
        cells = power_law_cells()
        cells[3] = dataclasses.replace(cells[3], **change)
        with pytest.raises(FitError, match=match):
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

    def test_overflowing_intercept_rejected(self):
        # a subnormal mean puts the log-space intercept past exp's range
        cells = power_law_cells(n_values=(400, 1600), fs_values=(1.0, 0.9))
        cells[2] = dataclasses.replace(cells[2], mean_qber=1e-320)  # N=1600, F_S=1
        with pytest.raises(FitError, match="non-finite alpha"):
            pa.fit_power_law(cells)

    def test_fit_result_rejects_non_finite(self):
        with pytest.raises(FitError, match="non-finite beta"):
            pa.FitResult(alpha=1.0, beta=math.nan, gamma=-1.0, r_squared=1.0)


class TestBackgroundStudy:
    def test_arms_equal_plain_sweeps(self):
        # block seeds leave out the subtraction flag, so the first arm replays
        # the plain sweep, and the second scores the same draws less the mean
        # background per cell, draw for draw
        grid = dict(directions=["forward"], n_values=[400], fs_values=[0.95],
                    background_means=[20.0], samples=40, master_seed=11)
        study = pa.background_study(**grid).cells[0]
        plain = pa.run_sweep(**grid).cells[0]
        cfg = pa.TrialConfig(D.FORWARD, 400, 0.95, background_mean=20.0)
        _channels, axes, counts = block_draws(11, cfg, 0)
        subtracted = [pa.run_trial(subtracted_matrix(cfg, counts[t]), axes[t].tolist())
                      for t in range(40)]
        assert study.failures == plain.failures == 0
        assert study.mean_with_background == plain.mean_qber
        assert study.std_with_background == plain.std_qber
        assert (study.mean_subtracted, study.std_subtracted) == montecarlo._moments(subtracted)
        assert study.delta == study.mean_subtracted - study.mean_with_background
        assert math.isfinite(study.std_delta)

    @pytest.mark.parametrize("direction", list(D))
    def test_no_op_without_background(self, direction):
        # at background 0 the subtracted arm scores the drawn counts again
        study = pa.background_study([direction], [400], [0.95, 1.0], [0.0], samples=40,
                                    master_seed=4)
        plain = pa.run_sweep([direction], [400], [0.95, 1.0], samples=40, master_seed=4)
        for cell, sweep_cell in zip(study.cells, plain.cells, strict=True):
            assert cell.failures == sweep_cell.failures == 0
            assert cell.mean_subtracted == cell.mean_with_background == sweep_cell.mean_qber
            assert cell.std_subtracted == cell.std_with_background == sweep_cell.std_qber
            assert cell.delta == cell.std_delta == 0.0

    def test_jobs_invariant(self, monkeypatch):
        # blocks of 16 split each 40-trial arm into three, the last one short
        monkeypatch.setattr(montecarlo, "_BLOCK_SIZE", 16)
        monkeypatch.setattr(montecarlo, "cpu_count", lambda: 2)  # a pool on any host
        grid = dict(directions=["forward"], n_values=[400], fs_values=[0.95],
                    background_means=[20.0, 100.0], samples=40, master_seed=5)
        serial = pa.background_study(**grid, jobs=1)
        assert len(serial.cells) == 2
        assert pa.background_study(**grid, jobs=2) == serial

    def test_pair_failing_in_one_arm_leaves_both(self, monkeypatch):
        samples, seed, dropped = 100, 3, 37
        cfg = pa.TrialConfig(D.FORWARD, 400, 0.95, background_mean=20.0)
        subtracted_calls = []

        def reconstruct(cm, reconstruct_forward=montecarlo.reconstruct_forward):
            if cm.background_subtracted:
                subtracted_calls.append(None)
                if len(subtracted_calls) == dropped + 1:
                    raise InsufficientCountsError("injected")
            return reconstruct_forward(cm)

        monkeypatch.setattr(montecarlo, "reconstruct_forward", reconstruct)
        study = pa.background_study(["forward"], [400], [0.95], [20.0], samples=samples,
                                    master_seed=seed).cells[0]
        monkeypatch.undo()

        def arm(matrix):
            # one block: its trials score the block's draws in order, the
            # dropped pair included
            _channels, axes, counts = block_draws(seed, cfg, 0)
            values = [pa.run_trial(matrix(counts[i]), axes[i].tolist()) for i in range(samples)]
            del values[dropped]
            return values

        with_bg = arm(lambda counts: pa.CountMatrix(cfg.direction, counts))
        subtracted = arm(lambda counts: subtracted_matrix(cfg, counts))
        assert study.samples == samples
        assert study.failures == 1
        assert study.mean_with_background == pytest.approx(np.mean(with_bg), rel=1e-12)
        assert study.mean_subtracted == pytest.approx(np.mean(subtracted), rel=1e-12)

    def test_one_draw_per_pair(self, monkeypatch):
        # blocks of 4: each block draws its channels and counts in one call
        # each, and both arms of a pair score one trial of that draw, the
        # raw counts first
        monkeypatch.setattr(montecarlo, "_BLOCK_SIZE", 4)
        calls = {"generate_counts": [], "haar_random_unitary": [], "run_trial": []}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name].append(args)
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(montecarlo, name, counting(name, getattr(montecarlo, name)))
        study = pa.background_study(["forward", "reversed"], [400], [0.95],
                                    [20.0, 100.0], samples=7, master_seed=2)
        assert len(study.cells) == 4
        assert len(calls["haar_random_unitary"]) == len(calls["generate_counts"]) == 4 * 2
        assert all(size == 4 for _rng, size in calls["haar_random_unitary"])
        assert all(axes.shape == (4, 2, 3) for axes, _cfg, _rng in calls["generate_counts"])
        trials = calls["run_trial"]
        assert len(trials) == 2 * 4 * 7
        for (raw, raw_axes), (subtracted, subtracted_axes) in zip(trials[::2], trials[1::2]):
            assert not raw.background_subtracted and subtracted.background_subtracted
            assert subtracted_axes is raw_axes
            assert np.all(subtracted.counts <= raw.counts)


def block_rng(seed, cfg, block):
    """The generator block ``block`` of a sweep cell draws from, by its definition."""
    coordinates = montecarlo._cell_seed_coordinates(
        seed, cfg.direction, cfg.n_detected, cfg.signal_fidelity, cfg.background_mean)
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(coordinates, spawn_key=(block,))))


def subtracted_matrix(cfg, counts):
    """The count matrix of the subtracted arm: ``counts`` less the mean background per cell,
    clipped at 0."""
    return pa.CountMatrix(
        cfg.direction, np.maximum(counts - montecarlo.expected_background_per_cell(cfg), 0.0),
        background_subtracted=True)


def block_draws(seed, cfg, block):
    """The channels, their Stokes axes and the counts of a full block of a sweep cell,
    by its definition."""
    rng = block_rng(seed, cfg, block)
    channels = pa.haar_random_unitary(rng, montecarlo._BLOCK_SIZE)
    axes = pa.stokes_axes(channels, cfg.direction)
    return channels, axes, pa.generate_counts(axes, cfg, rng)


class TestRunTrial:
    @pytest.mark.parametrize("direction", list(D))
    @pytest.mark.parametrize("background", [0.0, 20.0])
    def test_arms_share_one_draw(self, direction, background):
        # a subtracting block's pairs equal the two trials scored on the same
        # drawn channel and counts, raw and less the mean background, bit for bit
        cfg = pa.TrialConfig(direction, 400, 0.95, background_mean=background)
        _channels, axes, counts = block_draws(4, cfg, 0)
        pairs = montecarlo._block((4, cfg, True, 0, 20))
        assert montecarlo._block((4, cfg, False, 0, 20)) == [pair[0] for pair in pairs]
        for t, pair in enumerate(pairs):
            plain = pa.run_trial(pa.CountMatrix(direction, counts[t]), axes[t].tolist())
            subtracted = pa.run_trial(subtracted_matrix(cfg, counts[t]), axes[t].tolist())
            assert pair == (plain, subtracted)

    @staticmethod
    def planted(value, trial):
        """Drawn counts with ``value`` in one cell of trial ``trial``."""
        def plant(counts):
            counts = counts.astype(float)
            counts[trial, 1, 2] = value
            return counts
        return plant

    @pytest.mark.parametrize("subtract", [False, True])
    def test_drawn_values_validated(self, monkeypatch, subtract):
        # a block checks the counts of the trials it scores, once for the block
        cfg = pa.TrialConfig(D.FORWARD, 400, 0.95)
        drawn = montecarlo.generate_counts
        for bad, match in [(lambda c: np.swapaxes(c, 1, 2), "shape"),
                           (np.negative, "nonnegative"),
                           (self.planted(math.nan, 0), "finite"),
                           (self.planted(math.inf, 0), "finite")]:
            monkeypatch.setattr(montecarlo, "generate_counts", lambda *args: bad(drawn(*args)))
            with pytest.raises(ValueError, match=match):
                montecarlo._block((4, cfg, subtract, 0, 1))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_unscored_trials_unchecked(self, monkeypatch, bad):
        # a one-trial block scores only its first trial, so a bad value in
        # the second, drawn but never scored, raises nothing
        cfg = pa.TrialConfig(D.FORWARD, 400, 0.95)
        scored = montecarlo._block((4, cfg, True, 0, 1))
        drawn = montecarlo.generate_counts
        plant = self.planted(bad, 1)
        monkeypatch.setattr(montecarlo, "generate_counts", lambda *args: plant(drawn(*args)))
        assert montecarlo._block((4, cfg, True, 0, 1)) == scored

    @pytest.mark.parametrize("direction", list(D))
    @pytest.mark.parametrize("n", [400, 6400])
    @pytest.mark.parametrize("fs", [0.95, 1.0])
    @pytest.mark.parametrize("background", [0.0, 20.0])
    def test_stokes_score_matches_jones_oracle(self, monkeypatch, direction, n, fs, background):
        # both arms of every trial of a drawn block: the program's score of
        # optimize's rotation against the channel's Stokes axes equals the
        # oracle's Jones score of optimize's plate angles on the drawn channel
        # (a trial picks no plates, so the oracle scores the plates that
        # optimize picks from the same reconstruction)
        cfg = pa.TrialConfig(direction, n, fs, background_mean=background)
        channels, axes, counts = block_draws(11, cfg, 0)
        recons = []

        def record(recon, original=montecarlo.optimize, **kwargs):
            recons.append(recon)
            return original(recon, **kwargs)

        monkeypatch.setattr(montecarlo, "optimize", record)
        for u, trial_axes, trial_counts in zip(channels, axes.tolist(), counts):
            recons.clear()
            qbers = [pa.run_trial(pa.CountMatrix(direction, trial_counts), trial_axes),
                     pa.run_trial(subtracted_matrix(cfg, trial_counts), trial_axes)]
            assert len(recons) == 2
            for qber, recon in zip(qbers, recons):
                angles = pa.optimize(recon).angles.as_tuple()
                jones = oracles.jones_qber(oracles.unitary(u), angles, direction)
                assert abs(qber - jones) <= 1e-12

    def test_sweeps_pick_no_plates(self, monkeypatch):
        # a sweep scores the rotation alone: with no plate setting to be had,
        # both entry points run and return the same cells
        grid = (list(D), [400], [0.95, 1.0])
        sweep = pa.run_sweep(*grid, samples=30, master_seed=2, background_means=[0.0, 20.0])
        study = pa.background_study(*grid, [20.0], samples=30, master_seed=2)

        def refuse(*args):
            raise AssertionError("a sweep chose plate angles")

        monkeypatch.setattr(compensation, "_plate_settings", refuse)
        assert pa.run_sweep(*grid, samples=30, master_seed=2,
                            background_means=[0.0, 20.0]) == sweep
        assert pa.background_study(*grid, [20.0], samples=30, master_seed=2) == study


class _RecordingPool:
    """Serial stand-in for ProcessPoolExecutor that records its worker count."""

    max_workers = []

    def __init__(self, max_workers):
        self.max_workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


class TestProcessPool:
    def test_workers_capped_at_blocks(self, monkeypatch):
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _RecordingPool)
        monkeypatch.setattr(_RecordingPool, "max_workers", [])
        monkeypatch.setattr(montecarlo, "cpu_count", lambda: 8)
        pa.run_sweep(["forward"], [400], [0.95, 1.0], samples=3, master_seed=1, jobs=5000)
        assert _RecordingPool.max_workers == [2]

    @pytest.mark.parametrize("cpus,max_workers", [(3, [3]), (1, [])])
    def test_workers_capped_at_cpus(self, monkeypatch, cpus, max_workers):
        # eight one-block cells; a single CPU runs them serially, with no pool
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _RecordingPool)
        monkeypatch.setattr(_RecordingPool, "max_workers", [])
        monkeypatch.setattr(montecarlo, "cpu_count", lambda: cpus)
        sweep = pa.run_sweep(["forward", "reversed"], [400, 800], [0.95, 1.0], samples=3,
                             master_seed=1, jobs=5000)
        assert len(sweep.cells) == 8
        assert _RecordingPool.max_workers == max_workers

class TestGridChecks:
    @pytest.mark.parametrize("entry", ["run_sweep", "background_study"])
    @pytest.mark.parametrize(
        "samples,n_values,match", [(0, [400], "samples must be >= 1"), (10, [], "empty")]
    )
    def test_rejected(self, entry, samples, n_values, match):
        grid = dict(directions=["forward"], n_values=n_values, fs_values=[0.95],
                    background_means=[20.0], samples=samples, master_seed=1)
        with pytest.raises(ValueError, match=match):
            getattr(pa, entry)(**grid)

    @pytest.mark.parametrize("entry", ["run_sweep", "background_study"])
    @pytest.mark.parametrize("field,samples,master_seed", [("samples", 0, 1),
                                                           ("master_seed", 3, -1)])
    def test_config_error_names_its_field_before_any_pool(self, monkeypatch, entry, field,
                                                          samples, master_seed):
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _RecordingPool)
        monkeypatch.setattr(_RecordingPool, "max_workers", [])
        grid = dict(directions=["forward"], n_values=[400], fs_values=[0.95, 1.0],
                    background_means=[20.0], samples=samples, master_seed=master_seed, jobs=2)
        with pytest.raises(pa.ConfigError) as caught:
            getattr(pa, entry)(**grid)
        assert caught.value.field == field
        assert _RecordingPool.max_workers == []

    @pytest.mark.parametrize("entry", ["run_sweep", "background_study"])
    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected_before_any_block(self, monkeypatch, entry, jobs):
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _RecordingPool)
        monkeypatch.setattr(_RecordingPool, "max_workers", [])
        monkeypatch.setattr(montecarlo, "_block", None)  # a block that ran would raise TypeError
        grid = dict(directions=["forward"], n_values=[400], fs_values=[0.95, 1.0],
                    background_means=[20.0], samples=3, master_seed=1, jobs=jobs)
        with pytest.raises(pa.ConfigError, match=f"jobs must be >= 1, got {jobs}") as caught:
            getattr(pa, entry)(**grid)
        assert caught.value.field == "jobs"
        assert _RecordingPool.max_workers == []

    @pytest.mark.parametrize("entry", ["run_sweep", "background_study"])
    @pytest.mark.parametrize("field,value", [("n_detected", dict(n_values=[400.5])),
                                             ("master_seed", dict(master_seed=1.5)),
                                             ("jobs", dict(jobs=1.5)),
                                             ("samples", dict(samples=2.7))])
    def test_non_integer_rejected_before_any_block(self, monkeypatch, entry, field, value):
        # int() would run 400.5 detections as 400 and seed 1.5 as seed 1
        monkeypatch.setattr(montecarlo, "_block", None)  # a block that ran would raise TypeError
        grid = dict(directions=["forward"], n_values=[400], fs_values=[0.95],
                    background_means=[20.0], samples=3, master_seed=1, jobs=1)
        with pytest.raises(pa.ConfigError, match="must be an integer, got ") as caught:
            getattr(pa, entry)(**{**grid, **value})
        assert caught.value.field == field

    @pytest.mark.parametrize("entry", ["run_sweep", "background_study"])
    @pytest.mark.parametrize("field,value", [
        ("direction", dict(directions=["sideways"])),
        ("signal_fidelity", dict(fs_values=["0.95"])),
        ("signal_fidelity", dict(fs_values=[10**400])),
        ("background_mean", dict(background_means=[True])),
        ("samples", dict(samples=True)),
        ("master_seed", dict(master_seed=True)),
        ("jobs", dict(jobs=True)),
        ("direction", dict(directions=[])),
        ("n_detected", dict(n_values=[])),
        ("signal_fidelity", dict(fs_values=[])),
        ("background_mean", dict(background_means=[])),
    ])
    def test_bad_grid_value_names_its_field_before_any_block(self, monkeypatch, entry, field,
                                                             value):
        # a string is no number and a bool no integer, whatever float() and
        # int() would make of them
        monkeypatch.setattr(montecarlo, "_block", None)  # a block that ran would raise TypeError
        grid = dict(directions=["forward"], n_values=[400], fs_values=[0.95],
                    background_means=[20.0], samples=3, master_seed=1, jobs=1)
        with pytest.raises(pa.ConfigError) as caught:
            getattr(pa, entry)(**{**grid, **value})
        assert caught.value.field == field

    @pytest.mark.parametrize("entry", ["run_sweep", "background_study"])
    def test_cells_store_checked_types(self, entry):
        grid = dict(directions=["forward"], n_values=[np.int64(400)], fs_values=[np.float32(1.0)],
                    background_means=[20], samples=np.int64(3), master_seed=np.uint8(1))
        [cell] = getattr(pa, entry)(**grid).cells
        assert cell.direction is D.FORWARD
        assert type(cell.n_detected) is int and type(cell.samples) is int
        assert type(cell.signal_fidelity) is float and type(cell.background_mean) is float
        assert (cell.samples, cell.signal_fidelity, cell.background_mean) == (3, 1.0, 20.0)

    @pytest.mark.parametrize("entry", ["run_sweep", "background_study"])
    def test_cell_with_too_many_failures_aborts(self, entry):
        # ten detections leave some basis of some input empty in every trial
        grid = dict(directions=["forward"], n_values=[10], fs_values=[0.95],
                    background_means=[0.0], samples=300, master_seed=1)
        with pytest.raises(pa.SweepError, match=r"n=10, fs=0.95, bg=0.0\): 300/300 trials "
                                                r"failed, above the 1% tolerance"):
            getattr(pa, entry)(**grid)


class TestConfigLimits:
    @pytest.mark.parametrize("background", [math.nan, math.inf, -1.0, 1e19, 1e300,
                                            math.nextafter(montecarlo.MAX_BACKGROUND_MEAN,
                                                           math.inf)])
    def test_background_the_sampler_cannot_draw_rejected(self, background):
        # background is the mean the sampler would draw in each cell; the
        # forward trial spreads its background over 4 rows, exactly
        with pytest.raises(ValueError, match="background mean must be in"):
            pa.TrialConfig(D.FORWARD, 400, 0.95, background_mean=4 * background)

    def test_direction_given_by_its_value(self):
        assert pa.TrialConfig("forward", 4, 0.95) == pa.TrialConfig(D.FORWARD, 4, 0.95)
        assert pa.TrialConfig("reversed", 6, 0.95).direction is D.REVERSED

    def test_budget_above_int64_rejected(self):
        with pytest.raises(ValueError, match="above the largest supported budget"):
            pa.TrialConfig(D.REVERSED, montecarlo.MAX_DETECTIONS + 1, 0.95)

    def test_nan_background_sweep_rejected(self):
        with pytest.raises(ValueError, match="background mean"):
            pa.run_sweep(["forward"], [400], [0.95], samples=2, master_seed=1,
                         background_means=[math.nan])

    @pytest.mark.parametrize("direction", list(D))
    def test_largest_supported_values_draw(self, direction):
        # the limits are what NumPy's multinomial and Poisson samplers accept;
        # the Poisson sampler draws each cell at the background over the rows
        rows = 4 if direction is D.FORWARD else 6
        largest = rows * montecarlo.MAX_BACKGROUND_MEAN
        cfg = pa.TrialConfig(direction, montecarlo.MAX_DETECTIONS, 0.95,
                             background_mean=largest)
        rng = np.random.default_rng(1)
        axes = pa.stokes_axes(pa.haar_random_unitary(rng, 3), direction)
        counts = montecarlo.generate_counts(axes, cfg, rng)
        totals = counts.sum(axis=(1, 2))
        assert np.all(np.isfinite(totals)) and np.all(totals > montecarlo.MAX_DETECTIONS)
        with pytest.raises(ValueError, match=re.escape(f"background mean must be in [0, {largest:g}]")):
            pa.TrialConfig(direction, 400, 0.95, background_mean=math.nextafter(largest, math.inf))

    @pytest.mark.parametrize("field,value", [("n_detected", 3), ("signal_fidelity", 0.4),
                                             ("background_mean", math.nan),
                                             ("direction", "sideways"),
                                             ("signal_fidelity", "0.95")])
    def test_trial_config_error_names_its_field(self, field, value):
        params = dict(direction=D.FORWARD, n_detected=400, signal_fidelity=0.95)
        params[field] = value
        with pytest.raises(pa.ConfigError) as caught:
            pa.TrialConfig(**params)
        assert caught.value.field == field

    @pytest.mark.parametrize("field", ["pulse_rate_hz", "mean_photon_number",
                                       "channel_transmission", "vacuum_yield"])
    def test_detection_rate_error_names_its_field(self, field):
        params = dict(pulse_rate_hz=1e6, mean_photon_number=0.1, channel_transmission=0.5)
        params[field] = math.nan
        with pytest.raises(pa.ConfigError) as caught:
            pa.expected_detection_rate(**params)
        assert caught.value.field == field

    @pytest.mark.parametrize("field", ["pulse_rate_hz", "mean_photon_number"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_detection_rate_params_rejected(self, field, value):
        params = dict(pulse_rate_hz=1e6, mean_photon_number=0.1, channel_transmission=0.5)
        params[field] = value
        with pytest.raises(ValueError, match="must be finite and >= 0"):
            pa.expected_detection_rate(**params)


class TestExpectedProbabilities:
    @pytest.mark.parametrize("direction", list(D))
    @pytest.mark.parametrize("fs", [0.5, 0.95, 1.0])
    def test_matches_born_rule(self, direction, fs):
        # the Born rule written out with kets and matrix products: the
        # closed Stokes form must agree on every cell
        bb84 = np.column_stack([KETS[lab] for lab in "HVDA"])
        six = np.column_stack([KETS[lab] for lab in "HVDARL"])
        inputs, outcomes, n_bases = (bb84, six, 3) if direction is D.FORWARD else (six, bb84, 2)
        draws = pa.haar_random_unitary(np.random.default_rng(21), 1000)
        axes = pa.stokes_axes(draws, direction)
        batch = montecarlo.expected_probabilities(axes, direction, fs)
        for u, u_axes, p in zip(draws, axes, batch):
            overlap = np.abs(outcomes.conj().T @ (u @ inputs)) ** 2
            born = ((2.0 * fs - 1.0) * overlap + (1.0 - fs)).T / (inputs.shape[1] * n_bases)
            assert p.shape == born.shape
            np.testing.assert_allclose(p, born, rtol=0.0, atol=1e-15)
            # one channel's entries give that channel's matrix
            assert np.array_equal(montecarlo.expected_probabilities(u_axes, direction, fs), p)
            # and the batch's axes are each channel's own
            assert np.array_equal(pa.stokes_axes(u, direction), u_axes)


class TestAsymptoticOracle:
    def test_mean_residual_follows_inverse_n_law(self):
        # a small Wahba error omega about the targets' frame gives
        # QBER ~ (w1^2 + w2^2 + 2 w3^2)/8 with omega = A^-1 g / (2 F_S - 1),
        # A = diag(2, 2, 4); averaged over Haar channels this is
        # E(F_S, N) = (9/4) ((2 F_S - 1)^-2 - 1/5) / N in both orientations.
        # F_S = 1 is left out: there the MLE's projection onto the sphere
        # pulls the mean a few percent below the law.
        n, samples = 6400, 4000
        sweep = pa.run_sweep(
            directions=["forward", "reversed"], n_values=[n], fs_values=[0.95, 0.8],
            samples=samples, master_seed=1, jobs=default_jobs(),
        )
        assert len(sweep.cells) == 4
        for cell in sweep.cells:
            v = 2.0 * cell.signal_fidelity - 1.0
            expected = 2.25 * (v ** -2 - 0.2) / n
            sem = cell.std_qber / math.sqrt(cell.samples - cell.failures)
            assert abs(cell.mean_qber - expected) <= 4.0 * sem, (cell, expected)


class TestHeadline:
    def test_few_hundred_detections_align_below_one_percent(self):
        # the paper's claim: a few hundred detections align the frame to
        # better than 99 %.  At N = 300 and F_S = 0.95 the Haar-averaged
        # error E = (9/4) ((2 F_S - 1)^-2 - 1/5) / N is 0.0078.
        n, fs = 300, 0.95
        assert 2.25 * ((2 * fs - 1) ** -2 - 0.2) / n == pytest.approx(0.0078, abs=5e-5)
        sweep = pa.run_sweep(["forward", "reversed"], [n], [fs], samples=2000, master_seed=3,
                             jobs=default_jobs())
        assert [c.direction for c in sweep.cells] == [D.FORWARD, D.REVERSED]
        for cell in sweep.cells:
            assert cell.failures == 0
            assert cell.mean_qber < 0.01, cell


class TestGoldenStream:
    """Cell moments pinned to the values the seeded streams gave when recorded.

    A change that only reorders arithmetic moves them by rounding; one that
    changes a draw, a seed or the estimator moves them far more.
    """

    SWEEP = [
        # (direction, N, F_S, failures, mean, std)
        ("forward", 400, 1.0, 0, 0.00371151125048958, 0.0028769396181729605),
        ("forward", 400, 0.95, 0, 0.006819674890591159, 0.0065228133297133015),
        ("forward", 6400, 1.0, 0, 0.00030262230268674194, 0.0002865593435065192),
        ("forward", 6400, 0.95, 0, 0.00045979806313131423, 0.00037982378917904514),
        ("reversed", 400, 1.0, 0, 0.003870761667135597, 0.0031468103709614476),
        ("reversed", 400, 0.95, 0, 0.005021700642163599, 0.003601906720832029),
        ("reversed", 6400, 1.0, 0, 0.00028492133163421916, 0.0002463132012663582),
        ("reversed", 6400, 0.95, 0, 0.0003071792005999496, 0.00022611118763849757),
    ]
    STUDY = [
        # (direction, bg, failures, mean plain, std plain, mean subtracted, std subtracted);
        # recorded with the background drawn as one Poisson count per cell
        ("forward", 20.0, 0, 0.008406031877609027, 0.005985247488001888,
         0.008421070677660642, 0.006348483002704204),
        ("forward", 100.0, 0, 0.02195963250238952, 0.019177585130835114,
         0.021866035753109744, 0.017859525249063524),
        ("reversed", 20.0, 0, 0.008190776956842305, 0.00716309775419718,
         0.008656175309891323, 0.007902437795264849),
        ("reversed", 100.0, 0, 0.010794443042116983, 0.009366915674196423,
         0.011617842704090409, 0.010903944953383924),
    ]

    def test_sweep_and_study_reproduce(self):
        sweep = pa.run_sweep(["forward", "reversed"], [400, 6400], [1.0, 0.95],
                             samples=40, master_seed=7)
        got = [(c.direction.value, c.n_detected, c.signal_fidelity, c.failures)
               for c in sweep.cells]
        assert got == [row[:4] for row in self.SWEEP]
        for cell, (*_, mean, std) in zip(sweep.cells, self.SWEEP):
            assert cell.mean_qber == pytest.approx(mean, rel=1e-12, abs=0.0)
            assert cell.std_qber == pytest.approx(std, rel=1e-12, abs=0.0)

        study = pa.background_study(["forward", "reversed"], [400], [0.95], [20.0, 100.0],
                                    samples=40, master_seed=7)
        got = [(c.direction.value, c.background_mean, c.failures) for c in study.cells]
        assert got == [row[:3] for row in self.STUDY]
        for cell, (*_, mean_bg, std_bg, mean_sub, std_sub) in zip(study.cells, self.STUDY):
            assert cell.mean_with_background == pytest.approx(mean_bg, rel=1e-12, abs=0.0)
            assert cell.std_with_background == pytest.approx(std_bg, rel=1e-12, abs=0.0)
            assert cell.mean_subtracted == pytest.approx(mean_sub, rel=1e-12, abs=0.0)
            assert cell.std_subtracted == pytest.approx(std_sub, rel=1e-12, abs=0.0)


class TestSeeds:
    def test_entropy_pinned(self, monkeypatch):
        # a block seeds from the cell coordinates, float ones as their
        # IEEE-754 bit patterns (so -0.0 and 0.0 seed different streams),
        # with the block index as the spawn key
        seeds = []

        def record(rng, size, original=montecarlo.haar_random_unitary):
            seq = rng.bit_generator.seed_seq
            seeds.append((seq.entropy, seq.spawn_key))
            return original(rng, size)

        monkeypatch.setattr(montecarlo, "haar_random_unitary", record)
        for (direction, n, fs, bg), start in [((D.FORWARD, 400, 0.95, 0.0), 0),
                                              ((D.REVERSED, 6400, 1.0, 20.0), 750),
                                              ((D.FORWARD, 400, 0.95, -0.0), 250)]:
            cfg = pa.TrialConfig(direction, n, fs, background_mean=bg)
            montecarlo._block((7, cfg, False, start, start + 1))
        assert seeds == [
            ([7, 0, 400, 4606732058837280358, 0], (0,)),
            ([7, 1, 6400, 4607182418800017408, 4626322717216342016], (3,)),
            ([7, 0, 400, 4606732058837280358, 9223372036854775808], (1,)),
        ]

    CELLS = [
        (D.FORWARD, 400, 0.95, 0.0),
        (D.FORWARD, 400, 0.95, -0.0),
        (D.REVERSED, 6400, 1.0, 20.0),
        (D.FORWARD, 2**32, 0.5, montecarlo.MAX_BACKGROUND_MEAN),
        (D.REVERSED, montecarlo.MAX_DETECTIONS, 0.75, 100.0),
    ]

    @pytest.mark.parametrize("master_seed", [0, 7, 2**32 - 1, 2**32, 2**64 + 5])
    @pytest.mark.parametrize("start", [0, 2**32 - 2])
    def test_block_seeds_match_definition(self, monkeypatch, master_seed, start):
        # trial i of a block scores row i of the block's Stokes axes and counts:
        # a full block drawn from PCG64 seeded with the block's SeedSequence
        drawn = []

        def record(cm, axes):
            drawn.append((axes, cm.counts))
            return 0.0

        monkeypatch.setattr(montecarlo, "run_trial", record)
        block = start // montecarlo._BLOCK_SIZE
        for direction, n, fs, bg in self.CELLS:
            cfg = pa.TrialConfig(direction, n, fs, background_mean=bg)
            drawn.clear()
            montecarlo._block((master_seed, cfg, False, start, start + 4))
            _channels, axes, counts = block_draws(master_seed, cfg, block)
            assert len(drawn) == 4
            for t, (trial_axes, trial_counts) in enumerate(drawn):
                assert np.array_equal(trial_axes, axes[t]), (cfg, t)
                assert np.array_equal(trial_counts, counts[t]), (cfg, t)

    def test_cell_prefix_independent_of_samples(self, monkeypatch):
        # blocks of 16 with background, so every draw is made: a cell's first
        # k trials are the same for any sample count of at least k, across
        # block boundaries, because each block draws all of its trials
        monkeypatch.setattr(montecarlo, "_BLOCK_SIZE", 16)
        grid = ([D.FORWARD], [400], [0.95], [20.0])
        [(fields, full)] = montecarlo._run_cells(grid, False, 40, 7, 1)
        assert fields["failures"] == 0
        assert full[16:32] != full[:16]  # each block has a stream of its own
        for k in (1, 15, 16, 17, 33):
            assert montecarlo._run_cells(grid, False, k, 7, 1)[0][1] == full[:k], k

    def test_sweep_jobs_invariant(self, monkeypatch):
        # blocks of 16 split each 40-trial cell into three, the last one short
        monkeypatch.setattr(montecarlo, "_BLOCK_SIZE", 16)
        monkeypatch.setattr(montecarlo, "cpu_count", lambda: 2)  # a pool on any host
        grid = dict(directions=["forward", "reversed"], n_values=[400], fs_values=[0.95, 1.0],
                    samples=40, master_seed=5, background_means=[0.0, 20.0])
        serial = pa.run_sweep(**grid, jobs=1)
        assert len(serial.cells) == 8
        assert pa.run_sweep(**grid, jobs=2) == serial

    @pytest.mark.parametrize("direction", list(D))
    def test_failed_trial_leaves_rest_of_block(self, monkeypatch, direction):
        # a block draws every trial before it scores any, so a trial that
        # fails in its reconstruction changes no other trial; one failure in
        # 100 trials is within the 1% a cell tolerates
        monkeypatch.setattr(montecarlo, "_BLOCK_SIZE", 16)
        grid = ([direction], [400], [0.95], [0.0])
        name = "reconstruct_" + direction.value
        [(fields, clean)] = montecarlo._run_cells(grid, False, 100, 3, 1)
        assert fields["failures"] == 0
        calls = []

        def reconstruct(cm, original=getattr(montecarlo, name)):
            calls.append(None)
            if len(calls) == 6:
                raise InsufficientCountsError("injected")
            return original(cm)

        monkeypatch.setattr(montecarlo, name, reconstruct)
        [(fields, failed)] = montecarlo._run_cells(grid, False, 100, 3, 1)
        assert fields["failures"] == 1
        assert failed == clean[:5] + clean[6:]

    def test_negative_master_seed_rejected(self):
        cfg = pa.TrialConfig(D.FORWARD, 400, 0.95)
        with pytest.raises(ValueError, match="non-negative"):
            montecarlo._block((-1, cfg, False, 0, 1))


class TestGenerateCounts:
    @pytest.mark.parametrize("direction", list(D))
    @pytest.mark.parametrize("background", [20.0, 100.0])
    def test_background_matches_per_column_draws(self, direction, background):
        # the draws written out: one multinomial over every channel's cells,
        # then one Poisson count per cell of every channel, at a detector's
        # mean over the rows, summed as floats; the generator ends in the
        # same state
        size = 50
        cfg = pa.TrialConfig(direction, 400, 0.95, background_mean=background)
        axes = pa.stokes_axes(pa.haar_random_unitary(np.random.default_rng(8), size), direction)
        rng = np.random.default_rng(9)
        drawn = montecarlo.generate_counts(axes, cfg, rng)
        after = rng.random()

        rng = np.random.default_rng(9)
        p = montecarlo.expected_probabilities(axes, direction, cfg.signal_fidelity)
        n_rows, n_cols = p.shape[1:]
        counts = rng.multinomial(cfg.n_detected, p.reshape(size, -1)).reshape(p.shape)
        noise = rng.poisson(background / n_rows, size=(size, n_rows, n_cols))
        counts = counts + noise.astype(float)
        assert drawn.dtype == float
        assert drawn.shape == (size, n_rows, n_cols)
        assert np.array_equal(drawn, counts)
        assert rng.random() == after

    @pytest.mark.parametrize("direction", list(D))
    def test_rows_equal_one_channel_at_a_time(self, direction):
        # without background, row k of a batch is the multinomial of channel
        # k alone, drawn in order from the same stream
        cfg = pa.TrialConfig(direction, 400, 0.95)
        axes = pa.stokes_axes(pa.haar_random_unitary(np.random.default_rng(8), 20), direction)
        batch = montecarlo.generate_counts(axes, cfg, np.random.default_rng(9))
        rng = np.random.default_rng(9)
        for u_axes, counts in zip(axes, batch):
            one = montecarlo.generate_counts(u_axes, cfg, rng)
            assert one.shape == counts.shape
            assert np.array_equal(one, counts)
            assert one.sum() == cfg.n_detected
