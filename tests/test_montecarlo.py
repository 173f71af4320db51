import dataclasses
import math

import numpy as np
import pytest

import polalign as pa
from polalign import montecarlo
from polalign.errors import FitError, InsufficientCountsError

from conftest import default_jobs
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
        # block seeds leave out the subtraction flag, so each arm replays
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

    def test_jobs_invariant(self, monkeypatch):
        # blocks of 16 split each 40-trial arm into three, the last one short
        monkeypatch.setattr(montecarlo, "_BLOCK_SIZE", 16)
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

        def arm(subtract):
            # one block: its trials draw from one generator in order, the
            # dropped pair included
            rng = block_rng(seed, cfg, 0)
            values = [pa.run_trial(cfg, rng, (subtract,))[0] for _ in range(samples)]
            del values[dropped]
            return values

        with_bg = arm(False)
        subtracted = arm(True)
        assert study.samples == samples
        assert study.failures == 1
        assert study.mean_with_background == pytest.approx(np.mean(with_bg), rel=1e-12)
        assert study.mean_subtracted == pytest.approx(np.mean(subtracted), rel=1e-12)

    def test_one_draw_per_pair(self, monkeypatch):
        calls = {"generate_counts": 0, "haar_random_unitary": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(montecarlo, name, counting(name, getattr(montecarlo, name)))
        study = pa.background_study(["forward", "reversed"], [400], [0.95],
                                    [20.0, 100.0], samples=7, master_seed=2)
        assert len(study.cells) == 4
        assert calls == {"generate_counts": 4 * 7, "haar_random_unitary": 4 * 7}


def block_rng(seed, cfg, block):
    """The generator block ``block`` of a sweep cell draws from, by its definition."""
    coordinates = montecarlo._cell_seed_coordinates(
        seed, cfg.direction, cfg.n_detected, cfg.signal_fidelity, cfg.background_mean)
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(coordinates, spawn_key=(block,))))


class TestRunTrial:
    @pytest.mark.parametrize("direction", list(D))
    @pytest.mark.parametrize("background", [0.0, 20.0])
    def test_arms_share_one_draw(self, direction, background):
        # both arms from one call equal the two single-arm calls on fresh
        # generators from the same seed, bit for bit
        cfg = pa.TrialConfig(direction, 400, 0.95, background_mean=background)
        for t in range(20):
            both = pa.run_trial(cfg, np.random.default_rng([4, t]), (False, True))
            plain, = pa.run_trial(cfg, np.random.default_rng([4, t]), (False,))
            subtracted, = pa.run_trial(cfg, np.random.default_rng([4, t]), (True,))
            assert both == (plain, subtracted)
            assert pa.run_trial(cfg, np.random.default_rng([4, t]), (True, False)) == (
                subtracted, plain)
            if background == 0.0:
                assert plain == subtracted


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
        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", _RecordingPool)
        monkeypatch.setattr(_RecordingPool, "max_workers", [])
        pa.run_sweep(["forward"], [400], [0.95, 1.0], samples=3, master_seed=1, jobs=5000)
        assert _RecordingPool.max_workers == [2]


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


class TestConfigLimits:
    @pytest.mark.parametrize("background", [math.nan, math.inf, -1.0, 1e19, 1e300,
                                            math.nextafter(montecarlo.MAX_BACKGROUND_MEAN,
                                                           math.inf)])
    def test_background_the_sampler_cannot_draw_rejected(self, background):
        with pytest.raises(ValueError, match="background mean must be in"):
            pa.TrialConfig(D.FORWARD, 400, 0.95, background_mean=background)

    def test_budget_above_int64_rejected(self):
        with pytest.raises(ValueError, match="above the largest supported budget"):
            pa.TrialConfig(D.REVERSED, montecarlo.MAX_DETECTIONS + 1, 0.95)

    def test_nan_background_sweep_rejected(self):
        with pytest.raises(ValueError, match="background mean"):
            pa.run_sweep(["forward"], [400], [0.95], samples=2, master_seed=1,
                         background_means=[math.nan])

    @pytest.mark.parametrize("direction", list(D))
    def test_largest_supported_values_draw(self, direction):
        # the limits are what NumPy's multinomial and Poisson samplers accept
        cfg = pa.TrialConfig(direction, montecarlo.MAX_DETECTIONS, 0.95,
                             background_mean=montecarlo.MAX_BACKGROUND_MEAN)
        rng = np.random.default_rng(1)
        cm = montecarlo.generate_counts(pa.haar_random_unitary(rng), cfg, rng)
        assert math.isfinite(cm.total) and cm.total > montecarlo.MAX_DETECTIONS

    @pytest.mark.parametrize("field", ["pulse_rate_hz", "mean_photon_number"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_detection_rate_params_rejected(self, field, value):
        params = dict(pulse_rate_hz=1e6, mean_photon_number=0.1, channel_transmission=0.5)
        params[field] = value
        with pytest.raises(ValueError, match="must be finite and >= 0"):
            pa.DetectionRateParams(**params)


class TestExpectedProbabilities:
    @pytest.mark.parametrize("direction", list(D))
    @pytest.mark.parametrize("fs", [0.5, 0.95, 1.0])
    def test_matches_born_rule(self, direction, fs):
        # the Born rule written out with kets and matrix products: the
        # closed Stokes form must agree on every cell
        bb84 = np.column_stack([KETS[lab] for lab in "HVDA"])
        six = np.column_stack([KETS[lab] for lab in "HVDARL"])
        inputs, outcomes, n_bases = (bb84, six, 3) if direction is D.FORWARD else (six, bb84, 2)
        rng = np.random.default_rng(21)
        for _ in range(1000):
            u = pa.haar_random_unitary(rng)
            overlap = np.abs(outcomes.conj().T @ (u.entries @ inputs)) ** 2
            born = ((2.0 * fs - 1.0) * overlap + (1.0 - fs)).T / (inputs.shape[1] * n_bases)
            p = montecarlo.expected_probabilities(u, direction, fs)
            assert p.shape == born.shape
            np.testing.assert_allclose(p, born, rtol=0.0, atol=1e-15)


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


class TestGoldenStream:
    """Cell moments pinned to the values the seeded streams gave when recorded.

    A change that only reorders arithmetic moves them by rounding; one that
    changes a draw, a seed or the estimator moves them far more.
    """

    SWEEP = [
        # (direction, N, F_S, failures, mean, std)
        ("forward", 400, 1.0, 0, 0.004147496723591051, 0.0033255252413782257),
        ("forward", 400, 0.95, 0, 0.006540079301492666, 0.004941212964014764),
        ("forward", 6400, 1.0, 0, 0.0002925679474367643, 0.00020366318033571186),
        ("forward", 6400, 0.95, 0, 0.0003798711361049839, 0.00023892694293061752),
        ("reversed", 400, 1.0, 0, 0.004132054183043801, 0.0034425959809842154),
        ("reversed", 400, 0.95, 0, 0.0049364270531035955, 0.003794235132340163),
        ("reversed", 6400, 1.0, 0, 0.0002981661245855416, 0.00016607088926212462),
        ("reversed", 6400, 0.95, 0, 0.00032694128544633885, 0.0002799649456389208),
    ]
    STUDY = [
        # (direction, bg, failures, mean plain, std plain, mean subtracted, std subtracted)
        ("forward", 20.0, 0, 0.00810681488362135, 0.006527453423286702,
         0.008417877007602385, 0.007003501557459822),
        ("forward", 100.0, 0, 0.020227688026486067, 0.023509804274178064,
         0.02424072880190046, 0.04199916613104261),
        ("reversed", 20.0, 0, 0.006935126350351315, 0.006411723036397421,
         0.007262271661092312, 0.006981014104280046),
        ("reversed", 100.0, 0, 0.014959332712654783, 0.011904234335712674,
         0.015400054536159655, 0.012496586950767424),
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

        def record(cfg, rng, arms):
            seq = rng.bit_generator.seed_seq
            seeds.append((seq.entropy, seq.spawn_key))
            return (0.0,)

        monkeypatch.setattr(montecarlo, "run_trial", record)
        for (direction, n, fs, bg), start in [((D.FORWARD, 400, 0.95, 0.0), 0),
                                              ((D.REVERSED, 6400, 1.0, 20.0), 750),
                                              ((D.FORWARD, 400, 0.95, -0.0), 250)]:
            cfg = pa.TrialConfig(direction, n, fs, background_mean=bg)
            montecarlo._block((7, cfg, (False,), start, start + 1))
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
        # a block starts from PCG64 seeded with its SeedSequence, and each
        # trial starts where the one before it stopped drawing
        states = []

        def record(cfg, rng, arms):
            states.append(rng.bit_generator.state)
            rng.random(1 + len(states))
            return (0.0,)

        monkeypatch.setattr(montecarlo, "run_trial", record)
        for direction, n, fs, bg in self.CELLS:
            cfg = pa.TrialConfig(direction, n, fs, background_mean=bg)
            states.clear()
            montecarlo._block((master_seed, cfg, (False,), start, start + 4))
            expected = block_rng(master_seed, cfg, start // montecarlo._BLOCK_SIZE)
            assert len(states) == 4
            for t, state in enumerate(states):
                assert state == expected.bit_generator.state, (cfg, t)
                expected.random(2 + t)

    def test_cell_prefix_independent_of_samples(self, monkeypatch):
        # blocks of 16: a cell's first k trials are the same for any sample
        # count of at least k, across block boundaries, whatever each trial
        # draws and whether it fails part-way
        monkeypatch.setattr(montecarlo, "_BLOCK_SIZE", 16)

        def trial(cfg, rng, arms):
            u = rng.random(2)
            # an odd number of uint32 draws leaves the other half-word buffered
            rng.integers(7, size=1 + int(u[0] * 6), dtype=np.uint32)
            if u[1] < 0.3:
                raise InsufficientCountsError("fails part-way")
            return (u[0],)

        monkeypatch.setattr(montecarlo, "run_trial", trial)
        cfg = pa.TrialConfig(D.FORWARD, 400, 0.95, background_mean=20.0)
        full = montecarlo._run_cells([cfg], (False,), 40, 7, 1)[0]
        assert 0 < full.count(None) < 40
        assert full[16:32] != full[:16]  # each block has a stream of its own
        for k in (1, 15, 16, 17, 32, 33):
            assert montecarlo._run_cells([cfg], (False,), k, 7, 1)[0] == full[:k], k

    @pytest.mark.parametrize("direction", list(D))
    def test_failed_trial_leaves_rest_of_block(self, monkeypatch, direction):
        # every draw of a trial comes before its reconstruction, so a trial
        # that fails there consumes the draws of one that succeeds
        monkeypatch.setattr(montecarlo, "_BLOCK_SIZE", 16)
        cfg = pa.TrialConfig(direction, 400, 0.95)
        name = "reconstruct_" + direction.value
        clean = montecarlo._run_cells([cfg], (False,), 20, 3, 1)[0]
        calls = []

        def reconstruct(cm, original=getattr(montecarlo, name)):
            calls.append(None)
            if len(calls) == 6:
                raise InsufficientCountsError("injected")
            return original(cm)

        monkeypatch.setattr(montecarlo, name, reconstruct)
        failed = montecarlo._run_cells([cfg], (False,), 20, 3, 1)[0]
        assert None not in clean
        assert failed == clean[:5] + [None] + clean[6:]

    def test_negative_master_seed_rejected(self):
        cfg = pa.TrialConfig(D.FORWARD, 400, 0.95)
        with pytest.raises(ValueError, match="non-negative"):
            montecarlo._block((-1, cfg, (False,), 0, 1))


class TestGenerateCounts:
    @pytest.mark.parametrize("direction", list(D))
    @pytest.mark.parametrize("background", [20.0, 100.0])
    def test_background_matches_per_column_draws(self, direction, background):
        # the background written out one detector column at a time: the
        # single multinomial call must draw the same columns from the same
        # stream, and leave the generator in the same state
        cfg = pa.TrialConfig(direction, 400, 0.95, background_mean=background)
        for seed in range(50):
            rng = np.random.default_rng(seed)
            u = pa.haar_random_unitary(rng)
            drawn = montecarlo.generate_counts(u, cfg, rng)
            after = rng.random()

            rng = np.random.default_rng(seed)
            u = pa.haar_random_unitary(rng)
            p = montecarlo.expected_probabilities(u, direction, cfg.signal_fidelity)
            counts = rng.multinomial(cfg.n_detected, p.ravel()).reshape(p.shape).astype(float)
            n_rows, n_cols = p.shape
            per_detector = rng.poisson(background, size=n_cols)
            for j in range(n_cols):
                counts[:, j] += rng.multinomial(per_detector[j], np.full(n_rows, 1.0 / n_rows))
            assert np.array_equal(drawn.counts, counts)
            assert rng.random() == after
