"""Monte Carlo characterization of the alignment protocol.

Each trial draws a Haar-random channel, simulates photon counting with a
finite detection budget, intrinsic signal fidelity and optional Poissonian
detector background, runs the tomography + compensation pipeline, and
scores the residual QBER of ideal signal states through the compensated
channel.  Sweeps aggregate trials over a (direction, N, F_S, background)
grid and fit the mean residual QBER to the power law

    E(F_S, N) = alpha * (2 F_S - 1)^beta * N^gamma

by ordinary least squares in log space.

Determinism: every trial's generator is seeded from (master seed, cell
coordinates, trial index), so results are bit-identical for any worker
count, and the with/without-background-subtraction arms of a paired study
share their random draws exactly.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from .compensation import optimize, residual_qber
from .errors import FitError, InsufficientCountsError, MLEConvergenceError, SweepError
from .polarization import ALL_LABELS, BB84_LABELS, CANONICAL_KETS, ChannelUnitary, haar_random_unitary
from .tomography import (
    CountMatrix,
    Direction,
    reconstruct_forward,
    reconstruct_reversed,
)

#: largest fraction of failed trials a sweep cell tolerates before aborting
MAX_FAILURE_FRACTION = 0.01
_BLOCK_SIZE = 250

_FORWARD_INPUTS = np.column_stack([CANONICAL_KETS[lab] for lab in BB84_LABELS])
_FORWARD_OUTCOMES = np.column_stack([CANONICAL_KETS[lab] for lab in ALL_LABELS])
_REVERSED_INPUTS = _FORWARD_OUTCOMES
_REVERSED_OUTCOMES = _FORWARD_INPUTS


@dataclass(frozen=True)
class TrialConfig:
    """One Monte Carlo trial: direction, detection budget, noise model."""

    direction: Direction
    n_detected: int
    signal_fidelity: float
    background_mean: float = 0.0
    subtract_background: bool = False
    seed: int = 0

    def __post_init__(self):
        minimum = 4 if self.direction is Direction.FORWARD else 6
        if self.n_detected < minimum:
            raise ValueError(
                f"{self.direction.value} trials need at least {minimum} detections, "
                f"got {self.n_detected}"
            )
        if not 0.5 <= self.signal_fidelity <= 1.0:
            raise ValueError(
                f"signal fidelity must be in [0.5, 1], got {self.signal_fidelity!r}"
            )
        if self.background_mean < 0.0:
            raise ValueError(f"background mean must be >= 0, got {self.background_mean!r}")


@dataclass(frozen=True)
class SweepCell:
    """Aggregated residual-QBER statistics for one grid cell."""

    direction: Direction
    n_detected: int
    signal_fidelity: float
    background_mean: float
    subtract_background: bool
    samples: int
    failures: int
    mean_qber: float
    std_qber: float | None


@dataclass(frozen=True)
class FitResult:
    """Power-law parameters and log-space coefficient of determination."""

    alpha: float
    beta: float
    gamma: float
    r_squared: float

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "r_squared"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"fit produced non-finite {name}")
        if self.r_squared > 1.0 + 1e-12:
            raise ValueError(f"r_squared {self.r_squared!r} exceeds 1")


@dataclass
class SweepResult:
    cells: tuple[SweepCell, ...]
    fit: FitResult | None = None


@dataclass(frozen=True)
class BackgroundStudyCell:
    """Paired-trial comparison of running with vs without mean subtraction."""

    direction: Direction
    n_detected: int
    signal_fidelity: float
    background_mean: float
    samples: int
    failures: int
    mean_with_background: float
    std_with_background: float | None
    mean_subtracted: float
    std_subtracted: float | None
    delta: float
    std_delta: float | None


@dataclass
class BackgroundStudyResult:
    cells: tuple[BackgroundStudyCell, ...]

    def to_sweep_results(self) -> tuple[SweepResult, SweepResult]:
        """The two arms repackaged as plain sweep results (BG, BGS)."""
        bg, bgs = [], []
        for c in self.cells:
            common = dict(
                direction=c.direction,
                n_detected=c.n_detected,
                signal_fidelity=c.signal_fidelity,
                background_mean=c.background_mean,
                samples=c.samples,
                failures=c.failures,
            )
            bg.append(
                SweepCell(
                    subtract_background=False,
                    mean_qber=c.mean_with_background,
                    std_qber=c.std_with_background,
                    **common,
                )
            )
            bgs.append(
                SweepCell(
                    subtract_background=True,
                    mean_qber=c.mean_subtracted,
                    std_qber=c.std_subtracted,
                    **common,
                )
            )
        return SweepResult(cells=tuple(bg)), SweepResult(cells=tuple(bgs))


@dataclass(frozen=True)
class DetectionRateParams:
    """Weak-coherent-pulse link budget for the detection-rate estimate."""

    pulse_rate_hz: float
    mean_photon_number: float
    channel_transmission: float
    vacuum_yield: float = 0.0

    def __post_init__(self):
        if self.pulse_rate_hz < 0.0:
            raise ValueError(f"pulse rate must be >= 0 Hz, got {self.pulse_rate_hz!r}")
        if self.mean_photon_number < 0.0:
            raise ValueError(f"mean photon number must be >= 0, got {self.mean_photon_number!r}")
        if not 0.0 <= self.channel_transmission <= 1.0:
            raise ValueError(
                f"channel transmission must be in [0, 1], got {self.channel_transmission!r}"
            )
        if not 0.0 <= self.vacuum_yield <= 1.0:
            raise ValueError(f"vacuum yield must be in [0, 1], got {self.vacuum_yield!r}")


def expected_probabilities(
    u: ChannelUnitary, direction: Direction, signal_fidelity: float
) -> np.ndarray:
    """Exact per-event cell probabilities of the counting model.

    Entry (n, m) is the probability that a single detection lands in input
    row n and outcome column m: uniform input choice, uniform basis choice
    (three bases forward, two reversed), Born-rule outcome within the
    basis for the depolarized post-channel state.  Sums to one.
    """
    if direction is Direction.FORWARD:
        inputs, outcomes = _FORWARD_INPUTS, _FORWARD_OUTCOMES
    else:
        inputs, outcomes = _REVERSED_INPUTS, _REVERSED_OUTCOMES
    n_in = inputs.shape[1]
    n_bases = 3 if direction is Direction.FORWARD else 2
    fs = signal_fidelity
    overlap = np.abs(outcomes.conj().T @ (u.entries @ inputs)) ** 2  # (outcomes, inputs)
    born = (2.0 * fs - 1.0) * overlap + (1.0 - fs)
    return born.T / (n_in * n_bases)


def expected_background_per_cell(cfg: TrialConfig) -> float:
    """Mean background counts landing in each (row, column) cell."""
    n_rows = 4 if cfg.direction is Direction.FORWARD else 6
    return cfg.background_mean / n_rows


def generate_counts(
    u: ChannelUnitary, cfg: TrialConfig, rng: np.random.Generator
) -> CountMatrix:
    """Stochastic count matrix for one trial.

    Signal: ``n_detected`` events multinomially allocated over (input,
    basis, outcome) cells.  Background: an independent Poisson draw per
    detector column, spread uniformly over input rows (background is
    uncorrelated with the preparation).  With ``subtract_background`` the
    pre-calibrated mean is removed per cell, clipping at zero so no count
    goes negative.
    """
    p = expected_probabilities(u, cfg.direction, cfg.signal_fidelity)
    counts = rng.multinomial(cfg.n_detected, p.ravel()).reshape(p.shape).astype(float)
    if cfg.background_mean > 0.0:
        n_rows, n_cols = p.shape
        per_detector = rng.poisson(cfg.background_mean, size=n_cols)
        row_share = np.full(n_rows, 1.0 / n_rows)
        for j in range(n_cols):
            counts[:, j] += rng.multinomial(per_detector[j], row_share)
        if cfg.subtract_background:
            counts = np.clip(counts - expected_background_per_cell(cfg), 0.0, None)
            return CountMatrix(cfg.direction, counts, background_subtracted=True)
    return CountMatrix(cfg.direction, counts)


def run_trial(cfg: TrialConfig, rng: np.random.Generator | None = None) -> float:
    """One end-to-end protocol trial; returns the residual QBER.

    Draws the channel, simulates counting, reconstructs, optimizes the
    compensation (no motion penalty), and scores the compensation against
    the true channel.  Tomography errors propagate: sweeps record them as
    failed trials rather than dropping them silently.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    u = haar_random_unitary(rng)
    cm = generate_counts(u, cfg, rng)
    if cfg.direction is Direction.FORWARD:
        recon = reconstruct_forward(cm)
    else:
        recon = reconstruct_reversed(cm)
    result = optimize(recon)
    return residual_qber(u, result.angles)


def _float_bits(x: float) -> int:
    return int(np.float64(x).view(np.uint64))


def trial_seed_sequence(
    master_seed: int,
    direction: Direction,
    n_detected: int,
    signal_fidelity: float,
    background_mean: float,
    trial_index: int,
) -> np.random.SeedSequence:
    """Per-trial seed derived from the cell coordinates and trial index.

    Deliberately excludes the subtraction flag so that paired background
    studies replay identical draws in both arms.
    """
    dir_code = 0 if direction is Direction.FORWARD else 1
    return np.random.SeedSequence(
        [
            int(master_seed),
            dir_code,
            int(n_detected),
            _float_bits(signal_fidelity),
            _float_bits(background_mean),
            int(trial_index),
        ]
    )


def _trial_rng(ss: np.random.SeedSequence) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(ss))


def _cell_configs(directions, n_values, fs_values, background_means, subtract_background):
    cells = []
    for direction, n, fs, bg in product(directions, n_values, fs_values, background_means):
        cells.append(
            TrialConfig(
                direction=Direction(direction),
                n_detected=int(n),
                signal_fidelity=float(fs),
                background_mean=float(bg),
                subtract_background=bool(subtract_background),
            )
        )
    return cells


def _sweep_block(args):
    master_seed, cfg, start, stop = args
    values = []
    failures = 0
    for t in range(start, stop):
        ss = trial_seed_sequence(
            master_seed, cfg.direction, cfg.n_detected, cfg.signal_fidelity,
            cfg.background_mean, t,
        )
        try:
            values.append(run_trial(cfg, _trial_rng(ss)))
        except (InsufficientCountsError, MLEConvergenceError):
            failures += 1
    return values, failures


def _study_block(args):
    master_seed, cfg, start, stop = args
    with_bg, subtracted = [], []
    failures = 0
    for t in range(start, stop):
        ss = trial_seed_sequence(
            master_seed, cfg.direction, cfg.n_detected, cfg.signal_fidelity,
            cfg.background_mean, t,
        )
        try:
            value_bg = run_trial(replace(cfg, subtract_background=False), _trial_rng(ss))
            value_bgs = run_trial(replace(cfg, subtract_background=True), _trial_rng(ss))
        except (InsufficientCountsError, MLEConvergenceError):
            failures += 1
            continue
        with_bg.append(value_bg)
        subtracted.append(value_bgs)
    return with_bg, subtracted, failures


def _map_blocks(worker, tasks, jobs: int):
    if jobs <= 1 or len(tasks) <= 1:
        return [worker(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, tasks))


def _blocks_for(cells, samples):
    tasks = []
    spans = []
    for idx, cfg in enumerate(cells):
        cell_tasks = []
        for start in range(0, samples, _BLOCK_SIZE):
            cell_tasks.append((cfg, start, min(start + _BLOCK_SIZE, samples)))
        spans.append((idx, len(tasks), len(tasks) + len(cell_tasks)))
        tasks.extend(cell_tasks)
    return tasks, spans


def _moments(values) -> tuple[float, float | None]:
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    std = float(arr.std(ddof=1)) if arr.size >= 2 else None
    return mean, std


def _check_failures(cfg: TrialConfig, failures: int, samples: int):
    if failures > MAX_FAILURE_FRACTION * samples:
        raise SweepError(
            f"cell (direction={cfg.direction.value}, n={cfg.n_detected}, "
            f"fs={cfg.signal_fidelity}, bg={cfg.background_mean}): "
            f"{failures}/{samples} trials failed, above the "
            f"{MAX_FAILURE_FRACTION:.0%} tolerance"
        )


def run_sweep(
    directions,
    n_values,
    fs_values,
    samples: int,
    master_seed: int,
    background_means=(0.0,),
    subtract_background: bool = False,
    jobs: int = 1,
) -> SweepResult:
    """Mean and standard deviation of the residual QBER over a grid.

    Cell order is the cartesian product (direction, N, F_S, background) in
    the order given.  Failed trials are excluded from the moments but
    counted; a cell aborts the sweep if more than 1% of its trials fail,
    since at realistic N any failure indicates a modeling bug.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    cells = _cell_configs(directions, n_values, fs_values, background_means, subtract_background)
    if not cells:
        raise ValueError("empty sweep grid")
    tasks, spans = _blocks_for(cells, samples)
    worker_args = [(master_seed, cfg, start, stop) for cfg, start, stop in tasks]
    results = _map_blocks(_sweep_block, worker_args, jobs)

    out = []
    for idx, lo, hi in spans:
        cfg = cells[idx]
        values = []
        failures = 0
        for block_values, block_failures in results[lo:hi]:
            values.extend(block_values)
            failures += block_failures
        _check_failures(cfg, failures, samples)
        mean, std = _moments(values)
        out.append(
            SweepCell(
                direction=cfg.direction,
                n_detected=cfg.n_detected,
                signal_fidelity=cfg.signal_fidelity,
                background_mean=cfg.background_mean,
                subtract_background=cfg.subtract_background,
                samples=samples,
                failures=failures,
                mean_qber=mean,
                std_qber=std,
            )
        )
    return SweepResult(cells=tuple(out))


def background_study(
    directions,
    n_values,
    fs_values,
    background_means,
    samples: int,
    master_seed: int,
    jobs: int = 1,
) -> BackgroundStudyResult:
    """Paired with/without-subtraction comparison on shared random draws.

    Both arms of each trial replay the same channel, signal and background
    counts; only the mean-subtraction step differs, so the reported delta
    isolates the subtraction strategy itself.  A pair failing in either
    arm is excluded from both.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    cells = _cell_configs(directions, n_values, fs_values, background_means, False)
    if not cells:
        raise ValueError("empty study grid")
    tasks, spans = _blocks_for(cells, samples)
    worker_args = [(master_seed, cfg, start, stop) for cfg, start, stop in tasks]
    results = _map_blocks(_study_block, worker_args, jobs)

    out = []
    for idx, lo, hi in spans:
        cfg = cells[idx]
        with_bg, subtracted = [], []
        failures = 0
        for block_bg, block_bgs, block_failures in results[lo:hi]:
            with_bg.extend(block_bg)
            subtracted.extend(block_bgs)
            failures += block_failures
        _check_failures(cfg, failures, samples)
        mean_bg, std_bg = _moments(with_bg)
        mean_bgs, std_bgs = _moments(subtracted)
        diffs = np.asarray(subtracted) - np.asarray(with_bg)
        _, std_delta = _moments(diffs)
        out.append(
            BackgroundStudyCell(
                direction=cfg.direction,
                n_detected=cfg.n_detected,
                signal_fidelity=cfg.signal_fidelity,
                background_mean=cfg.background_mean,
                samples=samples,
                failures=failures,
                mean_with_background=mean_bg,
                std_with_background=std_bg,
                mean_subtracted=mean_bgs,
                std_subtracted=std_bgs,
                delta=mean_bgs - mean_bg,
                std_delta=std_delta,
            )
        )
    return BackgroundStudyResult(cells=tuple(out))


def fit_power_law(sweep, select=None) -> FitResult:
    """Least-squares fit of log mean QBER against log(2 F_S - 1) and log N.

    ``select`` optionally filters the cells entering the fit.  Requires at
    least four cells spanning two distinct N and two distinct F_S; a
    regressor without spread aborts with a :class:`FitError` naming it.
    """
    cells = sweep.cells if isinstance(sweep, SweepResult) else tuple(sweep)
    if select is not None:
        cells = tuple(c for c in cells if select(c))
    for c in cells:
        if c.mean_qber <= 0.0:
            raise FitError(
                f"cell (n={c.n_detected}, fs={c.signal_fidelity}) has non-positive "
                "mean QBER; it cannot enter a log-space fit"
            )
        if c.signal_fidelity <= 0.5:
            raise FitError(
                f"cell (n={c.n_detected}, fs={c.signal_fidelity}) has F_S <= 0.5; "
                "the fidelity regressor log(2 F_S - 1) is undefined there"
            )
    if len(cells) < 4:
        raise FitError(f"need at least four cells to fit, got {len(cells)}")
    n_values = {c.n_detected for c in cells}
    fs_values = {c.signal_fidelity for c in cells}
    if len(n_values) < 2:
        raise FitError("no spread in the photon-number regressor N", regressor="n")
    if len(fs_values) < 2:
        raise FitError("no spread in the signal-fidelity regressor F_S", regressor="fs")

    y = np.log([c.mean_qber for c in cells])
    x1 = np.log([2.0 * c.signal_fidelity - 1.0 for c in cells])
    x2 = np.log([float(c.n_detected) for c in cells])
    design = np.column_stack([np.ones_like(y), x1, x2])
    coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    residuals = y - design @ coef
    ss_res = float(residuals @ residuals)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    return FitResult(
        alpha=float(math.exp(coef[0])),
        beta=float(coef[1]),
        gamma=float(coef[2]),
        r_squared=r_squared,
    )


def expected_detection_rate(p: DetectionRateParams) -> float:
    """Expected weak-coherent-pulse detection rate in Hz.

    rate = R * (1 - (1 - Y0) * exp(-eta * mu)); with zero vacuum yield and
    a lossy channel this is approximately R * eta * mu.
    """
    return p.pulse_rate_hz * (
        1.0
        - (1.0 - p.vacuum_yield) * math.exp(-p.channel_transmission * p.mean_photon_number)
    )
