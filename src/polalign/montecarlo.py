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
count.  A block of trials seeds each trial with the uint32 words NumPy
makes of :func:`trial_seed_sequence`'s list, the cell's words computed
once per block, so both give the same stream.  Mean-background
subtraction is a deterministic step on a drawn count matrix, not part of
the draw: one trial draws its channel and counts once and scores every
requested arm (without and/or with subtraction) from that one draw.  A
paired background study is the sweep engine asked for both arms, so its
pairs share their channel and counts by construction.
"""

from __future__ import annotations

import math
import struct
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import chain, product

import numpy as np

from .compensation import optimize, residual_qber
from .errors import FitError, InsufficientCountsError, SweepError
from .polarization import ChannelUnitary, haar_random_unitary
from .tomography import (
    CountMatrix,
    Direction,
    reconstruct_forward,
    reconstruct_reversed,
)

#: largest fraction of failed trials a sweep cell tolerates before aborting
MAX_FAILURE_FRACTION = 0.01
#: largest detection budget a trial can draw (NumPy's int64 multinomial)
MAX_DETECTIONS = int(np.iinfo(np.int64).max)
#: largest mean background NumPy's Poisson sampler accepts
MAX_BACKGROUND_MEAN = float(MAX_DETECTIONS - 10.0 * math.sqrt(MAX_DETECTIONS))
_BLOCK_SIZE = 250


@dataclass(frozen=True)
class TrialConfig:
    """One Monte Carlo trial: direction, detection budget, noise model."""

    direction: Direction
    n_detected: int
    signal_fidelity: float
    background_mean: float = 0.0

    def __post_init__(self):
        minimum = 4 if self.direction is Direction.FORWARD else 6
        if self.n_detected < minimum:
            raise ValueError(
                f"{self.direction.value} trials need at least {minimum} detections, "
                f"got {self.n_detected}"
            )
        if self.n_detected > MAX_DETECTIONS:
            raise ValueError(
                f"detection budget {self.n_detected} is above the largest supported "
                f"budget {MAX_DETECTIONS}"
            )
        if not 0.5 <= self.signal_fidelity <= 1.0:
            raise ValueError(
                f"signal fidelity must be in [0.5, 1], got {self.signal_fidelity!r}"
            )
        if not 0.0 <= self.background_mean <= MAX_BACKGROUND_MEAN:  # NaN fails both
            raise ValueError(
                f"background mean must be in [0, {MAX_BACKGROUND_MEAN:g}], "
                f"got {self.background_mean!r}"
            )


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
                raise FitError(f"fit produced non-finite {name}")
        if self.r_squared > 1.0 + 1e-12:
            raise FitError(f"r_squared {self.r_squared!r} exceeds 1")


@dataclass
class SweepResult:
    cells: tuple[SweepCell, ...]


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


@dataclass(frozen=True)
class DetectionRateParams:
    """Weak-coherent-pulse link budget for the detection-rate estimate."""

    pulse_rate_hz: float
    mean_photon_number: float
    channel_transmission: float
    vacuum_yield: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.pulse_rate_hz < math.inf:
            raise ValueError(
                f"pulse rate must be finite and >= 0 Hz, got {self.pulse_rate_hz!r}"
            )
        if not 0.0 <= self.mean_photon_number < math.inf:
            raise ValueError(
                f"mean photon number must be finite and >= 0, got {self.mean_photon_number!r}"
            )
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

    Both directions have 12 (input, basis) pairs, and each input and
    outcome is a signed Stokes axis, so with R the Stokes rotation of U
    every entry is (1 +- (2 F_S - 1) R_kj)/24: outcome axis k, input axis j.
    Forward reads the columns R e1 and R e2 (inputs H/V and D/A), reversed
    the rows 0 and 1 (outcomes H/V and D/A).  With U = [[a, b], [c, d]]:

        R e1 = (|a|^2 - |b|^2, Re(a c* - b d*), -Im(a c* - b d*))
        R e2 = (Re(a b* - c d*), Re(a d* + b c*), -Im(a d* + b c*))
        R_02 = Im(a b* - c d*),  R_12 = Im(a d* - b c*)
    """
    (a, b), (c, d) = u.entries.tolist()
    ac = a * c.conjugate() - b * d.conjugate()
    ab = a * b.conjugate() - c * d.conjugate()
    ad = a * d.conjugate() + b * c.conjugate()
    r00 = (a.real * a.real + a.imag * a.imag) - (b.real * b.real + b.imag * b.imag)
    f = 2.0 * signal_fidelity - 1.0
    forward = direction is Direction.FORWARD
    if forward:
        axes = ((r00, ac.real, -ac.imag), (ab.real, ad.real, -ad.imag))
    else:
        r12 = (a * d.conjugate() - b * c.conjugate()).imag
        axes = ((r00, ab.real, ab.imag), (ac.real, ad.real, r12))
    cells = []
    for x0, x1, x2 in axes:
        x0, x1, x2 = f * x0, f * x1, f * x2
        h0, l0, h1, l1, h2, l2 = ((1.0 + x0) / 24.0, (1.0 - x0) / 24.0, (1.0 + x1) / 24.0,
                                  (1.0 - x1) / 24.0, (1.0 + x2) / 24.0, (1.0 - x2) / 24.0)
        # the opposite input (outcome) of the axis swaps each pair
        cells += (h0, l0, h1, l1, h2, l2, l0, h0, l1, h1, l2, h2)
    p = np.array(cells).reshape(4, 6)
    return p if forward else p.T


def expected_background_per_cell(cfg: TrialConfig) -> float:
    """Mean background counts landing in each (row, column) cell."""
    n_rows = 4 if cfg.direction is Direction.FORWARD else 6
    return cfg.background_mean / n_rows


def generate_counts(
    u: ChannelUnitary, cfg: TrialConfig, rng: np.random.Generator
) -> CountMatrix:
    """Stochastic count matrix for one trial, as the detectors record it.

    Signal: ``n_detected`` events multinomially allocated over (input,
    basis, outcome) cells.  Background: an independent Poisson draw per
    detector column, spread uniformly over input rows (background is
    uncorrelated with the preparation).  Nothing is subtracted here:
    :func:`run_trial` subtracts the mean background from this draw in each
    arm that asks for it.
    """
    p = expected_probabilities(u, cfg.direction, cfg.signal_fidelity)
    counts = rng.multinomial(cfg.n_detected, p.ravel()).reshape(p.shape)
    if cfg.background_mean > 0.0:
        n_rows, n_cols = p.shape
        per_detector = rng.poisson(cfg.background_mean, size=n_cols)
        # one row-share draw per column, in column order; summed as floats,
        # where int64 could overflow
        counts = np.add(counts, rng.multinomial(per_detector, np.full(n_rows, 1.0 / n_rows)).T,
                        dtype=float)
    return CountMatrix(cfg.direction, counts)


def run_trial(
    cfg: TrialConfig, rng: np.random.Generator, arms: tuple[bool, ...]
) -> tuple[float, ...]:
    """One end-to-end protocol trial; the residual QBER of each arm.

    Draws the channel and the counts once.  Each entry of ``arms`` is a
    subtraction flag: that arm reconstructs from the drawn counts, with the
    mean background subtracted where the flag is set (a no-op without
    background), optimizes the compensation and scores
    it against the true channel.  Every arm scores the same draw.
    Tomography errors propagate (a trial fails if any arm does): sweeps
    record them as failed trials rather than dropping them silently.
    """
    u = haar_random_unitary(rng)
    drawn = generate_counts(u, cfg, rng)
    reconstruct = (reconstruct_forward if cfg.direction is Direction.FORWARD
                   else reconstruct_reversed)
    qbers = []
    for subtract in arms:
        cm = drawn
        if subtract and cfg.background_mean > 0.0:
            # the pre-calibrated mean per cell, clipped so no count goes negative
            counts = np.maximum(drawn.counts - expected_background_per_cell(cfg), 0.0)
            cm = CountMatrix(cfg.direction, counts, background_subtracted=True)
        result = optimize(reconstruct(cm))
        qbers.append(residual_qber(u, result.angles, cfg.direction))
    return tuple(qbers)


def _float_bits(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", x))[0]


def _cell_seed_coordinates(master_seed, direction, n_detected, signal_fidelity,
                           background_mean) -> list[int]:
    """The seed entropy of a cell, before the trial index: float coordinates as their bits."""
    dir_code = 0 if direction is Direction.FORWARD else 1
    return [int(master_seed), dir_code, int(n_detected), _float_bits(signal_fidelity),
            _float_bits(background_mean)]


def _uint32_words(values) -> list[int]:
    """The uint32 words SeedSequence makes of non-negative ints: little-endian, 0 as [0]."""
    words = []
    for v in values:
        if v < 0:
            raise ValueError(f"seed entropy must be non-negative, got {v}")
        words.append(v & 0xFFFFFFFF)
        v >>= 32
        while v:
            words.append(v & 0xFFFFFFFF)
            v >>= 32
    return words


def trial_seed_sequence(
    master_seed: int,
    direction: Direction,
    n_detected: int,
    signal_fidelity: float,
    background_mean: float,
    trial_index: int,
) -> np.random.SeedSequence:
    """Per-trial seed derived from the cell coordinates and trial index.

    Mean-background subtraction is not a coordinate: it acts on the drawn
    counts, so every arm of a trial shares the one draw.
    """
    coordinates = _cell_seed_coordinates(master_seed, direction, n_detected, signal_fidelity,
                                         background_mean)
    return np.random.SeedSequence(coordinates + [int(trial_index)])


def _trial_rng(ss: np.random.SeedSequence) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(ss))


def _cell_configs(directions, n_values, fs_values, background_means):
    cells = []
    for direction, n, fs, bg in product(directions, n_values, fs_values, background_means):
        cells.append(
            TrialConfig(
                direction=Direction(direction),
                n_detected=int(n),
                signal_fidelity=float(fs),
                background_mean=float(bg),
            )
        )
    return cells


def _block(args):
    """Per-arm residual QBER of trials ``start``..``stop - 1`` of one cell; None where one failed."""
    master_seed, cfg, arms, start, stop = args
    # the words of trial_seed_sequence's entropy, the cell's taken once
    cell_words = _uint32_words(_cell_seed_coordinates(
        master_seed, cfg.direction, cfg.n_detected, cfg.signal_fidelity, cfg.background_mean))
    values = []
    for t in range(start, stop):
        ss = np.random.SeedSequence(np.array(cell_words + _uint32_words((t,)), dtype=np.uint32))
        try:
            values.append(run_trial(cfg, _trial_rng(ss), arms))
        except InsufficientCountsError:
            values.append(None)
    return values


def _run_cells(
    cells, arms, samples: int, master_seed: int, jobs: int
) -> list[list[tuple[float, ...] | None]]:
    """Every cell's per-arm residual QBER per trial, in trial order, None for a failed trial.

    Each cell runs in blocks of ``_BLOCK_SIZE`` trials, spread over ``jobs``
    worker processes; a trial's draws depend only on its seed, never on the
    block or worker that runs it.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if not cells:
        raise ValueError("empty sweep grid")
    starts = range(0, samples, _BLOCK_SIZE)
    tasks = [(master_seed, cfg, arms, start, min(start + _BLOCK_SIZE, samples))
             for cfg in cells for start in starts]
    if jobs <= 1 or len(tasks) <= 1:
        blocks = [_block(task) for task in tasks]
    else:
        # a fork-started pool starts all its workers at the first submit
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            blocks = list(pool.map(_block, tasks))
    per_cell = len(starts)
    return [list(chain.from_iterable(blocks[i:i + per_cell]))
            for i in range(0, len(blocks), per_cell)]


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
    cells = _cell_configs(directions, n_values, fs_values, background_means)
    subtract_background = bool(subtract_background)
    out = []
    for cfg, trials in zip(cells, _run_cells(cells, (subtract_background,), samples,
                                             master_seed, jobs)):
        values = [qbers[0] for qbers in trials if qbers is not None]
        failures = samples - len(values)
        _check_failures(cfg, failures, samples)
        mean, std = _moments(values)
        out.append(
            SweepCell(
                direction=cfg.direction,
                n_detected=cfg.n_detected,
                signal_fidelity=cfg.signal_fidelity,
                background_mean=cfg.background_mean,
                subtract_background=subtract_background,
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

    Each trial draws its channel, signal and background counts once and
    scores both arms from that draw: without subtraction, and with the
    mean background subtracted.  Only the subtraction step differs, so the
    reported delta isolates the subtraction strategy itself, and each arm
    equals :func:`run_sweep` run with that flag.  A pair failing in either
    arm is excluded from both.
    """
    cells = _cell_configs(directions, n_values, fs_values, background_means)
    out = []
    for cfg, trials in zip(cells, _run_cells(cells, (False, True), samples, master_seed, jobs)):
        pairs = [qbers for qbers in trials if qbers is not None]
        failures = samples - len(pairs)
        _check_failures(cfg, failures, samples)
        with_bg, subtracted = zip(*pairs)
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
    regressor without spread aborts with a :class:`FitError` naming it, and
    a cell outside the model's domain (mean QBER <= 0, F_S outside
    (0.5, 1], N < 1) with one naming the cell.
    """
    cells = sweep.cells if isinstance(sweep, SweepResult) else tuple(sweep)
    if select is not None:
        cells = tuple(c for c in cells if select(c))
    for c in cells:
        where = f"cell (n={c.n_detected}, fs={c.signal_fidelity})"
        if c.mean_qber <= 0.0:
            raise FitError(f"{where} has non-positive mean QBER; it cannot enter a log-space fit")
        if c.signal_fidelity <= 0.5:
            raise FitError(
                f"{where} has F_S <= 0.5; the fidelity regressor log(2 F_S - 1) is undefined there"
            )
        if c.signal_fidelity > 1.0:
            raise FitError(f"{where} has F_S > 1; a signal fidelity is at most 1")
        if c.n_detected < 1:
            raise FitError(
                f"{where} has N < 1; the photon-number regressor log N is undefined there"
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
    try:
        alpha = math.exp(coef[0])
    except OverflowError:
        # an intercept past exp's range (a subnormal mean QBER can give one)
        # makes alpha infinite, which FitResult rejects
        alpha = math.inf
    return FitResult(
        alpha=alpha,
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
