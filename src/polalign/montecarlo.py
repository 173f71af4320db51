"""Monte Carlo characterization of the alignment protocol.

Each trial takes a Haar-random channel, simulates photon counting with a
finite detection budget, intrinsic signal fidelity and optional Poissonian
detector background, runs the tomography + compensation pipeline, and
scores the residual QBER of ideal signal states through the compensated
channel.  Past the Haar draw a channel is its two Stokes axes
(:func:`stokes_axes`): the count probabilities are read from them, and the
score compares them with the compensation's Stokes rotation, so no trial
builds a Jones matrix.  Sweeps aggregate trials over a (direction, N, F_S,
background) grid and fit the mean residual QBER to the power law

    E(F_S, N) = alpha * (2 F_S - 1)^beta * N^gamma

by ordinary least squares in log space.

Determinism: each cell runs in blocks of ``_BLOCK_SIZE`` trials.  A
block's generator is seeded through NumPy's ``SeedSequence`` from the
master seed, the cell coordinates and the block index.  The block then
draws a full block of trials in one pass, each draw one array call: the
Haar channels from one ``random((_BLOCK_SIZE, 4))``, then, from their
Stokes axes computed once for the block, the signal counts from one
multinomial over the block's cell probabilities, and with background one
Poisson count per cell.  Only then are its trials run, so a trial's
draws depend on its cell, its block and its place in the block, never on
how many of the block's trials the cell runs or on the worker that runs
it.  A cell's first k trials are the same for any sample count of at
least k, and results are bit-identical for any worker count.  The counts
of the trials run are checked once for the block, and their tomography is
fitted once for the block, where its matrices are built, or trial by
trial when the block runs only a few (:meth:`CountMatrix.block`).  Then
each trial is compensated and scored, one by one: it scores the
compensation's Stokes rotation without choosing plate angles.

A sweep scores the drawn counts as the detectors record them, background
and all.  Only :func:`background_study` subtracts the mean background:
once per block, a deterministic step on the drawn counts that is no part
of the draw or the seed, so each of its pairs scores one draw twice.
"""

from __future__ import annotations

import math
import os
import struct
import sys
from collections.abc import Iterable
from dataclasses import asdict, dataclass
from itertools import chain, product

import numpy as np

from .compensation import optimize, residual_qber
from .errors import ConfigError, FitError, InsufficientCountsError, SweepError, _integer, _real
from .polarization import haar_random_unitary
from .tomography import (
    ROW_LABELS,
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
    """One Monte Carlo trial: direction, detection budget, noise model.

    Each field is checked and stored as its type, a :class:`Direction` or a
    number by the package's one rule of its type; a bad value is a
    :class:`ConfigError` on its field.
    """

    direction: Direction
    n_detected: int
    signal_fidelity: float
    background_mean: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "direction", Direction(self.direction))
        for name, check in (("n_detected", _integer), ("signal_fidelity", _real),
                            ("background_mean", _real)):
            object.__setattr__(self, name, check(getattr(self, name), name))
        minimum = 4 if self.direction is Direction.FORWARD else 6
        if self.n_detected < minimum:
            raise ConfigError(
                f"{self.direction.value} trials need at least {minimum} detections, "
                f"got {self.n_detected}", field="n_detected"
            )
        if self.n_detected > MAX_DETECTIONS:
            raise ConfigError(
                f"detection budget {self.n_detected} is above the largest supported "
                f"budget {MAX_DETECTIONS}", field="n_detected"
            )
        if not 0.5 <= self.signal_fidelity <= 1.0:
            raise ConfigError(
                f"signal fidelity must be in [0.5, 1], got {self.signal_fidelity!r}",
                field="signal_fidelity",
            )
        # the sampler draws each cell at the mean over the input rows
        if not 0.0 <= expected_background_per_cell(self) <= MAX_BACKGROUND_MEAN:  # NaN fails
            largest = MAX_BACKGROUND_MEAN * len(ROW_LABELS[self.direction])
            raise ConfigError(
                f"background mean must be in [0, {largest:g}] for {self.direction.value} "
                f"trials, got {self.background_mean!r}", field="background_mean"
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


def stokes_axes(entries: np.ndarray, direction: Direction) -> np.ndarray:
    """The two Stokes axes of each channel that its counts and its score read, shape (..., 2, 3).

    ``entries`` holds 2x2 channel unitaries with shape (..., 2, 2), and R
    is the rotation each applies to Stokes vectors.  Forward gives the
    columns R e1 and R e2 (the images of the H/V and D/A inputs), reversed
    the rows 0 and 1 (the preimages of the H/V and D/A outcomes).  With
    U = [[a, b], [c, d]]:

        R e1 = (|a|^2 - |b|^2, Re(a c* - b d*), -Im(a c* - b d*))
        R e2 = (Re(a b* - c d*), Re(a d* + b c*), -Im(a d* + b c*))
        R_02 = Im(a b* - c d*),  R_12 = Im(a d* - b c*)
    """
    forward = Direction(direction) is Direction.FORWARD
    entries = np.asarray(entries, dtype=complex)
    batch = entries.shape[:-2]
    a, b = entries[..., 0, 0], entries[..., 0, 1]
    c, d = entries[..., 1, 0], entries[..., 1, 1]
    ac = a * c.conj() - b * d.conj()
    ab = a * b.conj() - c * d.conj()
    ad = a * d.conj() + b * c.conj()
    r00 = (a.real * a.real + a.imag * a.imag) - (b.real * b.real + b.imag * b.imag)
    if forward:
        axes = (r00, ac.real, -ac.imag, ab.real, ad.real, -ad.imag)
    else:
        r12 = (a * d.conj() - b * c.conj()).imag
        axes = (r00, ab.real, ab.imag, ac.real, ad.real, r12)
    return np.stack(axes, axis=-1).reshape(*batch, 2, 3)


def expected_probabilities(
    axes: np.ndarray, direction: Direction, signal_fidelity: float
) -> np.ndarray:
    """Exact per-event cell probabilities of the counting model, per channel.

    ``axes`` holds each channel's :func:`stokes_axes` for ``direction``,
    shape (..., 2, 3); the result has shape (..., 4, 6) forward and
    (..., 6, 4) reversed.  Entry (n, m) is the probability that a single
    detection lands in input row n and outcome column m: uniform input
    choice, uniform basis choice (three bases forward, two reversed),
    Born-rule outcome within the basis for the depolarized post-channel
    state.  Each matrix sums to one.

    Both directions have 12 (input, basis) pairs, and each input and
    outcome is a signed Stokes axis, so with R the Stokes rotation of the
    channel every entry is (1 +- (2 F_S - 1) R_kj)/24: outcome axis k,
    input axis j.  Forward reads the columns R e1 and R e2 (inputs H/V and
    D/A), reversed the rows 0 and 1 (outcomes H/V and D/A).
    """
    forward = Direction(direction) is Direction.FORWARD
    axes = np.asarray(axes, dtype=float)
    batch = axes.shape[:-2]
    x = (2.0 * signal_fidelity - 1.0) * axes
    # the (+, -) outcomes (inputs) of each of the three axes, interleaved;
    # the opposite input (outcome) of the axis swaps each pair
    plus = np.stack(((1.0 + x) / 24.0, (1.0 - x) / 24.0), axis=-1)
    p = np.stack((plus, plus[..., ::-1]), axis=-3).reshape(*batch, 4, 6)
    return p if forward else np.swapaxes(p, -1, -2)


def expected_background_per_cell(cfg: TrialConfig) -> float:
    """Mean background counts landing in each (row, column) cell."""
    return cfg.background_mean / len(ROW_LABELS[cfg.direction])


def generate_counts(
    axes: np.ndarray, cfg: TrialConfig, rng: np.random.Generator
) -> np.ndarray:
    """Stochastic count matrices, as the detectors record them, one per channel.

    ``axes`` holds each channel's :func:`stokes_axes`, shape (..., 2, 3);
    the counts have the shape of :func:`expected_probabilities`.  Signal:
    one multinomial call allocates ``n_detected`` events over the (input,
    basis, outcome) cells of every channel.  Background: one Poisson call
    draws every cell of every channel at :func:`expected_background_per_cell`,
    as a detector's Poisson count, spread uniformly over the input rows (it
    is uncorrelated with the preparation), is one Poisson count per row.
    With background the counts are floats.  Nothing is subtracted here.
    """
    p = expected_probabilities(axes, cfg.direction, cfg.signal_fidelity)
    *batch, n_rows, n_cols = p.shape
    counts = rng.multinomial(cfg.n_detected, p.reshape(*batch, n_rows * n_cols)).reshape(p.shape)
    if cfg.background_mean > 0.0:
        background = rng.poisson(expected_background_per_cell(cfg), size=p.shape)
        # summed as floats, where int64 could overflow
        counts = np.add(counts, background, dtype=float)
    return counts


def run_trial(cm: CountMatrix, axes) -> float:
    """One end-to-end protocol trial: the residual QBER of the compensation found from ``cm``.

    ``cm`` holds counts drawn through a channel whose :func:`stokes_axes`
    are ``axes``, a 2x3 nested sequence; the compensation's Wahba rotation
    is scored against them, in either direction by one formula, and no
    plate angles are chosen.  Tomography errors propagate: sweeps record
    them as failed trials rather than dropping them silently.
    """
    reconstruct = (reconstruct_forward if cm.direction is Direction.FORWARD
                   else reconstruct_reversed)
    return residual_qber(axes, optimize(reconstruct(cm), plates=False).rotation)


def cpu_count() -> int:
    """The machine's CPU count, at least 1: the default and the cap of a sweep's workers."""
    return max(1, os.cpu_count() or 1)


def _float_bits(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", x))[0]


def _cell_seed_coordinates(master_seed, direction, n_detected, signal_fidelity,
                           background_mean) -> list[int]:
    """The seed entropy of a cell, before the block index: float coordinates as their bits."""
    dir_code = 0 if direction is Direction.FORWARD else 1
    return [master_seed, dir_code, n_detected, _float_bits(signal_fidelity),
            _float_bits(background_mean)]


def _cell_configs(directions, n_values, fs_values, background_means) -> list[TrialConfig]:
    """Every grid cell's checked :class:`TrialConfig`, in (direction, N, F_S, background) order."""
    grid = []
    for field, values in zip(("direction", "n_detected", "signal_fidelity", "background_mean"),
                             (directions, n_values, fs_values, background_means)):
        if isinstance(values, (str, bytes)) or not isinstance(values, Iterable):
            raise ConfigError(f"sweep grid {field} must be a list of values, got {values!r}",
                              field=field)
        grid.append(tuple(values))
        if not grid[-1]:
            raise ConfigError(f"empty sweep grid: no {field} values", field=field)
    return [TrialConfig(*cell) for cell in product(*grid)]


def _block(args):
    """Residual QBER of trials ``start``..``stop - 1`` of one cell; None where one failed.

    Draws the channels and counts of a full block whatever ``stop`` is, so
    a trial's draws do not depend on the cell's sample count, and scores
    the first ``stop - start`` of them.  Their counts alone are checked, once
    for the block, and fitted as :meth:`CountMatrix.block` chooses.  With ``subtract`` a
    trial is a pair from its one draw: the drawn counts, then those less
    the mean background per cell.  A pair that fails in either arm is None,
    so at background 0 the arms agree: the subtracted arm's tolerance of an
    empty basis pair acts only where the raw arm has failed.
    """
    master_seed, cfg, subtract, start, stop = args
    coordinates = _cell_seed_coordinates(master_seed, cfg.direction, cfg.n_detected,
                                         cfg.signal_fidelity, cfg.background_mean)
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(coordinates, spawn_key=(start // _BLOCK_SIZE,))))
    axes = stokes_axes(haar_random_unitary(rng, _BLOCK_SIZE), cfg.direction)
    counts = generate_counts(axes, cfg, rng)
    counts = counts[:stop - start]
    matrices = CountMatrix.block(cfg.direction, counts)
    if subtract:
        # the pre-calibrated mean per cell, clipped so no count goes negative
        subtracted = CountMatrix.block(
            cfg.direction, np.maximum(counts - expected_background_per_cell(cfg), 0.0),
            background_subtracted=True)
    # as Python floats, for the scalar score
    axes = axes[:stop - start].tolist()
    values = []
    for i, cm in enumerate(matrices):
        try:
            qber = run_trial(cm, axes[i])
            if subtract:
                qber = (qber, run_trial(subtracted[i], axes[i]))
        except InsufficientCountsError:
            qber = None
        values.append(qber)
    return values


def _run_cells(grid, subtract: bool, samples, master_seed, jobs) -> list[tuple[dict, list]]:
    """Each cell's shared fields and its surviving :func:`_block` values, in trial order.

    ``grid`` is the (directions, n_values, fs_values, background_means) of a
    sweep; every input is checked before any block runs.  The shared fields
    are the :class:`SweepCell` and :class:`BackgroundStudyCell` fields of the
    cell's coordinates, ``samples`` (an int) and ``failures``: failed trials
    are counted, not kept, and more than 1% of a cell's trials failing aborts
    the sweep, since at realistic N any failure indicates a modeling bug.

    Each cell runs in blocks of ``_BLOCK_SIZE`` trials, spread over ``jobs``
    worker processes; a trial's draws depend only on its cell, its block and
    its place in the block, never on the worker that runs it.
    """
    cells = _cell_configs(*grid)
    samples = _integer(samples, "samples")
    master_seed = _integer(master_seed, "master_seed")
    jobs = _integer(jobs, "jobs")
    if samples < 1:
        raise ConfigError(f"samples must be >= 1, got {samples}", field="samples")
    if master_seed < 0:  # SeedSequence would refuse it only inside a worker
        raise ConfigError(f"master seed must be >= 0, got {master_seed}", field="master_seed")
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}", field="jobs")
    starts = range(0, samples, _BLOCK_SIZE)
    tasks = [(master_seed, cfg, subtract, start, min(start + _BLOCK_SIZE, samples))
             for cfg in cells for start in starts]
    # a fork-started pool starts all its workers at the first submit
    workers = min(jobs, len(tasks), cpu_count())
    if workers == 1:
        blocks = [_block(task) for task in tasks]
    else:
        # imported here: a serial run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(_block, tasks))
    out = []
    for i, cfg in enumerate(cells):
        trials = chain.from_iterable(blocks[i * len(starts):(i + 1) * len(starts)])
        values = [value for value in trials if value is not None]
        failures = samples - len(values)
        if failures > MAX_FAILURE_FRACTION * samples:
            raise SweepError(
                f"cell (direction={cfg.direction.value}, n={cfg.n_detected}, "
                f"fs={cfg.signal_fidelity}, bg={cfg.background_mean}): "
                f"{failures}/{samples} trials failed, above the "
                f"{MAX_FAILURE_FRACTION:.0%} tolerance"
            )
        out.append(({**asdict(cfg), "samples": samples, "failures": failures}, values))
    return out


def _moments(values) -> tuple[float, float | None]:
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    std = float(arr.std(ddof=1)) if arr.size >= 2 else None
    return mean, std


def run_sweep(
    directions,
    n_values,
    fs_values,
    samples: int,
    master_seed: int,
    background_means=(0.0,),
    jobs: int = 1,
) -> SweepResult:
    """Mean and standard deviation of the residual QBER over a grid.

    Each trial scores its drawn counts, background included; nothing is
    subtracted.  Cell order is the cartesian product (direction, N, F_S,
    background) in the order given.  Failed trials are excluded from the
    moments but counted, and more than 1% of a cell's trials failing aborts
    the sweep (:func:`_run_cells`).
    """
    grid = (directions, n_values, fs_values, background_means)
    cells = []
    for fields, values in _run_cells(grid, False, samples, master_seed, jobs):
        mean, std = _moments(values)
        cells.append(SweepCell(**fields, subtract_background=False, mean_qber=mean, std_qber=std))
    return SweepResult(cells=tuple(cells))


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
    scores both arms from that draw: the counts as drawn, the arm
    :func:`run_sweep` scores, and the counts less the mean background per
    cell, clipped at 0.  The delta thus isolates the subtraction itself.  A
    pair failing in either arm is excluded from both.  This is the only
    place that subtracts; it stays as the evidence that subtraction does
    not help against isotropic background, and because the benchmark's
    background workload runs it.
    """
    grid = (directions, n_values, fs_values, background_means)
    cells = []
    for fields, pairs in _run_cells(grid, True, samples, master_seed, jobs):
        with_bg, subtracted = zip(*pairs)
        mean_bg, std_bg = _moments(with_bg)
        mean_sub, std_sub = _moments(subtracted)
        _, std_delta = _moments(np.asarray(subtracted) - np.asarray(with_bg))
        cells.append(BackgroundStudyCell(
            **fields,
            mean_with_background=mean_bg,
            std_with_background=std_bg,
            mean_subtracted=mean_sub,
            std_subtracted=std_sub,
            delta=mean_sub - mean_bg,
            std_delta=std_delta,
        ))
    return BackgroundStudyResult(cells=tuple(cells))


def fit_power_law(cells) -> FitResult:
    """Least-squares fit of log mean QBER against log(2 F_S - 1) and log N.

    Requires at least four cells spanning two distinct N and two distinct
    F_S; a regressor without spread aborts with a :class:`FitError` naming
    it, and a cell outside the model's domain (mean QBER <= 0, F_S outside
    (0.5, 1], N < 1 or beyond float range) with one naming the cell.
    """
    cells = tuple(cells)
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
        if c.n_detected > sys.float_info.max:
            raise FitError(f"{where} has N beyond float range; log N cannot be taken")
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


def expected_detection_rate(
    pulse_rate_hz: float,
    mean_photon_number: float,
    channel_transmission: float,
    vacuum_yield: float = 0.0,
) -> float:
    """Expected weak-coherent-pulse detection rate in Hz.

    rate = R * (1 - (1 - Y0) * exp(-eta * mu)), about R * eta * mu on a lossy link
    at zero vacuum yield; ``expm1`` keeps that small rate's digits.  An argument that
    is no real number, or is out of range, raises :class:`ConfigError` naming it.
    """
    pulse_rate_hz = _real(pulse_rate_hz, "pulse_rate_hz")
    mean_photon_number = _real(mean_photon_number, "mean_photon_number")
    channel_transmission = _real(channel_transmission, "channel_transmission")
    vacuum_yield = _real(vacuum_yield, "vacuum_yield")
    if not 0.0 <= pulse_rate_hz < math.inf:
        raise ConfigError(f"pulse rate must be finite and >= 0 Hz, got {pulse_rate_hz!r}",
                          field="pulse_rate_hz")
    if not 0.0 <= mean_photon_number < math.inf:
        raise ConfigError(
            f"mean photon number must be finite and >= 0, got {mean_photon_number!r}",
            field="mean_photon_number",
        )
    if not 0.0 <= channel_transmission <= 1.0:
        raise ConfigError(
            f"channel transmission must be in [0, 1], got {channel_transmission!r}",
            field="channel_transmission",
        )
    if not 0.0 <= vacuum_yield <= 1.0:
        raise ConfigError(f"vacuum yield must be in [0, 1], got {vacuum_yield!r}",
                          field="vacuum_yield")
    return pulse_rate_hz * (
        vacuum_yield - (1.0 - vacuum_yield) * math.expm1(-channel_transmission * mean_photon_number)
    )
