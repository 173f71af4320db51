"""Discriminating timing misalignment from polarization misalignment.

At startup a high error rate is ambiguous: detection events may be tagged
to the wrong source pulse (timing misalignment), or the polarization frame
may be rotated.  The two regimes separate using only the four linear-basis
conditional detection frequencies:

* wrong timing: outcomes are uncorrelated with preparations, so every
  conditional frequency sits at exactly 1/4 (basis choice included), for
  any channel rotation;
* correct timing: no channel rotation can push every prepared state away
  from every analyzer state — the best (input, outcome) pair always keeps
  a conditional detection probability of at least 3/8.

The gap between 1/4 and 3/8 makes the regimes distinguishable from finite
statistics; :func:`classify` formalizes the decision as a two-sided
binomial interval test with an explicit inconclusive outcome.  This module
holds only that decision; the tests check the 3/8 bound it relies on with
reference physics of their own.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import ConfigError, InsufficientCountsError
from .polarization import BB84_LABELS
from .tomography import CountMatrix

#: conditional frequency of every cell under broken timing
TIMING_FREQUENCY = 0.25
#: lower bound on the best cell's frequency under intact timing
POLARIZATION_BOUND = 0.375
#: cells the test picks its maximum from
_CELLS = 16


class AlignmentStatus(enum.Enum):
    TIMING_MISALIGNED = "timing_misaligned"
    POLARIZATION_FRAME_MISALIGNED = "polarization_frame_misaligned"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class AlignmentVerdict:
    """Outcome of the timing-vs-polarization discrimination test."""

    status: AlignmentStatus
    max_conditional_frequency: float
    input_label: str
    outcome_label: str
    total_counts: int
    ci_low: float
    ci_high: float
    confidence: float


def wilson_interval(successes: float, trials: float, confidence: float) -> tuple[float, float]:
    """Two-sided Wilson score interval for a binomial proportion.

    Newcombe's form, as in ``scipy.stats.binomtest(...).proportion_ci(
    method="wilson")``: the bound on the side of an observed 0 or 1 is
    exactly 0 or 1.  The counts may be fractional, as a background-subtracted
    matrix's are; whole-number counts give the same bits as integers.
    """
    z = NormalDist().inv_cdf(0.5 + 0.5 * confidence)
    p = successes / trials
    denom = 2.0 * (trials + z * z)
    center = (2.0 * trials * p + z * z) / denom
    delta = z / denom * math.sqrt(4.0 * trials * p * (1.0 - p) + z * z)
    lo = 0.0 if successes == 0 else center - delta
    hi = 1.0 if successes == trials else center + delta
    return lo, hi


def classify(cm: CountMatrix, confidence: float = 0.99) -> AlignmentVerdict:
    """Decide between broken timing and a rotated polarization frame.

    Reads the linear-basis block of ``cm``: in the canonical label order
    H, V, D, A come first on both axes, so it is ``cm.counts[:4, :4]`` in
    either direction, and ``cm`` checked the counts when it was built.
    Scans the per-row conditional frequencies d_nm / (row n total) — row
    totals span both analyzer bases, so the basis-choice factor is already
    in the frequency — and tests the maximizing cell with a two-sided
    Wilson interval: broken timing predicts 1/4, intact timing predicts at
    least 3/8.  When the interval is wide enough to cover both hypotheses
    (or excludes both), the verdict is inconclusive rather than a guess.

    ``confidence`` is family-wise over the 16 cells: the tested cell is the
    largest of them, so its interval is taken at 1 - (1 - confidence)/16
    (Bonferroni).  The reported ``ci_low``/``ci_high`` are that interval.
    A confidence so close to 1 that this level leaves no finite normal
    quantile is refused like one outside (0, 1).
    """
    if not 0.0 < confidence < 1.0:  # NaN fails both
        raise ConfigError(f"confidence must be in (0, 1), got {confidence!r}",
                          field="confidence")
    level = 1.0 - (1.0 - confidence) / _CELLS
    # the interval's normal quantile is taken at 0.5 + 0.5 * level, which
    # rounds to 1 once confidence is within about 2.6e-15 of 1
    if not 0.5 + 0.5 * level < 1.0:
        raise ConfigError(
            f"confidence is too close to 1: the per-cell level 1 - (1 - confidence)/{_CELLS} "
            f"has no finite normal quantile in double precision, got {confidence!r}",
            field="confidence")
    c = cm.counts[:4, :4]
    row_totals = c.sum(axis=1)
    for i, total in enumerate(row_totals):
        if total <= 0:
            raise InsufficientCountsError(f"no detections for input state {BB84_LABELS[i]}")

    freq = c / row_totals[:, None]
    flat_index = int(np.argmax(freq))
    row, col = divmod(flat_index, 4)
    lo, hi = wilson_interval(float(c[row, col]), float(row_totals[row]), level)

    timing_plausible = lo <= TIMING_FREQUENCY <= hi
    polarization_plausible = hi >= POLARIZATION_BOUND
    if timing_plausible and not polarization_plausible:
        status = AlignmentStatus.TIMING_MISALIGNED
    elif polarization_plausible and not timing_plausible:
        status = AlignmentStatus.POLARIZATION_FRAME_MISALIGNED
    else:
        status = AlignmentStatus.INCONCLUSIVE
    return AlignmentVerdict(
        status=status,
        max_conditional_frequency=float(freq[row, col]),
        input_label=BB84_LABELS[row],
        outcome_label=BB84_LABELS[col],
        total_counts=int(round(c.sum())),
        ci_low=lo,
        ci_high=hi,
        confidence=confidence,
    )
