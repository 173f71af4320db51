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
binomial interval test with an explicit inconclusive outcome.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import InsufficientCountsError
from .polarization import BB84_KETS, BB84_LABELS, ChannelUnitary, SIGMA_X, SIGMA_Z

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


def _overlaps(u: ChannelUnitary) -> np.ndarray:
    """|<phi| U |psi>|^2 for BB84 analyzer states phi (rows) and preparations psi (columns)."""
    return np.abs(BB84_KETS.conj().T @ (u.entries @ BB84_KETS)) ** 2


def aligned_max_probability(u: ChannelUnitary) -> float:
    """Best conditional detection probability under intact timing.

    max over BB84 preparations psi and linear analyzer states phi of
    (1/2) |<phi| U |psi>|^2; the 1/2 is the receiver's uniform choice
    between the two linear bases.  Never below 3/8, for any U.
    """
    return 0.5 * float(_overlaps(u).max())


def worst_case_unitary() -> ChannelUnitary:
    """A channel rotation minimizing the best conditional probability.

    Rotates the great circle of the four signal states by 90 degrees about
    an axis midway between two adjacent analyzer states, which parks two
    received states 60 degrees (on the sphere) from their nearest analyzer
    states at opposite circular-polarization latitudes.  The best cell
    then sits exactly at the 3/8 bound.
    """
    axis = -(SIGMA_X + SIGMA_Z) / math.sqrt(2.0)
    u = math.cos(math.pi / 4.0) * np.eye(2, dtype=complex) - 1j * math.sin(math.pi / 4.0) * axis
    return ChannelUnitary(u)


def generate_timing_counts(
    u: ChannelUnitary,
    n_events: int,
    rng: np.random.Generator,
    *,
    timing_aligned: bool = True,
) -> np.ndarray:
    """Simulated 4x4 linear-basis counts, with timing intact or broken.

    Rows are preparations (H, V, D, A), columns analyzer outcomes in the
    same order.  Broken timing pairs each outcome with an independent,
    uniformly chosen preparation label, which lands every cell at
    probability 1/16; intact timing Born-samples through ``u`` with a
    uniform basis choice.
    """
    if n_events < 1:
        raise ValueError(f"need at least one event, got {n_events}")
    if timing_aligned:
        p = _overlaps(u).T / 8.0  # (input, outcome); 1/4 input choice x 1/2 basis choice
    else:
        p = np.full((4, 4), 1.0 / 16.0)
    return rng.multinomial(n_events, p.ravel()).reshape(4, 4).astype(float)


def wilson_interval(successes: int, trials: int, confidence: float) -> tuple[float, float]:
    """Two-sided Wilson score interval for a binomial proportion.

    Newcombe's form, as in ``scipy.stats.binomtest(...).proportion_ci(
    method="wilson")``: the bound on the side of an observed 0 or 1 is
    exactly 0 or 1.
    """
    z = NormalDist().inv_cdf(0.5 + 0.5 * confidence)
    p = successes / trials
    denom = 2.0 * (trials + z * z)
    center = (2.0 * trials * p + z * z) / denom
    delta = z / denom * math.sqrt(4.0 * trials * p * (1.0 - p) + z * z)
    lo = 0.0 if successes == 0 else center - delta
    hi = 1.0 if successes == trials else center + delta
    return lo, hi


def classify(counts, confidence: float = 0.99) -> AlignmentVerdict:
    """Decide between broken timing and a rotated polarization frame.

    Scans the per-row conditional frequencies d_nm / (row n total) — row
    totals span both analyzer bases, so the basis-choice factor is already
    in the frequency — and tests the maximizing cell with a two-sided
    Wilson interval: broken timing predicts 1/4, intact timing predicts at
    least 3/8.  When the interval is wide enough to cover both hypotheses
    (or excludes both), the verdict is inconclusive rather than a guess.

    ``confidence`` is family-wise over the 16 cells: the tested cell is the
    largest of them, so its interval is taken at 1 - (1 - confidence)/16
    (Bonferroni).  The reported ``ci_low``/``ci_high`` are that interval.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence!r}")
    c = np.asarray(counts, dtype=float)
    if c.shape != (4, 4):
        raise ValueError(f"expected a 4x4 linear-basis count matrix, got shape {c.shape}")
    if np.any(c < 0) or not np.all(np.isfinite(c)):
        raise ValueError("counts must be finite and nonnegative")
    row_totals = c.sum(axis=1)
    for i, total in enumerate(row_totals):
        if total <= 0:
            raise InsufficientCountsError(
                f"no detections for input state {BB84_LABELS[i]}",
                where=f"input row {BB84_LABELS[i]}",
            )

    freq = c / row_totals[:, None]
    flat_index = int(np.argmax(freq))
    row, col = divmod(flat_index, 4)
    successes = int(round(c[row, col]))
    row_total = int(round(row_totals[row]))
    lo, hi = wilson_interval(successes, row_total, 1.0 - (1.0 - confidence) / _CELLS)

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
