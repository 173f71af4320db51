"""Qubit state reconstruction from six-outcome detection counts.

Counting is done in the three Pauli bases: Z (H/V), X (D/A) and Y (R/L).
The forward orientation reconstructs the four received BB84 states from a
4x6 count matrix; the reversed orientation post-selects on each of the
four receiver outcomes of a 6x4 matrix and reconstructs, per outcome, the
effective pre-channel state the channel maps onto that outcome.

Reconstruction is maximum-likelihood, in closed form.  For one qubit the
six-outcome likelihood is a product of three binomials, one per basis,
each in one Stokes component.  So inside the Bloch ball the maximum is the
linear inversion s_k = (n+ - n-)/(n+ + n-); when that lies outside the
ball, the maximum lies on the sphere.  There, for a given Lagrange
multiplier, each component is the middle root of a depressed cubic, taken
from the trigonometric formula; one pass over the three axes gives the
point and its derivative for that multiplier, and only the multiplier
itself is found by a one-dimensional Newton search.  Counts are checked
once, where they enter: a :class:`CountMatrix` on construction.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientCountsError
from .polarization import ALL_LABELS, BASIS_NAMES, BB84_LABELS

#: minimum total counts for a meaningful six-outcome fit
_MIN_TOTAL_COUNTS = 6
#: the largest float below 1
_BELOW_ONE = math.nextafter(1.0, 0.0)


class Direction(str, enum.Enum):
    """Orientation of the alignment protocol."""

    FORWARD = "forward"
    REVERSED = "reversed"


#: (rows, columns) label sets per direction
COUNT_SHAPE = {Direction.FORWARD: (4, 6), Direction.REVERSED: (6, 4)}
ROW_LABELS = {Direction.FORWARD: BB84_LABELS, Direction.REVERSED: ALL_LABELS}
COLUMN_LABELS = {Direction.FORWARD: ALL_LABELS, Direction.REVERSED: BB84_LABELS}


@dataclass(frozen=True)
class CountMatrix:
    """Detection counts indexed by input state (rows) and outcome (columns).

    Raw acquisition counts are integers; background-subtracted matrices may
    hold fractional values (the subtracted mean is rarely integral), so
    entries are stored as nonnegative floats.  ``background_subtracted``
    records that a matrix went through mean-background subtraction, which
    also tells the reconstruction to tolerate basis pairs whose counts were
    entirely clipped away.
    """

    direction: Direction
    counts: np.ndarray
    background_subtracted: bool = False

    def __post_init__(self):
        c = np.array(self.counts, dtype=float)
        expected = COUNT_SHAPE[self.direction]
        if c.shape != expected:
            raise ValueError(
                f"{self.direction.value} counts must have shape {expected}, got {c.shape}"
            )
        # NaN propagates through both reductions and fails both comparisons
        if not (0.0 <= np.minimum.reduce(c, None) and np.maximum.reduce(c, None) < math.inf):
            raise ValueError("counts must be finite and nonnegative")
        c.setflags(write=False)
        object.__setattr__(self, "counts", c)

    @property
    def total(self) -> float:
        return float(self.counts.sum())


@dataclass(frozen=True)
class ReconstructionSet:
    """Stokes vectors of four reconstructed states, one row per BB84 label (H, V, D, A).

    ``rows`` holds them as four (S1, S2, S3) tuples of finite floats, given
    as any (4, 3) nested sequence or array.  Each row is a state, so it lies
    in the Bloch ball: |s|^2 <= 1 up to 1e-12 of rounding.
    """

    direction: Direction
    rows: tuple

    def __post_init__(self):
        try:
            (h0, h1, h2), (v0, v1, v2), (d0, d1, d2), (a0, a1, a2) = self.rows
            rows = ((float(h0), float(h1), float(h2)), (float(v0), float(v1), float(v2)),
                    (float(d0), float(d1), float(d2)), (float(a0), float(a1), float(a2)))
        except OverflowError:
            raise ValueError("Stokes components must be finite, not past float range") from None
        except (TypeError, ValueError):
            raise ValueError(
                "a reconstruction set holds a (4, 3) Stokes array: four rows of three numbers"
            ) from None
        # 0 * x is NaN exactly when x is NaN or infinite, and never overflows
        (h0, h1, h2), (v0, v1, v2), (d0, d1, d2), (a0, a1, a2) = rows
        if (0.0 * h0 + 0.0 * h1 + 0.0 * h2 + 0.0 * v0 + 0.0 * v1 + 0.0 * v2
                + 0.0 * d0 + 0.0 * d1 + 0.0 * d2 + 0.0 * a0 + 0.0 * a1 + 0.0 * a2) != 0.0:
            raise ValueError(f"Stokes components must be finite, got {rows}")
        for label, (s1, s2, s3) in zip(BB84_LABELS, rows):
            if s1 * s1 + s2 * s2 + s3 * s3 > 1.0 + 1e-12:
                raise ValueError(
                    f"Stokes row {label} {(s1, s2, s3)} lies outside the Bloch ball |s| <= 1"
                )
        object.__setattr__(self, "rows", rows)


def _stokes_estimates(n, *, allow_empty: bool) -> list[float]:
    """Per-axis Stokes estimates (n+ - n-)/(n+ + n-) of six checked outcome totals.

    An empty basis pair is an error unless ``allow_empty``, in which case
    the corresponding component is pinned at zero (no information).
    """
    n_h, n_v, n_d, n_a, n_r, n_l = n
    pairs = (n_h + n_v, n_d + n_a, n_r + n_l)
    if not allow_empty and 0.0 in pairs:
        k = pairs.index(0.0)
        raise InsufficientCountsError(
            f"no counts in the {BASIS_NAMES[k]} basis "
            f"(outcomes {ALL_LABELS[2 * k]}/{ALL_LABELS[2 * k + 1]})",
            basis=BASIS_NAMES[k],
        )
    z, x, y = pairs
    return [(n_h - n_v) / z if z > 0.0 else 0.0, (n_d - n_a) / x if x > 0.0 else 0.0,
            (n_r - n_l) / y if y > 0.0 else 0.0]


def _decreasing_root(f, lo: float, hi: float, x: float) -> tuple[float, float]:
    """Root in [lo, hi] of a strictly decreasing function, and the slope there.

    ``f(x)`` returns (value, slope), with the value positive below the root
    and negative above it; ``x`` is the starting point.  Newton steps are
    kept inside a bracket that shrinks to each evaluated point.  Bisection
    replaces a step that would leave the bracket, a step left undefined by
    a zero slope, and a step that crosses back over the root without
    halving the step before it (Newton oscillating about a kink).  Every
    step moves toward the root, so in exact arithmetic a value that keeps
    its sign also shrinks.  The search ends at the last evaluated point
    once one does not (rounding noise), or once the step falls below the
    float resolution of the starting bracket.
    """
    resolution = sys.float_info.epsilon * (hi - lo)
    previous_step, previous_value = hi - lo, 0.0
    while True:
        value, slope = f(x)
        if value == 0.0 or (value * previous_value > 0.0 and abs(value) >= abs(previous_value)):
            return x, slope
        if value > 0.0:
            lo = x
        else:
            hi = x
        step = -value / slope if slope < 0.0 else math.inf
        crossed = value * previous_value < 0.0
        if abs(step) > resolution and (not lo < x + step < hi
                                       or (crossed and 2.0 * abs(step) > previous_step)):
            step = 0.5 * (lo + hi) - x
        if abs(step) <= resolution:
            return x, slope
        previous_step, previous_value = abs(step), value
        x += step


def _axis_roots(pairs, lam: float) -> tuple[list[float], list[float]]:
    """Each axis of the sphere maximum at multiplier ``lam``, and its lam-derivative.

    ``pairs`` holds the (n+, n-) totals of the three bases, and all three
    axes are evaluated in one pass.  An empty pair keeps its component at 0.
    Otherwise the component maximizes the concave
    n+ log(1+s) + n- log(1-s) - lam s^2/2 over [-1, 1].  It is +-1 while one
    outcome is empty and lam <= n+/2 (n-/2).  Otherwise it is the root in
    (-1, 1) of the stationarity condition n+/(1+s) - n-/(1-s) = lam s, which
    cleared of denominators is the depressed cubic lam s^3 - (lam + n) s + d = 0
    with n = n+ + n- and d = n+ - n-.  The cubic is positive at -1 and
    negative at +1, so that root is its middle one.  With
    r = sqrt(3 lam/(lam + n)) and x = 3 d r/(2 (lam + n)), where |x| <= 1, the
    trigonometric formula gives it as (2/r) sin(asin(x)/3), which is free of
    cancellation and tends to d/n as lam -> 0; at lam = 0 it is d/n itself.
    With an empty outcome the cubic also has the spurious root +-1, which the
    middle root meets at lam = n+/2 (n-/2), where the formula loses half its
    digits.  One Newton step on the rational condition, which lacks the
    spurious root, restores them.  The derivative is s / (d/ds of that
    condition).
    """
    roots, slopes = [], []
    for n_plus, n_minus in pairs:
        if n_plus + n_minus == 0.0:
            s, ds = 0.0, 0.0
        elif n_minus == 0.0 and lam <= n_plus / 2.0:
            s, ds = 1.0, 0.0
        elif n_plus == 0.0 and lam <= n_minus / 2.0:
            s, ds = -1.0, 0.0
        else:
            n = n_plus + n_minus
            d = n_plus - n_minus
            if lam == 0.0:
                s = d / n
            else:
                r = math.sqrt(3.0 * lam / (lam + n))
                x = 1.5 * d * r / (lam + n)
                s = 2.0 / r * math.sin(
                    math.asin(x if -1.0 < x < 1.0 else math.copysign(1.0, x)) / 3.0)
                if not -1.0 < s < 1.0:
                    # rounding next to the spurious root; the step below divides by 1 -+ s
                    s = math.copysign(_BELOW_ONE, s)
            up, down = 1.0 + s, 1.0 - s
            curvature = -n_plus / (up * up) - n_minus / (down * down) - lam
            s -= (n_plus / up - n_minus / down - lam * s) / curvature
            ds = s / curvature
        roots.append(s)
        slopes.append(ds)
    return roots, slopes


def _sphere_stokes(n) -> list[float]:
    """Likelihood maximum on the Bloch sphere for totals whose inversion lies outside it.

    On |s| = 1 the stationarity condition per axis is
    n+/(1 + s_k) - n-/(1 - s_k) = lam s_k with lam > 0.  For fixed lam one
    pass of :func:`_axis_roots` gives every component s_k(lam) in closed
    form, with its derivative; an empty pair keeps its component at 0.
    |s(lam)| falls from |s| > 1 at lam = 0 to below 1 at lam = total, so
    lam is the root of |s(lam)|^2 - 1 there, found by Newton with those
    derivatives.
    """
    pairs = ((n[0], n[1]), (n[2], n[3]), (n[4], n[5]))
    s = None

    def excess(lam):
        nonlocal s
        s, ds = _axis_roots(pairs, lam)
        (s0, s1, s2), (d0, d1, d2) = s, ds
        slope = 2.0 * s0 * d0 + 2.0 * s1 * d1 + 2.0 * s2 * d2
        # |s|^2 - 1 with 1 - s^2 of the largest component taken as a product:
        # summed directly, 1 absorbs components below 1e-8, whose slope then
        # lacks its value and leaves Newton creeping along a plateau
        a0, a1, a2 = abs(s0), abs(s1), abs(s2)
        if a0 >= a1 and a0 >= a2:
            return a1 * a1 + a2 * a2 - (1.0 - a0) * (1.0 + a0), slope
        if a1 >= a2:
            return a0 * a0 + a2 * a2 - (1.0 - a1) * (1.0 + a1), slope
        return a0 * a0 + a1 * a1 - (1.0 - a2) * (1.0 + a2), slope

    _decreasing_root(excess, 0.0, sum(n), 0.0)
    radius = math.sqrt(s[0] * s[0] + s[1] * s[1] + s[2] * s[2])
    return [x / radius for x in s]


def _mle_stokes(n, allow_empty: bool) -> list[float]:
    """Maximum-likelihood Stokes vector from six checked outcome totals (H,V,D,A,R,L).

    The linear inversion when it lies in the Bloch ball, else the sphere
    point of one Lagrange-multiplier root (Hradil, PRA 55, R1561 (1997);
    Rehacek et al., PRA 75, 042108 (2007)); zero counts need no smoothing.
    Raises :class:`InsufficientCountsError` when the total is below 6 or a
    basis pair is empty, unless ``allow_empty``, which holds that axis at 0.
    """
    # counts below the float-noise scale of the total carry no information;
    # zeroed, an outcome that background subtraction left at rounding noise
    # counts as empty
    total = sum(n)
    tiny = total * 1e-15
    if min(n) <= tiny:
        n = [x if x > tiny else 0.0 for x in n]
        total = sum(n)
    if total < _MIN_TOTAL_COUNTS:
        raise InsufficientCountsError(
            f"total counts {total:g} below the minimum {_MIN_TOTAL_COUNTS} for a six-outcome fit"
        )
    s = _stokes_estimates(n, allow_empty=allow_empty)
    if s[0] * s[0] + s[1] * s[1] + s[2] * s[2] > 1.0:
        s = _sphere_stokes(n)
    return s


def _reconstruct_rows(rows, direction, allow_empty) -> ReconstructionSet:
    """MLE of each row of a count array, which its :class:`CountMatrix` has checked."""
    stokes = []
    for label, row in zip(BB84_LABELS, rows.tolist()):
        try:
            stokes.append(_mle_stokes(row, allow_empty))
        except InsufficientCountsError as exc:
            where = ("input row" if direction is Direction.FORWARD else "outcome column")
            raise InsufficientCountsError(f"{exc} [{where} {label}]", basis=exc.basis) from None
    return ReconstructionSet(direction, stokes)


def reconstruct_forward(cm: CountMatrix) -> ReconstructionSet:
    """Reconstruct the four received BB84 states from forward counts.

    Each row of the 4x6 matrix is an independent six-outcome tomography of
    the corresponding transmitted state after the channel.
    """
    if cm.direction is not Direction.FORWARD:
        raise ValueError(f"expected a forward count matrix, got {cm.direction.value}")
    return _reconstruct_rows(cm.counts, Direction.FORWARD, cm.background_subtracted)


def reconstruct_reversed(cm: CountMatrix) -> ReconstructionSet:
    """Reconstruct, per receiver outcome, the state the channel maps onto it.

    Post-selecting one outcome column of the 6x4 matrix turns the six
    transmitted states into an overcomplete measurement of the effective
    pre-channel state: the count share of input n is proportional to
    <n|rho_eff|n> when each state is sent with equal probability.
    """
    if cm.direction is not Direction.REVERSED:
        raise ValueError(f"expected a reversed count matrix, got {cm.direction.value}")
    return _reconstruct_rows(cm.counts.T, Direction.REVERSED, cm.background_subtracted)
