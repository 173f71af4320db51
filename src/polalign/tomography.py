"""Qubit state reconstruction from six-outcome detection counts.

Counting is done in the three Pauli bases: Z (H/V), X (D/A) and Y (R/L).
The forward orientation reconstructs the four received BB84 states from a
4x6 count matrix; the reversed orientation post-selects on each of the
four receiver outcomes of a 6x4 matrix and reconstructs, per outcome, the
effective pre-channel state the channel maps onto that outcome.

Reconstruction is maximum-likelihood.  For one qubit the six-outcome
likelihood is a product of three binomials, one per basis, each in one
Stokes component.  So inside the Bloch ball the maximum is, in closed
form, the linear inversion s_k = (n+ - n-)/(n+ + n-); when that lies
outside the ball, the maximum lies on the sphere.  There Newton on the
full Lagrange system, stationarity of each component and |s| = 1, runs
from the inversion scaled onto the sphere; no trigonometry is needed.  Its
end point, once a step is below rounding with a positive multiplier, is a
KKT point of a concave likelihood on a convex set, hence the maximum
(Rehacek et al., PRA 75, 042108 (2007)).  What it leaves uncertified are
kinks, where an empty outcome pins a component at +-1, and rare
fractional rows made by background subtraction.  Those fall back to a
bisection on the multiplier alone: for a given multiplier each component
is the middle root of a depressed cubic, taken from the trigonometric
formula, and |s|^2 - 1 falls as the multiplier grows over [0, total].
A matrix's four rows are fitted in one loop (:func:`_reconstruct_rows`),
every row by the same steps: a total below 6 refused, an empty basis pair
refused or, in a background-subtracted matrix, held at 0, then the
inversion, its ball test and the sphere solver when it lies outside the
ball.  The counts are fitted as given, so an outcome is empty only when it
is 0, at any total.  A row with no empty outcome, 94 % of a reference
sweep's rows, skips the pair test.  Each error names the row it refuses.
Counts are checked once, where they enter: a :class:`CountMatrix` checks
one matrix, such as a count file's, and :meth:`CountMatrix.block` a whole
stack of a sweep block's draws in one pass.  A :class:`ReconstructionSet`
is checked only by its constructor: finite components, then |s|^2 <= 1 +
1e-12 per row.  What the module builds from values it has checked itself,
a block's matrices and each reconstruction's set, skips the dataclass
constructor and fills the frozen instance's dict in one step
(:func:`_assemble`): a fitted row has passed s.s <= 1 or is the sphere
solver's normalized point.
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
#: the largest |s|^2 of a reconstructed state: the Bloch ball plus 1e-12 of rounding
_BALL = 1.0 + 1e-12
#: the Newton step in s below which the sphere point is taken as converged: 8 ulp of 1
_STEP_ULPS = 8.0 * sys.float_info.epsilon
#: halvings of the sphere MLE's multiplier bracket [0, total], to total * 2**-64: just
#: past an outcome's kink, far below the total, s(lam) is steep, and a bracket of
#: eps * total (52 halvings) leaves the point up to 8e-14 off.  Halving on to adjacent
#: floats would drive a root near 0 into underflow
_HALVINGS = 64


class Direction(str, enum.Enum):
    """Orientation of the alignment protocol."""

    FORWARD = "forward"
    REVERSED = "reversed"


#: (rows, columns) label sets per direction
COUNT_SHAPE = {Direction.FORWARD: (4, 6), Direction.REVERSED: (6, 4)}
ROW_LABELS = {Direction.FORWARD: BB84_LABELS, Direction.REVERSED: ALL_LABELS}
COLUMN_LABELS = {Direction.FORWARD: ALL_LABELS, Direction.REVERSED: BB84_LABELS}
#: what a row of the fit is, named in its errors
_ROW_NAME = {Direction.FORWARD: "input row", Direction.REVERSED: "outcome column"}


def _check_counts(c: np.ndarray) -> None:
    """Refuse a float count array with an entry that is negative or not finite."""
    # NaN propagates through both reductions and fails both comparisons
    if not (0.0 <= np.minimum.reduce(c, None) and np.maximum.reduce(c, None) < math.inf):
        raise ValueError("counts must be finite and nonnegative")


def _assemble(cls, **fields):
    """An instance of the frozen dataclass ``cls`` holding ``fields``, already checked.

    For results the program builds from its own checked values: the
    generated constructor's per-field ``object.__setattr__`` is skipped and
    the instance dict filled in one step, in field order, so the instance
    equals, and pickles as, the one the constructor builds.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True, eq=False)
class CountMatrix:
    """Detection counts indexed by input state (rows) and outcome (columns).

    Raw acquisition counts are integers; background-subtracted matrices may
    hold fractional values (the subtracted mean is rarely integral), so
    entries are stored as nonnegative floats.  ``background_subtracted``
    records that a matrix went through mean-background subtraction, which
    also tells the reconstruction to tolerate basis pairs whose counts were
    entirely clipped away.  The direction is stored as a :class:`Direction`,
    given as one or as its value.  Two matrices are equal when their
    direction, ``background_subtracted`` and count values are.
    """

    direction: Direction
    counts: np.ndarray
    background_subtracted: bool = False

    def __post_init__(self):
        if not isinstance(self.direction, Direction):
            object.__setattr__(self, "direction", Direction(self.direction))
        c = np.array(self.counts, dtype=float)
        expected = COUNT_SHAPE[self.direction]
        if c.shape != expected:
            raise ValueError(
                f"{self.direction.value} counts must have shape {expected}, got {c.shape}"
            )
        _check_counts(c)
        c.setflags(write=False)
        object.__setattr__(self, "counts", c)

    def __eq__(self, other):
        if type(other) is not CountMatrix:
            return NotImplemented
        return (self.direction is other.direction
                and self.background_subtracted == other.background_subtracted
                and np.array_equal(self.counts, other.counts))

    def __hash__(self):
        # + 0.0 turns -0.0 into 0.0, which array_equal counts as equal
        return hash((self.direction, self.background_subtracted, (self.counts + 0.0).tobytes()))

    @classmethod
    def block(cls, direction, counts, background_subtracted: bool = False) -> list[CountMatrix]:
        """One matrix per row of ``counts``, a (B, rows, columns) stack, checked once for all.

        The stack is converted to float and checked as the constructor
        checks one matrix, with its messages: the trailing shape, then
        finite, nonnegative entries.  Each matrix holds a read-only view of
        its row, so a sweep block pays the check once, not per trial.  An
        empty stack gives no matrices.
        """
        direction = Direction(direction)
        c = np.array(counts, dtype=float)
        expected = COUNT_SHAPE[direction]
        if c.ndim != 3:
            raise ValueError(
                f"{direction.value} counts must be a (B, {expected[0]}, {expected[1]}) stack "
                f"of count matrices, got shape {c.shape}"
            )
        if c.shape[1:] != expected:
            raise ValueError(
                f"{direction.value} counts must have shape {expected}, got {c.shape[1:]}"
            )
        if not len(c):
            return []
        _check_counts(c)
        c.setflags(write=False)
        # checked above, so the constructor is skipped
        return [_assemble(cls, direction=direction, counts=row,
                          background_subtracted=background_subtracted) for row in c]

    @property
    def total(self) -> float:
        return float(self.counts.sum())


@dataclass(frozen=True)
class ReconstructionSet:
    """Stokes vectors of four reconstructed states, one row per BB84 label (H, V, D, A).

    ``rows`` holds them as four (S1, S2, S3) tuples of finite floats, given
    as any (4, 3) nested sequence or array.  Each row is a state, so it lies
    in the Bloch ball: |s|^2 <= 1 up to 1e-12 of rounding.  The constructor
    is the one check of a set: every component finite, then each row in the
    ball; a reconstruction builds its set from fitted rows without it.
    """

    direction: Direction
    rows: tuple

    def __post_init__(self):
        try:
            rows = tuple((float(s1), float(s2), float(s3)) for s1, s2, s3 in self.rows)
            if len(rows) != 4:
                raise ValueError
        except OverflowError:
            raise ValueError("Stokes components must be finite, not past float range") from None
        except (TypeError, ValueError):
            raise ValueError(
                "a reconstruction set holds a (4, 3) Stokes array: four rows of three numbers"
            ) from None
        if not all(math.isfinite(x) for row in rows for x in row):
            raise ValueError(f"Stokes components must be finite, got {rows}")
        for label, (s1, s2, s3) in zip(BB84_LABELS, rows):
            # a finite component whose square overflows makes |s|^2 infinite
            if s1 * s1 + s2 * s2 + s3 * s3 > _BALL:
                raise ValueError(
                    f"Stokes row {label} {(s1, s2, s3)} lies outside the Bloch ball |s| <= 1"
                )
        object.__setattr__(self, "rows", rows)


def _axis_root(n_plus: float, n_minus: float, lam: float) -> float:
    """One axis of the sphere maximum at multiplier ``lam`` > 0.

    The pair (n+, n-) is not empty, and ``lam``, a midpoint of the bisection
    on [0, total], is at least total * 2**-64.  The component maximizes the
    concave n+ log(1+s) + n- log(1-s) - lam s^2/2 over [-1, 1].  It is +-1
    while one outcome is empty and lam <= n+/2 (n-/2).  Otherwise it is the
    root in (-1, 1) of the stationarity condition n+/(1+s) - n-/(1-s) = lam s,
    which cleared of denominators is the depressed cubic
    lam s^3 - (lam + n) s + d = 0 with n = n+ + n- and d = n+ - n-.  The
    cubic is positive at -1 and negative at +1, so that root is its middle
    one.  With r = sqrt(3 lam/(lam + n)) and x = 3 d r/(2 (lam + n)), where
    |x| <= 1, the trigonometric formula gives it as (2/r) sin(asin(x)/3),
    which is free of cancellation and tends to d/n as lam -> 0.
    With an empty outcome the cubic also has the spurious root +-1, which the
    middle root meets at lam = n+/2 (n-/2), where the formula loses half its
    digits.  One Newton step on the rational condition, which lacks the
    spurious root, restores them.
    """
    if n_minus == 0.0 and lam <= n_plus / 2.0:
        return 1.0
    if n_plus == 0.0 and lam <= n_minus / 2.0:
        return -1.0
    n = n_plus + n_minus
    d = n_plus - n_minus
    r = math.sqrt(3.0 * lam / (lam + n))
    x = 1.5 * d * r / (lam + n)
    s = 2.0 / r * math.sin(math.asin(x if -1.0 < x < 1.0 else math.copysign(1.0, x)) / 3.0)
    if not -1.0 < s < 1.0:
        # rounding next to the spurious root; the step below divides by 1 -+ s
        s = math.copysign(_BELOW_ONE, s)
    up, down = 1.0 + s, 1.0 - s
    curvature = -n_plus / (up * up) - n_minus / (down * down) - lam
    return s - (n_plus / up - n_minus / down - lam * s) / curvature


def _newton_sphere(n, s0) -> list[float] | None:
    """The sphere maximum by Newton on the full Lagrange system, when it is certified.

    ``n`` holds the six outcome totals and ``s0`` their linear inversion,
    outside the ball.  The steps start from s = s0/|s0| and
    mu = sum_k s_k g_k(s_k), where g_k(s) = n+/(1 + s) - n-/(1 - s), whose
    term of a zero count is 0.  Each step solves the linearization of
    F_k = g_k(s_k) - mu s_k = 0 and (|s|^2 - 1)/2 = 0 for (s, mu).  Its
    Jacobian is diagonal in s, J_k = dF_k/ds_k, so with w_k = s_k/J_k the
    step is dmu = ((1 - |s|^2)/2 + sum w_k F_k) / sum w_k s_k and
    ds_k = w_k dmu - F_k/J_k, with no trigonometry; an empty axis stays
    at 0.  Every step checks that each J_k and sum w_k s_k is negative (NaN
    fails) and that the step stays in the domain of the log-likelihood:
    not s_k >= 1 with n- > 0, nor s_k <= -1 with n+ > 0.

    Once a step moves no component by more than 8 ulp of 1 and mu > 0, the
    point is stationary on the sphere with a positive multiplier: a KKT
    point of the concave log-likelihood on the convex ball, whose
    unconstrained maximum ``s0`` lies outside it.  So it is the global
    maximum, returned normalized.  A failed check, a component at exactly
    +-1 (a zero denominator), or eight steps without such a step return
    None.  The first step from s0/|s0| can overshoot on low counts, and
    the eighth settles those rows.  Kinks where an empty outcome pins s_k
    at +-1 have no stationary point and end uncertified.
    """
    p0, m0, p1, m1, p2, m2 = n
    x0, x1, x2 = s0
    radius = math.sqrt(x0 * x0 + x1 * x1 + x2 * x2)
    x0, x1, x2 = x0 / radius, x1 / radius, x2 / radius
    # the domain's open ends, at -1 where n+ > 0 and at +1 where n- > 0
    inf = math.inf
    bottom0, bottom1, bottom2 = ((-1.0 if p0 else -inf), (-1.0 if p1 else -inf),
                                 (-1.0 if p2 else -inf))
    top0, top1, top2 = (1.0 if m0 else inf), (1.0 if m1 else inf), (1.0 if m2 else inf)
    tol = _STEP_ULPS
    try:
        # the terms at s, made before each step: a zero count's term is 0
        # unless its denominator is, which only a pinned s_k reaches, and
        # that row goes to the bisection
        u0, u1, u2 = 1.0 + x0, 1.0 + x1, 1.0 + x2
        v0, v1, v2 = 1.0 - x0, 1.0 - x1, 1.0 - x2
        a0, a1, a2 = p0 / u0, p1 / u1, p2 / u2
        b0, b1, b2 = m0 / v0, m1 / v1, m2 / v2
        mu = x0 * (a0 - b0) + x1 * (a1 - b1) + x2 * (a2 - b2)
        for _ in range(8):
            f0, f1, f2 = a0 - b0 - mu * x0, a1 - b1 - mu * x1, a2 - b2 - mu * x2
            j0 = -a0 / u0 - b0 / v0 - mu
            j1 = -a1 / u1 - b1 / v1 - mu
            j2 = -a2 / u2 - b2 / v2 - mu
            if not (j0 < 0.0 and j1 < 0.0 and j2 < 0.0):
                return None
            w0, w1, w2 = x0 / j0, x1 / j1, x2 / j2
            schur = w0 * x0 + w1 * x1 + w2 * x2
            if not schur < 0.0:
                return None
            delta = (0.5 * (1.0 - x0 * x0 - x1 * x1 - x2 * x2)
                     + w0 * f0 + w1 * f1 + w2 * f2) / schur
            d0, d1, d2 = w0 * delta - f0 / j0, w1 * delta - f1 / j1, w2 * delta - f2 / j2
            x0, x1, x2 = x0 + d0, x1 + d1, x2 + d2
            if not (bottom0 < x0 < top0 and bottom1 < x1 < top1 and bottom2 < x2 < top2):
                return None
            mu += delta
            if -tol <= d0 <= tol and -tol <= d1 <= tol and -tol <= d2 <= tol and mu > 0.0:
                radius = math.sqrt(x0 * x0 + x1 * x1 + x2 * x2)
                return [x0 / radius, x1 / radius, x2 / radius]
            u0, u1, u2 = 1.0 + x0, 1.0 + x1, 1.0 + x2
            v0, v1, v2 = 1.0 - x0, 1.0 - x1, 1.0 - x2
            a0, a1, a2 = p0 / u0, p1 / u1, p2 / u2
            b0, b1, b2 = m0 / v0, m1 / v1, m2 / v2
    except ZeroDivisionError:
        pass
    return None


def _sphere_stokes(n, s0) -> list[float]:
    """Likelihood maximum on the Bloch sphere for totals whose inversion ``s0`` lies outside it.

    The point :func:`_newton_sphere` certifies, when it certifies one.
    Otherwise a bisection on the multiplier alone.

    On |s| = 1 the stationarity condition per axis is
    n+/(1 + s_k) - n-/(1 - s_k) = lam s_k with lam > 0.  For fixed lam,
    :func:`_axis_root` gives each component s_k(lam) in closed form; an
    empty pair keeps its component at 0.  |s(lam)| falls from |s| > 1 at
    lam = 0 to below 1 at lam = total, so lam is the root of the decreasing
    |s(lam)|^2 - 1 there.  The bisection halves [0, total] ``_HALVINGS``
    times on every row and returns the last midpoint's point scaled onto
    the sphere.
    """
    point = _newton_sphere(n, s0)
    if point is not None:
        return point
    axes = [axis for axis in ((0, n[0], n[1]), (1, n[2], n[3]), (2, n[4], n[5]))
            if axis[1] + axis[2] > 0.0]
    lo, hi = 0.0, sum(n)
    s = [0.0, 0.0, 0.0]
    for _ in range(_HALVINGS):
        lam = 0.5 * (lo + hi)
        for k, n_plus, n_minus in axes:
            s[k] = _axis_root(n_plus, n_minus, lam)
        # |s|^2 - 1 with 1 - s^2 of the largest component taken as a product:
        # summed directly, 1 absorbs components below 1e-8, and beside an
        # axis pinned at +-1 their squares alone decide the sign
        a0, a1, a2 = abs(s[0]), abs(s[1]), abs(s[2])
        if a0 >= a1 and a0 >= a2:
            value = a1 * a1 + a2 * a2 - (1.0 - a0) * (1.0 + a0)
        elif a1 >= a2:
            value = a0 * a0 + a2 * a2 - (1.0 - a1) * (1.0 + a1)
        else:
            value = a0 * a0 + a1 * a1 - (1.0 - a2) * (1.0 + a2)
        if value > 0.0:
            lo = lam
        else:
            hi = lam
    radius = math.sqrt(s[0] * s[0] + s[1] * s[1] + s[2] * s[2])
    return [x / radius for x in s]


def _reconstruct_rows(rows, direction, allow_empty) -> ReconstructionSet:
    """MLE of each row of a (4, 6) count array, which its :class:`CountMatrix` has checked.

    The rows are read in one ``tolist()`` and fitted in one loop, each by the
    same steps: its total; a total below 6 refused; an empty basis pair
    refused, or under ``allow_empty`` its component held at 0; the linear
    inversion, and :func:`_sphere_stokes` when that lies outside the Bloch
    ball (Hradil, PRA 55, R1561 (1997); Rehacek et al., PRA 75, 042108
    (2007)).  The counts are fitted as given: an outcome is empty only when
    it is 0, at any total.  Only a row with an empty outcome can have an
    empty pair, so only such a row looks for one.  Each error names the
    input row (forward) or outcome column (reversed); a row whose counts sum
    past float range is refused with a ``ValueError``.  Every fitted row has
    passed s.s <= 1 or is the sphere solver's normalized point, so the set
    is built without its constructor's check.
    """
    stokes = []
    for label, row in zip(BB84_LABELS, rows.tolist()):
        n0, n1, n2, n3, n4, n5 = row
        total = n0 + n1 + n2 + n3 + n4 + n5
        if not (n0 and n1 and n2 and n3 and n4 and n5) or total == math.inf:
            if total == math.inf:
                raise ValueError(f"counts sum past float range [{_ROW_NAME[direction]} {label}]")
            pairs = (n0 + n1, n2 + n3, n4 + n5)
            # a total below 6 is refused below, before any empty pair
            if total >= _MIN_TOTAL_COUNTS and 0.0 in pairs:
                k = pairs.index(0.0)
                if not allow_empty:
                    raise InsufficientCountsError(
                        f"no counts in the {BASIS_NAMES[k]} basis (outcomes "
                        f"{ALL_LABELS[2 * k]}/{ALL_LABELS[2 * k + 1]}) "
                        f"[{_ROW_NAME[direction]} {label}]", basis=BASIS_NAMES[k])
                # an empty pair's component is held at 0: the inversion below
                # reads the pair as (1 - 1)/(1 + 1), the sphere solver the row
                if not pairs[0]:
                    n0 = n1 = 1.0
                if not pairs[1]:
                    n2 = n3 = 1.0
                if not pairs[2]:
                    n4 = n5 = 1.0
        if total < _MIN_TOTAL_COUNTS:
            raise InsufficientCountsError(
                f"total counts {total:.16g} below the minimum {_MIN_TOTAL_COUNTS} for a "
                f"six-outcome fit [{_ROW_NAME[direction]} {label}]")
        s1, s2, s3 = (n0 - n1) / (n0 + n1), (n2 - n3) / (n2 + n3), (n4 - n5) / (n4 + n5)
        if s1 * s1 + s2 * s2 + s3 * s3 > 1.0:
            s1, s2, s3 = _sphere_stokes(row, (s1, s2, s3))
        stokes.append((s1, s2, s3))
    return _assemble(ReconstructionSet, direction=direction, rows=tuple(stokes))


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
