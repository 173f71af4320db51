"""Wave-plate compensation: the closed-form plate setting and its residual QBER.

The compensation stack V(theta) = Q(theta3) H(theta2) Q(theta1) is chosen
to maximize the summed fidelity between the reconstructed states and the
nominal BB84 targets.  In the forward orientation the plates sit after the
channel and the predicted post-compensation state is V rho V+; in the
reversed orientation they sit before the channel, the reconstructions are
the required *inputs*, and the prediction for prepared state |psi> is
V|psi> compared against the reconstruction, i.e. the adjoint conjugation.
Either way the optimum satisfies V ~ U+ up to phase.  Away from it the
order matters: the signal states see V U forward and U V reversed.

Everything here is real Stokes arithmetic.  On Stokes vectors V acts as a
rotation R_V in SO(3), and the summed fidelity is 2 + tr(R B)/2 with
B = sum_n s_n t_n^T over reconstructions s_n and targets t_n, where
R = R_V forward and R_V^T reversed.  Maximizing it is Wahba's problem
(Wahba, SIAM Rev. 7, 409 (1965); Kabsch, Acta Cryst. A32, 922 (1976)).
The targets lie in the S1-S2 plane, so B = [a b 0] with a = s_H - s_V and
b = s_D - s_A has rank <= 2, and the optimal R is its planar polar factor:
rows x = unit(a + b x n), y = n x x and n, the unit normal of a and b.  The
maximum is h = |a + b x n| = sigma1 + sigma2, the sum of B's singular
values, with sigma1 sigma2 = |a x b|.  The plate angles follow from R_V in
closed form: a quarter plate at theta is a +pi/2 rotation and a half plate
a pi rotation, both about (cos 2 theta, sin 2 theta, 0).  A rotation has
two such settings up to the half plate's period pi/2, and the second
follows from the first: turning a quarter plate by pi/2 turns its axis by
pi, which makes it the inverse rotation, so Q(theta3 + pi/2) H Q(theta1 +
pi/2) = Q3^-1 H Q1^-1 equals Q3 H2 Q1 exactly when H = Q3^2 H2 Q1^2, and
Q^2 is the half plate at the same angle.  Two pi rotations about
equatorial axes compose to a turn about S3, so H(theta3) H(theta2)
H(theta1) is the half plate at theta1 + theta3 - theta2.  The score needs
no angles and no direction: rows x and y of R estimate the two Stokes axes
that the channel's counts read, in both directions, and
:func:`residual_qber` is 1/2 - (x . a1 + y . a2)/4 against the channel's
true axes a1 and a2.  So a sweep's per-trial path asks :func:`optimize` for
R alone (``plates=False``) and picks no plate setting; ``align`` does.
That path is scalar arithmetic throughout: :func:`optimize` reads a and b
straight from the reconstruction's rows, and builds its
:class:`CompensationResult` as the tomography module builds its checked
results, by filling the frozen instance's dict in one step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .polarization import WavePlateAngles
from .tomography import Direction, ReconstructionSet, _assemble

#: below this tilt of R's third row from the S3 axis, theta1 is free
_POLE_TOLERANCE = 1e-12


@dataclass(frozen=True)
class CompensationResult:
    """Plate angles, their Stokes rotation and the QBER they predict against the reconstructions.

    ``rotation`` holds the rows of the Wahba rotation R as nested tuples, in
    both directions; the plates apply R to Stokes vectors forward and R^T
    reversed.  ``angles`` is None when :func:`optimize` was asked for no
    plates (``plates=False``).
    """

    angles: WavePlateAngles | None
    rotation: tuple
    predicted_qber: float
    # constant 1 and True, as the optimum is closed form; kept only
    # because the benchmark's per-layer trace reads them
    evaluations_used: int
    converged: bool


def _wahba_rotation(a, b) -> tuple[tuple, float]:
    """Rows (x, y, n) of the R maximizing tr(R B) = x . a + y . b, and h = tr(R B).

    n is a x b made normal to the longer of a and b, so that when a x b is
    lost to cancellation (a nearly parallel to b) its error only turns n
    about that vector, which costs h the small singular value times the
    squared error.  When a x b vanishes (rank <= 1) every normal of the
    longer vector is optimal, and when B = 0 every rotation is: R = I.
    """
    a0, a1, a2 = a
    b0, b1, b2 = b
    aa, bb = a0 * a0 + a1 * a1 + a2 * a2, b0 * b0 + b1 * b1 + b2 * b2
    (u0, u1, u2), uu = (a, aa) if aa >= bb else (b, bb)
    if uu == 0.0:
        return ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)), 0.0
    n0, n1, n2 = a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0
    k = (n0 * u0 + n1 * u1 + n2 * u2) / uu
    n0, n1, n2 = n0 - k * u0, n1 - k * u1, n2 - k * u2
    norm = math.hypot(n0, n1, n2)
    if norm == 0.0:
        # u x e0 or u x e1, whichever axis is further from u
        n0, n1, n2 = (0.0, u2, -u1) if abs(u0) <= abs(u1) else (-u2, 0.0, u0)
        norm = math.hypot(n0, n1, n2)
    n0, n1, n2 = n0 / norm, n1 / norm, n2 / norm
    x0, x1, x2 = a0 + b1 * n2 - b2 * n1, a1 + b2 * n0 - b0 * n2, a2 + b0 * n1 - b1 * n0
    h = math.hypot(x0, x1, x2)
    x0, x1, x2 = x0 / h, x1 / h, x2 / h
    y = (n1 * x2 - n2 * x1, n2 * x0 - n0 * x2, n0 * x1 - n1 * x0)
    return ((x0, x1, x2), y, (n0, n1, n2)), h


def _plate_settings(rotation) -> list[tuple[float, float, float]]:
    """The four plate settings whose Stokes rotation is ``rotation``, as unreduced tuples.

    ``rotation`` is a nested 3x3 sequence.  The first quarter plate takes
    u = (cos phi, sin phi, 0) to the S3 pole and the half plate flips it, so
    R u must lie on the equator: that fixes phi up to pi (theta1 = 0 when R
    keeps the pole in place), then theta3, and leaves the half plate fixed
    up to pi/2.  Each quarter plate follows from its equatorial direction
    without further trigonometry, the half plate from the first row of
    Q3^T R Q1^T by dot products.  The pair at phi + pi follows from
    the pair at phi with no trigonometry at all, as the module docstring
    says.  The settings come as two pairs of the same quarter plates, whose
    half plates differ by pi/2 within a pair.
    """
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rotation
    if math.hypot(r20, r21) <= _POLE_TOLERANCE:
        phi = math.pi / 2.0
    else:
        phi = math.atan2(-r20, r21)
    # u = (cos phi, sin phi, 0) and the angle psi of R u on the equator
    x, y = math.cos(phi), math.sin(phi)
    psi = math.atan2(r10 * x + r11 * y, r00 * x + r01 * y)
    c1, s1 = y, -x
    c3, s3 = math.sin(psi), -math.cos(psi)
    # first column of Q3 taken through R, then against the rows of Q1
    q0, q1, q2 = c3 * c3, c3 * s3, -s3
    v0 = q0 * r00 + q1 * r10 + q2 * r20
    v1 = q0 * r01 + q1 * r11 + q2 * r21
    v2 = q0 * r02 + q1 * r12 + q2 * r22
    m00 = v0 * c1 * c1 + v1 * c1 * s1 + v2 * s1
    m01 = v0 * c1 * s1 + v1 * s1 * s1 - v2 * c1
    theta1 = (phi - math.pi / 2.0) / 2.0
    theta2 = math.atan2(m01, m00) / 4.0
    theta3 = (psi - math.pi / 2.0) / 2.0
    # phi + pi turns both quarter plates by pi/2, which inverts them, so the
    # half plate becomes H(theta3) H(theta2) H(theta1) = H(theta1 + theta3 - theta2)
    theta2_inverted = theta1 + theta3 - theta2
    quarter = math.pi / 2.0
    return [(theta1, theta2, theta3), (theta1, theta2 + quarter, theta3),
            (theta1 + quarter, theta2_inverted, theta3 + quarter),
            (theta1 + quarter, theta2_inverted + quarter, theta3 + quarter)]


def wrapped_angle_distance(a: float, b: float) -> float:
    """Shortest plate travel between two rotations, modulo pi."""
    d = math.fmod(abs(a - b), math.pi)
    return min(d, math.pi - d)


def optimize(recon: ReconstructionSet, *, plates: bool = True) -> CompensationResult:
    """The plate setting that maximizes the summed fidelity to the BB84 targets.

    The optimum is exact: the Wahba rotation R and, of the four plate
    settings of R_V (R forward, R^T reversed), the first with the least
    total travel from zero angles, travel being the three plates'
    :func:`wrapped_angle_distance` summed.  ``predicted_qber`` is one minus
    a quarter of the summed fidelity at that optimum, 2 + h/2 with
    h = tr(R B).  With ``plates=False`` no plate setting is chosen and
    ``angles`` is None; the rotation and the prediction are the same to the
    bit.  A sweep scores the rotation alone.
    """
    # B = [a b 0] with a = s_H - s_V and b = s_D - s_A
    (h0, h1, h2), (v0, v1, v2), (d0, d1, d2), (a0, a1, a2) = recon.rows
    rows, h = _wahba_rotation((h0 - v0, h1 - v1, h2 - v2), (d0 - a0, d1 - a1, d2 - a2))
    angles = None
    if plates:
        plate_rows = rows if recon.direction is Direction.FORWARD else tuple(zip(*rows))
        angles = WavePlateAngles(*min(
            _plate_settings(plate_rows),
            key=lambda s: sum(wrapped_angle_distance(t, 0.0) for t in s)))
    predicted = 1.0 + (-2.0 - 0.5 * h) / 4.0
    if not -1e-9 <= predicted <= 1.0 + 1e-9:  # NaN fails
        raise ValueError(f"predicted QBER {predicted!r} escaped [0, 1]")
    predicted = min(1.0, max(0.0, predicted))
    return _assemble(CompensationResult, angles=angles, rotation=rows, predicted_qber=predicted,
                     evaluations_used=1, converged=True)


def residual_qber(axes, rotation) -> float:
    """Error ratio of ideal signal states after channel plus compensation.

    A BB84 state of Stokes vector t keeps the fidelity (1 + t.M t)/2 under
    the compensated channel's rotation M, so the QBER over H, V, D and A is
    1/2 - (M_00 + M_11)/4: zero exactly when the plates undo the channel,
    independent of any source depolarization.  M is R_V R_U forward (plates
    after the channel) and R_U R_V reversed (plates before it), and as
    R_V = R forward and R^T reversed, M_00 + M_11 = x . a1 + y . a2 in both
    directions: x and y are the first two rows of ``rotation``
    (:attr:`CompensationResult.rotation`, the Wahba R) and a1, a2 the
    channel's two Stokes ``axes`` (``montecarlo.stokes_axes``).
    Clamped at 0, where an exact compensation can round the trace above 2.
    """
    (p0, p1, p2), (q0, q1, q2) = axes
    (x0, x1, x2), (y0, y1, y2), _ = rotation
    return max(0.0, 0.5 - (x0 * p0 + x1 * p1 + x2 * p2 + y0 * q0 + y1 * q1 + y2 * q2) / 4.0)
