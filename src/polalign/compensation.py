"""Wave-plate compensation: the closed-form plate setting and its residual QBER.

The compensation stack V(theta) = Q(theta3) H(theta2) Q(theta1) is chosen
to maximize the summed fidelity between the reconstructed states and the
nominal BB84 targets.  In the forward orientation the plates sit after the
channel and the predicted post-compensation state is V rho V+; in the
reversed orientation they sit before the channel, the reconstructions are
the required *inputs*, and the prediction for prepared state |psi> is
V|psi> compared against the reconstruction, i.e. the adjoint conjugation.
Either way the optimum satisfies V ~ U+ up to phase.  Away from it the
order matters: the signal states see V U forward and U V reversed, and
:func:`residual_qber` scores the product of its direction.

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
no angles: it is read from R_V and the channel's Stokes axes, so a sweep's
per-trial path asks :func:`optimize` for the rotation alone
(``plates=False``) and picks no plate setting; ``align`` does.  That path
is scalar arithmetic throughout: :func:`optimize` reads a and b straight
from the reconstruction's rows, and builds its :class:`CompensationResult`
as the tomography module builds its checked results, by filling the frozen
instance's dict in one step.
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

    ``rotation`` holds the rows of R_V, the rotation the plates apply to
    Stokes vectors, as nested tuples.  ``angles`` is None when
    :func:`optimize` was asked for no plates (``plates=False``).
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


def _plate_settings(rotation, reference) -> list[tuple[float, float, float]]:
    """The four plate settings whose Stokes rotation is ``rotation``, as unreduced tuples.

    ``rotation`` is a nested 3x3 sequence.  The first quarter plate takes
    u = (cos phi, sin phi, 0) to the S3 pole and the half plate flips it, so
    R u must lie on the equator: that fixes phi up to pi (the reference
    theta1 when R keeps the pole in place), then theta3, and leaves the half
    plate fixed up to pi/2.  Each quarter plate follows from its equatorial
    direction without further trigonometry, the half plate from the first
    row of Q3^T R Q1^T by dot products.  The pair at phi + pi follows from
    the pair at phi with no trigonometry at all, as the module docstring
    says.  The settings come as two pairs of the same quarter plates, whose
    half plates differ by pi/2 within a pair.
    """
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rotation
    if math.hypot(r20, r21) <= _POLE_TOLERANCE:
        phi = 2.0 * reference[0] + math.pi / 2.0
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


def _least_travel(settings, reference) -> tuple[float, float, float]:
    """The first of ``settings`` with the least plate travel from ``reference``.

    Travel is the sum of the three plates' :func:`wrapped_angle_distance`.
    ``settings`` are the four of :func:`_plate_settings`: two pairs whose
    half plates differ by pi/2, the second pair's quarter plates turned by
    pi/2 from the first's.  A plate at distance d from the reference puts
    one turned by pi/2 at pi/2 - d, so the four settings cost four
    distances, not twelve.  Where two half plates of a pair are equally far
    to within rounding, that difference can pick the other one of the
    pair: both give the same rotation and the same travel.
    """
    r1, r2, r3 = reference
    t1, _, t3 = settings[0]
    d1, d3 = wrapped_angle_distance(t1, r1), wrapped_angle_distance(t3, r3)
    best, least = None, math.inf
    for k, quarters in ((0, d1 + d3), (2, math.pi - d1 - d3)):
        d2 = wrapped_angle_distance(settings[k][1], r2)
        flipped = math.pi / 2.0 - d2
        travel, pick = (quarters + d2, k) if d2 <= flipped else (quarters + flipped, k + 1)
        if travel < least:
            best, least = settings[pick], travel
    return best


def optimize(
    recon: ReconstructionSet, previous_angles: WavePlateAngles | None = None, *,
    plates: bool = True,
) -> CompensationResult:
    """The plate setting that maximizes the summed fidelity to the BB84 targets.

    The optimum is exact: the Wahba rotation and, of its four plate
    settings, the one with the least total travel from ``previous_angles``
    (zeros when absent), and the rotation R_V they apply.
    ``predicted_qber`` is one minus a quarter of the summed fidelity at
    that optimum, 2 + h/2 with h = tr(R B).  With ``plates=False`` no plate
    setting is chosen, ``previous_angles`` goes unused and ``angles`` is
    None; the rotation and the prediction are the same to the bit.  A sweep
    scores the rotation alone.
    """
    # B = [a b 0] with a = s_H - s_V and b = s_D - s_A
    (h0, h1, h2), (v0, v1, v2), (d0, d1, d2), (a0, a1, a2) = recon.rows
    rows, h = _wahba_rotation((h0 - v0, h1 - v1, h2 - v2), (d0 - a0, d1 - a1, d2 - a2))
    if recon.direction is Direction.REVERSED:
        (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rows
        rows = ((r00, r10, r20), (r01, r11, r21), (r02, r12, r22))
    angles = None
    if plates:
        reference = (previous_angles.as_tuple() if previous_angles is not None
                     else (0.0, 0.0, 0.0))
        angles = WavePlateAngles(*_least_travel(_plate_settings(rows, reference), reference))
    predicted = 1.0 + (-2.0 - 0.5 * h) / 4.0
    if not -1e-9 <= predicted <= 1.0 + 1e-9:  # NaN fails
        raise ValueError(f"predicted QBER {predicted!r} escaped [0, 1]")
    predicted = min(1.0, max(0.0, predicted))
    return _assemble(CompensationResult, angles=angles, rotation=rows, predicted_qber=predicted,
                     evaluations_used=1, converged=True)


def residual_qber(axes, rotation, direction: Direction) -> float:
    """Error ratio of ideal signal states after channel plus compensation.

    The Stokes rotation of the compensated channel is M = R_V R_U forward
    (plates after the channel) and M = R_U R_V reversed (plates before
    it).  A BB84 state of Stokes vector t keeps the fidelity (1 + t.M t)/2,
    so the QBER over H, V, D and A is 1/2 - (M_00 + M_11)/4: zero exactly
    when R_V undoes R_U, independent of any source depolarization.
    ``axes`` are the channel's two Stokes axes (``montecarlo.stokes_axes``):
    the columns R_U e1 and R_U e2 forward, the rows 0 and 1 of R_U
    reversed.  ``rotation`` holds the rows of R_V
    (:attr:`CompensationResult.rotation`).
    Clamped at 0, where an exact compensation can round the trace above 2.
    """
    if type(direction) is not Direction:
        direction = Direction(direction)
    (p0, p1, p2), (q0, q1, q2) = axes
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rotation
    if direction is Direction.FORWARD:
        # rows 0 and 1 of R_V against the columns R_U e1 and R_U e2
        trace = r00 * p0 + r01 * p1 + r02 * p2 + r10 * q0 + r11 * q1 + r12 * q2
    else:
        # rows 0 and 1 of R_U against the columns 0 and 1 of R_V
        trace = p0 * r00 + p1 * r10 + p2 * r20 + q0 * r01 + q1 * r11 + q2 * r21
    return max(0.0, 0.5 - trace / 4.0)
