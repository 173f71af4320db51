"""Wave-plate compensation: cost function and closed-form optimum.

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

On Stokes vectors V acts as a rotation R in SO(3), and the summed fidelity
is 2 + (1/2) sum_n t_n . R s_n for targets t_n and reconstructions s_n
(R^T in the reversed orientation).  Maximizing it is Wahba's problem,
solved exactly by one SVD (Wahba, SIAM Rev. 7, 409 (1965); Kabsch, Acta
Cryst. A32, 922 (1976)).  The plate angles then follow from R in closed
form: a quarter plate at theta is a +pi/2 rotation and a half plate a pi
rotation, both about the equatorial axis (cos 2 theta, sin 2 theta, 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .polarization import BB84_KETS, ChannelUnitary, WavePlateAngles, _plate_stack
from .tomography import Direction, ReconstructionSet

#: Stokes vectors of the targets H, V, D, A, one per row
_TARGET_STOKES = np.array(
    [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, -1.0, 0.0]]
)
#: below this tilt of R's third row from the S3 axis, theta1 is free
_POLE_TOLERANCE = 1e-12


@dataclass(frozen=True)
class CompensationOptions:
    """Optimizer knobs.

    ``motion_penalty_weight`` adds lambda * sum_i |theta_i - previous_i|
    (shortest path modulo pi) to the cost, discouraging long plate trips
    when compensation runs continuously against a drifting channel.
    """

    motion_penalty_weight: float = 0.0
    previous_angles: WavePlateAngles | None = None

    def __post_init__(self):
        if self.motion_penalty_weight < 0.0:
            raise ValueError(
                f"motion penalty weight must be >= 0, got {self.motion_penalty_weight}"
            )
        if self.motion_penalty_weight > 0.0 and self.previous_angles is None:
            raise ValueError("previous_angles is required when the motion penalty is active")


@dataclass(frozen=True)
class CompensationResult:
    """Optimized plate angles plus cost and convergence bookkeeping."""

    angles: WavePlateAngles
    cost: float
    predicted_qber: float
    evaluations_used: int
    converged: bool


def _quarter_rotation(theta: float) -> np.ndarray:
    """Stokes rotation of a quarter plate: +pi/2 about (cos 2t, sin 2t, 0)."""
    c = math.cos(2.0 * theta)
    s = math.sin(2.0 * theta)
    return np.array([[c * c, c * s, s], [c * s, s * s, -c], [-s, c, 0.0]])


def _half_rotation(theta: float) -> np.ndarray:
    """Stokes rotation of a half plate: pi about (cos 2t, sin 2t, 0)."""
    c = math.cos(4.0 * theta)
    s = math.sin(4.0 * theta)
    return np.array([[c, s, 0.0], [s, -c, 0.0], [0.0, 0.0, -1.0]])


def _stack_rotation(angles) -> np.ndarray:
    t1, t2, t3 = angles
    return _quarter_rotation(t3) @ _half_rotation(t2) @ _quarter_rotation(t1)


def _wahba_matrix(recon: ReconstructionSet) -> np.ndarray:
    """B = sum_n s_n t_n^T over reconstructions s_n and targets t_n."""
    return recon.stokes.T @ _TARGET_STOKES


def _stokes_cost(rotation: np.ndarray, b: np.ndarray, reversed_mode: bool) -> float:
    """-sum_n <psi_n| V rho_n V+ |psi_n> = -2 - tr(R B) / 2 (R^T when reversed)."""
    trace = np.sum(rotation * b) if reversed_mode else np.sum(rotation * b.T)
    return -2.0 - 0.5 * float(trace)


def _optimal_rotation(b: np.ndarray, reversed_mode: bool) -> np.ndarray:
    """The rotation R maximizing tr(R B), or tr(R^T B) when reversed."""
    u, _, wt = np.linalg.svd(b)
    w = wt.T
    sign = 1.0 if np.linalg.det(w @ u.T) > 0.0 else -1.0
    rotation = w @ np.diag([1.0, 1.0, sign]) @ u.T
    return rotation.T if reversed_mode else rotation


def plate_angle_candidates(rotation, reference=(0.0, 0.0, 0.0)) -> list[WavePlateAngles]:
    """The four plate settings whose Stokes rotation is ``rotation``.

    The first quarter plate takes an equatorial direction
    u = (cos phi, sin phi, 0) to the S3 pole and the half plate flips the
    pole, so the last quarter plate must take the opposite pole to R u.
    That needs R u on the equator, which fixes phi up to pi and then
    theta3; the half plate is what is left, fixed up to pi/2.  When R keeps
    the pole in place every phi works, and the reference theta1 is used.
    """
    r = np.asarray(rotation, dtype=float)
    if math.hypot(r[2, 0], r[2, 1]) <= _POLE_TOLERANCE:
        phi0 = 2.0 * reference[0] + math.pi / 2.0
    else:
        phi0 = math.atan2(-r[2, 0], r[2, 1])
    candidates = []
    for phi in (phi0, phi0 + math.pi):
        theta1 = (phi - math.pi / 2.0) / 2.0
        ru = r @ np.array([math.cos(phi), math.sin(phi), 0.0])
        theta3 = (math.atan2(ru[1], ru[0]) - math.pi / 2.0) / 2.0
        m = _quarter_rotation(theta3).T @ r @ _quarter_rotation(theta1).T
        theta2 = math.atan2(m[0, 1], m[0, 0]) / 4.0
        for t2 in (theta2, theta2 + math.pi / 2.0):
            candidates.append(WavePlateAngles(theta1, t2, theta3))
    return candidates


def wrapped_angle_distance(a: float, b: float) -> float:
    """Shortest plate travel between two rotations, modulo pi."""
    d = math.fmod(abs(a - b), math.pi)
    return min(d, math.pi - d)


def _travel(angles, reference) -> float:
    return sum(wrapped_angle_distance(a, b) for a, b in zip(angles, reference))


def cost(
    angles: WavePlateAngles,
    recon: ReconstructionSet,
    opts: CompensationOptions | None = None,
) -> float:
    """Compensation cost at the given plate angles.

    Negative summed fidelity between the compensated reconstructions and
    the targets (index order H, V, D, A), plus the motion penalty when
    enabled.
    """
    opts = opts if opts is not None else CompensationOptions()
    value = _stokes_cost(
        _stack_rotation(angles.as_tuple()),
        _wahba_matrix(recon),
        recon.direction is Direction.REVERSED,
    )
    if opts.motion_penalty_weight > 0.0:
        value += opts.motion_penalty_weight * _travel(
            angles.as_tuple(), opts.previous_angles.as_tuple()
        )
    return value


def optimize(
    recon: ReconstructionSet,
    opts: CompensationOptions | None = None,
) -> CompensationResult:
    """Minimize the compensation cost.

    Without the motion penalty the optimum is exact: the Wahba rotation
    and, of its four plate settings, the one with the least total travel
    from ``previous_angles`` (zeros when absent).  With the penalty, a
    Nelder-Mead search on cost plus penalty starts from each of those
    settings and from ``previous_angles``, and the best result wins.
    ``evaluations_used`` counts cost evaluations, ``converged`` reports
    whether that search met its tolerance.
    """
    opts = opts if opts is not None else CompensationOptions()
    b = _wahba_matrix(recon)
    reversed_mode = recon.direction is Direction.REVERSED
    reference = (
        opts.previous_angles.as_tuple() if opts.previous_angles is not None else (0.0, 0.0, 0.0)
    )
    candidates = plate_angle_candidates(_optimal_rotation(b, reversed_mode), reference)
    angles = min(candidates, key=lambda a: _travel(a.as_tuple(), reference))
    evaluations = 1
    converged = True

    lam = opts.motion_penalty_weight
    if lam > 0.0:
        # imported here because scipy.optimize adds ~0.6 s and ~50 MB to
        # start-up, and only the penalized search needs it
        from scipy.optimize import minimize

        def objective(x):
            return _stokes_cost(_stack_rotation(x), b, reversed_mode) + lam * _travel(x, reference)

        best = None
        for start in [c.as_tuple() for c in candidates] + [reference]:
            res = minimize(
                objective, start, method="Nelder-Mead", options={"xatol": 1e-10, "fatol": 1e-12}
            )
            evaluations += res.nfev
            if best is None or res.fun < best.fun:
                best = res
        angles = WavePlateAngles(*best.x)
        converged = bool(best.success)

    raw = angles.as_tuple()
    cost_free = _stokes_cost(_stack_rotation(raw), b, reversed_mode)
    penalized = cost_free + lam * _travel(raw, reference)
    predicted = 1.0 + cost_free / 4.0
    if predicted < -1e-9 or predicted > 1.0 + 1e-9:
        raise ValueError(f"predicted QBER {predicted!r} escaped [0, 1]")
    predicted = min(1.0, max(0.0, predicted))
    return CompensationResult(
        angles=angles,
        cost=penalized,
        predicted_qber=predicted,
        evaluations_used=evaluations,
        converged=converged,
    )


def residual_qber(
    true_channel: ChannelUnitary, angles: WavePlateAngles, direction: Direction
) -> float:
    """Error ratio of ideal signal states after channel plus compensation.

    1 - (1/4) sum_n |<psi_n| W |psi_n>|^2 over the BB84 states, with
    W = V(theta) U forward (plates after the channel) and W = U V(theta)
    reversed (plates before it); zero exactly when V undoes U up to a
    phase, independent of any source depolarization.
    """
    v = _plate_stack(angles)
    u = true_channel.entries
    w = v @ u if Direction(direction) is Direction.FORWARD else u @ v
    overlaps = np.sum(BB84_KETS.conj() * (w @ BB84_KETS), axis=0)
    return 1.0 - float(np.sum(np.abs(overlaps) ** 2)) / 4.0
