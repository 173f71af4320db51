"""Channel draws and wave-plate settings: the polarization conventions the program runs.

The program is Stokes-only.  A channel is drawn once as a Haar-random 2x2
unitary, through an explicitly passed numpy Generator, and from then on is
described by its rotation R of Stokes vectors; the plates are set and the
compensation is scored on rotations too.  The only Jones plate algebra is
the tests' reference physics (tests/oracles.py), written from the
conventions below.

Conventions (fixed once, used everywhere):

* Canonical kets: H=(1,0), V=(0,1), D=(1,1)/sqrt2, A=(1,-1)/sqrt2,
  R=(1,i)/sqrt2, L=(1,-i)/sqrt2.
* A wave plate whose fast axis is rotated by theta from horizontal acts as
  R(theta) @ diag(1, e^{i delta}) @ R(-theta), with R the standard 2D
  rotation matrix and delta the retardance (pi/2 quarter, pi half).  On
  Stokes vectors that is a rotation by delta about (cos 2 theta,
  sin 2 theta, 0).  The stack V(theta) = Q(theta3) H(theta2) Q(theta1)
  acts with the first quarter plate first; ``compensation._plate_settings``
  encodes it.  Global phases are never normalized away; all comparisons
  are phase-insensitive.
* Stokes components are ordered (S1, S2, S3) = (H-V, D-A, R-L) expectation
  values, i.e. ``rho = (I + S1*sz + S2*sx + S3*sy) / 2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import _real

BB84_LABELS = ("H", "V", "D", "A")
ALL_LABELS = ("H", "V", "D", "A", "R", "L")
#: basis of each outcome pair (H/V, D/A, R/L)
BASIS_NAMES = ("Z", "X", "Y")


def reduce_angle(theta: float) -> float:
    """Reduce a physical plate rotation to [0, pi); idempotent.

    Wave plates are pi-periodic in physical rotation, so angles are stored
    reduced.  The result is the exact residue of theta modulo the float pi,
    rounded once; already-reduced values map to themselves.
    """
    if not math.isfinite(theta):
        raise ValueError(f"angle must be finite, got {theta!r}")
    reduced = theta % math.pi
    # a tiny negative theta leaves pi minus itself, which can round up to pi
    return reduced if reduced < math.pi else 0.0


@dataclass(frozen=True, init=False)
class WavePlateAngles:
    """Physical rotation angles (radians) of the quarter-half-quarter stack.

    Each angle is a real number by ``errors._real``, reduced to [0, pi) on construction.
    """

    theta1: float
    theta2: float
    theta3: float

    def __init__(self, theta1: float, theta2: float, theta3: float):
        object.__setattr__(self, "theta1", reduce_angle(_real(theta1, "theta1")))
        object.__setattr__(self, "theta2", reduce_angle(_real(theta2, "theta2")))
        object.__setattr__(self, "theta3", reduce_angle(_real(theta3, "theta3")))

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.theta1, self.theta2, self.theta3)


def haar_random_unitary(rng: np.random.Generator, size: int) -> np.ndarray:
    """Entries of ``size`` 2x2 unitaries drawn from the Haar measure on U(2), shape (size, 2, 2).

    Sampled in closed form from one ``rng.random((size, 4))``, a row of
    four uniforms (u, alpha, beta, gamma) per draw: an SU(2) element is a
    point on the unit 3-sphere, where |U00|^2 = u is uniform on [0, 1] and
    the two internal phases are uniform; an overall random phase lifts
    SU(2) to U(2).
    """
    u, alpha, beta, gamma = rng.random((size, 4)).T
    a = np.sqrt(u) * np.exp(2j * np.pi * alpha)
    b = np.sqrt(1.0 - u) * np.exp(2j * np.pi * beta)
    # the phase as the left operand: NumPy's complex multiply rounds some
    # entries differently with the operands swapped, and the tests pin the
    # draws' last bits
    phase = np.exp(2j * np.pi * gamma)[:, None]
    return (phase * np.stack((a, b, -b.conj(), a.conj()), axis=-1)).reshape(size, 2, 2)
