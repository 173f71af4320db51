"""Channel unitaries and wave-plate settings: the polarization algebra the program runs.

Channels and the quarter-half-quarter stack are 2x2 unitaries on Jones
vectors in the {|H>, |V>} basis; the only randomness is the Haar draw of
channels, through an explicitly passed numpy Generator.  The tests' reference
physics (tests/oracles.py) is written from the conventions below.

Conventions (fixed once, used everywhere):

* Canonical kets: H=(1,0), V=(0,1), D=(1,1)/sqrt2, A=(1,-1)/sqrt2,
  R=(1,i)/sqrt2, L=(1,-i)/sqrt2.
* A wave plate whose fast axis is rotated by theta from horizontal acts as
  R(theta) @ diag(1, e^{i delta}) @ R(-theta), with R the standard 2D
  rotation matrix and delta the retardance (pi/2 quarter, pi half).
  Global phases are never normalized away; all comparisons are
  phase-insensitive.
* Stokes components are ordered (S1, S2, S3) = (H-V, D-A, R-L) expectation
  values, i.e. ``rho = (I + S1*sz + S2*sx + S3*sy) / 2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ATOL = 1e-12

BB84_LABELS = ("H", "V", "D", "A")
ALL_LABELS = ("H", "V", "D", "A", "R", "L")
#: basis of each outcome pair (H/V, D/A, R/L)
BASIS_NAMES = ("Z", "X", "Y")


def reduce_angle(theta: float) -> float:
    """Reduce a physical plate rotation to [0, pi); idempotent.

    Wave plates are pi-periodic in physical rotation, so angles are stored
    reduced.  The reduction maps already-reduced values to themselves
    exactly.
    """
    if not math.isfinite(theta):
        raise ValueError(f"angle must be finite, got {theta!r}")
    if 0.0 <= theta < math.pi:
        return theta
    reduced = theta - math.floor(theta / math.pi) * math.pi
    if reduced >= math.pi:
        reduced -= math.pi
    if reduced < 0.0:
        reduced += math.pi
    return reduced


@dataclass(frozen=True)
class ChannelUnitary:
    """2x2 unitary: the lumped rotation of the quantum channel."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.array(self.entries, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"channel unitary must be 2x2, got shape {m.shape}")
        a, b, c, d = m.ravel().tolist()
        # columns must be orthonormal: entries of U+U compared to I, each
        # test written so that NaN fails it
        col0 = abs(a) ** 2 + abs(c) ** 2
        col1 = abs(b) ** 2 + abs(d) ** 2
        cross = a.conjugate() * b + c.conjugate() * d
        if not (abs(col0 - 1.0) <= ATOL and abs(col1 - 1.0) <= ATOL and abs(cross) <= ATOL):
            raise ValueError("matrix is not unitary within 1e-12")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)


@dataclass(frozen=True, init=False)
class WavePlateAngles:
    """Physical rotation angles (radians) of the quarter-half-quarter stack.

    Angles are reduced to [0, pi) on construction.
    """

    theta1: float
    theta2: float
    theta3: float

    def __init__(self, theta1: float, theta2: float, theta3: float):
        object.__setattr__(self, "theta1", reduce_angle(float(theta1)))
        object.__setattr__(self, "theta2", reduce_angle(float(theta2)))
        object.__setattr__(self, "theta3", reduce_angle(float(theta3)))

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.theta1, self.theta2, self.theta3)


def _plate_entries(theta: float, retardance_phase: complex) -> tuple:
    """R(theta) @ diag(1, e) @ R(-theta), expanded, as row-major scalars."""
    c = math.cos(theta)
    s = math.sin(theta)
    e = retardance_phase
    off = c * s * (1.0 - e)
    return (c * c + e * s * s, off, off, s * s + e * c * c)


def _plate_stack(angles: WavePlateAngles) -> tuple:
    """Jones matrix of the quarter-half-quarter stack as row-major scalars, unchecked.

    V(theta) = Q(theta3) @ H(theta2) @ Q(theta1): the first quarter plate
    acts first.  The stack reaches every SU(2) element up to global phase,
    so three plate rotations suffice to undo any channel unitary.
    """
    q3_h2 = _matmul2(_plate_entries(angles.theta3, 1.0j), _plate_entries(angles.theta2, -1.0))
    return _matmul2(q3_h2, _plate_entries(angles.theta1, 1.0j))


def _matmul2(x, y) -> tuple:
    """Product of two 2x2 matrices held as row-major scalar 4-tuples."""
    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    return (x0 * y0 + x1 * y2, x0 * y1 + x1 * y3, x2 * y0 + x3 * y2, x2 * y1 + x3 * y3)


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
