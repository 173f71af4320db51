"""Exact single-qubit polarization algebra.

States are Jones vectors in the {|H>, |V>} basis; channels and wave plates
are 2x2 unitaries.  Everything here is small, exact, and pure: the only
randomness enters through an explicitly passed numpy Generator.

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

import cmath
import math
from dataclasses import dataclass

import numpy as np

ATOL = 1e-12

BB84_LABELS = ("H", "V", "D", "A")
ALL_LABELS = ("H", "V", "D", "A", "R", "L")
#: basis of each outcome pair (H/V, D/A, R/L)
BASIS_NAMES = ("Z", "X", "Y")

_SQRT_HALF = math.sqrt(0.5)
CANONICAL_KETS = {
    "H": np.array([1.0, 0.0], dtype=complex),
    "V": np.array([0.0, 1.0], dtype=complex),
    "D": np.array([_SQRT_HALF, _SQRT_HALF], dtype=complex),
    "A": np.array([_SQRT_HALF, -_SQRT_HALF], dtype=complex),
    "R": np.array([_SQRT_HALF, 1j * _SQRT_HALF], dtype=complex),
    "L": np.array([_SQRT_HALF, -1j * _SQRT_HALF], dtype=complex),
}

SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
#: Pauli operators in Stokes order (S1, S2, S3)
PAULI_STOKES = (SIGMA_Z, SIGMA_X, SIGMA_Y)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


#: the BB84 kets as columns, in BB84_LABELS order
BB84_KETS = _freeze(np.column_stack([CANONICAL_KETS[lab] for lab in BB84_LABELS]))


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
class PureState:
    """Unit-norm two-component Jones vector.

    Global phase carries no physical meaning; compare states through
    :func:`fidelity_pure`, never through raw amplitudes.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.array(self.amplitudes, dtype=complex)
        if amp.shape != (2,):
            raise ValueError(f"a polarization ket has exactly 2 amplitudes, got shape {amp.shape}")
        norm = float(np.sum(np.abs(amp) ** 2))
        if abs(norm - 1.0) > ATOL:
            raise ValueError(f"state is not unit-norm: |a|^2 = {norm!r}")
        object.__setattr__(self, "amplitudes", _freeze(amp))

    def projector(self) -> np.ndarray:
        """|psi><psi| as a plain 2x2 array."""
        return np.outer(self.amplitudes, self.amplitudes.conj())


@dataclass(frozen=True)
class DensityMatrix:
    """2x2 Hermitian, positive-semidefinite, trace-one qubit state."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.array(self.entries, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"density matrix must be 2x2, got shape {m.shape}")
        a, b, c, d = complex(m[0, 0]), complex(m[0, 1]), complex(m[1, 0]), complex(m[1, 1])
        if abs(a.imag) > ATOL or abs(d.imag) > ATOL or abs(b - c.conjugate()) > ATOL:
            raise ValueError("density matrix is not Hermitian")
        tr = a.real + d.real
        if abs(tr - 1.0) > ATOL:
            raise ValueError(f"density matrix trace is {tr!r}, expected 1")
        # 2x2 Hermitian eigenvalues in closed form
        half_gap = math.sqrt(((a.real - d.real) / 2.0) ** 2 + abs(b) ** 2)
        if tr / 2.0 - half_gap < -ATOL:
            raise ValueError(
                f"density matrix has negative eigenvalue {tr / 2.0 - half_gap!r}"
            )
        object.__setattr__(self, "entries", _freeze(m))


@dataclass(frozen=True)
class ChannelUnitary:
    """2x2 unitary: the lumped channel rotation, or a compensation stack."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.array(self.entries, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"channel unitary must be 2x2, got shape {m.shape}")
        a, b, c, d = complex(m[0, 0]), complex(m[0, 1]), complex(m[1, 0]), complex(m[1, 1])
        # columns must be orthonormal: entries of U+U compared to I
        col0 = abs(a) ** 2 + abs(c) ** 2
        col1 = abs(b) ** 2 + abs(d) ** 2
        cross = a.conjugate() * b + c.conjugate() * d
        if abs(col0 - 1.0) > ATOL or abs(col1 - 1.0) > ATOL or abs(cross) > ATOL:
            raise ValueError("matrix is not unitary within 1e-12")
        object.__setattr__(self, "entries", _freeze(m))

    def apply(self, psi: PureState) -> PureState:
        return PureState(self.entries @ psi.amplitudes)


@dataclass(frozen=True)
class WavePlateAngles:
    """Physical rotation angles (radians) of the quarter-half-quarter stack.

    Angles are reduced to [0, pi) on construction.
    """

    theta1: float
    theta2: float
    theta3: float

    def __post_init__(self):
        object.__setattr__(self, "theta1", reduce_angle(float(self.theta1)))
        object.__setattr__(self, "theta2", reduce_angle(float(self.theta2)))
        object.__setattr__(self, "theta3", reduce_angle(float(self.theta3)))

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.theta1, self.theta2, self.theta3)


def canonical_state(label: str) -> PureState:
    """One of the six canonical polarization states H, V, D, A, R, L."""
    try:
        ket = CANONICAL_KETS[label]
    except KeyError:
        raise ValueError(f"unknown state label {label!r}; expected one of {ALL_LABELS}") from None
    return PureState(ket)


def fidelity_pure(phi: PureState, psi: PureState) -> float:
    """|<phi|psi>|^2 — symmetric and global-phase invariant."""
    overlap = np.vdot(phi.amplitudes, psi.amplitudes)
    return float(abs(overlap) ** 2)


def fidelity_mixed(phi: PureState, rho: DensityMatrix) -> float:
    """<phi|rho|phi>; reduces to fidelity_pure for a pure projector."""
    a = phi.amplitudes
    return float(np.real(a.conj() @ rho.entries @ a))


def depolarize(psi: PureState, fs: float) -> DensityMatrix:
    """Isotropically depolarized state with signal fidelity ``fs``.

    Returns (2 fs - 1)|psi><psi| + (1 - fs) I, the effective state of a
    source/detector chain whose probability of projecting onto the intended
    state is ``fs``.  Values below 0.5 would describe an inverted signal
    and are rejected as configuration mistakes.
    """
    if not 0.5 <= fs <= 1.0:
        raise ValueError(f"signal fidelity must be in [0.5, 1], got {fs!r}")
    rho = (2.0 * fs - 1.0) * psi.projector() + (1.0 - fs) * np.eye(2, dtype=complex)
    return DensityMatrix(rho)


def _plate_entries(theta: float, retardance_phase: complex) -> tuple:
    """R(theta) @ diag(1, e) @ R(-theta), expanded, as row-major scalars."""
    c = math.cos(theta)
    s = math.sin(theta)
    e = retardance_phase
    off = c * s * (1.0 - e)
    return (c * c + e * s * s, off, off, s * s + e * c * c)


def _wave_plate(theta: float, retardance_phase: complex) -> np.ndarray:
    return np.array(_plate_entries(theta, retardance_phase), dtype=complex).reshape(2, 2)


def quarter_wave(theta: float) -> ChannelUnitary:
    """Quarter-wave plate (retardance pi/2) with fast axis at ``theta``."""
    if not math.isfinite(theta):
        raise ValueError(f"angle must be finite, got {theta!r}")
    return ChannelUnitary(_wave_plate(theta, 1.0j))


def half_wave(theta: float) -> ChannelUnitary:
    """Half-wave plate (retardance pi) with fast axis at ``theta``."""
    if not math.isfinite(theta):
        raise ValueError(f"angle must be finite, got {theta!r}")
    return ChannelUnitary(_wave_plate(theta, -1.0))


def compensation_unitary(angles: WavePlateAngles) -> ChannelUnitary:
    """Quarter-half-quarter stack; the first quarter plate acts first.

    V(theta) = Q(theta3) @ H(theta2) @ Q(theta1).  The stack reaches every
    SU(2) element up to global phase, so three plate rotations suffice to
    undo any channel unitary.
    """
    return ChannelUnitary(np.array(_plate_stack(angles), dtype=complex).reshape(2, 2))


def _plate_stack(angles: WavePlateAngles) -> tuple:
    """Jones matrix of :func:`compensation_unitary` as row-major scalars, unchecked."""
    q3_h2 = _matmul2(_plate_entries(angles.theta3, 1.0j), _plate_entries(angles.theta2, -1.0))
    return _matmul2(q3_h2, _plate_entries(angles.theta1, 1.0j))


def _matmul2(x, y) -> tuple:
    """Product of two 2x2 matrices held as row-major scalar 4-tuples."""
    return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
            x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])


def haar_random_unitary(rng: np.random.Generator) -> ChannelUnitary:
    """Draw a 2x2 unitary from the Haar measure on U(2).

    Sampled in closed form: an SU(2) element is a point on the unit
    3-sphere, where |U00|^2 is uniform on [0, 1] and the two internal
    phases are uniform; an overall random phase lifts SU(2) to U(2).
    """
    u, alpha, beta, gamma = rng.random(4).tolist()
    ca = math.sqrt(u)
    sa = math.sqrt(1.0 - u)
    a = ca * cmath.exp(2j * math.pi * alpha)
    b = sa * cmath.exp(2j * math.pi * beta)
    phase = cmath.exp(2j * math.pi * gamma)
    mat = np.array([[a, b], [-b.conjugate(), a.conjugate()]], dtype=complex)
    # an array multiply: Python's complex product rounds some entries differently
    return ChannelUnitary(phase * mat)


def qber_from_fidelities(fidelities) -> float:
    """Quantum bit error ratio 1 - mean(F_n) over the four BB84 states."""
    f = [float(x) for x in fidelities]
    if len(f) != 4:
        raise ValueError(f"expected four fidelities, got {len(f)}")
    for x in f:
        if not 0.0 <= x <= 1.0:
            raise ValueError(f"fidelity {x!r} outside [0, 1]")
    return 1.0 - sum(f) / 4.0


def stokes_vector(rho: DensityMatrix) -> np.ndarray:
    """(S1, S2, S3) = (<sz>, <sx>, <sy>) of a state."""
    m = rho.entries
    s1 = float(np.real(m[0, 0] - m[1, 1]))
    s2 = float(2.0 * np.real(m[0, 1]))
    s3 = float(-2.0 * np.imag(m[0, 1]))
    return np.array([s1, s2, s3])


def density_from_stokes(s1: float, s2: float, s3: float) -> DensityMatrix:
    """Inverse of :func:`stokes_vector`; |s| must not exceed 1."""
    m = 0.5 * (np.eye(2, dtype=complex) + s1 * SIGMA_Z + s2 * SIGMA_X + s3 * SIGMA_Y)
    return DensityMatrix(m)
