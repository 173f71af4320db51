"""Reference physics for the tests, in plain numpy, independent of the program.

Written from the conventions of ``polalign.polarization``: the six kets,
a wave plate at theta of retardance delta as R(theta) diag(1, e^{i delta})
R(-theta), and Stokes components (S1, S2, S3) = (<sz>, <sx>, <sy>).
Nothing here imports the program's plate or product code, so an error
there cannot cancel against the oracle it is checked with.  States are
checked where they are built, so a non-physical one fails loudly.
"""

import cmath
import math

import numpy as np

ATOL = 1e-12
BB84 = ("H", "V", "D", "A")
_R = math.sqrt(0.5)
KETS = {label: np.array(amplitudes, dtype=complex) for label, amplitudes in (
    ("H", (1.0, 0.0)), ("V", (0.0, 1.0)), ("D", (_R, _R)), ("A", (_R, -_R)),
    ("R", (_R, 1j * _R)), ("L", (_R, -1j * _R)))}
for _ket in KETS.values():
    _ket.setflags(write=False)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
#: Pauli operators in Stokes order (S1, S2, S3)
PAULI = (SIGMA_Z, SIGMA_X, SIGMA_Y)


def pure(amplitudes) -> np.ndarray:
    """A read-only copy of a Jones vector, checked to hold two amplitudes of unit norm."""
    psi = np.array(amplitudes, dtype=complex)
    if psi.shape != (2,):
        raise ValueError(f"a polarization ket has exactly 2 amplitudes, got shape {psi.shape}")
    norm = float(np.sum(np.abs(psi) ** 2))
    if not abs(norm - 1.0) <= ATOL:  # NaN fails
        raise ValueError(f"state is not unit-norm: |a|^2 = {norm!r}")
    psi.setflags(write=False)
    return psi


def density(entries) -> np.ndarray:
    """A read-only copy of a 2x2 matrix, checked to be Hermitian, trace one and positive."""
    rho = np.array(entries, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError(f"density matrix must be 2x2, got shape {rho.shape}")
    a, b, c, d = rho.ravel().tolist()
    # each test is written so that NaN fails it, before eigvalsh could see one
    if not (abs(a.imag) <= ATOL and abs(d.imag) <= ATOL and abs(b - c.conjugate()) <= ATOL):
        raise ValueError("density matrix is not Hermitian")
    if not abs(a.real + d.real - 1.0) <= ATOL:
        raise ValueError(f"density matrix trace is {a.real + d.real!r}, expected 1")
    lowest = float(np.linalg.eigvalsh(rho).min())
    if not lowest >= -ATOL:
        raise ValueError(f"density matrix has negative eigenvalue {lowest!r}")
    rho.setflags(write=False)
    return rho


def projector(psi) -> np.ndarray:
    return np.outer(psi, np.conj(psi))


def overlap(phi, psi) -> float:
    """|<phi|psi>|^2, the fidelity of two pure states."""
    return float(abs(np.vdot(phi, psi)) ** 2)


def fidelity(phi, rho) -> float:
    """<phi|rho|phi>, the fidelity of a pure state to a density matrix."""
    return float(np.real(np.vdot(phi, rho @ phi)))


def depolarize(psi, fs: float) -> np.ndarray:
    """(2 fs - 1)|psi><psi| + (1 - fs) I: the state of signal fidelity ``fs``."""
    if not 0.5 <= fs <= 1.0:
        raise ValueError(f"signal fidelity must be in [0.5, 1], got {fs!r}")
    return density((2.0 * fs - 1.0) * projector(pure(psi)) + (1.0 - fs) * np.eye(2))


def qber(fidelities) -> float:
    """Quantum bit error ratio 1 - mean(F_n) over the four BB84 states."""
    f = [float(x) for x in fidelities]
    if len(f) != 4:
        raise ValueError(f"expected four fidelities, got {len(f)}")
    if not all(0.0 <= x <= 1.0 for x in f):
        raise ValueError(f"a fidelity in {f} lies outside [0, 1]")
    return 1.0 - sum(f) / 4.0


def stokes(rho) -> np.ndarray:
    return np.array([np.real(np.trace(rho @ p)) for p in PAULI])


def rho_from_stokes(s) -> np.ndarray:
    return density(0.5 * (np.eye(2) + sum(x * p for x, p in zip(s, PAULI))))


def stokes_rotation(u) -> np.ndarray:
    """SO(3) action of a 2x2 unitary on Stokes vectors: R_ij = tr(s_i U s_j U+) / 2."""
    u = np.asarray(u)
    return np.array([[0.5 * np.real(np.trace(si @ u @ sj @ u.conj().T)) for sj in PAULI]
                     for si in PAULI])


def haar_unitary(u: float, alpha: float, beta: float, gamma: float) -> np.ndarray:
    """The Haar draw on four uniforms, in scalars: e^{2 pi i gamma} [[a, b], [-b*, a*]]
    with a = sqrt(u) e^{2 pi i alpha} and b = sqrt(1 - u) e^{2 pi i beta}."""
    a = math.sqrt(u) * cmath.exp(2j * math.pi * alpha)
    b = math.sqrt(1.0 - u) * cmath.exp(2j * math.pi * beta)
    phase = cmath.exp(2j * math.pi * gamma)
    return np.array([[phase * a, phase * b], [-phase * b.conjugate(), phase * a.conjugate()]])


def _plate(theta: float, delta: float) -> tuple:
    """Wave plate of retardance delta, fast axis at theta: R(theta) diag(1, e^{i delta})
    R(-theta) multiplied out, as row-major scalars."""
    c, s = math.cos(theta), math.sin(theta)
    e = cmath.exp(1j * delta)
    off = c * s * (1.0 - e)
    return (c * c + e * s * s, off, off, s * s + e * c * c)


def _product(x, y) -> tuple:
    return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
            x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])


def quarter(theta: float) -> np.ndarray:
    return np.array(_plate(theta, math.pi / 2.0)).reshape(2, 2)


def half(theta: float) -> np.ndarray:
    return np.array(_plate(theta, math.pi)).reshape(2, 2)


def stack(theta1: float, theta2: float, theta3: float) -> np.ndarray:
    """Q(theta3) H(theta2) Q(theta1), the first plate acting first; in scalars, for speed."""
    q3_h2 = _product(_plate(theta3, math.pi / 2.0), _plate(theta2, math.pi))
    return np.array(_product(q3_h2, _plate(theta1, math.pi / 2.0))).reshape(2, 2)


def linear_inversion(counts) -> np.ndarray:
    """Direct Stokes inversion of six outcome totals (H,V,D,A,R,L); may be non-positive."""
    n = np.asarray(counts, dtype=float)
    s = (n[0::2] - n[1::2]) / (n[0::2] + n[1::2])
    return 0.5 * (np.eye(2) + sum(x * p for x, p in zip(s, PAULI)))


def _linear_overlaps(u) -> np.ndarray:
    """|<phi|U|psi>|^2 for BB84 analyzer states phi (rows) and preparations psi (columns)."""
    kets = np.column_stack([KETS[label] for label in BB84])
    return np.abs(kets.conj().T @ (u @ kets)) ** 2


def aligned_max_probability(u) -> float:
    """Best conditional detection probability under intact timing, (1/2) max |<phi|U|psi>|^2,
    the 1/2 for the receiver's choice between the two linear bases.  Never below 3/8."""
    return 0.5 * float(_linear_overlaps(u).max())


def worst_case_unitary() -> np.ndarray:
    """A channel at the 3/8 bound: the signal circle turned 90 degrees about an
    axis midway between two adjacent analyzer states."""
    axis = -(SIGMA_X + SIGMA_Z) / math.sqrt(2.0)
    return math.cos(math.pi / 4.0) * np.eye(2) - 1j * math.sin(math.pi / 4.0) * axis


def timing_counts(u, n_events: int, rng, *, timing_aligned: bool = True) -> np.ndarray:
    """4x4 linear-basis counts (preparations H, V, D, A by the same outcomes): Born-sampled
    through ``u`` with a uniform basis choice, or 1/16 per cell under broken timing."""
    p = _linear_overlaps(u).T / 8.0 if timing_aligned else np.full((4, 4), 1.0 / 16.0)
    return rng.multinomial(n_events, p.ravel()).reshape(4, 4).astype(float)
