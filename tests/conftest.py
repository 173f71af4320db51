import os

import numpy as np
import pytest

from polalign import ChannelUnitary, CountMatrix, Direction
from polalign.montecarlo import expected_probabilities
from polalign.polarization import PAULI_STOKES


def default_jobs() -> int:
    env = os.environ.get("POLALIGN_TEST_JOBS")
    if env:
        return max(1, int(env))
    return max(1, os.cpu_count() or 1)


def exact_count_matrix(
    u: ChannelUnitary, direction: Direction, signal_fidelity: float = 1.0, total: float = 1e4
) -> CountMatrix:
    """Noiseless counts: exactly proportional to the model probabilities.

    Only count fractions matter to the reconstruction; ``total`` matters
    only to callers that round the counts to integers.
    """
    p = expected_probabilities(u, direction, signal_fidelity)
    return CountMatrix(direction, p * total)


def operator_fidelity(u: np.ndarray, v: np.ndarray) -> float:
    """Phase-insensitive closeness of two 2x2 unitaries: |tr(U+V)|^2 / 4."""
    return abs(np.trace(u.conj().T @ v)) ** 2 / 4.0


def stokes_rotation(u: np.ndarray) -> np.ndarray:
    """SO(3) action of a 2x2 unitary on Stokes vectors: R_ij = tr(s_i U s_j U+) / 2."""
    return np.array(
        [[0.5 * np.real(np.trace(si @ u @ sj @ u.conj().T)) for sj in PAULI_STOKES]
         for si in PAULI_STOKES]
    )


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    eigs = np.linalg.eigvalsh(np.asarray(a) - np.asarray(b))
    return 0.5 * float(np.sum(np.abs(eigs)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)
