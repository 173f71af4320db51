import os

import numpy as np
import pytest

from polalign import ChannelUnitary, CountMatrix, Direction, haar_random_unitary
from polalign.montecarlo import expected_probabilities

from oracles import KETS


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


def haar_state(rng, label: str = "H") -> np.ndarray:
    """A Haar-random pure state: the image of a canonical ket under a Haar channel."""
    return haar_random_unitary(rng).entries @ KETS[label]


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    eigs = np.linalg.eigvalsh(np.asarray(a) - np.asarray(b))
    return 0.5 * float(np.sum(np.abs(eigs)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)
