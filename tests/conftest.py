import os

import numpy as np
import pytest

from polalign import ChannelUnitary, CountMatrix, Direction, haar_random_unitary
from polalign.montecarlo import TrialConfig, expected_probabilities, generate_counts

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
    p = expected_probabilities(u.entries, direction, signal_fidelity)
    return CountMatrix(direction, p * total)


def linear_count_matrix(counts) -> CountMatrix:
    """Forward counts whose linear-basis block is the 4x4 ``counts``; R and L columns zero."""
    padded = np.pad(np.asarray(counts, dtype=float), ((0, 0), (0, 2)))
    return CountMatrix(Direction.FORWARD, padded)


def haar_channel(rng) -> ChannelUnitary:
    """One Haar-random channel: a size-1 draw, validated."""
    return ChannelUnitary(haar_random_unitary(rng, 1)[0])


def drawn_count_matrix(u: ChannelUnitary, cfg: TrialConfig, rng) -> CountMatrix:
    """The count matrix of one trial of ``cfg``, drawn through channel ``u``."""
    return CountMatrix(cfg.direction, generate_counts(u.entries, cfg, rng))


def operator_fidelity(u: np.ndarray, v: np.ndarray) -> float:
    """Phase-insensitive closeness of two 2x2 unitaries: |tr(U+V)|^2 / 4."""
    return abs(np.trace(u.conj().T @ v)) ** 2 / 4.0


def haar_state(rng, label: str = "H") -> np.ndarray:
    """A Haar-random pure state: the image of a canonical ket under a Haar channel."""
    return haar_channel(rng).entries @ KETS[label]


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    eigs = np.linalg.eigvalsh(np.asarray(a) - np.asarray(b))
    return 0.5 * float(np.sum(np.abs(eigs)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)
