"""Polarization-frame alignment for BB84 QKD at single-photon signal levels.

Channel characterization by six-outcome qubit tomography, compensation by
a quarter-half-quarter wave-plate stack set in closed form from the optimal
Stokes rotation, Monte Carlo performance sweeps over photon budget and
signal fidelity, and a timing-vs-polarization misalignment discriminator.
The package holds what the ``polalign`` commands and the sweep run; the
independent reference physics the tests compare against lives in
``tests/oracles.py``.
"""

from .polarization import (
    ALL_LABELS,
    BB84_LABELS,
    ChannelUnitary,
    WavePlateAngles,
    haar_random_unitary,
    reduce_angle,
)
from .tomography import (
    CountMatrix,
    Direction,
    ReconstructionSet,
    reconstruct_forward,
    reconstruct_reversed,
)
from .compensation import (
    CompensationResult,
    optimize,
    residual_qber,
    wrapped_angle_distance,
)
from .montecarlo import (
    BackgroundStudyCell,
    BackgroundStudyResult,
    FitResult,
    SweepCell,
    SweepResult,
    TrialConfig,
    background_study,
    expected_detection_rate,
    expected_probabilities,
    fit_power_law,
    generate_counts,
    run_sweep,
    run_trial,
)
from .timing import (
    AlignmentStatus,
    AlignmentVerdict,
    classify,
)
from .errors import (
    ConfigError,
    FitError,
    InsufficientCountsError,
    PolalignError,
    SchemaError,
    SweepError,
)

__version__ = "0.1.0"
