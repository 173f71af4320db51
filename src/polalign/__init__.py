"""Polarization-frame alignment for BB84 QKD at single-photon signal levels.

Channel characterization by six-outcome qubit tomography, compensation by
a quarter-half-quarter wave-plate stack set in closed form from the optimal
Stokes rotation, Monte Carlo performance sweeps over photon budget and
signal fidelity, and a timing-vs-polarization misalignment discriminator.
"""

from .polarization import (
    ALL_LABELS,
    BB84_LABELS,
    CANONICAL_KETS,
    ChannelUnitary,
    DensityMatrix,
    PureState,
    WavePlateAngles,
    canonical_state,
    compensation_unitary,
    density_from_stokes,
    depolarize,
    fidelity_mixed,
    fidelity_pure,
    haar_random_unitary,
    half_wave,
    qber_from_fidelities,
    quarter_wave,
    reduce_angle,
    stokes_vector,
)
from .tomography import (
    CountMatrix,
    Direction,
    ReconstructionSet,
    linear_inversion,
    mle_reconstruct,
    reconstruct_forward,
    reconstruct_reversed,
)
from .compensation import (
    CompensationOptions,
    CompensationResult,
    cost,
    optimize,
    residual_qber,
    wrapped_angle_distance,
)
from .montecarlo import (
    BackgroundStudyCell,
    BackgroundStudyResult,
    DetectionRateParams,
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
    aligned_max_probability,
    classify,
    generate_timing_counts,
    worst_case_unitary,
)
from .errors import (
    FitError,
    InsufficientCountsError,
    PolalignError,
    SchemaError,
    SweepError,
)

__version__ = "0.1.0"
