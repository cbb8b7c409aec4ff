"""Stroboscopic probe-qubit tomography of a single field mode.

Simulates the full protocol: prepare a target field state, read out a
resonant probe qubit on a stroboscopic grid (optionally with finite
shot counts and decoherence), Fourier-analyze the Bloch trajectories,
and recover the density-matrix diagonal and first superdiagonal from
narrow-band peak areas.  A quenched-Rabi module generates nonclassical
states the same machinery can then reconstruct.
"""

from .exceptions import (
    ConfigError,
    CutoffError,
    DegenerateBranchError,
    EstimationError,
    FieldTomoError,
    GridError,
    IntegrationError,
    ResolvabilityError,
    TruncationWarning,
    ValidationError,
)
from .fock import (
    DensityMatrix,
    FieldState,
    JointState,
    apply_ladder,
    density_from_pure,
    embed,
    fidelity,
    fock_state,
)
from .states import coherent_state, load_amplitudes, save_amplitudes, superposition
from .probe import (
    BlochTrajectory,
    ProbeConfig,
    bloch_from_qubit,
    ideal_bloch_trajectory,
    rabi_frequency,
    time_grid,
)
from .measurement import MeasurementPlan, decohered_expectation, sample_trajectory
from .spectral import (
    PeakEstimate,
    Spectrum,
    comb_frequencies,
    dft,
    integrate_peak,
    noise_floor,
    validate_windows,
)
from .reconstruct import (
    ReconstructionResult,
    assemble_pure_state,
    chain_phases,
    coherences_from_xy,
    estimate_coupling,
    populations_from_z,
    reconstruct_from_spectra,
    reconstruct_state,
)
from .dce import (
    ConditionalPair,
    DceConfig,
    condition_on_qubit,
    evolve_rabi,
    recombine_branches,
    unconditional_mixture,
)

__version__ = "0.1.0"
