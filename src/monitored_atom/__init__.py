"""Stochastic trajectories of a homodyne-monitored two-level atom.

The package simulates a single decaying two-level atom whose emission is
watched, interval by interval, with balanced homodyne detection.  Each
observed photon-number difference conditions the atomic state; feeding a
field proportional to the fluctuation part of the record back onto the
atom cancels the induced diffusion to first order and pins the state to a
chosen point on the Bloch sphere.

Layout
------
state
    Pure states, Bloch vectors and their conversions.
homodyne
    Outcome laws, conditioned state updates, the step decomposition.
feedback
    The diffusion-cancelling law and its delay queue.
trajectory
    Vectorized trajectory kernels, ensemble statistics, the closed-form
    unconditional-evolution oracle.
cli
    Command-line presets and CSV/JSON emission.
"""

from .state import (
    BlochVector,
    PureState,
    bloch_from_state,
    state_from_bloch,
)
from .homodyne import (
    HomodyneConfig,
    MeasurementOutcome,
    UpdateMode,
    conditioned_update_exact,
    decompose_step,
    sample_outcome,
    sample_outcome_conditioned,
)
from .feedback import (
    FeedbackLaw,
    FeedbackState,
    advance_feedback,
    combined_diffusion_step,
    feedback_amplitude,
)
from .trajectory import (
    DensityMatrix2,
    EnsembleStats,
    SimConfig,
    TrajectoryRecord,
    master_evolve,
    run_ensemble,
    run_trajectory,
    step_trajectory,
    trajectory_seed,
)

__version__ = "0.1.0"

__all__ = [
    "BlochVector",
    "DensityMatrix2",
    "EnsembleStats",
    "FeedbackLaw",
    "FeedbackState",
    "HomodyneConfig",
    "MeasurementOutcome",
    "PureState",
    "SimConfig",
    "TrajectoryRecord",
    "UpdateMode",
    "advance_feedback",
    "bloch_from_state",
    "combined_diffusion_step",
    "conditioned_update_exact",
    "decompose_step",
    "feedback_amplitude",
    "master_evolve",
    "run_ensemble",
    "run_trajectory",
    "sample_outcome",
    "sample_outcome_conditioned",
    "state_from_bloch",
    "step_trajectory",
    "trajectory_seed",
]
