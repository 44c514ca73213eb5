"""Two-flywheel torsional rig: inverse-model feedforward, funnel feedback,
sampled-data closed-loop simulation, and experiment metrics.

All value types are immutable after construction and the operations on them
are pure functions; simulations own their state exclusively, so everything
here is safe to share across concurrently running experiments.
"""

from .closedloop import RunStatus, SweepResult, Trace, run_simulation, run_sweep
from .config import ControllerMode, FeedforwardSource, MeasurementModel, SimulationConfig
from .errors import (
    InconsistentStart,
    NewtonDiverged,
    ParseError,
    ValidationError,
    WindowOutOfRange,
)
from .feedback import FunnelSpec
from .feedforward import (
    FeedforwardTable,
    InverseModelState,
    NewtonOptions,
    TuningFactors,
    apply_tuning,
    consistent_initialization,
    solve_feedforward,
)
from .metrics import MetricsReport, integrate_square, report, variance
from .plant import (
    FRICTIONLESS,
    FrictionModel,
    MinimumPhaseReport,
    OscillatorParams,
    ReducedRealization,
    check_minimum_phase,
    reduced_realization,
)
from .trajectory import TrajectorySpec, sigma, sigma_samples, y_ref_at, y_ref_derivative

__version__ = "0.1.0"
