"""Two-flywheel torsional rig: inverse-model feedforward, funnel feedback,
sampled-data closed-loop simulation, and experiment metrics.

Configs, specs, feedforward tables and metric reports are frozen
dataclasses.  ``Trace`` and ``SweepResult`` are mutable records that each
run makes for itself; the columns that runs share are read-only arrays, and
an ``InverseModelStepper`` holds the state of one solve.  Two module caches
keep state between calls: ``closedloop`` keeps the shared columns it built
last, and the file writer in ``csvfile`` keeps the last read-only column at
each position with its text.  Each cache is used only on an exact match, so
runs and file writes in concurrently running threads write the bytes that
serial ones write.
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
