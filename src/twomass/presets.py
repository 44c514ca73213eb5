"""Built-in experiment presets mirroring the rig's documented studies.

The plant constants are the identified values of the desk rig.  The true
plant's Coulomb friction is NOT identified hardware: 0.15 N*m is a synthetic
default chosen so the friction-compensation constants of the feedforward
tuning sets (0.12 .. 0.16 N*m) are meaningful.

Frequency pairing follows the rig's operating practice: at 1 kHz the
feedforward is solved online tick by tick; at 2 kHz it is read from a
precomputed lookup table.  Both modes work at both rates; the presets just
use the documented pairing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .config import (
    ControllerMode,
    FeedforwardSource,
    MeasurementModel,
    SimulationConfig,
)
from .errors import ValidationError
from .feedback import FunnelSpec
from .feedforward import TuningFactors, solve_feedforward
from .plant import FrictionModel, OscillatorParams
from .trajectory import TrajectorySpec

__all__ = [
    "NOMINAL_PLANT",
    "DEFAULT_TRUE_PLANT",
    "REFERENCE_TRAJECTORY",
    "TUNING_SETS",
    "FUNNEL_SETS",
    "NOISY_MEASUREMENT",
    "ExperimentPreset",
    "preset_names",
    "build_preset",
]

NOMINAL_PLANT = OscillatorParams(I1=0.136, I2=0.12, k=33.6, d=0.016)

DEFAULT_TRUE_PLANT = replace(NOMINAL_PLANT, friction=FrictionModel(0.15))

# Rest-to-rest spin-up: two revolutions per second reached over ten seconds.
REFERENCE_TRAJECTORY = TrajectorySpec(y0=0.0, yf=4.0 * math.pi, t0=0.0, tf=10.0)

DURATION = 15.0  # transition plus a five-second stationary window

# Feedforward tuning sets 1..5 (actuator scale, friction compensation).
TUNING_SETS = (
    TuningFactors(0.3, 0.0),
    TuningFactors(0.1, 0.12),
    TuningFactors(0.1, 0.15),
    TuningFactors(0.1, 0.16),
    TuningFactors(0.08, 0.16),
)

# Funnel sets 1..6; set 6 is the aggressive one that pure feedback cannot hold.
FUNNEL_SETS = (
    FunnelSpec(5.0, 0.1, 0.3),
    FunnelSpec(1.0, 0.1, 0.5),
    FunnelSpec(3.0, 0.1, 0.5),
    FunnelSpec(5.0, 0.1, 0.5),
    FunnelSpec(8.0, 0.1, 0.5),
    FunnelSpec(5.0, 0.3, 0.3),
)

# Noisy velocity measurement for the tight-funnel and comparison studies.
# Pure feedback with funnel set 6 fails on the rig when sensor noise pushes a
# near-boundary error out of the funnel between two ticks, and input
# chattering (the stationary variance metric) is noise-driven; an ideal
# sensor reproduces neither phenomenon, so these presets add a synthetic
# 0.08 rad/s velocity-noise floor.  At that level, over the seeds 0 to 39, the
# pure feedback run at 1 kHz leaves the funnel in 30 and hugs the boundary in
# the rest, while the combined controller leaves it in 1; the preset seeds pin
# one representative run of each.  The counts, [30, 1], come from
#   python -c "import dataclasses as d, twomass as t; from twomass import presets as p;
#   print([sum(not t.run_simulation(d.replace(cfg, seed=s)).status.completed
#   for s in range(40)) for cfg in p.build_preset('tight-funnel-dichotomy-1khz').configs])"
NOISY_MEASUREMENT = MeasurementModel(noise_std=0.08)


@dataclass(frozen=True)
class ExperimentPreset:
    name: str
    configs: tuple[SimulationConfig, ...]


def _config(label, mode, frequency, seed, **other) -> SimulationConfig:
    """A run on the rig, its nominal model and the reference, over ``DURATION``."""
    return SimulationConfig(
        label=label,
        true_params=DEFAULT_TRUE_PLANT,
        nominal_params=NOMINAL_PLANT,
        trajectory=REFERENCE_TRAJECTORY,
        mode=mode,
        control_frequency=frequency,
        duration=DURATION,
        seed=seed,
        **other,
    )


def _ffw_sweep() -> tuple[SimulationConfig, ...]:
    return tuple(
        _config(f"ffw-{i}-1khz", ControllerMode.feedforward_only(tuning), 1000.0, i)
        for i, tuning in enumerate(TUNING_SETS, start=1)
    )


def _fb_sweep_2khz() -> tuple[SimulationConfig, ...]:
    return tuple(
        _config(f"fb-{i}-2khz", ControllerMode.feedback_only(funnel), 2000.0, i)
        for i, funnel in enumerate(FUNNEL_SETS[:5], start=1)
    )


def _tight_funnel_fb() -> tuple[SimulationConfig, ...]:
    mode = ControllerMode.feedback_only(FUNNEL_SETS[5])
    return (
        _config("fb-6-1khz", mode, 1000.0, 6, measurement=NOISY_MEASUREMENT),
        _config("fb-6-2khz", mode, 2000.0, 7, measurement=NOISY_MEASUREMENT),
    )


def _tight_funnel_dichotomy_1khz() -> tuple[SimulationConfig, ...]:
    return (
        _config("fb-6-1khz", ControllerMode.feedback_only(FUNNEL_SETS[5]), 1000.0, 6,
                measurement=NOISY_MEASUREMENT),
        _config("combined-5-6-1khz", ControllerMode.combined(TUNING_SETS[4], FUNNEL_SETS[5]),
                1000.0, 1012, measurement=NOISY_MEASUREMENT),
    )


def _comparison_sweep_2khz() -> tuple[SimulationConfig, ...]:
    table = solve_feedforward(NOMINAL_PLANT, REFERENCE_TRAJECTORY, dt=5e-4, horizon=DURATION)
    source = FeedforwardSource(table=table)
    configs = []
    for i, funnel in enumerate(FUNNEL_SETS[:5], start=1):
        # Each feedback/combined pair shares one seed: identical noise draws
        # make the variance comparison a controlled experiment.
        configs.append(_config(f"fb-{i}-2khz", ControllerMode.feedback_only(funnel), 2000.0, i,
                               measurement=NOISY_MEASUREMENT))
        configs.append(_config(f"combined-5-{i}-2khz",
                               ControllerMode.combined(TUNING_SETS[4], funnel), 2000.0, i,
                               measurement=NOISY_MEASUREMENT, feedforward_source=source))
    return tuple(configs)


_REGISTRY = {
    "table2-ffw-sweep": _ffw_sweep,
    "table3-fb-sweep-2khz": _fb_sweep_2khz,
    "tight-funnel-fb": _tight_funnel_fb,
    "tight-funnel-dichotomy-1khz": _tight_funnel_dichotomy_1khz,
    "controller-comparison-2khz": _comparison_sweep_2khz,
}


def preset_names() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def build_preset(name: str) -> ExperimentPreset:
    try:
        builder = _REGISTRY[name]
    except KeyError:
        raise ValidationError(
            f"unknown preset {name!r}; available: {', '.join(_REGISTRY)}"
        ) from None
    return ExperimentPreset(name=name, configs=builder())
