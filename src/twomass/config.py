"""Configuration files: flat INI-style key=value sections, strictly validated.

Unknown sections or keys are rejected by name; type errors name the offending
key.  Invariant violations surface as :class:`ValidationError` from the
constructed objects themselves, which state the violated invariant.
"""

from __future__ import annotations

import configparser
import os

from .closedloop import (
    ControllerMode,
    FeedforwardSource,
    MeasurementModel,
    SimulationConfig,
)
from .errors import ParseError
from .feedback import FunnelSpec
from .feedforward import NewtonOptions, TuningFactors, read_table_csv
from .plant import FrictionModel, OscillatorParams
from .presets import ExperimentPreset, build_preset, preset_names
from .trajectory import TrajectorySpec

__all__ = ["load_config", "load_config_file", "CONFIG_SCHEMA"]

# section -> (required keys, optional keys)
CONFIG_SCHEMA = {
    "simulation": (
        ("label", "mode", "control_frequency", "duration"),
        ("plant_substeps", "seed", "u_max", "feedforward"),
    ),
    "plant.true": (("I1", "I2", "k", "d"), ("coulomb_friction",)),
    "plant.nominal": (("I1", "I2", "k", "d"), ()),
    "trajectory": (("y0", "yf", "t0", "tf"), ()),
    "tuning": (("f_act", "f_fric"), ()),
    "funnel": (("s", "q_decay", "c"), ()),
    "newton": ((), ("max_iterations", "residual_tolerance")),
    "measurement": ((), ("angle_quantum", "filter_time_constant", "noise_std")),
}

_MODES = ("feedforward", "feedback", "combined")


class _Section:
    def __init__(self, path: str, name: str, raw):
        self.path = path
        self.name = name
        self.raw = raw

    def get(self, key: str, default=None) -> str | None:
        if self.raw is None or key not in self.raw:
            return default
        return self.raw[key]

    def require(self, key: str) -> str:
        value = self.get(key)
        if value is None:
            raise ParseError(f"{self.path}: section [{self.name}] is missing key {key!r}")
        return value

    def number(self, key: str, default=None) -> float | None:
        text = self.get(key)
        if text is None or text == "":
            return default
        try:
            return float(text)
        except ValueError:
            raise ParseError(
                f"{self.path}: [{self.name}] {key} = {text!r} is not a number"
            ) from None

    def require_number(self, key: str) -> float:
        self.require(key)
        value = self.number(key)
        if value is None:
            raise ParseError(f"{self.path}: [{self.name}] {key} must not be empty")
        return value

    def integer(self, key: str, default=None) -> int | None:
        text = self.get(key)
        if text is None or text == "":
            return default
        try:
            return int(text)
        except ValueError:
            raise ParseError(
                f"{self.path}: [{self.name}] {key} = {text!r} is not an integer"
            ) from None


def _check_schema(path: str, parser: configparser.ConfigParser) -> None:
    for section in parser.sections():
        if section not in CONFIG_SCHEMA:
            raise ParseError(f"{path}: unknown section [{section}]")
        required, optional = CONFIG_SCHEMA[section]
        allowed = set(required) | set(optional)
        for key in parser[section]:
            if key not in allowed:
                raise ParseError(f"{path}: unknown key {key!r} in section [{section}]")
    for section, (required, _) in CONFIG_SCHEMA.items():
        if required and section in ("simulation", "plant.true", "plant.nominal", "trajectory"):
            if not parser.has_section(section):
                raise ParseError(f"{path}: missing required section [{section}]")
            for key in required:
                if key not in parser[section]:
                    raise ParseError(f"{path}: section [{section}] is missing key {key!r}")


def _section(path: str, parser: configparser.ConfigParser, name: str) -> _Section:
    raw = parser[name] if parser.has_section(name) else None
    return _Section(path, name, raw)


def _plant(section: _Section, allow_friction: bool) -> OscillatorParams:
    friction = FrictionModel(0.0)
    if allow_friction:
        friction = FrictionModel(section.number("coulomb_friction", 0.0))
    return OscillatorParams(
        I1=section.require_number("I1"),
        I2=section.require_number("I2"),
        k=section.require_number("k"),
        d=section.require_number("d"),
        friction=friction,
    )


def load_config_file(path) -> SimulationConfig:
    """Parse and fully validate one simulation config file."""
    path = os.fspath(path)
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.optionxform = str  # keys are case-sensitive (I1 vs i1)
    try:
        with open(path) as fh:
            parser.read_file(fh, source=path)
    except OSError as err:
        raise ParseError(f"{path}: {err}") from None
    except configparser.Error as err:
        raise ParseError(f"{path}: {err}") from None
    _check_schema(path, parser)

    sim = _section(path, parser, "simulation")
    mode_name = sim.require("mode")
    if mode_name not in _MODES:
        raise ParseError(f"{path}: simulation.mode must be one of {_MODES}, got {mode_name!r}")

    uses_ffw = mode_name in ("feedforward", "combined")
    uses_fb = mode_name in ("feedback", "combined")
    for section_name, used, why in (
        ("tuning", uses_ffw, "feedforward modes"),
        ("funnel", uses_fb, "feedback modes"),
    ):
        if used and not parser.has_section(section_name):
            raise ParseError(f"{path}: section [{section_name}] is required for {why}")
        if not used and parser.has_section(section_name):
            raise ParseError(f"{path}: section [{section_name}] not allowed for mode {mode_name}")

    tuning = None
    funnel = None
    if uses_ffw:
        tun = _section(path, parser, "tuning")
        tuning = TuningFactors(tun.require_number("f_act"), tun.require_number("f_fric"))
    if uses_fb:
        fun = _section(path, parser, "funnel")
        funnel = FunnelSpec(
            s=fun.require_number("s"),
            q_decay=fun.require_number("q_decay"),
            c=fun.require_number("c"),
        )

    newton_sec = _section(path, parser, "newton")
    newton = NewtonOptions(
        max_iterations=newton_sec.integer("max_iterations", 10),
        residual_tolerance=newton_sec.number("residual_tolerance", 1e-10),
    )

    source = FeedforwardSource(newton=newton)
    ffw_key = sim.get("feedforward", "online")
    if uses_ffw and ffw_key != "online":
        if not ffw_key.startswith("table:"):
            raise ParseError(
                f"{path}: simulation.feedforward must be 'online' or 'table:PATH', got {ffw_key!r}"
            )
        table_path = ffw_key[len("table:"):]
        if not os.path.isabs(table_path):
            table_path = os.path.join(os.path.dirname(path), table_path)
        source = FeedforwardSource(table=read_table_csv(table_path), newton=newton)

    meas_sec = _section(path, parser, "measurement")
    measurement = MeasurementModel(
        angle_quantum=meas_sec.number("angle_quantum", 0.0),
        filter_time_constant=meas_sec.number("filter_time_constant", 0.0),
        noise_std=meas_sec.number("noise_std", 0.0),
    )

    config = SimulationConfig(
        label=sim.require("label"),
        true_params=_plant(_section(path, parser, "plant.true"), allow_friction=True),
        nominal_params=_plant(_section(path, parser, "plant.nominal"), allow_friction=False),
        trajectory=TrajectorySpec(
            y0=_section(path, parser, "trajectory").require_number("y0"),
            yf=_section(path, parser, "trajectory").require_number("yf"),
            t0=_section(path, parser, "trajectory").require_number("t0"),
            tf=_section(path, parser, "trajectory").require_number("tf"),
        ),
        mode=ControllerMode(tuning=tuning, funnel=funnel),
        control_frequency=sim.require_number("control_frequency"),
        duration=sim.require_number("duration"),
        plant_substeps=sim.integer("plant_substeps", 10),
        measurement=measurement,
        feedforward_source=source,
        seed=sim.integer("seed", 0),
        u_max=sim.number("u_max", None),
    )
    config.validate()
    return config


def load_config(path_or_preset) -> SimulationConfig | ExperimentPreset:
    """Resolve a built-in preset name, or load and validate a config file."""
    name = os.fspath(path_or_preset)
    if name in preset_names():
        return build_preset(name)
    if not os.path.exists(name):
        raise ParseError(
            f"{name!r} is neither a config file nor a preset "
            f"(presets: {', '.join(preset_names())})"
        )
    return load_config_file(name)
