"""What a run is asked to do: the config types and their checks, the field
table, the echo writer and both readers.

Both readers follow :data:`CONFIG_FIELDS`, the table that also writes the
echo.  Unknown sections or keys, in a file or an echo, are rejected by
name; type errors name the offending key.  Invariant violations surface as
:class:`ValidationError` from the constructed objects themselves, which
state the violated invariant.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import reduce
from typing import Callable, NamedTuple

from .errors import ParseError, ValidationError
from .feedback import FunnelSpec
from .feedforward import FeedforwardTable, NewtonOptions, TuningFactors, read_table_csv, step_count
from .plant import FrictionModel, OscillatorParams, rate_bound
from .trajectory import TrajectorySpec

__all__ = [
    "MeasurementModel",
    "ControllerMode",
    "FeedforwardSource",
    "SimulationConfig",
    "CONFIG_FIELDS",
    "ConfigField",
    "config_echo",
    "load_config_file",
    "config_from_echo",
]

@dataclass(frozen=True)
class MeasurementModel:
    """How the controller sees the output velocity.

    The default (all fields zero) is an ideal sensor.  Nonzero fields model an
    incremental encoder: the angle is quantized, differentiated tick-to-tick,
    low-pass filtered, and Gaussian velocity noise is added.
    """

    angle_quantum: float = 0.0
    filter_time_constant: float = 0.0
    noise_std: float = 0.0

    def __post_init__(self):
        fields = (self.angle_quantum, self.filter_time_constant, self.noise_std)
        if not all(0.0 <= x < math.inf for x in fields):
            raise ValidationError("measurement model fields must be finite and >= 0")

    @property
    def is_ideal(self) -> bool:
        return self.angle_quantum == 0.0 and self.filter_time_constant == 0.0 and self.noise_std == 0.0


@dataclass(frozen=True)
class ControllerMode:
    """Which controller branches are active: feedforward, feedback, or both."""

    tuning: TuningFactors | None = None
    funnel: FunnelSpec | None = None

    def __post_init__(self):
        if self.tuning is None and self.funnel is None:
            raise ValidationError("controller mode needs a tuning set, a funnel, or both")

    @classmethod
    def feedforward_only(cls, tuning: TuningFactors) -> "ControllerMode":
        return cls(tuning=tuning)

    @classmethod
    def feedback_only(cls, funnel: FunnelSpec) -> "ControllerMode":
        return cls(funnel=funnel)

    @classmethod
    def combined(cls, tuning: TuningFactors, funnel: FunnelSpec) -> "ControllerMode":
        return cls(tuning=tuning, funnel=funnel)

    @property
    def name(self) -> str:
        if self.tuning is not None and self.funnel is not None:
            return "combined"
        if self.tuning is not None:
            return "feedforward"
        return "feedback"


@dataclass(frozen=True)
class FeedforwardSource:
    """Where the feedforward torque comes from.

    With a table, the loop reads precomputed samples (the lookup-table mode);
    without one, it advances the inverse model by one implicit Euler step per
    tick (the real-time mode).  The online solver is pure feedforward: it
    never re-synchronizes to the plant state.
    """

    table: FeedforwardTable | None = None
    newton: NewtonOptions = NewtonOptions()

    @property
    def is_online(self) -> bool:
        return self.table is None


@dataclass(frozen=True)
class SimulationConfig:
    label: str
    true_params: OscillatorParams
    nominal_params: OscillatorParams
    trajectory: TrajectorySpec
    mode: ControllerMode
    control_frequency: float
    duration: float
    # Kept so that older callers and INI files still load: validated, but the
    # plant step is exact and takes no substeps.
    plant_substeps: int = 10
    measurement: MeasurementModel = MeasurementModel()
    feedforward_source: FeedforwardSource = FeedforwardSource()
    seed: int = 0
    u_max: float | None = None
    initial_state: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)

    def __post_init__(self):
        # the label names output files and sits in |-joined headers, CSV rows
        # and the metrics header's "config LABEL: " keys; open() rejects a NUL
        if not self.label or any(ch in "|,/\\:\n\r\0" for ch in self.label):
            raise ValidationError(
                f"label {self.label!r} must be non-empty, without | , / \\ :, NUL or newlines"
            )
        if not 0.0 < self.control_frequency < math.inf:
            raise ValidationError(
                f"control_frequency must be finite and > 0, got {self.control_frequency}"
            )
        if self.plant_substeps < 1:
            raise ValidationError(f"plant_substeps must be >= 1, got {self.plant_substeps}")
        if not 0.0 < self.duration < math.inf:
            raise ValidationError(f"duration must be finite and > 0, got {self.duration}")
        step_count(self.duration * self.control_frequency,
                   f"duration {self.duration} s at {self.control_frequency} Hz", "control ticks")
        tick, p = 1.0 / self.control_frequency, self.true_params
        pieces = rate_bound(p) * tick  # step_matrices and event ticks walk ceil(pieces) series pieces
        if not pieces <= 1000.0:  # the presets ask for at most 0.023
            raise ValidationError(
                f"true plant I1={p.I1} I2={p.I2} k={p.k} d={p.d} is too fast for the control "
                f"tick {tick} s: {pieces:.6g} series pieces per tick, more than 1000"
            )
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if self.u_max is not None and not self.u_max > 0.0:
            raise ValidationError(f"u_max must be > 0 when set, got {self.u_max}")
        if len(self.initial_state) != 4 or not all(math.isfinite(x) for x in self.initial_state):
            raise ValidationError("initial_state must be four finite numbers")
        if self.mode.tuning is not None:
            if not self.nominal_params.friction.is_none:
                raise ValidationError("nominal model must be frictionless")
            source = self.feedforward_source
            if source.table is not None:
                if abs(source.table.dt - tick) > 1e-9 * tick:
                    raise ValidationError(
                        "feedforward table grid spacing must equal the control tick: "
                        f"table dt {source.table.dt}, tick {tick}"
                    )
                if len(source.table) < self.n_ticks + 1:
                    raise ValidationError(
                        f"feedforward table too short: {len(source.table)} samples, "
                        f"need {self.n_ticks + 1}"
                    )

    @property
    def n_ticks(self) -> int:
        return round(self.duration * self.control_frequency)


class FieldKind(NamedTuple):
    """How a config value is written as text and read back."""

    parse: Callable[[str], object]  # raises ValueError or KeyError on malformed text
    format: Callable[[object], str] | None  # None: never echoed
    noun: str  # what ``parse`` accepts, for error messages


def _choice(values: dict) -> FieldKind:
    """A value named by one of the keys of ``values``."""
    names = {value: name for name, value in values.items()}
    return FieldKind(values.__getitem__, names.__getitem__, "one of " + ", ".join(values))


def _table_path(text: str) -> str | None:
    if text == "online":
        return None
    if not text.startswith("table:"):
        raise ValueError(text)
    return text[len("table:"):]


TEXT = FieldKind(str, str, "text")
FLOAT = FieldKind(float, lambda x: "" if x is None else repr(x), "a number")
INT = FieldKind(int, str, "an integer")
MODE = _choice({name: name for name in ("feedforward", "feedback", "combined")})
STATE = FieldKind(lambda text: tuple(map(float, text.split(";"))),
                  lambda xs: ";".join(map(repr, xs)), "numbers joined by ';'")
SOURCE = _choice({"online": True, "table": False})
TABLE_PATH = FieldKind(_table_path, None, "'online' or 'table:PATH'")
FFW, FB = "feedforward", "feedback"  # the branches of a ControllerMode


class ConfigField(NamedTuple):
    """One row of :data:`CONFIG_FIELDS`."""

    name: str  # INI ``section.key`` (the section ends at the last dot) and echo key
    path: str  # where the value sits in a SimulationConfig, as dotted attributes
    kind: FieldKind
    required: bool = True  # an absent or blank optional value keeps its dataclass default
    branch: str | None = None  # FFW/FB: only in the modes that have that branch
    ini: bool = True  # settable in a config file
    echo: bool = True  # written by config_echo
    derived: bool = False  # a property of the config: read back, never set


# Every config value that a file sets or an echo records.  Not in the echo:
# plant_substeps (no effect), a table's samples (the echo says only
# whether one was used) and the nominal plant's friction (zero wherever the
# nominal plant is used).  The mode row precedes every branch row.
CONFIG_FIELDS = (
    ConfigField("simulation.label", "label", TEXT),
    # the branches present; it decides which branch rows a file must and may hold
    ConfigField("simulation.mode", "mode.name", MODE, derived=True),
    ConfigField("simulation.control_frequency", "control_frequency", FLOAT),
    ConfigField("simulation.duration", "duration", FLOAT),
    ConfigField("simulation.plant_substeps", "plant_substeps", INT, required=False, echo=False),
    ConfigField("simulation.seed", "seed", INT, required=False),
    ConfigField("simulation.u_max", "u_max", FLOAT, required=False),  # blank: None, no limit
    ConfigField("simulation.feedforward", "feedforward_source.table", TABLE_PATH,
                required=False, branch=FFW, echo=False),
    ConfigField("feedforward.source", "feedforward_source.is_online", SOURCE,
                required=False, branch=FFW, ini=False, derived=True),
    ConfigField("simulation.initial_state", "initial_state", STATE, required=False, ini=False),
    ConfigField("plant.true.I1", "true_params.I1", FLOAT),
    ConfigField("plant.true.I2", "true_params.I2", FLOAT),
    ConfigField("plant.true.k", "true_params.k", FLOAT),
    ConfigField("plant.true.d", "true_params.d", FLOAT),
    ConfigField("plant.true.coulomb_friction", "true_params.friction.magnitude", FLOAT,
                required=False),
    ConfigField("plant.nominal.I1", "nominal_params.I1", FLOAT),
    ConfigField("plant.nominal.I2", "nominal_params.I2", FLOAT),
    ConfigField("plant.nominal.k", "nominal_params.k", FLOAT),
    ConfigField("plant.nominal.d", "nominal_params.d", FLOAT),
    ConfigField("trajectory.y0", "trajectory.y0", FLOAT),
    ConfigField("trajectory.yf", "trajectory.yf", FLOAT),
    ConfigField("trajectory.t0", "trajectory.t0", FLOAT),
    ConfigField("trajectory.tf", "trajectory.tf", FLOAT),
    ConfigField("tuning.f_act", "mode.tuning.f_act", FLOAT, branch=FFW),
    ConfigField("tuning.f_fric", "mode.tuning.f_fric", FLOAT, branch=FFW),
    ConfigField("newton.max_iterations", "feedforward_source.newton.max_iterations", INT,
                required=False, branch=FFW),
    ConfigField("newton.residual_tolerance", "feedforward_source.newton.residual_tolerance",
                FLOAT, required=False, branch=FFW),
    ConfigField("funnel.s", "mode.funnel.s", FLOAT, branch=FB),
    ConfigField("funnel.q_decay", "mode.funnel.q_decay", FLOAT, branch=FB),
    ConfigField("funnel.c", "mode.funnel.c", FLOAT, branch=FB),
    ConfigField("measurement.angle_quantum", "measurement.angle_quantum", FLOAT,
                required=False),
    ConfigField("measurement.filter_time_constant", "measurement.filter_time_constant", FLOAT,
                required=False),
    ConfigField("measurement.noise_std", "measurement.noise_std", FLOAT, required=False),
)


def has_branch(mode_name: str, branch: str | None) -> bool:
    """Whether a controller mode of that name has the branch (None: every mode)."""
    return branch is None or mode_name in (branch, "combined")


def config_echo(cfg: SimulationConfig) -> dict:
    """Flat, fully resolved key=value view of a config (embedded in file headers).

    One pair per echoed row of :data:`CONFIG_FIELDS` in the config's branches.
    """
    mode = cfg.mode.name
    return {
        row.name: row.kind.format(reduce(getattr, row.path.split("."), cfg))
        for row in CONFIG_FIELDS
        if row.echo and has_branch(mode, row.branch)
    }


# the class of each attribute that a config path passes through
_CLASSES = {
    "true_params": OscillatorParams,
    "nominal_params": OscillatorParams,
    "friction": FrictionModel,
    "trajectory": TrajectorySpec,
    "mode": ControllerMode,
    "tuning": TuningFactors,
    "funnel": FunnelSpec,
    "feedforward_source": FeedforwardSource,
    "newton": NewtonOptions,
    "measurement": MeasurementModel,
}


def _read(rows, text_of, where: str) -> dict:
    """Each given row's parsed value, by path; absent or blank optional rows are left out.

    ``text_of(row)`` is the row's text in the file, or None when the file lacks it.
    """
    values = {}
    for row in rows:
        mode = values.get("mode.name")  # the mode row precedes every branch row
        text = text_of(row)
        if not has_branch(mode, row.branch):
            if text is not None:
                raise ParseError(f"{where}: {row.name} not allowed for mode {mode}")
        elif text is None or (text == "" and not row.required):
            if row.required:
                raise ParseError(f"{where}: missing key {row.name}")
        else:
            try:
                values[row.path] = row.kind.parse(text)
            except (ValueError, KeyError):
                raise ParseError(
                    f"{where}: {row.name} = {text!r} is not {row.kind.noun}"
                ) from None
    return values


def _build(values: dict) -> SimulationConfig:
    """The config holding ``values`` (by path) and the dataclass defaults elsewhere."""
    tree = {}
    for row in CONFIG_FIELDS:
        if row.path in values and not row.derived:
            *parents, leaf = row.path.split(".")
            node = tree
            for name in parents:
                node = node.setdefault(name, {})
            node[leaf] = values[row.path]
    return _make(SimulationConfig, tree)


def _make(cls, node: dict):
    return cls(**{k: _make(_CLASSES[k], v) if isinstance(v, dict) else v
                  for k, v in node.items()})


def _configparser_message(err) -> str:
    """configparser's message, less its second naming of the file."""
    import configparser

    if isinstance(err, configparser.MissingSectionHeaderError):
        return f"line {err.lineno}: {err.line!r} precedes every section header"
    if isinstance(err, configparser.ParsingError):  # each line is a repr already
        return "; ".join(f"line {lineno}: cannot parse {line}" for lineno, line in err.errors)
    if isinstance(err, configparser.DuplicateOptionError):
        return f"line {err.lineno}: option {err.option!r} in section {err.section!r} already exists"
    if isinstance(err, configparser.DuplicateSectionError):
        return f"line {err.lineno}: section {err.section!r} already exists"
    return str(err)


def load_config_file(path) -> SimulationConfig:
    """Parse one simulation config file into its config."""
    import configparser  # here, not at the top: only this reader needs it (2.3 ms to import)

    path = os.fspath(path)
    # values are literal: no %-interpolation, so "%" is an ordinary character
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
    parser.optionxform = str  # keys are case-sensitive (I1 vs i1)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh, source=path)
    except UnicodeDecodeError as err:
        raise ParseError(f"{path}: not UTF-8 text ({err.reason})") from None
    except configparser.Error as err:
        raise ParseError(f"{path}: {_configparser_message(err)}") from None
    rows = [row for row in CONFIG_FIELDS if row.ini]
    sections = {}  # section -> {key: row}
    for row in rows:
        section, key = row.name.rsplit(".", 1)
        sections.setdefault(section, {})[key] = row
    for section in parser.sections():
        if section not in sections:
            raise ParseError(f"{path}: unknown section [{section}]")
        for key in parser[section]:
            if key not in sections[section]:
                raise ParseError(f"{path}: unknown key {key!r} in section [{section}]")

    values = _read(rows, lambda row: parser.get(*row.name.rsplit(".", 1), fallback=None), path)
    mode = values["mode.name"]
    for section in parser.sections():
        if not any(has_branch(mode, row.branch) for row in sections[section].values()):
            raise ParseError(f"{path}: section [{section}] not allowed for mode {mode}")
    table = values.get("feedforward_source.table")
    if table is not None:  # the one value in another file, named relative to this one
        table = read_table_csv(os.path.join(os.path.dirname(path), table))
        values["feedforward_source.table"] = table
    return _build(values)


def config_from_echo(echo: dict, where) -> SimulationConfig:
    """The config that :func:`config_echo` turned into ``echo``.

    The echo holds neither a feedforward table's samples (``feedforward.source``
    only says that a table was used) nor ``plant_substeps``: both read back as
    their defaults.  ``where`` names the file in parse errors, among them a
    key that no echoed row names; an echo that breaks an invariant raises
    the config's own :class:`ValidationError`.
    """
    rows = [row for row in CONFIG_FIELDS if row.echo]
    names = {row.name for row in rows}
    for key in echo:
        if key not in names:
            raise ParseError(f"{where}: unknown key {key!r} in config echo")
    return _build(_read(rows, lambda row: echo.get(row.name), where))

