"""Configuration files, and configs read back from their header echo.

Both readers follow :data:`~twomass.closedloop.CONFIG_FIELDS`, the table that
also writes the echo.  Unknown sections or keys are rejected by name; type
errors name the offending key.  Invariant violations surface as
:class:`ValidationError` from the constructed objects themselves, which state
the violated invariant.
"""

from __future__ import annotations

import configparser
import os

from .closedloop import (
    CONFIG_FIELDS,
    ControllerMode,
    FeedforwardSource,
    MeasurementModel,
    SimulationConfig,
    has_branch,
)
from .errors import ParseError
from .feedback import FunnelSpec
from .feedforward import NewtonOptions, TuningFactors, read_table_csv
from .plant import FrictionModel, OscillatorParams
from .presets import ExperimentPreset, build_preset, preset_names
from .trajectory import TrajectorySpec

__all__ = ["load_config", "load_config_file", "config_from_echo"]

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


def load_config_file(path) -> SimulationConfig:
    """Parse and fully validate one simulation config file."""
    path = os.fspath(path)
    # values are literal: no %-interpolation, so "%" is an ordinary character
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
    parser.optionxform = str  # keys are case-sensitive (I1 vs i1)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh, source=path)
    except OSError as err:
        raise ParseError(f"{path}: {err}") from None
    except UnicodeDecodeError as err:
        raise ParseError(f"{path}: not UTF-8 text ({err.reason})") from None
    except configparser.Error as err:
        raise ParseError(f"{path}: {err}") from None
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
    config = _build(values)
    config.validate()
    return config


def config_from_echo(echo: dict, where) -> SimulationConfig:
    """The config that :func:`~twomass.closedloop.config_echo` turned into ``echo``.

    The echo holds neither a feedforward table's samples (``feedforward.source``
    only says that a table was used) nor ``plant_substeps``: both read back as
    their defaults.  ``where`` names the file in error messages.
    """
    rows = [row for row in CONFIG_FIELDS if row.echo]
    return _build(_read(rows, lambda row: echo.get(row.name), where))


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
