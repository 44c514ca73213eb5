import ast
import configparser
import contextlib
import dataclasses
import hashlib
import io
import math
import os
import re
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import twomass
from conftest import NOT_UTF8, labels, piped
from twomass import cli, csvfile, metrics, presets
from twomass.cli import main
from twomass.closedloop import read_trace_csv, run_simulation
from twomass.config import (
    CONFIG_FIELDS,
    FLOAT,
    ControllerMode,
    FeedforwardSource,
    MeasurementModel,
    SimulationConfig,
    config_echo,
    config_from_echo,
    has_branch,
    load_config_file,
)
from twomass.csvfile import format_echo, parse_echo
from twomass.errors import ParseError, ValidationError
from twomass.feedback import FunnelSpec
from twomass.feedforward import FeedforwardTable, NewtonOptions, TuningFactors, read_table_csv
from twomass.plant import FrictionModel, OscillatorParams, rate_bound
from twomass.presets import ExperimentPreset, build_preset, preset_names
from twomass.trajectory import TrajectorySpec

FULL_CONFIG = """\
[simulation]
label = demo
mode = combined
control_frequency = 1000.0
duration = 0.5
seed = 3

[plant.true]
I1 = 0.136
I2 = 0.12
k = 33.6
d = 0.016
coulomb_friction = 0.15

[plant.nominal]
I1 = 0.136
I2 = 0.12
k = 33.6
d = 0.016

[trajectory]
y0 = 0.0
yf = 12.566370614359172
t0 = 0.0
tf = 10.0

[tuning]
f_act = 0.08
f_fric = 0.16

[funnel]
s = 5.0
q_decay = 0.3
c = 0.3

[measurement]
noise_std = 0.02
"""

FEEDBACK_CONFIG = FULL_CONFIG.replace("mode = combined", "mode = feedback").replace(
    "[tuning]\nf_act = 0.08\nf_fric = 0.16\n", ""
)


def write_config(tmp_path, text=FULL_CONFIG, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


TRACE_COLUMNS = "t,y_measured,y_true,y_ref,e,psi,u_ffw,u_fb,u,newton_iterations\n"
HOSTILE_CELLS = ["inf", "nan", "1e308", "-1e308", "1e200", "", "x"]


def _negated(cell):
    return cell[1:] if cell.startswith("-") else "-" + cell


def _missing_trace(tmp_path):
    path = tmp_path / "missing.csv"
    return ["analyze", str(path)], path


def _status_without_time(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("# twomass trace\n# status: funnel_violated\n" + TRACE_COLUMNS)
    return ["analyze", str(path)], path


def _short_row(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("# twomass trace\n# status: completed\n" + TRACE_COLUMNS + "0.0,1.0\n")
    return ["analyze", str(path)], path


def _missing_table(tmp_path):
    text = FULL_CONFIG.replace("seed = 3", "seed = 3\nfeedforward = table:missing.csv")
    return ["simulate", str(write_config(tmp_path, text))], tmp_path / "missing.csv"


def _output_in_missing_dir(tmp_path):
    path = tmp_path / "no" / "such" / "t.csv"
    return ["feedforward", "--horizon", "0.01", "--output", str(path)], path


def _not_utf8(tmp_path):
    path = tmp_path / "binary.csv"
    path.write_bytes(NOT_UTF8)
    return path


def _not_utf8_trace(tmp_path):
    path = _not_utf8(tmp_path)
    return ["analyze", str(path)], path


def _not_utf8_table(tmp_path):
    text = FULL_CONFIG.replace("seed = 3", "seed = 3\nfeedforward = table:binary.csv")
    return ["simulate", str(write_config(tmp_path, text))], _not_utf8(tmp_path)


def _latin1_config(*command):
    # a config file in Latin-1, whose label "d\xe9mo" is not UTF-8, read by ``command``
    def case(tmp_path):
        path = tmp_path / "run.ini"
        path.write_bytes(FULL_CONFIG.replace("label = demo", "label = d\xe9mo").encode("latin-1"))
        return [*command, str(path)], path

    return case


def _missing_config(*command):
    # ``command`` given a config path where no file is
    def case(tmp_path):
        path = tmp_path / "missing.ini"
        return [*command, str(path)], path

    return case


def _directory_config(tmp_path):
    path = tmp_path / "run.ini"
    path.mkdir()
    return ["simulate", str(path)], path


def _config_with(old, new):
    # ``simulate`` of the full config with ``old`` replaced by ``new``
    def case(tmp_path):
        path = write_config(tmp_path, FULL_CONFIG.replace(old, new))
        return ["simulate", str(path)], path

    return case


def _trace_with_echo(key, value):
    # the completed trace below, with no hostile cell, whose config header holds
    # ``key=value`` (None: lacks the key)
    return _completed_trace_with_runs({}, {key: value})


def _completed_trace_with_cell(column, cell, row=1):
    # a completed trace on the grid 0, 0.5, ..., 6 s, which covers both metric
    # windows of tf = 1 s, with ``cell`` in ``column`` of the row at 0.5 ``row`` s;
    # a tuple of cells goes into that row and the ones after it
    return _completed_trace_with_runs({column: (row, (cell,) if isinstance(cell, str) else cell)})


def _completed_trace_with_runs(runs, echo_edits=None):
    # the trace above, where ``runs`` maps a column to ``(row, cells)`` and
    # ``echo_edits`` a config key to its text in the header
    def case(tmp_path):
        echo = config_echo(load_config_file(write_config(tmp_path)))
        echo["trajectory.tf"] = "1.0"
        echo.update(echo_edits or {})
        echo = {k: v for k, v in echo.items() if v is not None}
        names = TRACE_COLUMNS.strip().split(",")
        rows = []
        for i in range(13):
            cells = dict.fromkeys(names, "0.0")
            cells.update(t=repr(0.5 * i), psi="1.0", newton_iterations="0")
            for column, (row, run) in runs.items():
                if row <= i < row + len(run):
                    cells[column] = run[i - row]
            rows.append(",".join(cells[name] for name in names) + "\n")
        path = tmp_path / "trace.csv"
        path.write_text(f"# twomass trace\n# config: {format_echo(echo)}\n"
                        "# status: completed\n" + TRACE_COLUMNS + "".join(rows), encoding="utf-8")
        return ["analyze", str(path)], path

    return case


@pytest.fixture(scope="module")
def dichotomy(tmp_path_factory):
    """Files of one sweep where fb-6-1khz leaves its funnel and combined-5-6-1khz completes."""
    out = tmp_path_factory.mktemp("dichotomy")
    argv = ["sweep", "tight-funnel-dichotomy-1khz", "--out", str(out), "--allow-failures"]
    assert main(argv) == 0
    return out


def _trace_with_header(old, new):
    # the completed trace above with ``old`` in its header replaced by ``new``
    def case(tmp_path):
        argv, path = _completed_trace_with_runs({})(tmp_path)
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new, 1))
        return argv, path

    return case


def _trace_with_status(body):
    # the completed trace above with the status line ``body`` (None: without one)
    status = "" if body is None else f"# status: {body}\n"
    return _trace_with_header("# status: completed\n", status)


def _second_of_two_traces(case):
    # ``case``'s file analyzed after a good one: the error names the second file
    def second(tmp_path):
        first = tmp_path / "first"
        first.mkdir()
        _, good = _completed_trace_with_runs({})(first)
        argv, path = case(tmp_path)
        return ["analyze", str(good), *argv[1:]], path

    return second


def _repeated_label_with_output(tmp_path):
    # two completed traces of one label analyzed into one metrics file: the
    # error names the second file, and the first after it
    first = tmp_path / "first"
    first.mkdir()
    _, good = _completed_trace_with_runs({})(first)
    argv, path = _completed_trace_with_runs({})(tmp_path)
    return ["analyze", str(good), str(path), "--output", str(tmp_path / "re.csv")], path


def _table_with_torque(cell, dt="0.001", start=0.0, samples=2):
    # a two-sample table on the grid from ``start`` s with ``cell`` as its first torque,
    # its header saying ``samples`` rows
    def case(tmp_path):
        path = tmp_path / "table.csv"
        path.write_text(
            f"# twomass feedforward table\n# config: dt={dt}|samples={samples}\n"
            f"t,u_ffw\n{start!r},{cell}\n{start + 0.001!r},0.0\n"
        )
        text = FULL_CONFIG.replace("seed = 3", "seed = 3\nfeedforward = table:table.csv")
        return ["simulate", str(write_config(tmp_path, text))], path

    return case


# cells that float() reads and the writer never writes, each in a row of a
# file that is otherwise good
OFF_GRAMMAR = [
    *(pytest.param(_completed_trace_with_cell("y_measured", cell), id=f"trace-cell-{name}")
      for cell, name in (("1_0", "underscore"), ("nan", "nan"), ("\u0663", "non-ascii"))),
    pytest.param(_table_with_torque("1E-3"), id="table-cell-capital-e"),
]


class TestLoadConfig:
    def test_full_round_trip(self, tmp_path):
        cfg = load_config_file(write_config(tmp_path))
        assert cfg.label == "demo"
        assert cfg.mode.name == "combined"
        assert cfg.true_params.friction.magnitude == 0.15
        assert cfg.nominal_params.friction.is_none
        assert cfg.mode.tuning.f_act == 0.08
        assert cfg.mode.funnel.c == 0.3
        assert cfg.measurement.noise_std == 0.02
        assert cfg.seed == 3

    def test_unknown_key_rejected_by_name(self, tmp_path):
        bad = FULL_CONFIG.replace("seed = 3", "seed = 3\nwarp_drive = 9")
        path = write_config(tmp_path, bad)
        with pytest.raises(ParseError, match="warp_drive"):
            load_config_file(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = write_config(tmp_path, FULL_CONFIG + "\n[telemetry]\nx = 1\n")
        with pytest.raises(ParseError, match="telemetry"):
            load_config_file(path)

    def test_missing_required_key(self, tmp_path):
        path = write_config(tmp_path, FULL_CONFIG.replace("tf = 10.0\n", ""))
        with pytest.raises(ParseError, match="tf"):
            load_config_file(path)

    def test_non_numeric_value(self, tmp_path):
        path = write_config(tmp_path, FULL_CONFIG.replace("k = 33.6", "k = soft"))
        with pytest.raises(ParseError, match="k"):
            load_config_file(path)

    def test_empty_required_value(self, tmp_path):
        path = write_config(tmp_path, FULL_CONFIG.replace("k = 33.6", "k ="))
        with pytest.raises(ParseError, match="k"):
            load_config_file(path)

    def test_violated_invariant_named(self, tmp_path):
        path = write_config(tmp_path, FULL_CONFIG.replace("c = 0.3", "c = 0.0"))
        with pytest.raises(ValidationError, match="c must be > 0"):
            load_config_file(path)

    def test_funnel_section_required_for_combined(self, tmp_path):
        text = FULL_CONFIG.replace("[funnel]\ns = 5.0\nq_decay = 0.3\nc = 0.3\n", "")
        path = write_config(tmp_path, text)
        with pytest.raises(ParseError, match="funnel"):
            load_config_file(path)

    def test_tuning_section_rejected_for_feedback_mode(self, tmp_path):
        text = FULL_CONFIG.replace("mode = combined", "mode = feedback")
        path = write_config(tmp_path, text)
        with pytest.raises(ParseError, match="tuning"):
            load_config_file(path)

    def test_percent_sign_is_literal(self, tmp_path):
        cfg = load_config_file(write_config(tmp_path, FULL_CONFIG.replace("demo", "50%")))
        assert cfg.label == "50%"

    def test_blank_optional_value_takes_its_default(self, tmp_path):
        text = FULL_CONFIG.replace("seed = 3", "seed =\nu_max =\nfeedforward =")
        text = text.replace("noise_std = 0.02", "noise_std =")
        cfg = load_config_file(write_config(tmp_path, text))
        assert (cfg.seed, cfg.u_max, cfg.measurement) == (0, None, MeasurementModel())
        assert cfg.feedforward_source == FeedforwardSource()

    def test_table_source(self, tmp_path):
        table_path = tmp_path / "table.csv"
        code = main(["feedforward", "--dt", "1e-3", "--horizon", "0.5",
                     "--output", str(table_path)])
        assert code == 0
        text = FULL_CONFIG.replace(
            "mode = combined", "mode = combined\nfeedforward = table:table.csv"
        )
        cfg = load_config_file(write_config(tmp_path, text))
        assert cfg.feedforward_source.table is not None
        assert cfg.feedforward_source.table.dt == 1e-3

    def test_preset_name_resolves(self):
        loaded = build_preset("table2-ffw-sweep")
        assert isinstance(loaded, ExperimentPreset)
        assert len(loaded.configs) == 5

    @pytest.mark.parametrize("argv, message", [
        pytest.param(["simulate", "no-such-thing.ini"],
                     "'no-such-thing.ini' is neither a config file nor a preset "
                     f"(presets: {', '.join(preset_names())})", id="simulate"),
        pytest.param(["sweep", "no-such-thing.ini"],
                     "'no-such-thing.ini' is neither a config file nor a preset "
                     f"(presets: {', '.join(preset_names())})", id="sweep"),
        pytest.param(["simulate", "table2-ffw-sweep"],
                     "table2-ffw-sweep names a preset; use the sweep command",
                     id="simulate-preset"),
    ])
    def test_unknown_path_or_preset(self, tmp_path, capsys, argv, message):
        assert main([*argv, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        pytest.param(["check-plant", "--config", "x.ini", "--out", "o"],
                     "twomass check-plant: unrecognized arguments: --out o", id="unknown-flag"),
        pytest.param(["feedforward", "--dt", "abc"],
                     "twomass feedforward: argument --dt: invalid float value: 'abc'",
                     id="malformed-number"),
        pytest.param([], "twomass: the following arguments are required: command",
                     id="no-command"),
    ])
    def test_bad_flags_exit_2_with_one_line(self, capsys, argv, message):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("argv", [["--help"], ["feedforward", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 0
        assert capsys.readouterr().out.startswith("usage: twomass")


# Each preset's configs in order: label, seed and the first 16 hex digits of
# the SHA-256 of the config echo as files write it.
PRESET_ECHOES = {
    "table2-ffw-sweep": [
        ("ffw-1-1khz", 1, "40405394a5fd7b01"),
        ("ffw-2-1khz", 2, "70fb17600809b444"),
        ("ffw-3-1khz", 3, "1d82b20e5a601cad"),
        ("ffw-4-1khz", 4, "3c3df171950cc13f"),
        ("ffw-5-1khz", 5, "04dd5d3516f3e125"),
    ],
    "table3-fb-sweep-2khz": [
        ("fb-1-2khz", 1, "ff3797e8733e49c1"),
        ("fb-2-2khz", 2, "f2b71cc1951535dc"),
        ("fb-3-2khz", 3, "fbd56b92c346b682"),
        ("fb-4-2khz", 4, "cf94a3098fc5e577"),
        ("fb-5-2khz", 5, "e4ceacde9dab724b"),
    ],
    "tight-funnel-fb": [
        ("fb-6-1khz", 6, "35d9aaa588ff0641"),
        ("fb-6-2khz", 7, "d8da99ecc1020c11"),
    ],
    "tight-funnel-dichotomy-1khz": [
        ("fb-6-1khz", 6, "35d9aaa588ff0641"),
        ("combined-5-6-1khz", 1012, "20eb144dadf04c02"),
    ],
    "controller-comparison-2khz": [
        ("fb-1-2khz", 1, "89c2e251fccabffd"),
        ("combined-5-1-2khz", 1, "d914bdcfb1d70659"),
        ("fb-2-2khz", 2, "9013d2afed7c4101"),
        ("combined-5-2-2khz", 2, "fbccff346c11031a"),
        ("fb-3-2khz", 3, "dc744b188a5a8ef2"),
        ("combined-5-3-2khz", 3, "1f7fcd316b9b3f52"),
        ("fb-4-2khz", 4, "c11445e5611dbafc"),
        ("combined-5-4-2khz", 4, "f8b6c740cc175ed0"),
        ("fb-5-2khz", 5, "4585afae6a80b02e"),
        ("combined-5-5-2khz", 5, "23d93e810adffdfb"),
    ],
}


class TestPresets:
    def test_configs_are_pinned(self):
        def pin(cfg):
            echo = format_echo(config_echo(cfg)).encode()
            return cfg.label, cfg.seed, hashlib.sha256(echo).hexdigest()[:16]

        assert {name: [pin(cfg) for cfg in build_preset(name).configs]
                for name in preset_names()} == PRESET_ECHOES

    def test_comparison_runs_share_one_table(self):
        combined = [cfg for cfg in build_preset("controller-comparison-2khz").configs
                    if cfg.mode.tuning is not None]
        assert len(combined) == 5
        assert all(cfg.feedforward_source.table is combined[0].feedforward_source.table
                   for cfg in combined)
        assert combined[0].feedforward_source.table is not None

    def test_registry_names(self):
        names = preset_names()
        assert "table2-ffw-sweep" in names
        assert "table3-fb-sweep-2khz" in names

    def test_ffw_sweep_contents(self):
        preset = build_preset("table2-ffw-sweep")
        factors = [(c.mode.tuning.f_act, c.mode.tuning.f_fric) for c in preset.configs]
        assert factors == [(0.3, 0.0), (0.1, 0.12), (0.1, 0.15), (0.1, 0.16), (0.08, 0.16)]
        assert all(c.mode.funnel is None for c in preset.configs)
        assert all(c.control_frequency == 1000.0 for c in preset.configs)

    def test_fb_sweep_contents(self):
        preset = build_preset("table3-fb-sweep-2khz")
        funnels = [(c.mode.funnel.s, c.mode.funnel.q_decay, c.mode.funnel.c)
                   for c in preset.configs]
        assert funnels == [
            (5.0, 0.1, 0.3), (1.0, 0.1, 0.5), (3.0, 0.1, 0.5), (5.0, 0.1, 0.5), (8.0, 0.1, 0.5),
        ]
        assert all(c.control_frequency == 2000.0 for c in preset.configs)
        assert all(c.mode.tuning is None for c in preset.configs)

    def test_unknown_preset(self):
        with pytest.raises(ValidationError):
            build_preset("table9")


class TestCli:
    def test_simulate_writes_outputs(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "out"
        code = main(["simulate", str(cfg_path), "--out", str(out)])
        assert code == 0
        trace = (out / "demo-trace.csv").read_text()
        assert trace.startswith("# twomass trace")
        assert "simulation.label=demo" in trace
        assert "# status: completed" in trace
        assert (out / "demo-summary.txt").exists()
        assert (out / "metrics.csv").exists()

    def test_every_output_line_ends_in_a_newline_alone(self, tmp_path, monkeypatch):
        # as on a platform whose os.linesep is "\r\n": there a file opened
        # for writing in text mode with no newline argument ends lines so
        def crlf_open(file, mode="r", **kwargs):
            if "b" not in mode and "r" not in mode:
                kwargs.setdefault("newline", "\r\n")
            return open(file, mode, **kwargs)

        for module in (cli, csvfile):
            monkeypatch.setattr(module, "open", crlf_open, raising=False)
        out = tmp_path / "out"
        assert main(["simulate", str(write_config(tmp_path)), "--out", str(out)]) == 0
        for name in ("demo-trace.csv", "demo-summary.txt", "metrics.csv"):
            assert b"\r" not in (out / name).read_bytes()

    def test_metrics_row_needs_full_horizon(self, tmp_path):
        # duration 0.5 < tf + 5: metrics cells stay empty but the run reports
        cfg_path = write_config(tmp_path)
        out = tmp_path / "out"
        main(["simulate", str(cfg_path), "--out", str(out)])
        rows = (out / "metrics.csv").read_text().strip().splitlines()
        assert rows[-1].startswith("demo,combined,1000.0,")

    def test_metrics_cells_are_numbers(self, tmp_path):
        text = FULL_CONFIG.replace("duration = 0.5", "duration = 7.0")
        cfg_path = write_config(tmp_path, text.replace("tf = 10.0", "tf = 2.0"))
        out = tmp_path / "out"
        assert main(["simulate", str(cfg_path), "--out", str(out)]) == 0
        row = (out / "metrics.csv").read_text().strip().splitlines()[-1]
        run, mode, *cells = row.split(",")
        assert (run, mode, len(cells)) == ("demo", "combined", 5)
        assert all(math.isfinite(float(cell)) for cell in cells)

    @pytest.mark.parametrize("flags", [[], ["--metrics-on-true"]])
    def test_metrics_are_computed_once_on_the_chosen_output(self, tmp_path, monkeypatch, flags):
        # duration 0.5 s < tf + 5: the one computation raises, and the run
        # still completes, with a note and an empty row
        calls = []
        report = metrics.report

        def counted(trace, spec, use_true_output=False):
            calls.append(use_true_output)
            return report(trace, spec, use_true_output)

        monkeypatch.setattr(metrics, "report", counted)
        out = tmp_path / "out"
        assert main(["simulate", str(write_config(tmp_path)), "--out", str(out), *flags]) == 0
        assert calls == [bool(flags)]
        summary = (out / "demo-summary.txt").read_text().splitlines()
        assert summary[-1].startswith("note: window [0.0, 10.0] not covered ")
        assert (out / "metrics.csv").read_text().splitlines()[-1] == "demo,combined,1000.0,,,,"

    def test_a_sweep_holds_one_run_at_a_time(self, tmp_path, monkeypatch):
        # doubling a sweep from N to 2N runs raises its peak by less than two
        # of a run's float columns: each trace goes before the next run starts
        text = FEEDBACK_CONFIG.replace("duration = 0.5", "duration = 2.0")
        cfg = load_config_file(write_config(tmp_path, text))
        n_ticks = round(cfg.duration * cfg.control_frequency) + 1

        def peak(n):
            runs = tuple(dataclasses.replace(cfg, label=f"run-{i}") for i in range(n))
            monkeypatch.setitem(presets._REGISTRY, "copies", lambda: runs)
            tracemalloc.start()
            try:
                assert main(["sweep", "copies", "--out", str(tmp_path / f"out-{n}")]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(3)  # fills the package's memos
        assert peak(6) - peak(3) < 2 * 8 * n_ticks

    def test_summary_counts_stuck_and_event_ticks(self, tmp_path):
        # 0.5 s at 1 kHz: 501 ticks, the plant steps after the first 500; the
        # counts are the run's own, and its start from rest is an event
        cfg_path = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", str(cfg_path), "--out", str(out)]) == 0
        text = (out / "demo-summary.txt").read_text()
        line = r"^plant: (\d+) stuck ticks, (\d+) event ticks of 500$"
        found = re.findall(line, text, re.MULTILINE)
        trace = run_simulation(load_config_file(str(cfg_path)))
        assert found == [(str(trace.plant_stuck_ticks), str(trace.plant_events))]
        assert trace.plant_events >= 1

    def test_summary_reports_the_last_newton_residual(self, tmp_path):
        # the online inverse model's last scaled residual norm, inside the tolerance
        cfg_path = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", str(cfg_path), "--out", str(out)]) == 0
        text = (out / "demo-summary.txt").read_text()
        line = r"^newton iterations per tick: max=\d+ mean=\d+\.\d{3} last residual=(\S+)$"
        (found,) = re.findall(line, text, re.MULTILINE)
        trace = run_simulation(load_config_file(str(cfg_path)))
        assert found == f"{trace.newton_last_residual:.6g}"
        assert 0.0 <= float(found) <= NewtonOptions().residual_tolerance

    @pytest.mark.parametrize("tolerance", ["1e-30", "1e-300"])
    def test_summary_names_the_diverged_newton_step(self, tmp_path, tolerance):
        # 1e-30 fails after converged steps, whose last residual is below it;
        # 1e-300 fails on the first step, before any residual
        newton = f"[newton]\nmax_iterations = 1\nresidual_tolerance = {tolerance}\n"
        cfg_path = write_config(tmp_path, FULL_CONFIG + newton)
        out = tmp_path / "out"
        assert main(["simulate", str(cfg_path), "--out", str(out), "--allow-failures"]) == 0
        text = (out / "demo-summary.txt").read_text()
        line = r"^newton: diverged after (\d+) iterations, residual=(\S+)$"
        (found,) = re.findall(line, text, re.MULTILINE)
        trace = run_simulation(load_config_file(str(cfg_path)))
        assert trace.status.kind == "newton_diverged"
        assert found == ("1", f"{trace.newton_last_residual:.6g}")
        assert float(found[1]) > float(tolerance)
        # the time of the ending is stated on the status line only
        assert re.findall(r"^status: .*$", text, re.MULTILINE) == [f"status: {trace.status}"]
        assert "last residual=" not in text

    def test_summary_states_the_funnel_margin_or_the_violation(self, dichotomy):
        # the lines are computed here from the traces written, which read
        # back bit for bit
        found = {}
        for label in ("fb-6-1khz", "combined-5-6-1khz"):
            text = (dichotomy / f"{label}-summary.txt").read_text()
            (found[label],) = re.findall(r"^funnel: .*$", text, re.MULTILINE)
        violated = read_trace_csv(dichotomy / "fb-6-1khz-trace.csv")
        assert violated.status.kind == "funnel_violated"
        assert found["fb-6-1khz"] == (
            f"funnel: violated, e={violated.e[-1]:.6g} psi={violated.psi[-1]:.6g}")
        assert found["fb-6-1khz"] == "funnel: violated, e=-0.493938 psi=0.439518"
        # the time of the ending is stated once, on the status line
        text = (dichotomy / "fb-6-1khz-summary.txt").read_text()
        assert re.findall(r"^status: .*$", text, re.MULTILINE) == [
            "status: funnel_violated at t=11.93 s"]
        assert text.count(" at t=") == 1
        completed = read_trace_csv(dichotomy / "combined-5-6-1khz-trace.csv")
        margins = completed.psi - np.abs(completed.e)
        k = int(np.argmin(margins))
        gains = completed.psi**2 / (completed.psi**2 - completed.e**2)
        assert found["combined-5-6-1khz"] == (
            f"funnel: min margin={margins[k]:.6g} at t={completed.t[k]:.6g} s, "
            f"peak gain={gains.max():.6g}")
        assert found["combined-5-6-1khz"] == (
            "funnel: min margin=0.124797 at t=14.9 s, peak gain=2.33495")

    def test_summary_has_no_funnel_line_without_a_funnel(self, tmp_path):
        text = FULL_CONFIG.replace("mode = combined", "mode = feedforward")
        text = text.replace("[funnel]\ns = 5.0\nq_decay = 0.3\nc = 0.3\n", "")
        out = tmp_path / "out"
        assert main(["simulate", str(write_config(tmp_path, text)), "--out", str(out)]) == 0
        assert "funnel" not in (out / "demo-summary.txt").read_text()

    @pytest.mark.parametrize("frequency, budget", [("1000.0", "1000.0"), ("2000.0", "500.0")])
    def test_summary_states_the_tick_budget(self, tmp_path, frequency, budget):
        # the controller time per tick is reported against 1 / control_frequency
        text = FULL_CONFIG.replace("frequency = 1000.0", f"frequency = {frequency}")
        out = tmp_path / "out"
        assert main(["simulate", str(write_config(tmp_path, text)), "--out", str(out)]) == 0
        summary = (out / "demo-summary.txt").read_text()
        number = r"\d+\.\d"
        line = (rf"^controller wall time per tick \[us\]: budget={re.escape(budget)} "
                rf"p50={number} p90={number} p99={number} max={number}$")
        assert len(re.findall(line, summary, re.MULTILINE)) == 1

    def test_analyze_reproduces_metrics_bit_identically(self, tmp_path):
        text = FULL_CONFIG.replace("duration = 0.5", "duration = 15.0")
        text = text.replace("tf = 10.0", "tf = 2.0")
        cfg_path = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["simulate", str(cfg_path), "--out", str(out)]) == 0
        simulate_row = (out / "metrics.csv").read_text().strip().splitlines()[-1]
        assert main(["analyze", str(out / "demo-trace.csv"),
                     "--output", str(out / "re.csv")]) == 0
        analyze_row = (out / "re.csv").read_text().strip().splitlines()[-1]
        assert analyze_row == simulate_row

    def test_analyze_of_a_sweep_gives_its_completed_rows(self, dichotomy, tmp_path, capsys):
        # the violated run gets its stderr note, the completed one its row,
        # and the exit is 1
        traces = [str(dichotomy / f"{label}-trace.csv")
                  for label in ("fb-6-1khz", "combined-5-6-1khz")]
        assert main(["analyze", *traces, "--output", str(tmp_path / "re.csv")]) == 1
        printed = capsys.readouterr()
        assert printed.err == "fb-6-1khz: funnel_violated at t=11.93 s; no metrics\n"
        swept = (dichotomy / "metrics.csv").read_text().splitlines()
        completed = [line for line in swept
                     if not line.startswith(("# config fb-6-1khz:", "fb-6-1khz,"))]
        assert (tmp_path / "re.csv").read_text().splitlines() == completed
        assert printed.out.splitlines() == completed[-2:]

    def test_an_online_trace_of_integer_cells_reads_as_before(self, dichotomy, tmp_path, capsys):
        # traces written before every column was a float spelt the online
        # model's newton_iterations as integers ("1", not "1.0"): such a copy
        # reads to the same bits and analyzes to the same metrics row
        trace = dichotomy / "combined-5-6-1khz-trace.csv"
        lines = trace.read_text(encoding="utf-8").splitlines(keepends=True)
        start = lines.index(TRACE_COLUMNS) + 1
        rows = [line[:-1].rsplit(",", 1) for line in lines[start:]]
        assert {cell for _, cell in rows} == {"0.0", "1.0"}
        older = tmp_path / "combined-5-6-1khz-trace.csv"
        older.write_text("".join(lines[:start] + [f"{head},{int(float(cell))}\n"
                                                  for head, cell in rows]), encoding="utf-8")
        new, old = read_trace_csv(trace), read_trace_csv(older)
        assert (new.status, new.run_config) == (old.status, old.run_config)
        for name in TRACE_COLUMNS.strip().split(","):
            assert getattr(new, name).tobytes() == getattr(old, name).tobytes(), name
        printed = []
        for path in (trace, older):
            assert main(["analyze", str(path)]) == 0
            printed.append(capsys.readouterr())
        assert printed[0] == printed[1]
        assert printed[0].out.splitlines()[-1].startswith("combined-5-6-1khz,combined,1000.0,")

    def test_analyze_reads_a_pipe_as_its_file(self, dichotomy, capsys):
        trace = dichotomy / "combined-5-6-1khz-trace.csv"
        assert main(["analyze", str(trace)]) == 0
        expected = capsys.readouterr()
        with piped(trace) as name:
            assert main(["analyze", name]) == 0
        assert capsys.readouterr() == expected

    def test_analyze_prints_one_header_and_a_row_per_trace_in_order(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["sweep", "table3-fb-sweep-2khz", "--out", str(out)]) == 0
        traces = [str(out / f"fb-{i}-2khz-trace.csv") for i in (3, 1, 2)]
        capsys.readouterr()
        assert main(["analyze", *traces, "--output", str(out / "re.csv")]) == 0
        rows = {line.split(",", 1)[0]: line
                for line in (out / "metrics.csv").read_text().splitlines()}
        expected = [rows["run"]] + [rows[f"fb-{i}-2khz"] for i in (3, 1, 2)]
        assert capsys.readouterr().out.splitlines() == expected
        written = (out / "re.csv").read_text().splitlines()
        assert written[-4:] == expected
        assert [line.split(":", 1)[0] for line in written[1:4]] == [
            f"# config fb-{i}-2khz" for i in (3, 1, 2)]

    @pytest.mark.parametrize("twice", [False, True], ids=["two-files", "one-file-twice"])
    def test_a_repeated_label_writes_no_metrics_file(self, tmp_path, capsys, twice):
        argv, path = _repeated_label_with_output(tmp_path)
        good = path if twice else argv[1]
        assert main(["analyze", str(good), *argv[2:]]) == 2
        printed = capsys.readouterr()
        assert printed.out == ""
        assert printed.err == (f"error: {path}: run label 'demo' is also that of {good}; "
                               "--output takes one trace per label\n")
        assert not (tmp_path / "re.csv").exists()
        # without --output the rows of both are printed
        assert main(["analyze", str(good), str(path)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3

    def test_a_bad_second_trace_prints_no_rows(self, tmp_path, capsys):
        argv, path = _second_of_two_traces(_short_row)(tmp_path)
        assert main(argv + ["--output", str(tmp_path / "re.csv")]) == 2
        printed = capsys.readouterr()
        assert printed.out == ""
        assert printed.err.startswith(f"error: {path}: malformed trace row")
        assert not (tmp_path / "re.csv").exists()

    def test_an_output_that_cannot_be_written_prints_no_rows(self, tmp_path, capsys):
        # the output path is a directory: the error comes before any row
        argv, _ = _completed_trace_with_runs({})(tmp_path)
        assert main(argv + ["--output", str(tmp_path)]) == 2
        printed = capsys.readouterr()
        assert printed.out == ""
        assert printed.err.startswith(f"error: {tmp_path}: ") and printed.err.count("\n") == 1

    def test_check_plant_output(self, capsys):
        assert main(["check-plant"]) == 0
        text = capsys.readouterr().out
        assert "7.35294" in text
        assert "minimum phase" in text
        assert "-0.0666667" in text

    def test_feedforward_degenerate_rest_is_zero_table(self, tmp_path):
        cfg_path = write_config(
            tmp_path,
            FULL_CONFIG.replace("yf = 12.566370614359172", "yf = 0.0"),
        )
        out_file = tmp_path / "table.csv"
        code = main(["feedforward", "--config", str(cfg_path), "--dt", "1e-3",
                     "--horizon", "15", "--output", str(out_file)])
        assert code == 0
        body = [ln for ln in out_file.read_text().splitlines()
                if ln and not ln.startswith("#") and ln != "t,u_ffw"]
        assert len(body) == 15001
        assert all(float(ln.split(",")[1]) == 0.0 for ln in body)

    @pytest.mark.parametrize("flags, tolerance", [([], "0.001"), (["--tolerance", "1e-8"], "1e-08")])
    def test_feedforward_table_follows_the_config_newton_section(self, tmp_path, flags, tolerance):
        newton = "[newton]\nmax_iterations = 1\nresidual_tolerance = 1e-3\n"
        cfg_path = write_config(tmp_path, FULL_CONFIG + newton)
        out_file = tmp_path / "table.csv"
        argv = ["feedforward", "--config", str(cfg_path), "--horizon", "0.01",
                "--output", str(out_file)]
        assert main(argv + flags) == 0
        assert read_table_csv(out_file).meta["tolerance"] == tolerance

    def test_feedforward_tolerance_flag_keeps_the_config_iteration_cap(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, FULL_CONFIG + "[newton]\nmax_iterations = 1\n")
        argv = ["feedforward", "--config", str(cfg_path), "--horizon", "0.01",
                "--tolerance", "1e-300", "--output", str(tmp_path / "t.csv")]
        assert main(argv) == 2
        assert "after 1 iterations" in capsys.readouterr().err

    def test_violation_exit_codes(self, tmp_path):
        text = FULL_CONFIG.replace("mode = combined", "mode = feedback")
        text = text.replace("[tuning]\nf_act = 0.08\nf_fric = 0.16\n", "")
        text = text.replace("c = 0.3", "c = 0.05").replace("s = 5.0", "s = 0.0")
        text = text.replace("duration = 0.5", "duration = 8.0")
        cfg_path = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["simulate", str(cfg_path), "--out", str(out)]) == 1
        assert main(["simulate", str(cfg_path), "--out", str(out), "--allow-failures"]) == 0
        trace = (out / "demo-trace.csv").read_text()
        assert "# status: funnel_violated at=" in trace

    @pytest.mark.parametrize(
        "case",
        [_missing_trace, _status_without_time, _short_row, _missing_table, _output_in_missing_dir,
         _not_utf8_trace, _not_utf8_table, _table_with_torque(""), _table_with_torque("inf"),
         _trace_with_echo("trajectory.tf", "ten"),
         _trace_with_echo("simulation.control_frequency", "fast"),
         _trace_with_echo("simulation.mode", "both"),
         _trace_with_echo("trajectory.y0", None),
         # parsed, but not a valid config
         pytest.param(_trace_with_echo("simulation.label", "a,b"), id="echo-label-with-comma"),
         pytest.param(_trace_with_echo("simulation.control_frequency", "-3.0"),
                      id="echo-negative-frequency"),
         pytest.param(_trace_with_echo("funnel.c", "-1.0"), id="echo-negative-funnel-offset"),
         _completed_trace_with_cell("t", "0.75"), _completed_trace_with_cell("u", "inf"),
         # at tf = 1 s, the end of one window and the start of the next
         _completed_trace_with_cell("u", "inf", row=2),
         # finite, but its square overflows
         _completed_trace_with_cell("u", "1e200", row=2),
         # finite tick times whose step overflows, and tick times that are all inf
         _completed_trace_with_cell("t", ("1e308", "-1e308")),
         _completed_trace_with_cell("t", ("inf",) * 13, row=0),
         _second_of_two_traces(_missing_trace),
         pytest.param(_trace_with_status("bogus at=11.93"), id="status-of-no-kind"),
         pytest.param(_trace_with_status("funnel_violated at=1e999"), id="status-at-inf"),
         pytest.param(_trace_with_status("newton_diverged at=nan"), id="status-at-nan"),
         pytest.param(_trace_with_status("completed at=1.0"), id="status-completed-at"),
         # times that float() reads but repr() never writes
         pytest.param(_trace_with_status("funnel_violated at=1_0"), id="status-at-underscore"),
         pytest.param(_trace_with_status("funnel_violated at= 11.93"), id="status-at-space"),
         pytest.param(_trace_with_status("funnel_violated at=11.930"), id="status-at-zero-padded"),
         pytest.param(_trace_with_status("funnel_violated at=+11.93"), id="status-at-plus"),
         pytest.param(_trace_with_status(None), id="status-line-missing"),
         # a second copy of a key replaces no value: the run completed
         pytest.param(_trace_with_status("completed\n# status: funnel_violated at=1.0"),
                      id="trace-duplicate-header-key"),
         pytest.param(_trace_with_header("|simulation.seed=3|", "|garbage|simulation.seed=3|"),
                      id="echo-pair-without-equals"),
         pytest.param(_trace_with_header("|simulation.seed=3|",
                                         "|simulation.seed=3|simulation.seed=99|"),
                      id="echo-duplicate-key"),
         pytest.param(_trace_with_echo("zzz.unknown", "1"), id="echo-unknown-key"),
         # a table's echo holds no config, so no unknown key masks the pair
         pytest.param(_table_with_torque("0.0", dt="0.001|garbage"),
                      id="table-echo-pair-without-equals"),
         pytest.param(_latin1_config("simulate"), id="latin-1-config-simulate"),
         pytest.param(_latin1_config("feedforward", "--config"), id="latin-1-config-feedforward"),
         pytest.param(_latin1_config("check-plant", "--config"), id="latin-1-config-check-plant"),
         pytest.param(_missing_config("feedforward", "--config"),
                      id="missing-config-feedforward"),
         pytest.param(_missing_config("check-plant", "--config"),
                      id="missing-config-check-plant"),
         pytest.param(_directory_config, id="config-is-a-directory"),
         # configparser's own messages, which span lines
         pytest.param(_config_with("[simulation]", "label = demo\n[simulation]"),
                      id="config-without-section-header"),
         pytest.param(_config_with("seed = 3", "seed = 3\njunk"), id="config-junk-line"),
         pytest.param(_config_with("seed = 3", "seed = 3\nseed = 4"),
                      id="config-duplicate-option"),
         pytest.param(_config_with("[funnel]", "[tuning]\n[funnel]"),
                      id="config-duplicate-section"),
         pytest.param(_trace_with_echo("simulation.initial_state", "0.0;0.0;0.0"),
                      id="echo-initial-state-of-three"),
         pytest.param(_trace_with_echo("simulation.initial_state", "0.0;nan;0.0;0.0"),
                      id="echo-initial-state-nan"),
         pytest.param(_table_with_torque("0.0", dt="abc"), id="table-dt-not-a-number"),
         # run_simulation applies sample k at tick k
         pytest.param(_table_with_torque("0.0", start=5.0), id="table-grid-not-from-zero"),
         # a copy of a longer table cut short
         pytest.param(_table_with_torque("0.0", samples=4), id="table-samples-not-the-row-count"),
         *OFF_GRAMMAR,
         # the metrics file would hold two config lines of that label
         pytest.param(_repeated_label_with_output, id="analyze-output-repeated-label"),
         # a valid tf whose window end is a tick index beyond the float range
         pytest.param(_trace_with_echo("trajectory.tf", "1.7e+308"),
                      id="echo-window-end-beyond-the-float-range")],
    )
    def test_bad_file_exits_2_with_one_line(self, tmp_path, capsys, case):
        argv, path = case(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would print a line of its own
            assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ")
        assert err.count("\n") == 1
        assert err.count(str(path)) == 1
        # an OSError is stated by its strerror, with its file named in the prefix only
        assert "[Errno" not in err

    @pytest.mark.parametrize("case", OFF_GRAMMAR)
    def test_a_cell_off_the_grammar_names_its_row(self, tmp_path, capsys, case):
        argv, path = case(tmp_path)
        assert main(argv) == 2
        head, *lines = path.read_text(encoding="utf-8").splitlines()
        kind = head.removeprefix("# twomass ")
        rows = [f"error: {path}: malformed {kind} row {line!r}\n" for line in lines]
        assert capsys.readouterr().err in rows

    @settings(max_examples=300)
    @given(data=st.data())
    def test_hostile_trace_fails_closed(self, tmp_path_factory, data):
        # the synthetic completed trace with a run of hostile cells in some
        # columns (drawn one by one, one cell repeated, or one cell with its
        # sign alternating), then maybe a truncated row, a config key
        # dropped or bytes that are not UTF-8
        runs = {}
        for column in TRACE_COLUMNS.strip().split(","):
            if data.draw(st.booleans()):
                row = data.draw(st.integers(0, 12))
                length = data.draw(st.integers(1, 13 - row))
                cells = data.draw(st.lists(st.sampled_from(HOSTILE_CELLS),
                                           min_size=length, max_size=length))
                how = data.draw(st.sampled_from(["drawn", "repeated", "alternating"]))
                if how != "drawn":
                    other = cells[0] if how == "repeated" else _negated(cells[0])
                    cells = [other if i % 2 else cells[0] for i in range(length)]
                runs[column] = (row, cells)
        tmp_path = tmp_path_factory.mktemp("hostile")
        argv, path = _completed_trace_with_runs(runs)(tmp_path)
        lines = path.read_bytes().splitlines(keepends=True)
        how = data.draw(st.sampled_from(["cells", "truncated row", "dropped key", "not UTF-8"]))
        if how == "truncated row":
            k = data.draw(st.integers(4, len(lines) - 1))
            lines[k] = lines[k][:data.draw(st.integers(0, len(lines[k]) - 1))] + b"\n"
        elif how == "dropped key":
            pairs = lines[1].rstrip(b"\n").split(b"|")
            del pairs[data.draw(st.integers(0, len(pairs) - 1))]
            lines[1] = b"|".join(pairs) + b"\n"
        elif how == "not UTF-8":
            at = data.draw(st.integers(0, len(lines)))
            lines.insert(at, data.draw(st.sampled_from([b"\xc0", NOT_UTF8])))
        path.write_bytes(b"".join(lines))
        err = io.StringIO()
        with (warnings.catch_warnings(), contextlib.redirect_stderr(err),
              contextlib.redirect_stdout(io.StringIO())):
            warnings.simplefilter("error")  # a warning would print a line of its own
            code = main(argv)
        err = err.getvalue()
        assert code in (0, 1, 2)
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("text, old, new, message", [
        # the feedforward branch's keys and sections in a mode without it
        (FEEDBACK_CONFIG, "seed = 3", "seed = 3\nfeedforward = garbage",
         "simulation.feedforward not allowed for mode feedback"),
        (FEEDBACK_CONFIG, "seed = 3", "seed = 3\nfeedforward = online",
         "simulation.feedforward not allowed for mode feedback"),
        (FEEDBACK_CONFIG, "[funnel]", "[newton]\nresidual_tolerance = 1e-9\n\n[funnel]",
         "newton.residual_tolerance not allowed for mode feedback"),
        (FEEDBACK_CONFIG, "[funnel]", "[newton]\n\n[funnel]",
         "section [newton] not allowed for mode feedback"),
        (FULL_CONFIG, "label = demo", "label = a: b", "label 'a: b' must be non-empty, without"),
        # open() would reject the output file's name
        pytest.param(FULL_CONFIG, "label = demo", "label = de\0mo",
                     "label 'de\\x00mo' must be non-empty, without | , / \\ :, NUL or newlines",
                     id="label-with-nul"),
        # psi grows without bound: outside the funnel class
        pytest.param(FULL_CONFIG, "q_decay = 0.3", "q_decay = -1000",
                     "funnel decay rate q_decay must be >= 0, got -1000.0",
                     id="negative-q-decay"),
        # the law squares the width: a square that overflows made every tick NaN
        pytest.param(FULL_CONFIG, "s = 5.0\nq_decay = 0.3\nc = 0.3",
                     "s = 1e308\nq_decay = 0.3\nc = 1e308",
                     "funnel width s + c must have a finite square, got s=1e+308, c=1e+308",
                     id="overflowing-funnel-width"),
        pytest.param(FULL_CONFIG, "c = 0.3", "c = 1.5e154",
                     "funnel width s + c must have a finite square, got s=5.0, c=1.5e+154",
                     id="overflowing-funnel-offset"),
        # c*c == 0: at rest on an ideal sensor the law divided 0 by 0
        pytest.param(FULL_CONFIG.replace("[measurement]\nnoise_std = 0.02\n", ""),
                     "s = 5.0\nq_decay = 0.3\nc = 0.3", "s = 0.0\nq_decay = 0.3\nc = 1e-200",
                     "funnel offset c must have a positive square, got c=1e-200",
                     id="underflowing-funnel-offset"),
        # about 1.6e5 series pieces per tick: rejected before any is walked
        pytest.param(FULL_CONFIG, "[plant.true]\nI1 = 0.136", "[plant.true]\nI1 = 1e-10",
                     "true plant I1=1e-10 I2=0.12 k=33.6 d=0.016 is too fast for the "
                     "control tick 0.001 s", id="too-light-true-flywheel"),
        # yf - y0 overflows: the reference column would be NaN
        pytest.param(FULL_CONFIG, "y0 = 0.0\nyf = 12.566370614359172", "y0 = -1e308\nyf = 1e308",
                     "trajectory span yf - y0 must be finite, got y0=-1e+308, yf=1e+308",
                     id="overflowing-reference-span"),
        # named, whether or not the sensor draws noise
        pytest.param(FULL_CONFIG, "seed = 3", "seed = -1", "seed must be >= 0, got -1",
                     id="negative-seed"),
        pytest.param(FEEDBACK_CONFIG.replace("[measurement]\nnoise_std = 0.02\n", ""),
                     "seed = 3", "seed = -1", "seed must be >= 0, got -1",
                     id="negative-seed-ideal-sensor"),
        pytest.param(FULL_CONFIG, "c = 0.3", "c = 0.0", "funnel offset c must be > 0, got 0.0",
                     id="zero-funnel-offset"),
        # a number that is not finite where a finite one is needed
        pytest.param(FULL_CONFIG, "control_frequency = 1000.0", "control_frequency = inf",
                     "control_frequency", id="non-finite-control-frequency"),
        pytest.param(FULL_CONFIG, "duration = 0.5", "duration = inf", "duration",
                     id="non-finite-duration"),
        pytest.param(FULL_CONFIG, "noise_std = 0.02", "noise_std = nan", "measurement",
                     id="nan-noise"),
        pytest.param(FULL_CONFIG, "noise_std = 0.02", "noise_std = 0.02\nangle_quantum = inf",
                     "measurement", id="non-finite-angle-quantum"),
        pytest.param(FULL_CONFIG, "[measurement]",
                     "[newton]\nresidual_tolerance = inf\n\n[measurement]", "residual_tolerance",
                     id="non-finite-newton-tolerance"),
        pytest.param(FULL_CONFIG, "f_act = 0.08", "f_act = inf", "tuning factors must be finite",
                     id="non-finite-tuning"),
        pytest.param(FULL_CONFIG, "control_frequency = 1000.0\nduration = 0.5",
                     "control_frequency = 1e200\nduration = 1e200",
                     "error: duration 1e+200 s at 1e+200 Hz is inf control ticks",
                     id="overflowing-tick-count"),
        pytest.param(FULL_CONFIG, "seed = 3", "seed = 3\nu_max = 0.0",
                     "u_max must be > 0 when set, got 0.0", id="zero-u-max"),
        pytest.param(FULL_CONFIG, "[measurement]", "[newton]\nmax_iterations = 0\n\n[measurement]",
                     "max_iterations must be >= 1, got 0", id="zero-newton-iterations"),
        pytest.param(FULL_CONFIG, "seed = 3", "seed = 3\nfeedforward = garbage",
                     "simulation.feedforward = 'garbage' is not 'online' or 'table:PATH'",
                     id="malformed-feedforward-source"),
    ])
    def test_rejected_config_exits_2_with_one_line(self, tmp_path, capsys, text, old, new,
                                                   message):
        path = write_config(tmp_path, text.replace(old, new))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would print a line of its own
            assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("old, new, message", [
        # the quantum count of the first angle overflows the float range
        pytest.param("noise_std = 0.02", "noise_std = 0.02\nangle_quantum = 1e-320",
                     "angle_quantum 1e-320 is too fine for the angle", id="subnormal-angle-quantum"),
        pytest.param("noise_std = 0.02", "noise_std = 1e308",
                     "noise_std 1e+308 is too large: its draws overflow", id="overflowing-noise"),
        # a reference span of 2e-320 s: its rate at t=0 overflows
        pytest.param("t0 = 0.0\ntf = 10.0", "t0 = -1e-320\ntf = 1e-320",
                     "output constraint cannot be met at t=0: y_ref=6.283185307179586, u=inf",
                     id="inconsistent-start"),
    ])
    def test_run_that_cannot_proceed_exits_2_with_one_labelled_line(self, tmp_path, capsys, old,
                                                                    new, message):
        path = write_config(tmp_path, FULL_CONFIG.replace(old, new))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would print a line of its own
            assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("demo: error: ") and message in err
        assert err.count("\n") == 1

    def test_an_error_whose_square_rounds_to_the_bands_exits_2_with_one_line(self, tmp_path,
                                                                             capsys):
        # c*c is subnormal and e*e rounds to it, so psi^2 - e^2, the law's
        # denominator, is 0 at tick 0: the error is not inside the band
        text = FEEDBACK_CONFIG.replace("[measurement]\nnoise_std = 0.02\n", "")
        for old, new in [("duration = 0.5", "duration = 0.01"),
                         ("y0 = 0.0\nyf = 12.566370614359172\nt0 = 0.0\ntf = 10.0",
                          "y0 = -0.99e-161\nyf = -0.99e-161\nt0 = 0.0\ntf = 1.0"),
                         ("s = 5.0\nq_decay = 0.3\nc = 0.3", "s = 0.0\nq_decay = 0.0\nc = 1e-161")]:
            assert old in text
            text = text.replace(old, new)
        path = write_config(tmp_path, text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would print a line of its own
            assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "demo: error: initial error 9.9e-162 is not inside the funnel width 1e-161\n")

    def test_a_window_end_beyond_the_float_range_is_noted_in_the_summary(self, tmp_path, capsys):
        # tf = 1.7e308 is a valid reference, but its window's last tick index
        # is not a float: the window is not covered, and the run still completes
        path = write_config(tmp_path, FULL_CONFIG.replace("tf = 10.0", "tf = 1.7e308"))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would print a line of its own
            assert main(["simulate", str(path), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        summary = (out / "demo-summary.txt").read_text()
        assert "note: window [0.0, 1.7e+308] not covered by samples [0.0, 0.5]\n" in summary

    @pytest.mark.parametrize("value", ["5e-324", "1e-161", "1.7e308", "-1.7e308", "-0.0"])
    @pytest.mark.parametrize("name", [row.name for row in CONFIG_FIELDS
                                      if row.ini and row.kind is FLOAT])
    def test_every_number_at_its_extremes_ends_in_a_code_or_one_line(self, tmp_path, name,
                                                                      value):
        # each number of a config file set alone to an extreme in the combined
        # config: it runs, fails or is refused with one line, and never raises
        parser = configparser.ConfigParser(interpolation=None)
        parser.optionxform = str
        parser.read_string(FULL_CONFIG.replace("duration = 0.5", "duration = 1.5"))
        section, key = name.rsplit(".", 1)
        if not parser.has_section(section):
            parser.add_section(section)
        parser[section][key] = value
        path = tmp_path / "run.ini"
        with open(path, "w", encoding="utf-8") as fh:
            parser.write(fh)
        err = io.StringIO()
        with (warnings.catch_warnings(), contextlib.redirect_stderr(err),
              contextlib.redirect_stdout(io.StringIO())):
            warnings.simplefilter("error")  # a warning would print a line of its own
            code = main(["simulate", str(path), "--out", str(tmp_path / "out")])
        assert code in (0, 1, 2)
        # a run's status goes to stdout; only a refusal prints, its one line
        err = err.getvalue()
        assert err.count("\n") == (code == 2) and err.count("error: ") == (code == 2)

    def test_config_is_read_as_utf8_in_any_locale(self, tmp_path):
        # under the C locale without UTF-8 mode, the locale's encoding is ASCII
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0",
               "PYTHONPATH": str(Path(twomass.__file__).parents[1])}

        def simulate(text):
            path = tmp_path / "run.ini"
            path.write_bytes(("# Drehzahlrampe f\u00fcr den Pr\u00fcfstand\n" + text).encode())
            return subprocess.run(
                [sys.executable, "-m", "twomass.cli", "simulate", str(path), "--out",
                 str(tmp_path / "out")], capture_output=True, text=True, env=env)

        done = simulate(FULL_CONFIG)
        assert (done.returncode, done.stderr) == (0, "")
        assert (tmp_path / "out" / "demo-trace.csv").exists()
        # that locale cannot spell a file name made from a non-ASCII label
        refused = simulate(FULL_CONFIG.replace("label = demo", "label = d\u00e9mo"))
        assert refused.returncode == 2
        assert refused.stderr.startswith("error: ") and refused.stderr.count("\n") == 1
        assert "-trace.csv: not ascii text" in refused.stderr

    @pytest.mark.parametrize("flags, config, expected", [
        pytest.param(["--horizon", "0.01", "--tolerance", "1e-300"], None,
                     r"error: Newton did not converge.*", id="unreachable-tolerance"),
        # a reference span of 2e-320 s: its rate at t=0 overflows
        pytest.param(["--horizon", "0.01"],
                     FULL_CONFIG.replace("t0 = 0.0\ntf = 10.0", "t0 = -1e-320\ntf = 1e-320"),
                     re.escape("error: output constraint cannot be met at t=0: "
                               "y_ref=6.283185307179586, u=inf"), id="inconsistent-start"),
        pytest.param(["--dt", "1e-320"], None,
                     re.escape("error: horizon 15.0 s at dt 1e-320 s is inf steps, more than ")
                     + ".*", id="overflowing-grid"),
        pytest.param(["--dt", "inf"], None, r"error: dt must be finite.*", id="non-finite-dt"),
        pytest.param(["--horizon", "inf"], None, r"error: horizon must be finite.*",
                     id="non-finite-horizon"),
        # the table's grid is 0, dt, ..., horizon: no horizon between two steps
        pytest.param(["--dt", "0.3", "--horizon", "1"], None,
                     r"error: horizon .*not a whole number of steps.*", id="horizon-off-the-grid"),
        pytest.param(["--horizon", "1e-4"], None,
                     r"error: horizon .*not a whole number of steps.*",
                     id="horizon-below-one-step"),
    ])
    def test_rejected_feedforward_request_exits_2_with_one_line(self, tmp_path, capsys, flags,
                                                                config, expected):
        out = tmp_path / "t.csv"
        if config is not None:
            flags = ["--config", str(write_config(tmp_path, config)), *flags]
        assert main(["feedforward", *flags, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(expected + "\n", err)  # "." matches no line break: one line
        assert not out.exists()

    def test_analyze_of_a_trace_shorter_than_the_windows_exits_2_with_one_line(
        self, tmp_path, capsys
    ):
        # a completed 1 s run cannot cover the transient window [0, tf = 10]
        path = write_config(tmp_path, FULL_CONFIG.replace("duration = 0.5", "duration = 1.0"))
        out = tmp_path / "out"
        assert main(["simulate", str(path), "--out", str(out)]) == 0
        capsys.readouterr()
        trace = out / "demo-trace.csv"
        assert main(["analyze", str(trace)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {trace}: window ")
        assert err.count("\n") == 1

    def test_sweep_of_config_file(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["sweep", str(cfg_path), "--out", str(out)]) == 0
        assert (out / "demo-trace.csv").exists()

    def test_output_dir_from_environment(self, tmp_path, monkeypatch):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "env-out"
        monkeypatch.setenv("TWOMASS_OUT", str(out))
        assert main(["simulate", str(cfg_path)]) == 0
        assert (out / "demo-trace.csv").exists()

    def test_sweep_preset_writes_all_artifacts(self, tmp_path):
        out = tmp_path / "sweep-out"
        assert main(["sweep", "table3-fb-sweep-2khz", "--out", str(out)]) == 0
        traces = sorted(p.name for p in out.glob("*-trace.csv"))
        assert len(traces) == 5
        body = [
            line
            for line in (out / "metrics.csv").read_text().splitlines()
            if line and not line.startswith("#") and not line.startswith("run,")
        ]
        assert len(body) == 5
        # every output embeds the resolved configuration
        header = (out / "metrics.csv").read_text()
        assert header.count("# config fb-") == 5

    def test_same_seed_gives_byte_identical_files(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["simulate", str(cfg_path), "--out", str(out_a)])
        main(["simulate", str(cfg_path), "--out", str(out_b)])
        for name in ("demo-trace.csv", "metrics.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


finite = st.floats(allow_nan=False, allow_infinity=False)
non_negative = st.floats(min_value=0.0, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
# the widest band (s + c)**2 stays finite and the narrowest c*c positive
funnels = st.builds(FunnelSpec, st.floats(0.0, 6e153), non_negative, st.floats(1e-161, 6e153))


modes = st.one_of(
    st.builds(ControllerMode.feedforward_only, st.builds(TuningFactors, finite, finite)),
    st.builds(ControllerMode.feedback_only, funnels),
    st.builds(ControllerMode.combined, st.builds(TuningFactors, finite, finite), funnels),
)
newton_options = st.builds(NewtonOptions, st.integers(1, 10**6), positive)
# moderate inertias, stiffness and damping, so that some control tick holds the
# twist mode in at most 1000 series pieces
true_plants = st.builds(OscillatorParams, st.floats(1e-3, 1e3), st.floats(1e-3, 1e3),
                        st.floats(0.0, 1e3), st.floats(0.0, 1e3),
                        st.builds(FrictionModel, non_negative))
nominal_plants = st.builds(OscillatorParams, positive, positive, non_negative, non_negative)
trajectories = st.builds(lambda y0, yf, ts: TrajectorySpec(y0, yf, *sorted(ts)), finite, finite,
                         st.tuples(finite, finite).filter(lambda ts: ts[0] != ts[1]))


@st.composite
def configs(draw):
    mode = draw(modes)
    source = FeedforwardSource()  # a feedback-only run has no Newton options to echo
    if mode.tuning is not None:
        source = FeedforwardSource(newton=draw(newton_options))
    true_params = draw(true_plants)
    # a tick of at most 999 series pieces, and a run of a whole number of ticks
    frequency = draw(st.floats(max(rate_bound(true_params) / 999.0, 1e-300), 1e300))
    return SimulationConfig(
        label=draw(labels()),
        true_params=true_params,
        nominal_params=draw(nominal_plants),
        trajectory=draw(trajectories),
        mode=mode,
        control_frequency=frequency,
        duration=draw(st.integers(1, 10**6)) / frequency,
        plant_substeps=draw(st.integers(1, 100)),
        measurement=draw(st.builds(MeasurementModel, non_negative, non_negative, non_negative)),
        feedforward_source=source,
        seed=draw(st.integers(0, 2**64)),
        u_max=draw(st.none() | positive),
        initial_state=draw(st.tuples(finite, finite, finite, finite)),
    )


def _value(cfg, path):
    for name in path.split("."):
        cfg = getattr(cfg, name)
    return cfg


def _bits(value):
    if isinstance(value, tuple):
        return tuple(map(_bits, value))
    if isinstance(value, float):
        return struct.pack("<d", value)
    return type(value), value


def _leaf_paths(obj, prefix=""):
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            yield from _leaf_paths(value, f"{prefix}{f.name}.")
        else:
            yield prefix + f.name


# Config fields the echo leaves out, and why a run does not need them back.
NOT_ECHOED = {
    "feedforward_source.table",  # the samples: the echo says only feedforward.source=table
    "plant_substeps",  # no effect: the plant step is exact
    "nominal_params.friction.magnitude",  # zero wherever the nominal plant is used
}


class TestFieldTable:
    @given(cfg=configs())
    def test_every_echoed_field_reads_back_bit_for_bit(self, cfg):
        echo = parse_echo(format_echo(config_echo(cfg)), "header")
        back = config_from_echo(echo, "header")
        rows = [row for row in CONFIG_FIELDS if row.echo and has_branch(cfg.mode.name, row.branch)]
        assert set(echo) == {row.name for row in rows}
        for row in rows:
            assert _bits(_value(back, row.path)) == _bits(_value(cfg, row.path)), row.name
        assert back == dataclasses.replace(cfg, plant_substeps=10)

    def test_an_empty_echo_reads_as_no_pairs(self):
        # the echo of a file without a config line, or with an empty one
        assert parse_echo("", "header") == {}

    def test_every_leaf_field_is_echoed_or_named(self, tmp_path):
        # a combined config: both branches, so every optional part is present
        cfg = load_config_file(write_config(tmp_path))
        echoed = {row.path for row in CONFIG_FIELDS if row.echo and not row.derived}
        assert set(_leaf_paths(cfg)) == echoed | NOT_ECHOED
        assert not echoed & NOT_ECHOED

    def test_table_source_is_echoed_as_table(self):
        cfg = build_preset("table2-ffw-sweep").configs[0]
        n = cfg.n_ticks + 1  # a table long enough for the run, on its tick grid
        table = FeedforwardTable(dt=1e-3, u=np.zeros(n))
        cfg = dataclasses.replace(cfg, feedforward_source=FeedforwardSource(table=table))
        echo = config_echo(cfg)
        assert echo["feedforward.source"] == "table"
        back = config_from_echo(echo, "header")
        assert back == dataclasses.replace(cfg, feedforward_source=FeedforwardSource())

    def test_readme_python_blocks_run_in_order(self, capsys):
        # in one namespace: the second block uses the first one's imports
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
        assert len(blocks) == 2
        namespace = {}
        for block in blocks:
            exec(compile(block, "README.md", "exec"), namespace)
        assert namespace["trace"].status.completed and namespace["state"].t == 5.0
        assert len(capsys.readouterr().out.splitlines()) == 2

    def test_readme_ini_block_names_exactly_the_table_keys(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        (block,) = re.findall(r"```ini\n(.*?)```", readme, re.S)
        load_config_file(write_config(tmp_path, block))
        parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        parser.optionxform = str
        parser.read_string(block)
        named = {(section, key) for section in parser.sections() for key in parser[section]}
        assert named == {tuple(row.name.rsplit(".", 1)) for row in CONFIG_FIELDS if row.ini}


@pytest.mark.parametrize("module", ["config", "presets"])
def test_config_modules_import_nothing_from_closedloop(module):
    # what a run is asked to do is spelled out without the loop that runs it
    tree = ast.parse(Path(twomass.__file__).with_name(f"{module}.py").read_text(encoding="utf-8"))
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names]
    names += [name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              for name in (node.module or "", *(alias.name for alias in node.names))]
    assert names and not [name for name in names if "closedloop" in name.split(".")]


def test_the_cli_import_loads_no_ini_reader_or_fractions():
    # every run and sweep imports the package; only a config file needs
    # configparser, and the cell formatter builds its table without fractions
    code = "import sys, twomass.cli; print(sorted({'configparser', 'fractions'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(Path(twomass.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "[]"
