import configparser
import dataclasses
import math
import os
import re
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import NOT_UTF8
from twomass.cli import main
from twomass.closedloop import (
    CONFIG_FIELDS,
    ControllerMode,
    FeedforwardSource,
    MeasurementModel,
    SimulationConfig,
    config_echo,
    has_branch,
    run_simulation,
)
from twomass.config import config_from_echo, load_config, load_config_file
from twomass.csvfile import format_echo, parse_echo
from twomass.errors import ParseError, ValidationError
from twomass.feedback import FunnelSpec
from twomass.feedforward import FeedforwardTable, NewtonOptions, TuningFactors, read_table_csv
from twomass.plant import FrictionModel, OscillatorParams
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


def _trace_with_echo(key, value):
    # a trace whose config header holds ``key=value`` (None: lacks the key)
    def case(tmp_path):
        echo = config_echo(load_config_file(write_config(tmp_path)))
        echo[key] = value
        echo = {k: v for k, v in echo.items() if v is not None}
        path = tmp_path / "trace.csv"
        path.write_text(f"# twomass trace\n# config: {format_echo(echo)}\n"
                        "# status: completed\n" + TRACE_COLUMNS)
        return ["analyze", str(path)], path

    return case


def _completed_trace_with_cell(column, cell, row=1):
    # a completed trace on the grid 0, 0.5, ..., 6 s, which covers both metric
    # windows of tf = 1 s, with ``cell`` in ``column`` of the row at 0.5 ``row`` s
    def case(tmp_path):
        echo = config_echo(load_config_file(write_config(tmp_path)))
        echo["trajectory.tf"] = "1.0"
        names = TRACE_COLUMNS.strip().split(",")
        rows = []
        for i in range(13):
            cells = dict.fromkeys(names, "0.0")
            cells.update(t=repr(0.5 * i), psi="1.0", newton_iterations="0")
            if i == row:
                cells[column] = cell
            rows.append(",".join(cells[name] for name in names) + "\n")
        path = tmp_path / "trace.csv"
        path.write_text(f"# twomass trace\n# config: {format_echo(echo)}\n"
                        "# status: completed\n" + TRACE_COLUMNS + "".join(rows))
        return ["analyze", str(path)], path

    return case


def _table_with_torque(cell):
    def case(tmp_path):
        path = tmp_path / "table.csv"
        path.write_text(
            "# twomass feedforward table\n# config: dt=0.001|samples=2\n"
            f"t,u_ffw\n0.0,{cell}\n0.001,0.0\n"
        )
        text = FULL_CONFIG.replace("seed = 3", "seed = 3\nfeedforward = table:table.csv")
        return ["simulate", str(write_config(tmp_path, text))], path

    return case


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
        loaded = load_config("table2-ffw-sweep")
        assert isinstance(loaded, ExperimentPreset)
        assert len(loaded.configs) == 5

    def test_unknown_path_or_preset(self):
        with pytest.raises(ParseError):
            load_config("no-such-thing.ini")


class TestPresets:
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
         _completed_trace_with_cell("t", "0.75"), _completed_trace_with_cell("u", "inf"),
         # at tf = 1 s, the end of one window and the start of the next
         _completed_trace_with_cell("u", "inf", row=2),
         # finite, but its square overflows
         _completed_trace_with_cell("u", "1e200", row=2)],
    )
    def test_bad_file_exits_2_with_one_line(self, tmp_path, capsys, case):
        argv, path = case(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would print a line of its own
            assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ")
        assert err.count("\n") == 1

    def test_unreachable_newton_tolerance_exits_2_with_one_line(self, tmp_path, capsys):
        argv = ["feedforward", "--horizon", "0.01", "--tolerance", "1e-300",
                "--output", str(tmp_path / "t.csv")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: Newton did not converge")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("old, new, key", [
        ("control_frequency = 1000.0", "control_frequency = inf", "control_frequency"),
        ("duration = 0.5", "duration = inf", "duration"),
        ("noise_std = 0.02", "noise_std = nan", "measurement"),
        ("noise_std = 0.02", "noise_std = 0.02\nangle_quantum = inf", "measurement"),
        ("[measurement]", "[newton]\nresidual_tolerance = inf\n\n[measurement]",
         "residual_tolerance"),
    ])
    def test_non_finite_config_value_exits_2_with_one_line(self, tmp_path, capsys, old, new, key):
        path = write_config(tmp_path, FULL_CONFIG.replace(old, new))
        assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert err.count("\n") == 1

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
        # psi grows without bound: outside the funnel class
        pytest.param(FULL_CONFIG, "q_decay = 0.3", "q_decay = -1000",
                     "funnel decay rate q_decay must be >= 0, got -1000.0",
                     id="negative-q-decay"),
        # about 1.6e5 series pieces per tick: rejected before any is walked
        pytest.param(FULL_CONFIG, "[plant.true]\nI1 = 0.136", "[plant.true]\nI1 = 1e-10",
                     "true plant I1=1e-10 I2=0.12 k=33.6 d=0.016 is too fast for the "
                     "control tick 0.001 s", id="too-light-true-flywheel"),
    ])
    def test_rejected_config_exits_2_with_one_line(self, tmp_path, capsys, text, old, new,
                                                   message):
        path = write_config(tmp_path, text.replace(old, new))
        assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1

    def test_overflowing_tick_count_exits_2_with_one_line(self, tmp_path, capsys):
        text = FULL_CONFIG.replace("duration = 0.5", "duration = 1e200")
        text = text.replace("control_frequency = 1000.0", "control_frequency = 1e200")
        path = write_config(tmp_path, text)
        assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: duration 1e+200 s at 1e+200 Hz is inf control ticks")
        assert err.count("\n") == 1

    def test_overflowing_feedforward_grid_exits_2_with_one_line(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert main(["feedforward", "--dt", "1e-320", "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: horizon 15.0 s at dt 1e-320 s is inf steps, more than ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--dt", "--horizon"])
    def test_non_finite_feedforward_grid_exits_2_with_one_line(self, tmp_path, capsys, flag):
        out = tmp_path / "t.csv"
        assert main(["feedforward", flag, "inf", "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag[2:]} must be finite")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--dt", "0.3", "--horizon", "1"], ["--horizon", "1e-4"]])
    def test_horizon_off_the_step_grid_exits_2_with_one_line(self, tmp_path, capsys, flags):
        # the table's grid is 0, dt, ..., horizon: no horizon between two steps
        out = tmp_path / "t.csv"
        assert main(["feedforward", *flags, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: horizon ") and "not a whole number of steps" in err
        assert err.count("\n") == 1
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

    def test_config_error_exit_code(self, tmp_path):
        path = write_config(tmp_path, FULL_CONFIG.replace("c = 0.3", "c = 0.0"))
        assert main(["simulate", str(path)]) == 2

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


modes = st.one_of(
    st.builds(ControllerMode.feedforward_only, st.builds(TuningFactors, finite, finite)),
    st.builds(ControllerMode.feedback_only, st.builds(FunnelSpec, non_negative, non_negative, positive)),
    st.builds(ControllerMode.combined, st.builds(TuningFactors, finite, finite),
              st.builds(FunnelSpec, non_negative, non_negative, positive)),
)
newton_options = st.builds(NewtonOptions, st.integers(1, 10**6), positive)
true_plants = st.builds(OscillatorParams, positive, positive, non_negative, non_negative,
                        st.builds(FrictionModel, non_negative))
nominal_plants = st.builds(OscillatorParams, positive, positive, non_negative, non_negative)
trajectories = st.builds(lambda y0, yf, ts: TrajectorySpec(y0, yf, *sorted(ts)), finite, finite,
                         st.tuples(finite, finite).filter(lambda ts: ts[0] != ts[1]))
labels = st.text(st.characters(blacklist_characters="|,/\\:\n\r"), min_size=1)


@st.composite
def configs(draw):
    mode = draw(modes)
    source = FeedforwardSource()  # a feedback-only run has no Newton options to echo
    if mode.tuning is not None:
        source = FeedforwardSource(newton=draw(newton_options))
    return SimulationConfig(
        label=draw(labels),
        true_params=draw(true_plants),
        nominal_params=draw(nominal_plants),
        trajectory=draw(trajectories),
        mode=mode,
        control_frequency=draw(positive),
        duration=draw(positive),
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
        echo = parse_echo(format_echo(config_echo(cfg)))
        back = config_from_echo(echo, "header")
        rows = [row for row in CONFIG_FIELDS if row.echo and has_branch(cfg.mode.name, row.branch)]
        assert set(echo) == {row.name for row in rows}
        for row in rows:
            assert _bits(_value(back, row.path)) == _bits(_value(cfg, row.path)), row.name
        assert back == dataclasses.replace(cfg, plant_substeps=10)

    def test_every_leaf_field_is_echoed_or_named(self, tmp_path):
        # a combined config: both branches, so every optional part is present
        cfg = load_config_file(write_config(tmp_path))
        echoed = {row.path for row in CONFIG_FIELDS if row.echo and not row.derived}
        assert set(_leaf_paths(cfg)) == echoed | NOT_ECHOED
        assert not echoed & NOT_ECHOED

    def test_table_source_is_echoed_as_table(self):
        table = FeedforwardTable(dt=1e-3, t=np.arange(3) * 1e-3, u=np.zeros(3))
        cfg = load_config("table2-ffw-sweep").configs[0]
        cfg = dataclasses.replace(cfg, feedforward_source=FeedforwardSource(table=table))
        echo = config_echo(cfg)
        assert echo["feedforward.source"] == "table"
        back = config_from_echo(echo, "header")
        assert back == dataclasses.replace(cfg, feedforward_source=FeedforwardSource())

    def test_readme_ini_block_names_exactly_the_table_keys(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        (block,) = re.findall(r"```ini\n(.*?)```", readme, re.S)
        load_config_file(write_config(tmp_path, block))
        parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        parser.optionxform = str
        parser.read_string(block)
        named = {(section, key) for section in parser.sections() for key in parser[section]}
        assert named == {tuple(row.name.rsplit(".", 1)) for row in CONFIG_FIELDS if row.ini}
