import math
import os

import numpy as np
import pytest

from twomass.cli import main
from twomass.config import load_config, load_config_file
from twomass.errors import ParseError, ValidationError
from twomass.presets import ExperimentPreset, build_preset, preset_names

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
        [_missing_trace, _status_without_time, _short_row, _missing_table, _output_in_missing_dir],
    )
    def test_bad_file_exits_2_with_one_line(self, tmp_path, capsys, case):
        argv, path = case(tmp_path)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ")
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
