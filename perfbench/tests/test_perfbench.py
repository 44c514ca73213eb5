"""Tests of the benchmark itself: its correctness check, its tracer and its
claim to measure what ``twomass sweep`` does.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import filecmp
import os
import shutil
import subprocess
import sys
import time
import types
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import calibrate  # noqa: E402
import check  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from twomass import closedloop, presets  # noqa: E402
from twomass.plant import FrictionModel  # noqa: E402

REFERENCE = check.load_reference()


def _first_two(preset_name, change):
    configs = [change(cfg) for cfg in presets.build_preset(preset_name).configs[:2]]
    results = closedloop.run_sweep(configs)
    refs = REFERENCE["presets"][preset_name]["runs"][:2]
    return [check.run_problems(ref, result, check.DEFAULT_SEED) for ref, result in zip(refs, results)]


def _finer_plant(cfg):
    return replace(cfg, plant_substeps=20)


def _wrong_friction(cfg):
    return replace(cfg, true_params=replace(cfg.true_params, friction=FrictionModel(0.1501)))


@pytest.mark.parametrize("preset_name", ["table2-ffw-sweep", "table3-fb-sweep-2khz"])
def test_more_accurate_plant_passes(preset_name):
    assert _first_two(preset_name, _finer_plant) == [[], []]


@pytest.mark.parametrize("preset_name", ["table2-ffw-sweep", "table3-fb-sweep-2khz"])
def test_wrong_plant_fails(preset_name):
    for problems in _first_two(preset_name, _wrong_friction):
        assert any("differs from reference" in p for p in problems)


def test_other_seed_changes_noise_and_passes():
    """Only noisy runs depend on the seed; they must still complete cleanly."""
    name = "controller-comparison-2khz"
    base = presets.build_preset(name).configs[:2]
    refs = REFERENCE["presets"][name]["runs"][:2]
    results = closedloop.run_sweep([replace(cfg, seed=cfg.seed + 1000) for cfg in base])
    assert [check.run_problems(ref, r, 1000) for ref, r in zip(refs, results)] == [[], []]
    # at the default seed the same runs reproduce the stored metrics, at 1000 they do not
    assert all(check.metric_problems(ref["label"], r.metrics, ref["metrics"])
               for ref, r in zip(refs, results))


def test_other_seed_allows_only_a_noise_driven_violation():
    ref = REFERENCE["presets"]["tight-funnel-fb"]["runs"][0]
    cfg = presets.build_preset("tight-funnel-fb").configs[0]
    result = closedloop.run_sweep([cfg])[0]
    trace = result.trace
    assert trace.status.kind == "funnel_violated"
    completed_ref = dict(ref, kind="completed", at=None)
    assert check.run_problems(completed_ref, result, 5) == []
    trace.y_true[-1] = trace.y_ref[-1] + 2.0 * trace.psi[-1]  # the plant itself left
    assert check.run_problems(completed_ref, result, 5)
    assert check.run_problems(completed_ref, result, check.DEFAULT_SEED)


def test_violation_time_must_match_within_a_tick():
    ref = REFERENCE["presets"]["tight-funnel-fb"]["runs"][0]
    cfg = presets.build_preset("tight-funnel-fb").configs[0]
    result = closedloop.run_sweep([cfg])[0]
    assert check.run_problems(ref, result, check.DEFAULT_SEED) == []
    late = dict(ref, at=ref["at"] - 2.0 / cfg.control_frequency)
    assert check.run_problems(late, result, check.DEFAULT_SEED)


def test_library_path_writes_what_the_cli_writes(tmp_path):
    """Trace CSVs and metrics.csv are byte-identical to ``twomass sweep``'s."""
    name = "tight-funnel-fb"
    ours = tmp_path / "bench"
    cli = tmp_path / "cli"
    ours.mkdir()
    results = workloads.sweep(name, check.DEFAULT_SEED, str(ours))
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("TWOMASS_WORKERS", None)
    proc = subprocess.run(
        [sys.executable, "-m", "twomass.cli", "sweep", name, "--out", str(cli)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 1, proc.stderr  # both runs leave the funnel
    written = sorted(os.listdir(ours))
    assert written == ["fb-6-1khz-trace.csv", "fb-6-2khz-trace.csv", "metrics.csv"]
    match, mismatch, errors = filecmp.cmpfiles(ours, cli, written, shallow=False)
    assert (mismatch, errors) == ([], [])
    assert "# status: funnel_violated at=11.93\n" in (ours / written[0]).read_text()
    refs = REFERENCE["presets"][name]["runs"]
    assert [check.run_problems(ref, r, check.DEFAULT_SEED) for ref, r in zip(refs, results)] == [[], []]


def test_roundtrip_check_sees_a_changed_cell(tmp_path):
    cfg = replace(presets.build_preset("table3-fb-sweep-2khz").configs[0], duration=0.5)
    trace = closedloop.run_simulation(cfg)
    path = tmp_path / "t.csv"
    closedloop.write_trace_csv(trace, path)
    read = closedloop.read_trace_csv(path)
    assert check.roundtrip_problems("fb", trace, read) == []
    read.u_ffw[3] = 0.0  # NaN in the written trace: feedback-only run
    read.y_true[5] += 1e-15
    problems = check.roundtrip_problems("fb", trace, read)
    assert len(problems) == 2 and "y_true" in problems[0] and "u_ffw" in problems[1]


@pytest.fixture
def fake_module(monkeypatch):
    mod = types.ModuleType("fake_layer")

    class Stepper:
        def advance(self, t):
            return t

    def child(x):
        if x < 0:
            raise ValueError("outside")
        return x + 1

    def parent(label, n):
        return sum(mod.child(i) for i in range(n))

    def unused():
        return None

    mod.Stepper, mod.child, mod.parent, mod.unused = Stepper, child, parent, unused
    monkeypatch.setitem(sys.modules, "fake_layer", mod)
    return mod


def test_tracer_reports_absent_and_uncalled_boundaries(fake_module):
    original = fake_module.child
    boundaries = (
        tracer.Boundary("parent", "fake_layer:parent", span=True, key=lambda args: args[0]),
        tracer.Boundary("child", "fake_layer:child"),
        tracer.Boundary("unused", "fake_layer:unused"),
        tracer.Boundary("renamed", "fake_layer:gone"),
        tracer.Boundary("method", "fake_layer:Stepper.gone"),
        tracer.Boundary("module", "no_such_module_here:f"),
    )
    with tracer.Tracer(boundaries) as hooks:
        assert fake_module.parent("run-a", 4) == 10
        with pytest.raises(ValueError):
            fake_module.child(-1)
    assert fake_module.child is original
    data = tracer.dump(hooks)
    assert data["status"] == {
        "parent": "hooked", "child": "hooked", "unused": "hooked",
        "renamed": "absent", "method": "absent", "module": "absent",
    }
    totals = data["totals"]
    assert totals["child"]["calls"] == 5 and totals["unused"]["calls"] == 0
    parent = totals["parent"]
    assert 0.0 <= parent["self_s"] <= parent["busy_s"]
    (span,) = data["spans"]
    assert span["key"] == "run-a" and span["inner"]["child"][0] == 4
    layers = tracer.layer_metrics(data)
    assert layers["plant.calls"] == 0 and layers["feedforward.distinct_frac"] == 0.0


def test_tracer_counts_distinct_inverse_model_steps():
    """Five identical online runs solve one inverse model: 1/5 distinct steps."""
    configs = [replace(cfg, duration=0.05) for cfg in presets.build_preset("table2-ffw-sweep").configs]
    with tracer.Tracer() as hooks:
        results = closedloop.run_sweep(configs)
    layers = tracer.layer_metrics(tracer.dump(hooks))
    assert all(r.trace is not None for r in results)
    assert layers["feedforward.steps"] == 5 * 50
    assert layers["feedforward.distinct_frac"] == 0.2
    assert layers["closedloop.runs"] == 5 and layers["closedloop.ticks"] == 5 * 51
    assert layers["plant.calls"] == 5 * 50


def test_reference_seconds_scale_with_the_reference_speed():
    """A host twice as slow doubles both CPU times; the figure stays put."""
    fast = [(0.1 * i, 0.1 * i + 0.05, 0.004) for i in range(100)]
    slow = [(s, e, 2 * cpu) for s, e, cpu in fast]
    assert calibrate.reference_s(3.0, fast, 1.0, 5.0) == pytest.approx(3.0 * calibrate.UNIT_REF_S / 0.004)
    assert calibrate.reference_s(6.0, slow, 1.0, 5.0) == pytest.approx(calibrate.reference_s(3.0, fast, 1.0, 5.0))


def test_reference_uses_the_units_inside_the_interval():
    samples = [(0.1 * i, 0.1 * i + 0.05, 0.004 if i < 50 else 0.008) for i in range(100)]
    assert calibrate.interval_unit_s(samples, 0.0, 4.0) == pytest.approx(0.004)
    assert calibrate.interval_unit_s(samples, 6.0, 9.0) == pytest.approx(0.008)
    # Too short an interval for MIN_SAMPLES units: the nearest ones count.
    assert calibrate.interval_unit_s(samples, 2.0, 2.1) == pytest.approx(0.004)
    with pytest.raises(ValueError):
        calibrate.interval_unit_s(samples[:2], 0.0, 10.0)


def test_reference_process_stops_and_reports(tmp_path):
    reference = run.Reference(str(tmp_path))
    try:
        time.sleep(1.5)
        samples = reference.samples()
    finally:
        reference.stop()
    assert reference.proc.returncode == 0
    assert len(samples) >= calibrate.MIN_SAMPLES
    assert all(start < end and cpu > 0 for start, end, cpu in samples)


def test_benchmark_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fb-2khz", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
