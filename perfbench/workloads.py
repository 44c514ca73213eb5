"""The benchmark's workloads, driven through the twomass package's public calls.

``sweep`` is the library path of ``twomass sweep PRESET --out DIR`` (trace
CSVs and ``metrics.csv``; the CLI's summary text files are not written) and
``analyze`` that of ``twomass analyze FILE`` for each file.  Neither starts a
thread: ``run_sweep`` keeps ``workers=1``.

The seed is added to every run's noise seed.  Only runs with a noisy sensor
draw noise, so of the benchmark's workloads only ``comparison-2khz`` depends
on it.
"""

from __future__ import annotations

import os
from dataclasses import replace

from twomass import closedloop, metrics, presets
from twomass.trajectory import TrajectorySpec


def trace_path(out_dir: str, label: str) -> str:
    return os.path.join(out_dir, f"{label}-trace.csv")


def sweep(preset_name: str, seed: int, out_dir: str) -> list:
    """Build the preset, run it serially and write its files into ``out_dir``."""
    preset = presets.build_preset(preset_name)
    configs = [replace(cfg, seed=cfg.seed + seed) for cfg in preset.configs]
    results = closedloop.run_sweep(configs, workers=1)
    rows = []
    config_lines = []
    for result in results:
        cfg = result.config
        if result.trace is not None:
            closedloop.write_trace_csv(result.trace, trace_path(out_dir, cfg.label))
        rows.append(
            metrics.metrics_csv_row(cfg.label, cfg.mode.name, cfg.control_frequency, result.metrics)
        )
        echo = "|".join(f"{k}={v}" for k, v in sorted(closedloop.config_echo(cfg).items()))
        config_lines.append(f"{cfg.label}: {echo}")
    metrics.write_metrics_csv(rows, os.path.join(out_dir, "metrics.csv"), config_lines)
    return results


def analyze(paths) -> list[tuple]:
    """Read each trace and compute its metrics row: ``(trace, report, row)``."""
    out = []
    for path in paths:
        trace = closedloop.read_trace_csv(path)
        echo = trace.run_config
        spec = TrajectorySpec(
            y0=float(echo["trajectory.y0"]),
            yf=float(echo["trajectory.yf"]),
            t0=float(echo["trajectory.t0"]),
            tf=float(echo["trajectory.tf"]),
        )
        rep = metrics.report(trace, spec)
        row = metrics.metrics_csv_row(
            echo["simulation.label"],
            echo["simulation.mode"],
            float(echo["simulation.control_frequency"]),
            rep,
        )
        out.append((trace, rep, row))
    return out
