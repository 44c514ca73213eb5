"""Correctness check of workload passes against stored seed-commit values.

``reference.json`` (written by ``make_reference.py``) holds, for every run of
every preset at the default seed: the status kind, the violation time if
any, the four window metrics, and whether the run depends on the noise seed
(only runs with a noisy sensor do).

A run passes when
  * its status kind matches the reference.  At another seed there is no
    reference for a seed-dependent run: it must complete, or leave the
    funnel through sensor noise only, its true error still inside the funnel
    at the violation tick.  (The noisy comparison runs come within 1.5 noise
    standard deviations of the funnel at seed 0; 80 of them at other seeds
    all completed, so such an ending is rare but legal.)
  * a violation time lies within one control tick of the reference;
  * every tick before the run's end kept ``|e| < psi`` and sent
    ``u = u_ffw + u_fb`` (absent parts count as zero);
  * a completed run's window metrics match the reference within ``RTOL``
    (relative) plus ``ATOL``, unless it is seed-dependent and the seed is
    not the default.
"""

from __future__ import annotations

import json
import os

import numpy as np

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
DEFAULT_SEED = 0
METRIC_NAMES = ("u_sum_t", "e_sum_t", "var_u_s", "e_sum_s")
TRACE_COLUMNS = (
    "t", "y_measured", "y_true", "y_ref", "e", "psi", "u_ffw", "u_fb", "u",
    "newton_iterations",
)

# On the first two runs of table2-ffw-sweep and table3-fb-sweep-2khz, twenty
# plant substeps instead of ten move the metrics by at most 8.7e-6 (relative),
# and a true friction of 0.1501 N*m instead of 0.15 moves them by at least
# 3.4e-4.  5e-5 sits inside that window: a more accurate plant passes, a wrong
# one fails (tests/test_perfbench.py asserts both).
RTOL = 5e-5
# Floor for metrics at rounding level: the stationary input variance of the
# pure feedforward runs is ~1e-19, set by the Newton tolerance, not the plant.
ATOL = 1e-12


def load_reference(path: str = REFERENCE_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def metric_problems(label: str, report, expected: dict) -> list[str]:
    problems = []
    for name in METRIC_NAMES:
        got = getattr(report, name)
        want = expected[name]
        if not abs(got - want) <= RTOL * abs(want) + ATOL:
            problems.append(f"{label}: {name} {got!r} differs from reference {want!r}")
    return problems


def invariant_problems(label: str, trace, u_max) -> list[str]:
    """Funnel bound and input sum on every tick the run finished."""
    rows = len(trace.t) if trace.status.completed else len(trace.t) - 1
    e, psi = trace.e[:rows], trace.psi[:rows]
    problems = []
    fb = ~np.isnan(psi)
    if not np.all(np.abs(e[fb]) < psi[fb]):
        problems.append(f"{label}: |e| >= psi on a tick before the run's end")
    expected = np.nan_to_num(trace.u_ffw[:rows], nan=0.0) + np.nan_to_num(trace.u_fb[:rows], nan=0.0)
    if u_max is not None:
        expected = np.clip(expected, -u_max, u_max)
    if not np.array_equal(trace.u[:rows], expected):
        problems.append(f"{label}: u differs from u_ffw + u_fb on some tick")
    return problems


def _noise_violation(trace) -> bool:
    """The run left the funnel while its true error was still inside it."""
    return (
        trace.status.kind == "funnel_violated"
        and abs(trace.y_true[-1] - trace.y_ref[-1]) < trace.psi[-1]
    )


def run_problems(ref: dict, result, seed: int) -> list[str]:
    """Why one :class:`twomass.SweepResult` fails the check (empty: it passes)."""
    cfg = result.config
    label = cfg.label
    if label != ref["label"]:
        return [f"run {label!r} where the reference has {ref['label']!r}"]
    trace = result.trace
    if trace is None:
        return [f"{label}: no trace: {result.error}"]
    exact = seed == DEFAULT_SEED or not ref["seed_dependent"]
    status = trace.status
    if exact:
        allowed = status.kind == ref["kind"]
    else:
        allowed = status.completed or _noise_violation(trace)
    if not allowed:
        return [f"{label}: status {status.kind} at {status.at}, reference {ref['kind']}"]
    problems = invariant_problems(label, trace, cfg.u_max)
    if exact and ref["at"] is not None:
        tick = 1.0 / cfg.control_frequency
        if not abs(status.at - ref["at"]) <= tick * (1.0 + 1e-9):
            problems.append(f"{label}: violation at {status.at!r}, reference {ref['at']!r}")
    if status.completed:
        if result.metrics is None:
            problems.append(f"{label}: completed without metrics: {result.error}")
        elif exact:
            problems += metric_problems(label, result.metrics, ref["metrics"])
    return problems


def sweep_problems(reference: dict, results, seed: int) -> list[list[str]]:
    """Problems per run of a sweep against ``reference['runs']``."""
    runs = reference["runs"]
    if len(results) != len(runs):
        return [[f"{len(results)} runs where the reference has {len(runs)}"]] * max(1, len(results))
    return [run_problems(ref, result, seed) for ref, result in zip(runs, results)]


def roundtrip_problems(label: str, written, read) -> list[str]:
    """Every tick series, the status and the config read back exactly."""
    problems = [
        f"{label}: column {name} read back differs from the written trace"
        for name in TRACE_COLUMNS
        if not np.array_equal(getattr(written, name), getattr(read, name), equal_nan=True)
    ]
    if read.status != written.status:
        problems.append(f"{label}: status read back as {read.status}")
    if read.run_config != written.run_config:
        problems.append(f"{label}: config header read back differs")
    return problems


def analysis_problems(ref: dict, written, read, report, seed: int) -> list[str]:
    """Why one analysed trace fails: lossy read-back or metrics off reference."""
    problems = roundtrip_problems(ref["label"], written, read)
    if seed == DEFAULT_SEED or not ref["seed_dependent"]:
        problems += metric_problems(ref["label"], report, ref["metrics"])
    return problems
