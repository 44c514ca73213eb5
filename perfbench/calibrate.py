"""Host-speed reference that shares a core with the benchmark's worker.

    python3 perfbench/calibrate.py --stop FILE --result FILE

The host is shared, and its speed drifts by tens of percent within seconds
and over minutes.  Each core of the 2-core machine drifts on its own, so a
reference must run on the worker's own core, at the same time.  ``run.py``
pins itself, and so this process and the worker, to one core.  This process
repeats a fixed unit of work, resting three unit-lengths after each, so the
scheduler interleaves it with the worker every few milliseconds.  It logs each unit's start, end and CPU time.
``run.py`` divides the worker's CPU time over an interval by the mean unit
CPU time over the same interval and multiplies by ``UNIT_REF_S``: the result
is the CPU time in reference-host seconds, which a slow or fast host phase
hardly moves, but a slower program does.  Over 100 to 150 s of repeated
sweep passes, this cut the quartile spread of single passes from 0.09 to
0.21 (CPU time) to 0.02 (reference seconds).

The unit touches none of the ``twomass`` package, so no change to the
package can move the reference.  It mixes the kinds of work the workloads
do: float arithmetic through Python calls (the plant's RK4 fine loop), small
NumPy calls (the controller) and number formatting (the trace CSV files).

The process stops when the ``--stop`` file exists, and then writes its
samples, ``[[start, end, cpu_s], ...]`` (start and end in
``time.perf_counter`` seconds), to ``--result``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

# A typical unit CPU time on the 2-core shared host (Intel Xeon, Python
# 3.11).  Only the ratio of two commits' figures matters; this constant keeps
# the figures in seconds of that host.
UNIT_REF_S = 0.0040
REST = 3.0  # rest after each unit, in units of its own CPU time
MIN_SAMPLES = 5  # units needed to time an interval; fewer widen it

_perf = time.perf_counter


def _rates(x: float, v: float) -> tuple[float, float]:
    return v, 1.0 - 2.0 * x - 0.15 * math.tanh(v / 0.01)


def unit() -> float:
    """One fixed unit of work (about 4 ms)."""
    x = v = 0.0
    h = 1e-4
    for _ in range(600):
        k1x, k1v = _rates(x, v)
        k2x, k2v = _rates(x + 0.5 * h * k1x, v + 0.5 * h * k1v)
        k3x, k3v = _rates(x + 0.5 * h * k2x, v + 0.5 * h * k2v)
        k4x, k4v = _rates(x + h * k3x, v + h * k3v)
        x += h / 6.0 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        v += h / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    a = np.array([x, v, 1.0])
    for _ in range(240):
        a = np.clip(a * 0.5 + np.sqrt(np.abs(a)), -1e3, 1e3)
    row = ",".join(f"{value:.17g}" for value in a.tolist() * 160)
    return float(a.sum()) + len(row)


def interval_unit_s(samples, start: float, end: float) -> float:
    """Mean unit CPU time over the units that ran within ``[start, end]``.

    With fewer than ``MIN_SAMPLES`` such units (a short interval), the
    ``MIN_SAMPLES`` units whose midpoints lie nearest to the interval's are
    used instead.
    """
    inside = [cpu for s, e, cpu in samples if s >= start and e <= end]
    if len(inside) >= MIN_SAMPLES:
        return sum(inside) / len(inside)
    if len(samples) < MIN_SAMPLES:
        raise ValueError(f"only {len(samples)} reference units were timed")
    middle = 0.5 * (start + end)
    nearest = sorted(samples, key=lambda sample: abs(0.5 * (sample[0] + sample[1]) - middle))
    return sum(cpu for _, _, cpu in nearest[:MIN_SAMPLES]) / MIN_SAMPLES


def reference_s(cpu_s: float, samples, start: float, end: float) -> float:
    """CPU seconds spent within ``[start, end]``, in reference-host seconds."""
    return cpu_s * UNIT_REF_S / interval_unit_s(samples, start, end)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stop", required=True, help="stop once this file exists")
    parser.add_argument("--result", required=True, help="JSON list of [start, end, cpu_s] to write")
    args = parser.parse_args(argv)
    samples = []
    while not os.path.exists(args.stop):
        began, cpu = _perf(), time.thread_time()
        unit()
        cpu = time.thread_time() - cpu
        samples.append((began, _perf(), cpu))
        time.sleep(REST * cpu)
    with open(args.result, "w") as fh:
        json.dump(samples, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
