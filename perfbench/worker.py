"""One fresh process of the benchmark: set up, run passes, check them, report.

``run.py`` starts it and reads the JSON record it writes to ``--result``.

  probe    import the package and stop: one set-up sample
  sweep    one pass of a sweep workload, traced or not
  analyze  write the input traces (set-up), then read passes while the
           next is expected to end within ``--seconds``; with
           ``--trace 1`` the passes alternate untraced and traced
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402
import twomass  # noqa: E402

import check  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

_perf = time.perf_counter


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ctrl_us(traces) -> tuple[float, float]:
    """p50 and p99 of the controller time per tick over all ticks of a pass."""
    samples = np.concatenate([t.wall_us for t in traces])
    p50, p99 = np.percentile(samples, [50, 99])
    return float(p50), float(p99)


def _timed(traced, body):
    """Run ``body()``; return its result, its timing and tracer dump (or None).

    The timing holds the wall and CPU time of the call and the
    ``perf_counter`` readings at its start and end, which ``run.py`` matches
    against the reference samples of ``calibrate.py``.
    """
    hooks = tracer.Tracer() if traced else None
    with hooks if hooks is not None else contextlib.nullcontext():
        start, cpu = _perf(), time.process_time()
        result = body()
        cpu = time.process_time() - cpu
        end = _perf()
    timing = {"wall_s": end - start, "cpu_s": cpu, "began_at": start, "ended_at": end}
    trace = None
    if hooks is not None:
        trace = tracer.dump(hooks)
        trace["unattributed_s"] = timing["wall_s"] - trace["top_level_s"]
    return result, timing, trace


def sweep_pass(preset: str, seed: int, traced: bool, work: str) -> dict:
    reference = check.load_reference()["presets"][preset]
    out = tempfile.mkdtemp(dir=work)
    try:
        results, timing, trace = _timed(traced, lambda: workloads.sweep(preset, seed, out))
        rss = _peak_rss_mb()
    finally:
        shutil.rmtree(out)
    runs = check.sweep_problems(reference, results, seed)
    traces = [r.trace for r in results if r.trace is not None]
    p50, p99 = _ctrl_us(traces)
    return {
        "traced": traced,
        **timing,
        "ticks": sum(len(t.t) for t in traces),
        "ctrl_p50_us": p50,
        "ctrl_p99_us": p99,
        "peak_rss_mb": rss,
        "attempted": len(results),
        "failed": sum(1 for run in runs if run),
        "problems": [p for run in runs for p in run],
        "trace": trace,
    }


def analyze_run(preset: str, seed: int, seconds: float, traced: bool, work: str) -> dict:
    reference = check.load_reference()["presets"][preset]
    out = tempfile.mkdtemp(dir=work)
    try:
        results, generation, _ = _timed(False, lambda: workloads.sweep(preset, seed, out))
        setup = check.sweep_problems(reference, results, seed)
        written = [(ref, r.trace) for ref, r in zip(reference["runs"], results) if r.trace is not None]
        paths = [workloads.trace_path(out, trace.run_config["simulation.label"])
                 for _, trace in written]
        # No controller runs in an analysis pass: report the set-up sweep's.
        p50, p99 = _ctrl_us([trace for _, trace in written])
        passes = []
        start = _perf()
        while True:
            began = _perf()
            for traced_pass in (False, True) if traced else (False,):
                analysed, timing, trace = _timed(traced_pass, lambda: workloads.analyze(paths))
                problems = [
                    check.analysis_problems(ref, original, read, rep, seed)
                    for (ref, original), (read, rep, _row) in zip(written, analysed)
                ]
                passes.append({
                    "traced": traced_pass,
                    **timing,
                    "ticks": sum(len(read.t) for read, _, _ in analysed),
                    "ctrl_p50_us": p50,
                    "ctrl_p99_us": p99,
                    "attempted": len(paths),
                    "failed": sum(1 for p in problems if p),
                    "problems": [p for run in problems for p in run],
                    "trace": trace,
                })
            now = _perf()
            if len(passes) >= 2 and now - start + (now - began) > seconds:
                break
        rss = _peak_rss_mb()
    finally:
        shutil.rmtree(out)
    for record in passes:
        record["peak_rss_mb"] = rss
    return {
        "generation": generation,
        "setup_attempted": len(results),
        "setup_failed": sum(1 for run in setup if run),
        "setup_problems": [p for run in setup for p in run],
        "passes": passes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("probe", "sweep", "analyze"), required=True)
    parser.add_argument("--result", required=True, help="JSON record to write")
    parser.add_argument("--preset")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", help="scratch directory for trace files")
    args = parser.parse_args(argv)

    if not os.path.abspath(twomass.__file__).startswith(SRC + os.sep):
        print(f"twomass was imported from {twomass.__file__}, not {SRC}", file=sys.stderr)
        return 2
    record = {
        "ready_at": _perf(),
        # CPU time since the process started: the interpreter and the imports.
        "ready_cpu_s": time.process_time(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    if args.mode == "sweep":
        record["passes"] = [sweep_pass(args.preset, args.seed, bool(args.trace), args.work)]
    elif args.mode == "analyze":
        record.update(analyze_run(args.preset, args.seed, args.seconds, bool(args.trace), args.work))
    with open(args.result, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
