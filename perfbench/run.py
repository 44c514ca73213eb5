"""twomass benchmark: one workload, measured from outside the package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/twomass``.  Every workload
pass runs in a fresh worker process with one thread (see ``worker.py``).

``--trace 0`` runs untraced passes for about ``--seconds`` and reports the
end-to-end metrics of ``BENCHMARK.json``.  Their timings are CPU time in
reference-host seconds: the run is pinned to one core, where
``calibrate.py`` interleaves a fixed reference unit with the worker, and
each CPU time is scaled by the reference speed over the same interval.
``--trace 1`` alternates untraced and traced passes, with no reference
beside them, and reports the per-layer metrics.  Human-readable lines come
first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record,
with the environment, every pass and the traced spans, goes to
``.perfbench-out/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import tracer  # noqa: E402

# workload -> preset.  Why each workload is in the benchmark:
#   ffw-online-1khz  the only one with the online Newton step inside the
#                    controller timer; five runs solve one identical
#                    inverse model (a cache has 80 % repeats to remove)
#   fb-2khz          the plant fine loop dominates; no feedforward at all,
#                    so it is the no-change control for feedforward work
#   comparison-2khz  noisy sensor, table lookup solved offline at preset
#                    build; the largest batch and the heaviest trace write
#   analyze-traces   the read side of trace I/O (read_trace_csv, report) on
#                    the files the fb-2khz sweep writes; writing them is set-up
WORKLOADS = {
    "ffw-online-1khz": "table2-ffw-sweep",
    "fb-2khz": "table3-fb-sweep-2khz",
    "comparison-2khz": "controller-comparison-2khz",
    "analyze-traces": "table3-fb-sweep-2khz",
}
ANALYZE = "analyze-traces"
# Controller time per tick from the program's own Trace.wall_us, taken from
# the untraced passes of a traced run (no reference unit shares their core).
# It is a per-layer metric without a bound: it is wall time, and it flips
# between host speed phases (29 us against 50 us on ffw-online-1khz).
CONTROLLER = ("ctrl_p50_us", "ctrl_p99_us")

WORKER = os.path.join(HERE, "worker.py")
CALIBRATOR = os.path.join(HERE, "calibrate.py")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
SETUP_SAMPLES = 9  # fresh processes timed from start to ready, per run
TIME_LIMIT_S = 170.0  # a run must end within 180 s


class BenchError(Exception):
    """The benchmark could not produce a result."""


class Runner:
    """Starts worker processes, one at a time, within the run's time limit."""

    def __init__(self, workload: str, seed: int, work: str):
        self.preset = WORKLOADS[workload]
        self.seed = seed
        self.work = work
        self.started = time.perf_counter()
        self.env = dict(os.environ)
        for name in ("TWOMASS_WORKERS", "TWOMASS_OUT"):
            self.env.pop(name, None)
        for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[name] = "1"

    def spawn(self, mode: str, traced: bool = False, seconds: float = 0.0) -> dict:
        fd, result = tempfile.mkstemp(suffix=".json", dir=self.work)
        os.close(fd)
        cmd = [
            sys.executable, WORKER, "--mode", mode, "--result", result,
            "--preset", self.preset, "--seed", str(self.seed), "--seconds", repr(seconds),
            "--trace", str(int(traced)), "--work", self.work,
        ]
        left = TIME_LIMIT_S - (time.perf_counter() - self.started)
        if left <= 0:
            raise BenchError(f"time limit of {TIME_LIMIT_S:.0f} s reached")
        spawned_at = time.perf_counter()
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True, timeout=left)
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker ({mode}) exceeded the {TIME_LIMIT_S:.0f} s limit") from None
        if proc.returncode != 0:
            raise BenchError(f"worker ({mode}) exited {proc.returncode}:\n{proc.stderr.strip()}")
        with open(result) as fh:
            record = json.load(fh)
        os.remove(result)
        # perf_counter is CLOCK_MONOTONIC, shared by all processes on Linux.
        record["setup"] = {
            "wall_s": record["ready_at"] - spawned_at,
            "cpu_s": record["ready_cpu_s"],
            "began_at": spawned_at,
            "ended_at": record["ready_at"],
        }
        return record


class Reference:
    """``calibrate.py`` running beside the worker processes on the run's core."""

    def __init__(self, work: str):
        self.stop_path = os.path.join(work, "reference.stop")
        self.result = os.path.join(work, "reference.json")
        self.proc = subprocess.Popen(
            [sys.executable, CALIBRATOR, "--stop", self.stop_path, "--result", self.result],
            stdin=subprocess.DEVNULL,
        )

    def stop(self) -> None:
        """Stop the process and wait for it; kill it if it does not stop."""
        if self.proc.returncode is not None:
            return
        open(self.stop_path, "w").close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def samples(self) -> list:
        self.stop()
        if self.proc.returncode != 0 or not os.path.exists(self.result):
            raise BenchError(f"the reference process exited {self.proc.returncode}")
        with open(self.result) as fh:
            return json.load(fh)


def run_passes(workload: str, seconds: int, traced: bool, runner: Runner) -> dict:
    """All passes and set-up samples of one run.

    One untraced pass (one pair of an untraced and a traced pass when
    ``traced``) runs, then more while the next one is expected to end within
    ``seconds`` of the first one's start.
    """
    records = []
    if workload == ANALYZE:
        records.append(runner.spawn("analyze", traced, seconds=seconds))
    else:
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            records.append(runner.spawn("sweep"))
            if traced:
                records.append(runner.spawn("sweep", traced=True))
            now = time.perf_counter()
            if now - start + (now - began) > seconds:
                break
    setups = [r["setup"] for r in records]
    while not traced and len(setups) < SETUP_SAMPLES:
        setups.append(runner.spawn("probe")["setup"])
    passes = [p for r in records for p in r["passes"]]
    return {
        "passes": passes,
        "setups": setups,
        "generation": records[0].get("generation"),
        "attempted": sum(p["attempted"] for p in passes)
        + sum(r.get("setup_attempted", 0) for r in records),
        "failed": sum(p["failed"] for p in passes) + sum(r.get("setup_failed", 0) for r in records),
        "problems": [m for p in passes for m in p["problems"]]
        + [m for r in records for m in r.get("setup_problems", [])],
        "python": records[0]["python"],
        "numpy": records[0]["numpy"],
    }


def end_to_end(run: dict, samples: list) -> dict:
    """Medians over the run's untraced passes, in reference-host seconds.

    Each pass's CPU time is scaled by the reference speed over the same
    interval (``calibrate.reference_s``).  On a 2-core shared host whose
    speed drifts, fastest-pass wall time spread up to 0.48 (quartile distance
    over median) over ten runs; ``pass_s`` spread 0.010 to 0.038.
    """
    def ref(timing):
        return calibrate.reference_s(timing["cpu_s"], samples, timing["began_at"], timing["ended_at"])

    plain = [p for p in run["passes"] if not p["traced"]]
    pass_s = [ref(p) for p in plain]
    setup_s = median(ref(t) for t in run["setups"])
    if run["generation"] is not None:
        # On analyze-traces set-up also writes the input traces, once per run.
        setup_s += ref(run["generation"])
    return {
        "pass_s": median(pass_s),
        "ticks_per_s": median(p["ticks"] / t for p, t in zip(plain, pass_s)),
        "peak_rss_mb": median(p["peak_rss_mb"] for p in plain),
        "setup_s": setup_s,
    }


def controller(run: dict) -> dict:
    """Controller percentiles of the untraced passes, lowest per percentile."""
    plain = [p for p in run["passes"] if not p["traced"]]
    return {name: min(p[name] for p in plain) for name in CONTROLLER}


def per_layer(run: dict) -> dict:
    """Medians over the traced passes; overhead from the fastest of each kind."""
    plain = [p for p in run["passes"] if not p["traced"]]
    traced = [p for p in run["passes"] if p["traced"]]
    layers = [tracer.layer_metrics(p["trace"]) for p in traced]
    metrics = controller(run)
    metrics.update((name, median(m[name] for m in layers)) for name in layers[0])
    metrics["tracing_overhead_frac"] = (
        min(p["wall_s"] for p in traced) / min(p["wall_s"] for p in plain) - 1.0
    )
    metrics["unattributed_s"] = median(p["trace"]["unattributed_s"] for p in traced)
    return metrics


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "loadavg_at_start": list(os.getloadavg()),
        "python": platform.python_version(),
    }


def measure(workload: str, seed: int, seconds: int, trace: int, units: dict) -> dict:
    """One run of one workload; its record is also written to ``OUT_DIR``.

    An untraced run pins itself, and so every process it starts, to one core
    and keeps a ``Reference`` running there until its passes are done.
    """
    env = environment()
    os.makedirs(OUT_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    affinity = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    reference = None
    try:
        if not trace:
            if affinity is not None:
                os.sched_setaffinity(0, {max(affinity)})
            reference = Reference(work)
        run = run_passes(workload, seconds, bool(trace), Runner(workload, seed, work))
        samples = reference.samples() if reference is not None else []
    finally:
        if reference is not None:
            reference.stop()
        if affinity is not None:
            os.sched_setaffinity(0, affinity)
        shutil.rmtree(work, ignore_errors=True)
    env.update(python=run["python"], numpy=run["numpy"], core=None if trace else max(affinity or {0}))
    metrics = per_layer(run) if trace else end_to_end(run, samples)
    mismatch = set(metrics) ^ set(units["per_layer" if trace else "end_to_end"])
    if mismatch:
        raise BenchError(f"metrics and BENCHMARK.json disagree on {sorted(mismatch)}")
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": env,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "failed_frac": run["failed"] / run["attempted"],
        "metrics": metrics,
        "controller": controller(run) if trace else {},
        "setups": run["setups"],
        "generation": run["generation"],
        "reference_units": len(samples),
        "problems": run["problems"],
        "passes": run["passes"],
    }
    path = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    record["path"] = path
    return record


def print_record(record: dict, units: dict) -> None:
    for msg in record["problems"]:
        print(f"check failed: {msg}", file=sys.stderr)
    env = record["environment"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"passes {len(record['passes'])}  nproc {env['nproc']}  python {env['python']}  "
          f"numpy {env['numpy']}  load {env['loadavg_at_start'][0]:.2f}")
    shown = {**record["controller"], **record["metrics"]}
    for name, value in shown.items():
        print(f"  {name:32s} {value:14.6g} {units['all'][name]}")
    print(f"  {'failed_frac':32s} {record['failed_frac']:14.6g} "
          f"({record['failed']} of {record['attempted']})")
    print(f"  record: {os.path.relpath(record['path'], ROOT)}")


def load_units() -> dict:
    """Metric names and units, from ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    units = {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}
    units["all"] = {**units["end_to_end"], **units["per_layer"]}
    return units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="twomass benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=0,
                        help="added to every run's noise seed (default 0, the presets' own)")
    parser.add_argument("--seconds", type=int, default=15, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "twomass", "__init__.py")):
        print(f"error: no twomass package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    units = load_units()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        try:
            records.append(measure(name, args.seed, args.seconds, args.trace, units))
        except BenchError as err:
            print(f"error: {name}: {err}", file=sys.stderr)
            return 1
        print_record(records[-1], units)
    prefix = len(names) > 1
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {
            (f"{r['workload']}.{name}" if prefix else name): {"value": value, "unit": units["all"][name]}
            for r in records for name, value in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
