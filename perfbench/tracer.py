"""In-memory tracer for the twomass package, installed from outside it.

Each boundary is a public function (or method) replaced, for the duration of
a ``with Tracer(...)`` block, by a timing wrapper at the place where its
caller looks it up: ``closedloop.psi`` rather than ``feedback.psi``, because
``run_simulation`` calls the name it imported into ``closedloop``.

Every call updates the boundary's totals: calls, busy (inclusive) time and
self time, which is busy time minus the busy time of hooked calls made inside
it.  Span boundaries (run- and file-level calls) also record one span each,
keyed by run label or file name, with the per-tick totals that accrued inside
it.  The wrapper's own cost is charged to nobody: a parent's self time
excludes each child call from its wrapper's entry to its exit.

A boundary whose owner or attribute no longer exists is reported as
``absent``; one that is never called reports zero calls.  Nothing is written
while tracing; :func:`dump` returns everything when the run ends.
"""

from __future__ import annotations

import importlib
import os
import time
from dataclasses import dataclass
from typing import Callable

_perf = time.perf_counter


@dataclass(frozen=True)
class Boundary:
    """One hooked call site.

    ``target`` is ``"module:attr"`` or ``"module:Class.attr"``.  ``span``
    boundaries get a span per call, named by ``key(args)``.  ``after(tracer,
    args, result)`` records extra counts after a call that returned.
    """

    name: str
    target: str
    span: bool = False
    key: Callable | None = None
    after: Callable | None = None


def _run_label(args):
    return getattr(args[0], "label", None)


def _file_name(index):
    return lambda args: os.path.basename(str(args[index]))


def _trace_label(args):
    return getattr(args[0], "run_config", {}).get("simulation.label")


def _count_step(tracer, args, result):
    stepper, t_next = args[0], args[1]
    entry = tracer._steppers.get(id(stepper))
    if entry is None or entry[0] is not stepper:
        # One small id per distinct inverse model, so a step's key hashes cheaply.
        model = tuple(getattr(stepper, a, None) for a in ("params", "spec", "dt", "opts"))
        model_id = tracer._models.setdefault(model, len(tracer._models))
        entry = tracer._steppers[id(stepper)] = (stepper, model_id)
    tracer._distinct_steps.add((entry[1], t_next))
    tracer.add("feedforward.newton_iters", getattr(stepper, "last_iterations", 0))


def _count_ticks(tracer, args, result):
    tracer.add("closedloop.ticks", len(getattr(result, "t", ())))


def _count_written(tracer, args, result):
    tracer.add("closedloop.bytes_written", os.path.getsize(args[1]))


def _count_read(tracer, args, result):
    tracer.add("closedloop.bytes_read", os.path.getsize(args[0]))


BOUNDARIES = (
    Boundary("presets.build_preset", "twomass.presets:build_preset", span=True,
             key=lambda args: args[0]),
    Boundary("presets.solve_feedforward", "twomass.presets:solve_feedforward", span=True),
    Boundary("closedloop.run_sweep", "twomass.closedloop:run_sweep", span=True),
    Boundary("closedloop.run_simulation", "twomass.closedloop:run_simulation", span=True,
             key=_run_label, after=_count_ticks),
    Boundary("closedloop.integrate_plant_tick", "twomass.closedloop:integrate_plant_tick"),
    Boundary("closedloop.psi", "twomass.closedloop:psi"),
    Boundary("closedloop.funnel_law", "twomass.closedloop:funnel_law"),
    Boundary("trajectory.y_ref_at", "twomass.trajectory:y_ref_at"),
    Boundary("feedforward.InverseModelStepper.advance",
             "twomass.feedforward:InverseModelStepper.advance", after=_count_step),
    Boundary("metrics.report", "twomass.metrics:report", span=True, key=_trace_label),
    Boundary("closedloop.write_trace_csv", "twomass.closedloop:write_trace_csv", span=True,
             key=_file_name(1), after=_count_written),
    Boundary("closedloop.read_trace_csv", "twomass.closedloop:read_trace_csv", span=True,
             key=_file_name(0), after=_count_read),
)


def _resolve(target: str):
    """Return ``(owner, attr, original)`` or None when the target is gone."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = vars(owner).get(part)
        if owner is None:
            return None
    original = vars(owner).get(attr)
    if not callable(original):
        return None
    return owner, attr, original


class Tracer:
    """Hooks ``boundaries`` while active; see the module docstring."""

    def __init__(self, boundaries=BOUNDARIES):
        self.boundaries = tuple(boundaries)
        self.status: dict[str, str] = {}
        self.totals: dict[str, list] = {}  # name -> [calls, busy_s, self_s]
        self.counts: dict[str, float] = {}
        self.spans: list[dict] = []
        self.errors: list[str] = []
        self._stack = [0.0]  # per open call: busy time of its hooked children
        self._open: list[int] = []  # indices of open spans
        self._patched: list[tuple] = []
        self._steppers: dict[int, tuple] = {}  # id -> (stepper, model id); keeps ids unique
        self._models: dict[tuple, int] = {}
        self._distinct_steps: set = set()
        self._origin = _perf()

    # -- installation -------------------------------------------------------
    def __enter__(self) -> "Tracer":
        for boundary in self.boundaries:
            resolved = _resolve(boundary.target)
            if resolved is None:
                self.status[boundary.name] = "absent"
                continue
            owner, attr, original = resolved
            self.status[boundary.name] = "hooked"
            self.totals[boundary.name] = [0, 0.0, 0.0]
            setattr(owner, attr, self._wrap(boundary, original))
            self._patched.append((owner, attr, original))
        self._origin = _perf()
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        self._steppers.clear()

    def add(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def top_level_s(self) -> float:
        """Busy time of all outermost hooked calls and regions so far."""
        return self._stack[0]

    # -- wrappers -----------------------------------------------------------
    def _after(self, boundary, args, result) -> None:
        try:
            boundary.after(self, args, result)
        except Exception as err:  # a counter must never end the run
            self.errors.append(f"{boundary.name}: {type(err).__name__}: {err}")

    def _wrap(self, boundary: Boundary, fn):
        if boundary.span:
            return self._wrap_span(boundary, fn)
        stats = self.totals[boundary.name]
        stack = self._stack
        after = boundary.after

        def traced(*args, **kwargs):
            enter = _perf()
            stack.append(0.0)
            returned = False
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                busy = _perf() - t0
                child = stack.pop()
                stats[0] += 1
                stats[1] += busy
                stats[2] += busy - child
                if returned and after is not None:
                    self._after(boundary, args, result)
                stack[-1] += _perf() - enter
            return result

        return traced

    def _wrap_span(self, boundary: Boundary, fn):
        name = boundary.name

        def traced(*args, **kwargs):
            key = None
            if boundary.key is not None:
                try:
                    key = boundary.key(args)
                except Exception:  # a label is optional
                    key = None
            with _Region(self, name, key):
                result = fn(*args, **kwargs)
            if boundary.after is not None:
                enter = _perf()
                self._after(boundary, args, result)
                self._stack[-1] += _perf() - enter
            return result

        return traced


class _Region:
    """One span: busy and self time, and the per-tick totals inside it."""

    def __init__(self, tracer: Tracer, name: str, key):
        self.tracer = tracer
        self.name = name
        self.key = key

    def __enter__(self) -> dict:
        tracer = self.tracer
        self.enter = _perf()
        self.before = {n: (s[0], s[1]) for n, s in tracer.totals.items()}
        self.span = {
            "name": self.name,
            "key": self.key,
            "parent": tracer._open[-1] if tracer._open else None,
        }
        tracer._open.append(len(tracer.spans))
        tracer.spans.append(self.span)
        tracer._stack.append(0.0)
        self.t0 = _perf()
        return self.span

    def __exit__(self, *exc) -> None:
        t1 = _perf()
        tracer = self.tracer
        busy = t1 - self.t0
        child = tracer._stack.pop()
        tracer._open.pop()
        stats = tracer.totals.setdefault(self.name, [0, 0.0, 0.0])
        stats[0] += 1
        stats[1] += busy
        stats[2] += busy - child
        inner = {}
        for n, (calls, busy_before) in self.before.items():
            s = tracer.totals[n]
            if n != self.name and s[0] > calls:
                inner[n] = [s[0] - calls, s[1] - busy_before]
        self.span.update(
            start=self.t0 - tracer._origin,
            end=t1 - tracer._origin,
            self_s=busy - child,
            inner=inner,
        )
        tracer._stack[-1] += _perf() - self.enter


def dump(tracer: Tracer) -> dict:
    """Everything the tracer holds, as plain JSON-ready data."""
    return {
        "status": dict(tracer.status),
        "totals": {n: {"calls": s[0], "busy_s": s[1], "self_s": s[2]}
                   for n, s in tracer.totals.items()},
        "counts": dict(tracer.counts),
        "distinct_steps": len(tracer._distinct_steps),
        "top_level_s": tracer.top_level_s(),
        "spans": tracer.spans,
        "errors": list(tracer.errors),
    }


def layer_metrics(trace: dict) -> dict:
    """Per-layer metrics from a :func:`dump`; absent boundaries read as zero."""
    totals = trace["totals"]
    counts = trace["counts"]

    def self_s(*names):
        return sum(totals.get(n, {}).get("self_s", 0.0) for n in names)

    def calls(*names):
        return sum(totals.get(n, {}).get("calls", 0) for n in names)

    def per(amount, count, scale=1.0):
        return amount * scale / count if count else 0.0

    plant = self_s("closedloop.integrate_plant_tick")
    plant_calls = calls("closedloop.integrate_plant_tick")
    advance = self_s("feedforward.InverseModelStepper.advance")
    steps = calls("feedforward.InverseModelStepper.advance")
    loop = self_s("closedloop.run_simulation")
    ticks = counts.get("closedloop.ticks", 0)
    write = self_s("closedloop.write_trace_csv")
    written = counts.get("closedloop.bytes_written", 0)
    read = self_s("closedloop.read_trace_csv")
    read_bytes = counts.get("closedloop.bytes_read", 0)
    return {
        "plant.step_s": plant,
        "plant.us_per_tick": per(plant, plant_calls, 1e6),
        "plant.calls": plant_calls,
        "feedforward.advance_s": advance,
        "feedforward.us_per_step": per(advance, steps, 1e6),
        "feedforward.steps": steps,
        "feedforward.newton_iters": counts.get("feedforward.newton_iters", 0),
        "feedforward.distinct_frac": per(trace["distinct_steps"], steps),
        "feedforward.solve_s": self_s("presets.solve_feedforward"),
        "trajectory.y_ref_s": self_s("trajectory.y_ref_at"),
        "trajectory.calls": calls("trajectory.y_ref_at"),
        "feedback.law_s": self_s("closedloop.psi", "closedloop.funnel_law"),
        "feedback.calls": calls("closedloop.psi", "closedloop.funnel_law"),
        "closedloop.self_s": loop,
        "closedloop.self_us_per_tick": per(loop, ticks, 1e6),
        "closedloop.runs": calls("closedloop.run_simulation"),
        "closedloop.ticks": ticks,
        "closedloop.trace_write_s": write,
        "closedloop.trace_write_mb_per_s": per(written, write, 1e-6),
        "closedloop.trace_bytes": written,
        "closedloop.trace_read_s": read,
        "closedloop.trace_read_mb_per_s": per(read_bytes, read, 1e-6),
        "metrics.report_s": self_s("metrics.report"),
        "presets.build_s": self_s("presets.build_preset"),
    }
