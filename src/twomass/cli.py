"""Command-line front end.

Subcommands: ``simulate`` one config, ``sweep`` a preset or config, ``feedforward``
(solve and dump a lookup table), ``analyze`` (recompute metrics from stored
traces), ``check-plant`` (print the reduced realization and the internal-dynamics
stability verdict).

The output directory can also come from the environment (``TWOMASS_OUT``).
All outputs are plain CSV with ``#``-prefixed header comments; every file
embeds its resolved configuration.  A sweep writes each run's files, and prints
its outcome, before the next run starts; ``metrics.csv`` comes last.  A bad
file, config, output path or flag exits 2 with one ``error:`` line.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import closedloop, csvfile, metrics as metrics_mod, presets
from .config import config_echo, config_from_echo, load_config_file
from .errors import NewtonDiverged, ParseError, ValidationError, WindowOutOfRange
from .feedforward import NewtonOptions, solve_feedforward, write_table_csv
from .plant import check_minimum_phase, reduced_realization
from .presets import NOMINAL_PLANT, REFERENCE_TRAJECTORY

EXIT_OK = 0
EXIT_RUN_FAILED = 1
EXIT_CONFIG = 2


def _out_dir(args) -> str:
    out = args.out or os.environ.get("TWOMASS_OUT") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _write_summary(path, result: closedloop.SweepResult) -> None:
    trace = result.trace
    lines = [f"run: {result.config.label}", f"mode: {result.config.mode.name}"]
    if trace is None:
        lines.append(f"error: {result.error}")
    else:
        status = trace.status
        # the plant steps after every tick but the last recorded one
        lines += [f"status: {status}", f"ticks: {len(trace.t)}",
                  f"plant: {trace.plant_stuck_ticks} stuck ticks, "
                  f"{trace.plant_events} event ticks of {len(trace.t) - 1}"]
        if status.kind == "funnel_violated":
            lines.append(f"funnel: violated, e={trace.e[-1]:.6g} psi={trace.psi[-1]:.6g}")
        else:
            funnel = metrics_mod.funnel_margin(trace)
            if funnel is not None:
                margin, at, gain = funnel
                lines.append(
                    f"funnel: min margin={margin:.6g} at t={at:.6g} s, peak gain={gain:.6g}"
                )
        iters = trace.newton_iterations[~np.isnan(trace.newton_iterations)]
        if len(iters):
            # only the online inverse model fills the column, and it reports the residual
            line = f"newton iterations per tick: max={int(iters.max())} mean={iters.mean():.3f}"
            if status.kind == "newton_diverged":
                lines += [line, f"newton: diverged after {trace.newton_last_iterations} "
                                f"iterations, residual={trace.newton_last_residual:.6g}"]
            else:
                lines.append(f"{line} last residual={trace.newton_last_residual:.6g}")
        p50, p90, p99 = np.percentile(trace.wall_us, [50, 90, 99])
        budget = 1e6 / result.config.control_frequency  # one control tick
        lines.append(
            f"controller wall time per tick [us]: budget={budget:.1f} "
            f"p50={p50:.1f} p90={p90:.1f} p99={p99:.1f} max={trace.wall_us.max():.1f}"
        )
        if result.metrics is not None:
            rep = result.metrics
            lines.append(
                f"metrics: u_sum_t={rep.u_sum_t:.6g} e_sum_t={rep.e_sum_t:.6g} "
                f"var_u_s={rep.var_u_s:.6g} e_sum_s={rep.e_sum_s:.6g}"
            )
        elif result.error:
            lines.append(f"note: {result.error}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _cmd_run(args) -> int:
    """``simulate`` one config file, or ``sweep`` a preset or a config file."""
    name = args.experiment
    if name in presets.preset_names():
        if args.command == "simulate":
            raise ParseError(f"{name} names a preset; use the sweep command")
        configs = presets.build_preset(name).configs
    elif os.path.exists(name):
        configs = [load_config_file(name)]
    else:
        raise ParseError(f"{name!r} is neither a config file nor a preset "
                         f"(presets: {', '.join(presets.preset_names())})")
    out = _out_dir(args)
    code = EXIT_OK
    rows, config_lines = [], []
    for cfg in configs:
        result = closedloop.run_one(cfg, args.metrics_on_true)
        if result.trace is not None:
            closedloop.write_trace_csv(result.trace, os.path.join(out, f"{cfg.label}-trace.csv"))
        _write_summary(os.path.join(out, f"{cfg.label}-summary.txt"), result)
        rows.append(metrics_mod.metrics_csv_row(
            cfg.label, cfg.mode.name, cfg.control_frequency, result.metrics))
        config_lines.append(f"{cfg.label}: {csvfile.format_echo(config_echo(cfg))}")
        if result.trace is None:
            print(f"{cfg.label}: error: {result.error}", file=sys.stderr)
            code = EXIT_CONFIG
        else:
            print(f"{cfg.label}: {result.trace.status}")
            if not (result.trace.status.completed or args.allow_failures) and code == EXIT_OK:
                code = EXIT_RUN_FAILED
    metrics_mod.write_metrics_csv(rows, os.path.join(out, "metrics.csv"), config_lines)
    return code


def _cmd_feedforward(args) -> int:
    if args.config:
        cfg = load_config_file(args.config)
        params, trajectory = cfg.nominal_params, cfg.trajectory
        opts = cfg.feedforward_source.newton
    else:
        params, trajectory = NOMINAL_PLANT, REFERENCE_TRAJECTORY
        opts = NewtonOptions()
    if args.tolerance is not None:
        opts = NewtonOptions(opts.max_iterations, residual_tolerance=args.tolerance)
    table = solve_feedforward(params, trajectory, dt=args.dt, horizon=args.horizon, opts=opts)
    out = args.output or os.path.join(_out_dir(args), "feedforward-table.csv")
    write_table_csv(table, out)
    iters = table.newton_iterations
    print(
        f"wrote {out}: {len(table)} samples, dt={args.dt:g} s, "
        f"newton max={int(iters.max())} per step"
    )
    return EXIT_OK


def _cmd_analyze(args) -> int:
    # rows are printed last, so a bad file or an unwritable output prints none
    code = EXIT_OK
    rows, config_lines = [], []
    labelled = {}  # label -> the path of the written row of that label
    for path in args.trace:
        trace = closedloop.read_trace_csv(path)
        try:  # an echo that is not a valid config, or metrics that cannot be computed
            cfg = config_from_echo(trace.run_config, path)
            if not trace.status.completed:
                print(f"{cfg.label}: {trace.status}; no metrics", file=sys.stderr)
                code = EXIT_RUN_FAILED
                continue
            rep = metrics_mod.report(trace, cfg.trajectory, use_true_output=args.metrics_on_true)
        except (WindowOutOfRange, ValidationError) as err:
            raise ValidationError(f"{path}: {err}") from None
        if args.output and cfg.label in labelled:
            # the metrics file has one config header line per label
            raise ValidationError(
                f"{path}: run label {cfg.label!r} is also that of {labelled[cfg.label]}; "
                "--output takes one trace per label"
            )
        labelled[cfg.label] = path
        rows.append(
            metrics_mod.metrics_csv_row(cfg.label, cfg.mode.name, cfg.control_frequency, rep)
        )
        config_lines.append(f"{cfg.label}: {csvfile.format_echo(trace.run_config)}")
    if rows:
        if args.output:
            metrics_mod.write_metrics_csv(rows, args.output, config_lines)
        print(",".join(metrics_mod.METRICS_COLUMNS))
        print("\n".join(rows))
    return code


def _cmd_check_plant(args) -> int:
    if args.config:
        cfg = load_config_file(args.config)
        params = cfg.nominal_params
    else:
        params = NOMINAL_PLANT
    real = reduced_realization(params)
    report = check_minimum_phase(params)
    print(f"plant: I1={params.I1} I2={params.I2} k={params.k} d={params.d}")
    print(f"high-frequency gain Gamma = C B = {real.Gamma:.6g}")
    print(f"R = {real.R:.6g}  S = [{real.S[0]:.6g} {real.S[1]:.6g}]")
    print(f"Q = [[{real.Q[0][0]:.6g} {real.Q[0][1]:.6g}] [{real.Q[1][0]:.6g} {real.Q[1][1]:.6g}]]")
    lam1, lam2 = report.eigenvalues
    print(f"internal-dynamics eigenvalues: {lam1:.6g} , {lam2:.6g}")
    verdict = "minimum phase" if report.is_minimum_phase else "NOT minimum phase"
    print(f"verdict: {verdict}")
    return EXIT_OK if report.is_minimum_phase else EXIT_RUN_FAILED


class _Parser(argparse.ArgumentParser):
    """Raises a bad command line as one ParseError, named by the (sub)command at fault."""

    def parse_known_args(self, args=None, namespace=None):
        # each subcommand rejects the arguments that it does not know itself
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="twomass",
        description="Closed-loop tracking experiments on the two-flywheel torsional rig",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one configuration file")
    sim.add_argument("experiment", metavar="config", help="config file path")
    swp = sub.add_parser("sweep", help="run a preset (or a single config) as a batch")
    swp.add_argument("experiment", help=f"preset name ({', '.join(presets.preset_names())}) or config file")
    for run in (sim, swp):
        run.add_argument("--out", help="output directory (default TWOMASS_OUT or '.')")
        run.add_argument("--allow-failures", action="store_true",
                         help="exit 0 even when a run ends in a violation")
        run.add_argument("--metrics-on-true", action="store_true", help="compute error "
                         "metrics on the true output instead of the measured one")
        run.set_defaults(func=_cmd_run)

    ffw = sub.add_parser("feedforward", help="solve the inverse model and dump the torque table")
    ffw.add_argument("--config",
                     help="take plant, trajectory and [newton] settings from this config file")
    ffw.add_argument("--dt", type=float, default=1e-3, help="grid step in seconds")
    ffw.add_argument("--horizon", type=float, default=15.0, help="table length in seconds")
    ffw.add_argument("--tolerance", type=float,
                     help="newton residual tolerance; overrides the config's [newton] "
                          "residual_tolerance (default 1e-10)")
    ffw.add_argument("--output", help="table file path")
    ffw.add_argument("--out", help="output directory used when --output is not given")
    ffw.set_defaults(func=_cmd_feedforward)

    ana = sub.add_parser("analyze", help="recompute metrics from stored traces")
    ana.add_argument("trace", nargs="+", help="trace CSVs written by simulate/sweep")
    ana.add_argument("--output", help="also write the rows as a metrics CSV")
    ana.add_argument("--metrics-on-true", action="store_true")
    ana.set_defaults(func=_cmd_analyze)

    chk = sub.add_parser("check-plant", help="print realization blocks and stability verdict")
    chk.add_argument("--config", help="take plant parameters from this config file")
    chk.set_defaults(func=_cmd_check_plant)

    return parser


def main(argv=None) -> int:
    """Run one command; every error that ends it prints one ``error:`` line and exits 2."""
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (ParseError, ValidationError, NewtonDiverged) as err:
        message = str(err)
    except OSError as err:
        where = f"{err.filename}: " if err.filename else ""
        message = f"{where}{err.strerror or err}"
    except UnicodeEncodeError as err:
        # a file name, made from a label, that the locale's encoding cannot spell
        message = f"{err.object}: not {err.encoding} text ({err.reason})"
    # a file name may hold a line break
    print("error: " + " ".join(line.strip() for line in message.splitlines()), file=sys.stderr)
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
