"""Compare what two source trees of the package write, file by file.

Usage::

    python tools/compare_outputs.py PARENT_SRC CHANGE_SRC
    python tools/compare_outputs.py --manifest FILE SRC

``PARENT_SRC`` and ``CHANGE_SRC`` are directories that hold the ``twomass``
package (a checkout's ``src``).  For each tree, one Python subprocess with
only that tree on ``PYTHONPATH`` runs these commands in-process, in a
temporary directory of its own:

* ``twomass sweep NAME`` for every preset (trace CSVs, summaries, ``metrics.csv``)
* ``twomass sweep table2-ffw-sweep --metrics-on-true`` (metrics on the true output)
* ``twomass feedforward`` with its defaults (the feedforward table)
* ``twomass analyze --output`` of the traces of ``table3-fb-sweep-2khz``
  (ideal sensor), ``controller-comparison-2khz`` (noisy and scientific
  cells, a table's ``u_ffw``) and ``table2-ffw-sweep`` (the online
  model's ``newton_iterations`` column), which the trace reader parses, and of a
  CRLF copy and a lone-CR copy of the ``table3-fb-sweep-2khz`` traces,
  whose line ends the reader translates (the copies are deleted after)
* ``twomass check-plant --config`` and ``twomass simulate`` of a small config
  file that the subprocess writes (a 6 s combined run with the online
  feedforward and a noisy encoder)
* the bad inputs of ``_BAD_INPUTS``, each of which should exit 2 with one
  ``error:`` line: ``simulate`` of a preset, a missing config, a config
  with no section header, a trace without a status line, a flag value that
  is not a number and a config whose label holds a NUL byte

Each command's exit code, stdout and stderr go to a ``.out`` file beside its
outputs; a ``SystemExit`` or an exception that escapes the command is
written there in place of its exit code.  The two directories are then compared byte for byte, except that a
summary's ``controller wall time`` line, which is measured, is left out.
Every difference is printed; the exit code is 0 when there is none, 1 when
there is one.

With ``--manifest FILE``, the outputs of the one tree ``SRC`` are written and
``FILE`` gets one ``sha256`` line per file, ``DIGEST  NAME`` in name order,
each summary hashed without its measured line.  Each file whose digest
changed, that is new or that is no longer written, against the manifest that
``FILE`` held before, is printed.  ``tests/outputs.sha256`` is that manifest
for the package as committed, and a test compares every file of the tree
under test with it.  Uses the standard library only.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import json
import os
import subprocess
import sys
import tempfile

# Run by the subprocess in its output directory, with one tree on its path.
_WRITER = r"""
import contextlib, glob, io, json, os, sys
import twomass
from twomass import cli, presets

tree = os.path.realpath(sys.argv[1])
if not os.path.realpath(twomass.__file__).startswith(tree + os.sep):
    sys.exit(f"imported {twomass.__file__}, not the package under {tree}")


def run(name, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exit_:  # argparse's own exit
            code = f"{exit_.code} (SystemExit)"
        except Exception as exc:  # a crash is an output to compare, too
            code = f"1 ({type(exc).__name__}: {exc})"
    with open(name + ".out", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}")


for name in presets.preset_names():
    run(f"sweep-{name}", ["sweep", name, "--out", name])
run("true-metrics", ["sweep", "table2-ffw-sweep", "--metrics-on-true", "--out", "true-metrics"])
run("feedforward", ["feedforward", "--output", "feedforward-table.csv"])
for name, preset in [("analyze", "table3-fb-sweep-2khz"),
                     ("analyze-comparison", "controller-comparison-2khz"),
                     ("analyze-ffw", "table2-ffw-sweep")]:
    traces = sorted(glob.glob(os.path.join(preset, "*-trace.csv")))
    run(name, ["analyze", *traces, "--output", f"{name}-metrics.csv"])
for name, end in [("analyze-crlf", b"\r\n"), ("analyze-cr", b"\r")]:
    os.makedirs(name)
    copies = []
    for trace in sorted(glob.glob(os.path.join("table3-fb-sweep-2khz", "*-trace.csv"))):
        copies.append(os.path.join(name, os.path.basename(trace)))
        with open(trace, "rb") as src, open(copies[-1], "wb") as dst:
            dst.write(src.read().replace(b"\n", end))
    run(name, ["analyze", *copies, "--output", f"{name}-metrics.csv"])
    for copy in copies:
        os.remove(copy)
    os.rmdir(name)
with open("run.ini", "w", encoding="utf-8", newline="\n") as fh:
    fh.write(sys.argv[2])
run("check-plant", ["check-plant", "--config", "run.ini"])
run("simulate", ["simulate", "run.ini", "--out", "simulate"])
for name, files, argv in json.loads(sys.argv[3]):
    for file, text in files.items():
        with open(file, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    run(name, argv)
"""

# The config file that ``simulate`` and ``check-plant`` read.
_CONFIG = """\
[simulation]
label = demo
mode = combined
control_frequency = 1000.0
duration = 6.0
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
tf = 1.0

[tuning]
f_act = 0.08
f_fric = 0.16

[funnel]
s = 5.0
q_decay = 0.3
c = 0.3

[measurement]
angle_quantum = 0.0015339807878856412
filter_time_constant = 0.002
noise_std = 0.02
"""

# Inputs that the CLI rejects: (name of the .out file, files to write first, argv).
_BAD_INPUTS = (
    ("bad-simulate-preset", {}, ["simulate", "table2-ffw-sweep", "--out", "bad"]),
    ("bad-missing-config", {}, ["check-plant", "--config", "missing.ini"]),
    ("bad-no-section-header", {"no-header.ini": "label = demo\n" + _CONFIG},
     ["check-plant", "--config", "no-header.ini"]),
    ("bad-no-status-line", {"no-status.csv": "# twomass trace\n"
                            "t,y_measured,y_true,y_ref,e,psi,u_ffw,u_fb,u,newton_iterations\n"
                            "0.0,0.0,0.0,0.0,0.0,,,,0.0,\n"},
     ["analyze", "no-status.csv"]),
    ("bad-flag-value", {}, ["feedforward", "--dt", "abc"]),
    ("bad-nul-label", {"nul-label.ini": _CONFIG.replace("label = demo", "label = de\0mo")},
     ["simulate", "nul-label.ini", "--out", "bad"]),
)

_MEASURED = b"controller wall time"  # the summary line that differs from run to run
_SHOWN_LINES = 12  # diff lines printed per file


def write_outputs(src: str, out: str) -> None:
    """Write every compared file of the package under ``src`` into ``out``."""
    os.makedirs(out)
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "TWOMASS_OUT")}
    env["PYTHONPATH"] = os.path.abspath(src)
    subprocess.run([sys.executable, "-c", _WRITER, env["PYTHONPATH"], _CONFIG,
                    json.dumps(_BAD_INPUTS)], cwd=out, env=env, check=True)


def _files(root: str) -> set[str]:
    return {
        os.path.relpath(os.path.join(folder, name), root)
        for folder, _, names in os.walk(root) for name in names
    }


def _content(path: str) -> bytes:
    with open(path, "rb") as fh:
        data = fh.read()
    if path.endswith("-summary.txt"):
        lines = data.splitlines(keepends=True)
        data = b"".join(line for line in lines if not line.startswith(_MEASURED))
    return data


def manifest(root: str) -> str:
    """One ``DIGEST  NAME`` line per file under ``root``, in name order."""
    return "".join(f"{hashlib.sha256(_content(os.path.join(root, name))).hexdigest()}  {name}\n"
                   for name in sorted(_files(root)))


def manifest_changes(old: str, new: str) -> list[str]:
    """One entry per file whose digest differs between manifests ``old`` and ``new``, or that only one lists."""
    before, after = (dict(line.split("  ", 1)[::-1] for line in text.splitlines())
                     for text in (old, new))
    found = []
    for name in sorted(before.keys() | after.keys()):
        if name not in after:
            found.append(f"{name}: no longer written")
        elif name not in before:
            found.append(f"{name}: new")
        elif before[name] != after[name]:
            found.append(f"{name}: digest changed")
    return found


def differences(parent: str, change: str) -> list[str]:
    """One entry per file that is in one directory only or differs between the two."""
    found = []
    parent_files, change_files = _files(parent), _files(change)
    for name in sorted(parent_files ^ change_files):
        side = "parent" if name in parent_files else "change"
        found.append(f"{name}: only in the {side}'s outputs")
    for name in sorted(parent_files & change_files):
        old, new = _content(os.path.join(parent, name)), _content(os.path.join(change, name))
        if old != new:
            diff = difflib.unified_diff(
                old.decode("utf-8", "replace").splitlines(),
                new.decode("utf-8", "replace").splitlines(),
                "parent", "change", lineterm="", n=0,
            )
            shown = list(diff)[2:2 + _SHOWN_LINES]
            found.append(f"{name}: differs\n" + "\n".join("    " + line for line in shown))
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", help="directory holding the parent's twomass package")
    parser.add_argument("change_src", nargs="?",
                        help="directory holding the changed twomass package")
    parser.add_argument("--manifest", metavar="FILE",
                        help="write the digests of PARENT_SRC's outputs to FILE instead")
    args = parser.parse_args(argv)
    if (args.manifest is None) == (args.change_src is None):
        parser.error("give either CHANGE_SRC or --manifest FILE")
    with tempfile.TemporaryDirectory() as work:
        if args.manifest is not None:
            write_outputs(args.parent_src, os.path.join(work, "out"))
            lines = manifest(os.path.join(work, "out"))
            old = ""
            if os.path.exists(args.manifest):
                with open(args.manifest, encoding="utf-8") as fh:
                    old = fh.read()
            with open(args.manifest, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(lines)
            changed = manifest_changes(old, lines)
            for entry in changed:
                print(entry)
            print(f"{len(lines.splitlines())} files hashed into {args.manifest}, "
                  f"{len(changed)} changed")
            return 0
        parent, change = os.path.join(work, "parent"), os.path.join(work, "change")
        write_outputs(args.parent_src, parent)
        write_outputs(args.change_src, change)
        found = differences(parent, change)
        compared = len(_files(parent) | _files(change))
    for entry in found:
        print(entry)
    print(f"{compared} files compared, {len(found)} differ")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
