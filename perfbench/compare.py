"""Compare benchmark records of two commits.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are each a record written by ``run.py`` or a directory of them
(for example a copy of ``.perfbench-out`` after runs with several seeds).
Records are grouped by workload and trace flag; each metric is shown as the
median over a group's records, with the quartile spread of BASE as a share
of its median, and the change of NEW against BASE.  Whether a change is
better or worse follows the ``better`` field of ``BENCHMARK.json``.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> dict:
    files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    groups: dict = {}
    for name in files:
        with open(name) as fh:
            record = json.load(fh)
        if "workload" not in record:
            continue
        group = groups.setdefault((record["workload"], record["trace"]), {})
        for metric, value in record["metrics"].items():
            group.setdefault(metric, []).append(value)
    return groups


def spread(values) -> float:
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else float("nan")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = load(argv[0]), load(argv[1])
    print(f"{'workload':16s} {'metric':32s} {'base':>12s} {'spread':>7s} {'new':>12s} {'change':>8s}")
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        for metric, values in base[key].items():
            if metric not in new[key]:
                continue
            b = statistics.median(values)
            n = statistics.median(new[key][metric])
            change = (n - b) / abs(b) if b else float("nan")
            verdict = ""
            if change == change and change != 0.0 and metric in better:
                improved = (change < 0) == (better[metric] == "lower")
                verdict = "better" if improved else "worse"
            print(f"{workload + (' (traced)' if trace else ''):16s} {metric:32s} {b:12.6g} "
                  f"{spread(values):7.3f} {n:12.6g} {change:+8.1%} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
