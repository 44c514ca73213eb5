"""Write reference.json: every preset's runs at the default seed.

    python3 perfbench/make_reference.py

The committed file holds the seed commit's results, which the correctness
check compares against.  Regenerate it only in a change that is meant to
alter simulation results, and say so in that change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import check  # noqa: E402
import workloads  # noqa: E402
from twomass import presets  # noqa: E402


def reference_runs(results) -> list[dict]:
    runs = []
    for result in results:
        cfg = result.config
        status = result.trace.status
        runs.append({
            "label": cfg.label,
            "seed_dependent": cfg.measurement.noise_std > 0.0,
            "kind": status.kind,
            "at": status.at,
            "metrics": None if result.metrics is None else {
                name: getattr(result.metrics, name) for name in check.METRIC_NAMES
            },
        })
    return runs


def main() -> int:
    work = os.path.join(ROOT, ".perfbench-out")
    os.makedirs(work, exist_ok=True)
    out = tempfile.mkdtemp(dir=work)
    try:
        reference = {
            "seed": check.DEFAULT_SEED,
            "presets": {
                name: {"runs": reference_runs(workloads.sweep(name, check.DEFAULT_SEED, out))}
                for name in presets.preset_names()
            },
        }
    finally:
        shutil.rmtree(out)
    with open(check.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
