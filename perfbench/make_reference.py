"""Regenerate perfbench/reference.json, the high-effort values that
shortfall_max is measured against.

Run from the root of a checkout:

    python3 perfbench/make_reference.py

It takes about 20 s on one core.  Regenerate only when the panel inputs
change (workloads.sweep_panel / pointwise_panel).  The file records the
commit of the program it was made with; a reference made by a changed
program would hide what the change lost.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import asdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def _commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    t0 = time.perf_counter()
    doc = {
        "regenerate": "python3 perfbench/make_reference.py",
        "program_commit": _commit(),
        "settings": [asdict(opt) for opt in workloads.REFERENCE_OPTS],
        "also_max_with": {"sweep": asdict(workloads.SUITE_OPT), "pointwise": asdict(workloads.DEFAULT_OPT)},
        "panel_seed": workloads.PANEL_SEED,
        "sweep_t_points": workloads.T_POINTS,
        "sweep": workloads.reference_values("sweep"),
        "pointwise": workloads.reference_values("pointwise"),
    }
    path = os.path.join(HERE, "reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(
        f"wrote {path}: {len(doc['sweep'])} ratios, {len(doc['pointwise'])} values "
        f"in {time.perf_counter() - t0:.0f} s"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
