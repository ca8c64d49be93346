"""Compute the fine-grid references the solver workloads are checked against.

    PYTHONPATH=src python3 perfbench/make_references.py

Solves the march spec at nx=3201 (twice the workload resolution, minus
one) and writes u(T, x0) at the check points to references.json next to
this script.  Takes about half a minute on a 2-core x86 machine.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import (  # noqa: E402
    BOX, CFL_SAFETY, CHECK_POINTS, CONTROL_RESOLUTION, REFERENCES, T_HORIZON, kou_spec,
)
from sublevy.kou import GaussianBump, build_field  # noqa: E402
from sublevy.pide import SpatialGrid, solve  # noqa: E402


def reference(nx: int) -> dict:
    field = build_field(kou_spec(), CONTROL_RESOLUTION)
    grid = SpatialGrid(BOX[0], BOX[1], nx)
    t0 = time.perf_counter()
    u = solve(field, GaussianBump().value(grid.xs()), T_HORIZON, grid, CFL_SAFETY)
    values = np.asarray(u.terminal_value(np.asarray(CHECK_POINTS)), dtype=float)
    print(f"nx={nx}: {u.metadata['n_steps']} steps, {time.perf_counter() - t0:.1f} s, "
          f"routes {u.metadata['routes']}", file=sys.stderr)
    return {"nx": nx, "check_points": list(CHECK_POINTS), "values": values.tolist(),
            "steps": int(u.metadata["n_steps"]), "routes": u.metadata["routes"]}


def main() -> None:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                cwd=HERE, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    refs = {
        "made_by": "perfbench/make_references.py",
        "source_commit": commit,
        "kou": reference(3201),
    }
    REFERENCES.write_text(json.dumps(refs, indent=2) + "\n")


if __name__ == "__main__":
    main()
