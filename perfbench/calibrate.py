"""Host speed probe: how long a fresh interpreter takes to import numpy and scipy.

The 2-core virtual machine this benchmark was defined on changes speed by
10-30% over minutes, in user CPU time as much as in wall time, so raw
times of the same code spread past the benchmark's bounds from one run to
the next.  A run therefore times this probe before its first measurement
and after each one, and reports its times scaled to a host on which the
probe takes ``REFERENCE_S``:

    scaled = measured * REFERENCE_S / median(probe times of the run)

The probe runs no sublevy code, so a change to the program moves only the
measured side.  Of the probes tried (numpy FFTs, interpreted loops, memory
streams, random gathers, page faults, bare interpreter start, numpy
import), this one followed the slowdowns of both the solver and the CLI
best: the import work it does (loading shared objects and modules in a
new process) is what the workloads do at setup and on every CLI call.

    python3 perfbench/calibrate.py      # prints five probe times
"""

from __future__ import annotations

import os
import statistics
import sys
from pathlib import Path

from cliops import run_child

# about the probe's median time on the reference host (2 vCPU Intel Xeon VM
# at 2.0 GHz, Python 3.11, numpy 2.4, scipy 1.17), where it ranged from 1.2
# to 2.4 s over hours; only ratios to it carry meaning
REFERENCE_S = 2.0
PROBE = [sys.executable, "-c", "import numpy, scipy.signal"]


def sample() -> float:
    """Seconds the probe takes now; raises if it fails.

    ``run_child`` blocks in ``wait4`` until the probe exits; a wait with a
    timeout would poll, and round the time up to the next 50 ms.
    """
    code, seconds, _ = run_child(PROBE, dict(os.environ), Path(os.devnull))
    if code != 0:
        raise RuntimeError(f"host probe exited {code}")
    return seconds


def scale(samples: list) -> float:
    """Factor that turns times measured among ``samples`` into reference seconds."""
    if not samples:
        raise ValueError("no probe samples")
    return REFERENCE_S / statistics.median(samples)


if __name__ == "__main__":
    for _ in range(5):
        print(f"{sample():.4f}")
