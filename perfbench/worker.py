"""One fresh interpreter: time the workload's setup, then run one round.

    worker.py WORKLOAD TRACE

Setup is ``import sublevy`` followed by ``build_field``, the SpatialGrid and
the payoff on it; for the cli workload it is a bare ``import sublevy.cli``
and no round follows (the cli rounds are subcommand processes).  Prints one
JSON line: setup_s, peak_rss_mb, blas_threads, the round and, with TRACE=1,
the spans.  A round that raises is reported as a failed call.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import spans

SRC_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sublevy"


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, if it reports one."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main() -> int:
    workload, traced = sys.argv[1], sys.argv[2] == "1"
    tracer = spans.Tracer(run_id="worker", prefix=f"{os.getpid()}:")
    t0 = time.perf_counter()
    with tracer.span("setup"):
        with tracer.span("import.sublevy"):
            if workload == "cli":
                import sublevy.cli as sublevy
            else:
                import sublevy
        if workload != "cli":
            import workloads

            inp = workloads.Inputs(tracer)
    setup_s = time.perf_counter() - t0
    if Path(sublevy.__file__).resolve().parent != SRC_PACKAGE:
        print(f"imported sublevy from {sublevy.__file__}, not {SRC_PACKAGE}", file=sys.stderr)
        return 2

    result = None
    if workload != "cli":
        round_tracer = tracer if traced else spans.NullTracer()
        before = resource.getrusage(resource.RUSAGE_SELF)
        t1 = time.perf_counter()
        try:
            result = workloads.run_round(inp, round_tracer, traced)
        except Exception as e:  # a call that raises is a failed call
            traceback.print_exc()
            result = spans.OpResult(False, time.perf_counter() - t1, None,
                                    {"error": f"{type(e).__name__}: {e}"})
        after = resource.getrusage(resource.RUSAGE_SELF)
        result.peak_rss_mb = after.ru_maxrss * 1024 / 1e6
        # CPU seconds of the round: user time near wall_s means the round ran
        # on one core without waiting; it tells host slowdowns from waits
        result.detail["cpu_user_s"] = after.ru_utime - before.ru_utime
        result.detail["cpu_sys_s"] = after.ru_stime - before.ru_stime
        result = result.to_json()
    print(json.dumps({"setup_s": setup_s, "blas_threads": blas_threads(), "round": result,
                      "spans": tracer.to_json() if traced else []}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
