"""The sublevy benchmark: one workload, one closed loop, one JSON result line.

    python3 perfbench/run.py --workload march --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads (BENCHMARK.json says why each exists):

    march       uncertain Kou solve, nx=1601, FFT jump route
    cli         the six CLI subcommands, each in its own process

Rounds run one at a time for about ``--seconds``, at least MIN_ROUNDS of
them.  Each march round runs in a fresh interpreter
(``worker.py``) that first times its setup, so every round also gives a
setup sample and carries no allocator or cache state from the one before.
The cli workload times setup in SETUP_PROBES separate interpreters, within
the same ``--seconds``.  Every answer is checked; a call that raises, exits
non-zero or fails its check counts as failed.

The host's speed drifts by 10-30% over minutes, in user CPU time as much
as in wall time.  So a run times the host probe of ``calibrate.py`` before
its first round or setup probe and after each one, and every time it
reports is a median over the run multiplied by ``calibrate.scale`` of those
probe times: seconds on a host that runs the probe in
``calibrate.REFERENCE_S``.  The unscaled times and the probe times are in
the detail line.  There are two workloads, not more, so that each run can
measure 50 s.  The gather and montecarlo workloads were dropped to give
these longer runs: no workload reaches the gather jump route of a
state-dependent intensity, and the Monte Carlo runs only in the cli
``simulate`` subcommand (10,000 paths).

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from spans the benchmark records around the calls it makes; rounds
alternate traced and untraced, and the difference is the tracing overhead.
The last line of standard output is the result; the line before it holds
the environment, the rounds and, when traced, self times per span.  A fuller
report, with every span, goes to perfbench/_out/.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import spans
from cliops import SUBCOMMANDS, child_env, run_cli
from spans import OpResult

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"

WORKLOADS = ("march", "cli")
SETUP_PROBES = 3
# the cli repeat check and the traced / untraced comparison each need a
# pair of rounds
MIN_ROUNDS = 2
CHILD_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "value_err": "abs",
    "success_rate": "ratio",
}

# per-layer metric -> (unit, how it is taken from the spans)
#   call:  median duration of one call        round: total per traced round
PER_LAYER = {
    "import.sublevy_s": ("s", "call"),
    "kou.build_field_s": ("s", "call"),
    "kou.fourier_reference_s": ("s", "round"),
    "core.audit_conditions_s": ("s", "round"),
    "transform.quantile_k_s": ("s", "round"),
    "transform.verify_transport_s": ("s", "round"),
    "pide.cfl_timestep_s": ("s", "call"),
    "pide.solve_s": ("s", "call"),
    "pide.step_ms": ("ms", "derived"),
    "pide.steps": ("count", "derived"),
    "pide.stored_mb": ("MB", "derived"),
    "pide.restart_s": ("s", "round"),
    "pide.write_csv_s": ("s", "round"),
    "simulate.policy_from_pide_s": ("s", "call"),
    "simulate.estimate_value_s": ("s", "call"),
    "simulate.path_steps_per_s": ("1/s", "derived"),
    "simulate.path_steps": ("count", "derived"),
    **{f"cli.{sub}_s": ("s", "call") for sub in SUBCOMMANDS},
    "cli.artifact_mb": ("MB", "derived"),
    "trace.overhead_s": ("s", "derived"),
}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (no source tree, no answer)."""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def source_tree(root: Path = ROOT) -> Path:
    """The checkout's src/ directory, which every child imports sublevy from."""
    src = root / "src"
    if not (src / "sublevy" / "__init__.py").is_file():
        raise BenchError(f"no sublevy package under {src}; run from a source checkout")
    return src


# ---------------------------------------------------------------- environment


def _commit(root: Path, src: Path) -> dict:
    out = {"git": None}
    if (root / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        out["git"] = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((src / "sublevy").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    out["src_sha256"] = digest.hexdigest()
    return out


def environment(root: Path, src: Path, blas_threads) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_threads": blas_threads,
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": _commit(root, src),
        "machine": platform.machine(),
        "cli_invocation": "python -m sublevy.cli",
        "cli_note": "no workload uses the sublevy console script: it needs an installed "
                    "package" + ("" if shutil.which("sublevy") else ", and none is on PATH"),
    }


# ---------------------------------------------------------------- rounds


def run_worker(workload: str, traced: bool, src: Path) -> dict:
    """One fresh interpreter: setup, then one round (none for cli)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), workload, "1" if traced else "0"],
        env=child_env(src), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def make_round(workload: str, seed: int, src: Path):
    """A callable (tracer, traced) -> OpResult for one round of the workload."""
    if workload == "cli":
        # each round overwrites the last one's artifacts and logs
        return lambda tracer, traced: run_cli(src, OUT / "cli", seed, tracer, traced)

    def worker_round(tracer, traced):
        out = run_worker(workload, traced, src)
        tracer.adopt(spans.spans_from_json(out["spans"]), tracer.current())
        result = OpResult.from_json(out["round"])
        result.detail.update(setup_s=out["setup_s"], blas_threads=out["blas_threads"])
        return result

    return worker_round


def run_rounds(round_fn, seconds: float, tracer, host: list | None = None) -> list:
    """Closed loop of rounds: [(OpResult, traced)].

    A round starts while one more of median length would end less than half
    a round past ``seconds``, so a run lasts about ``seconds`` whatever the
    round length.  With a tracer, even rounds are traced and odd ones not.
    With a ``host`` list, a host probe time is appended to it after each
    round, within the round's length (and one before the first, if empty).
    """
    out = []
    start = time.perf_counter()
    lengths = []
    if host == []:
        host.append(calibrate.sample())
    while len(out) < MIN_ROUNDS or (
            time.perf_counter() - start + 0.5 * statistics.median(lengths) <= seconds):
        traced = tracer is not None and len(out) % 2 == 0
        tr = tracer if traced else spans.NullTracer()
        t0 = time.perf_counter()
        with tr.span("round"):
            try:
                result = round_fn(tr, traced)
            except Exception as e:  # a call that raises is a failed call
                print(f"round failed: {type(e).__name__}: {e}", file=sys.stderr)
                result = OpResult(False, time.perf_counter() - t0, None,
                                  {"error": f"{type(e).__name__}: {e}"})
        if host is not None:
            host.append(calibrate.sample())
        lengths.append(time.perf_counter() - t0)
        out.append((result, traced))
    return out


def check_repeats(workload: str, results: list) -> None:
    """Same seed, same bytes: mark calls whose output differs from round one."""
    if workload == "cli":
        first = {}
        for r in results:
            for sub, s in r.detail.get("subcommands", {}).items():
                if s["exit_code"] != 0:
                    continue
                first.setdefault(sub, s["digests"])
                if s["digests"] != first[sub] and sub not in r.detail["failed"]:
                    r.detail["failed"].append(sub)
                    r.detail.setdefault("repeat_mismatch", []).append(sub)
                    r.failed_calls += 1
                    r.ok = False


# ---------------------------------------------------------------- metrics


def _median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


def end_to_end_metrics(setups: list, results: list, scale: float = 1.0) -> dict:
    """Medians over the run's rounds (and setups) of the end-to-end metrics.

    Times are multiplied by ``scale``, the run's host speed factor.
    """
    ok = [r for r in results if r.ok]
    answers = [r.value_err for r in results if r.value_err is not None]
    if not answers or not setups:
        raise BenchError("no round produced an answer: "
                         + json.dumps([r.detail for r in results])[:2000])
    attempted = sum(r.calls for r in results)
    failed = sum(r.failed_calls for r in results)
    values = {
        "setup_s": scale * statistics.median(setups),
        "wall_s": scale * _median(r.wall_s for r in (ok or results)),
        "peak_rss_mb": _median(r.peak_rss_mb for r in results if r.peak_rss_mb),
        "value_err": statistics.median(answers),
        "success_rate": (attempted - failed) / attempted,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer_metrics(all_spans: list, rounds: list, scale: float = 1.0) -> dict:
    """Per-layer metrics from the spans of traced rounds and setups.

    Times are multiplied by ``scale``, the run's host speed factor, and rates
    divided by it.  A layer the workload does not reach reports 0.
    """
    by_name: dict[str, list] = {}
    for sp in all_spans:
        by_name.setdefault(sp.name, []).append(sp)
    traced = [r for r, t in rounds if t]
    untraced = [r for r, t in rounds if not t]

    values = {}
    for metric, (_, how) in PER_LAYER.items():
        group = by_name.get(metric[:-2], [])
        if how == "call":
            values[metric] = _median(sp.duration for sp in group)
        elif how == "round":
            values[metric] = sum(sp.duration for sp in group) / len(traced)

    solves = [sp for sp in by_name.get("pide.solve", []) if sp.attrs.get("steps")]
    values["pide.step_ms"] = _median(1e3 * sp.duration / sp.attrs["steps"] for sp in solves)
    values["pide.steps"] = _median(sp.attrs["steps"] for sp in solves)
    values["pide.stored_mb"] = _median(sp.attrs["stored_bytes"] / 1e6 for sp in solves)
    estimates = [sp for sp in by_name.get("simulate.estimate_value", [])
                 if sp.attrs.get("path_steps")]
    values["simulate.path_steps"] = _median(sp.attrs["path_steps"] for sp in estimates)
    values["simulate.path_steps_per_s"] = _median(
        sp.attrs["path_steps"] / sp.duration for sp in estimates)
    values["cli.artifact_mb"] = _median(
        r.detail["artifact_bytes"] / 1e6 for r in traced if "artifact_bytes" in r.detail)
    values["trace.overhead_s"] = (_median(r.wall_s for r in traced)
                                  - _median(r.wall_s for r in untraced))
    factor = {"s": scale, "ms": scale, "1/s": 1.0 / scale}
    return {name: {"value": values[name] * factor.get(unit, 1.0), "unit": unit}
            for name, (unit, _) in PER_LAYER.items()}


def self_time_table(all_spans: list) -> dict:
    return {name: {k: round(v, 6) if isinstance(v, float) else v for k, v in row.items()}
            for name, row in spans.summarize(all_spans).items()}


# ---------------------------------------------------------------- main


def seed_use(workload: str, seed: int) -> str:
    if workload == "cli":
        return f"--seed {seed} (mc.seed and audit.seed)"
    return "ignored: the inputs are fixed"


def main(argv=None) -> int:
    args = parse_args(argv)
    run_id = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    tracer = spans.Tracer(run_id) if args.trace else None
    probes, all_spans, host = [], [], []
    try:
        src = source_tree()
        compileall.compile_dir(str(src / "sublevy"), quiet=1)
        OUT.mkdir(exist_ok=True)
        start = time.perf_counter()
        if args.workload == "cli":
            host.append(calibrate.sample())
            for _ in range(SETUP_PROBES):
                probes.append(run_worker("cli", bool(args.trace), src))
                all_spans.extend(spans.spans_from_json(probes[-1]["spans"]))
                host.append(calibrate.sample())

        rounds = run_rounds(make_round(args.workload, args.seed, src),
                            args.seconds - (time.perf_counter() - start), tracer, host)
        scale = calibrate.scale(host)
        results = [r for r, _ in rounds]
        setups = [p["setup_s"] for p in probes] + [
            r.detail["setup_s"] for r in results if "setup_s" in r.detail]
        blas = [p["blas_threads"] for p in probes] + [
            r.detail["blas_threads"] for r in results if "blas_threads" in r.detail]
        check_repeats(args.workload, results)
        attempted = sum(r.calls for r in results)
        failed = sum(r.failed_calls for r in results)

        if args.trace:
            all_spans.extend(tracer.spans)
            for sp in all_spans:
                sp.run_id = run_id
            metrics = per_layer_metrics(all_spans, rounds, scale)
        else:
            metrics = end_to_end_metrics(setups, results, scale)
    except (BenchError, RuntimeError, subprocess.SubprocessError) as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_use": seed_use(args.workload, args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed: one call at a time, no threads of its own",
        "environment": environment(ROOT, src, next((b for b in blas if b is not None), None)),
        "host_probe": {"reference_s": calibrate.REFERENCE_S, "samples_s": host,
                       "scale": scale},
        "setup_s": setups,
        "rounds": [{"traced": t, "ok": r.ok, "wall_s": r.wall_s, "value_err": r.value_err,
                    "peak_rss_mb": r.peak_rss_mb,
                    **{k: v for k, v in r.detail.items() if k != "subcommands"}}
                   for r, t in rounds],
    }
    if args.trace:
        detail["self_times"] = self_time_table(all_spans)
    with open(OUT / f"{run_id}.json", "w") as fh:
        json.dump({**detail, "rounds_full": [r.detail for r in results],
                   "spans": [vars(sp) for sp in all_spans]}, fh, indent=1, default=str)
    print(json.dumps(detail, default=str))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
