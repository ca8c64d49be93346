"""The cli workload: the six subcommands, each in its own process.

Untraced, each child is exactly what a user runs, ``python -m sublevy.cli``
(the ``sublevy`` console script needs an installed package).  Traced, the
child is ``cli_child.py``, which runs the same ``sublevy.cli.main`` with
spans around the public calls it makes.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from spans import OpResult, spans_from_json

HERE = Path(__file__).resolve().parent
CLI_CONFIG = HERE / "cli.cfg"
SUBCOMMANDS = ("solve", "simulate", "validate", "fourier-check", "transform", "dpp-check")
CHILD_TIMEOUT_S = 60


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(src) + (os.pathsep + old if old else "")
    return env


def _timed_out(signum, frame):
    raise TimeoutError(f"subcommand ran over {CHILD_TIMEOUT_S} s")


def run_child(argv: list, env: dict, log_path: Path) -> tuple[int, float, float]:
    """Run one child to its end: (exit code, seconds, peak RSS in MB).

    ``wait4`` gives the child's own rusage; an interval timer bounds the wait.
    """
    with open(log_path, "w") as log:
        previous = signal.signal(signal.SIGALRM, _timed_out)
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=env)
        try:
            signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT_S)
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - t0
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, usage.ru_maxrss * 1024 / 1e6


def artifact_digests(outdir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(outdir.iterdir()) if p.is_file()}


def fourier_worst(outdir: Path) -> float:
    """Worst |pide - fourier| over the rows of fourier.csv."""
    rows = (outdir / "fourier.csv").read_text().splitlines()[1:]
    return max(abs(float(row.split(",")[3])) for row in rows)


def _fresh_dir(path: Path) -> Path:
    path.mkdir(parents=True, exist_ok=True)
    for stale in path.iterdir():
        stale.unlink()
    return path


def run_cli(src: Path, workdir: Path, seed: int, tracer, traced: bool) -> OpResult:
    """One round: the six subcommands, each writing to its own directory.

    Each subcommand is one call; it fails if it exits non-zero.  The time is
    the sum of the six process times, and the answer is the worst difference
    in fourier.csv.
    """
    env = child_env(src)
    logdir = _fresh_dir(workdir / "logs")
    total = 0.0
    subs = {}
    for sub in SUBCOMMANDS:
        outdir = _fresh_dir(workdir / sub)
        args = [sub, "--config", str(CLI_CONFIG), "--seed", str(seed), "--out", str(outdir)]
        span_file = logdir / f"{sub}.spans.json"
        if traced:
            argv = [sys.executable, str(HERE / "cli_child.py"), str(span_file), *args]
        else:
            argv = [sys.executable, "-m", "sublevy.cli", *args]
        with tracer.span(f"cli.{sub}") as sp:
            code, elapsed, maxrss = run_child(argv, env, logdir / f"{sub}.log")
        if traced and span_file.exists():
            tracer.adopt(spans_from_json(json.loads(span_file.read_text())), sp)
        total += elapsed
        digests = artifact_digests(outdir)
        subs[sub] = {"exit_code": code, "seconds": elapsed, "peak_rss_mb": maxrss,
                     "digests": digests,
                     "bytes": sum((outdir / name).stat().st_size for name in digests)}
    failed = [sub for sub, r in subs.items() if r["exit_code"] != 0]
    value_err = None
    if "fourier-check" not in failed:
        try:
            value_err = fourier_worst(workdir / "fourier-check")
        except (OSError, ValueError, IndexError):
            failed.append("fourier-check")
    detail = {"subcommands": subs, "failed": failed,
              "artifact_bytes": sum(r["bytes"] for r in subs.values())}
    return OpResult(not failed, total, value_err, detail, calls=len(SUBCOMMANDS),
                    failed_calls=len(failed),
                    peak_rss_mb=max(r["peak_rss_mb"] for r in subs.values()))
