"""Inputs and rounds of the march workload.

A round is one call into the public sublevy API, timed from outside and
checked against a stored reference.  Nothing here starts threads or
processes; ``worker.py`` runs one round per fresh interpreter, and the cli
workload lives in ``cliops.py``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from sublevy.kou import GaussianBump, KouSpec, build_field
from sublevy.pide import SpatialGrid, ValueField, cfl_timestep, solve

from spans import NullTracer, OpResult

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"

CHECK_POINTS = (-1.0, 0.0, 1.0)
# |u(T, x0) - fine-grid reference| allowed at each check point
VALUE_TOLERANCE = 2e-3
T_HORIZON = 1.0
CONTROL_RESOLUTION = 2
BOX = (-10.0, 10.0)
CFL_SAFETY = 0.9

MARCH_NX = 1601


def kou_spec() -> KouSpec:
    """Uncertain Kou model: b in [0, 0.1], a in [0.1, 0.3], lambda in [1, 2]."""
    return KouSpec(b_lo=0.0, b_hi=0.1, a_lo=0.1, a_hi=0.3,
                   lam_lo=1.0, lam_hi=2.0, lam_star=2.0, lam_floor=0.5)


class Inputs:
    """What setup builds before the first solver call: field, grid, payoff."""

    def __init__(self, tracer=None, nx: int = MARCH_NX):
        tracer = tracer or NullTracer()
        with tracer.span("kou.build_field"):
            self.field = build_field(kou_spec(), CONTROL_RESOLUTION)
        self.grid = SpatialGrid(BOX[0], BOX[1], nx)
        self.bump = GaussianBump()
        self.payoff = self.bump.value(self.grid.xs())


def reference_values(path: Path = REFERENCES) -> np.ndarray:
    """Fine-grid u(T, x0) at CHECK_POINTS for the march spec."""
    with open(path) as fh:
        entry = json.load(fh)["kou"]
    if entry["check_points"] != list(CHECK_POINTS):
        raise ValueError(f"reference check points {entry['check_points']} differ")
    return np.asarray(entry["values"], dtype=float)


def _traced_solve(inp: Inputs, tracer) -> ValueField:
    with tracer.span("pide.solve") as sp:
        u = solve(inp.field, inp.payoff, T_HORIZON, inp.grid, CFL_SAFETY)
        sp.attrs["steps"] = int(u.metadata["n_steps"])
        sp.attrs["stored_bytes"] = int(u.values.nbytes)
    return u


def run_solve(inp: Inputs, refs: np.ndarray, tracer) -> OpResult:
    """march: one solve; u(T, x0) at the check points vs references."""
    t0 = time.perf_counter()
    u = _traced_solve(inp, tracer)
    got = np.asarray(u.terminal_value(np.asarray(CHECK_POINTS)), dtype=float)
    errs = np.abs(got - refs)
    wall = time.perf_counter() - t0
    ok = bool(np.all(np.isfinite(got)) and np.all(errs <= VALUE_TOLERANCE))
    detail = {"u_T": got.tolist(), "routes": u.metadata.get("routes"),
              "steps": int(u.metadata["n_steps"])}
    return OpResult(ok, wall, float(errs.max()), detail)


def run_cfl(inp: Inputs, tracer) -> float:
    """One call that builds every control's operator."""
    with tracer.span("pide.cfl_timestep"):
        return cfl_timestep(inp.field, inp.grid, CFL_SAFETY)


def run_round(inp: Inputs, tracer, traced: bool) -> OpResult:
    """One round of the march workload: one solve, checked."""
    result = run_solve(inp, reference_values(), tracer)
    if traced:  # after the round's time: a layer metric only
        run_cfl(inp, tracer)
    return result
