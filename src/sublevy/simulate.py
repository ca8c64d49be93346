"""Weak-control Monte Carlo for the controlled jump-diffusion.

Paths follow an Euler scheme for the continuous part plus compound-Poisson
jumps: the reference measure (finite mass only) drives jump times, marks
are drawn from its normalized law, and each jump applies the control's jump
map to the pre-jump state.  The continuous drift is the raw drift minus the
truncated-jump compensator, so path laws match the generator the PIDE
solver discretizes.  A control whose coefficients come back without a
state axis is read from a table; every other control is evaluated at its
own paths' states each step; a chunk with no such control does no
per-state work at all.  Paths follow a ``PolicySchedule`` (defined in
``pide``, next to the grid it lives on); the one the PIDE march records
(``solve(..., policy=True)``, kept as ``ValueField.policy``) is its argmax
policy run in elapsed time, and estimates under it give a lower bound on
the PIDE value up to scheme tolerance.  A schedule lives on the solver's
uniform grid, so each path finds its cell by arithmetic, at a cost that
does not grow with the grid.

One step loop advances a batch of paths and yields their states and jumps
after each step; ``sample_path`` logs a one-path batch from it, and the
estimators keep each chunk's terminal states.

Reproducibility: paths are generated in fixed-size chunks, each from an
independent child stream of the seed, so a chunk's paths depend on the seed
and the chunk index alone, and estimates are bit-identical for a given seed
regardless of how chunks are scheduled.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .core import CoefficientField, _jump_table
from .pide import PolicySchedule, ValueField, _compensator

__all__ = [
    "CHUNK",
    "PolicySchedule",
    "SamplePath",
    "estimate_value",
    "mc_lower_bound",
    "sample_path",
]

CHUNK = 4096


def _chunk_rng(seed: int, chunk: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(chunk,)))


@dataclasses.dataclass(frozen=True)
class SamplePath:
    """One realized trajectory with its jump log (time, mark, applied size)."""

    times: np.ndarray
    states: np.ndarray
    jump_log: tuple


def _coefficients(field, f, x):
    """(drift - compensator, dispersion) of control f at states x.

    Results are not broadcast to x's shape: by the broadcasting contract of
    the coefficient callables, one that comes back without a state axis
    does not vary with the state.
    """
    b = np.asarray(field.drift(f, x), dtype=float)
    s = np.asarray(field.dispersion(f, x), dtype=float)
    if field.reference.total_mass > 0:
        ktab = _jump_table(field, f, x)
        b = b - _compensator(field, ktab, field.reference.quadrature.weights)
    return b, s


def _steps(field, policy, x0, T, dt, rng, n):
    """Advance n paths to T, yielding (t, x, jumps) after each step.

    t is the step's end time and x the paths' states there; the next step
    rebinds x to a new array, so a reader may keep the one it got.  jumps
    holds one (marks, applied sizes) pair per round of jumps in the step.
    """
    measure = field.reference
    mass = float(measure.total_mass)
    if math.isinf(mass):
        raise ValueError("only finite-mass jump measures can be simulated")
    if mass > 0 and measure.sampler is None:
        raise ValueError("jump measure has positive mass but no sampler")
    controls = field.control_grid.points
    if tuple(policy.controls) != controls:
        raise ValueError("policy was built for another control grid")
    n_steps = max(1, int(round(T / dt)))
    dt_eff = T / n_steps
    sq = math.sqrt(dt_eff)

    # two states tell a state-free one-row jump table from a single state's row
    btab = np.zeros(len(controls))
    stab = np.zeros(len(controls))
    per_state = np.zeros(len(controls), dtype=bool)
    for ci, f in enumerate(controls):
        b, s = _coefficients(field, f, np.full(2, float(x0)))
        if b.ndim == 0 and s.ndim == 0:
            btab[ci], stab[ci] = b, s
        else:
            per_state[ci] = True
    any_per_state = bool(per_state.any())

    x = np.full(n, float(x0))
    for step in range(n_steps):
        t = step * dt_eff
        fidx = np.asarray(policy.control_indices(t, x), dtype=int)
        beff = btab[fidx]
        sig = stab[fidx]
        if any_per_state:
            for ci in np.unique(fidx[per_state[fidx]]):
                m = fidx == ci
                beff[m], sig[m] = _coefficients(field, controls[ci], x[m])
        dw = rng.standard_normal(n)
        counts = rng.poisson(mass * dt_eff, n) if mass > 0 else np.zeros(n, dtype=int)
        x = x + beff * dt_eff + sig * sq * dw
        if not np.all(np.isfinite(x)):
            raise RuntimeError(f"non-finite state after diffusion step {step}")
        rounds = int(counts.max()) if counts.size else 0
        jumps = []
        for r in range(rounds):
            act = np.flatnonzero(counts > r)
            z = measure.sampler(rng.random(act.size))
            applied = np.empty(act.size)
            fa = fidx[act]
            for ci in np.flatnonzero(np.bincount(fa, minlength=len(controls))):
                mm = fa == ci
                sel = act[mm]
                k = np.asarray(
                    field.jump_density_map(controls[ci], x[sel], z[mm]), dtype=float
                )
                applied[mm] = np.broadcast_to(k, sel.shape)
            x[act] = x[act] + applied
            jumps.append((z, applied))
        if not np.all(np.isfinite(x)):
            raise RuntimeError(f"non-finite state after jumps at step {step}")
        yield (step + 1) * dt_eff, x, jumps


def _check_run(x0, T, dt):
    if not (0 < T < math.inf and 0 < dt < math.inf):
        raise ValueError(f"T and dt must be positive and finite, got T={T!r}, dt={dt!r}")
    if not math.isfinite(x0):
        raise ValueError(f"x0 must be finite, got {x0!r}")


def sample_path(
    field: CoefficientField,
    policy: PolicySchedule,
    x0: float,
    T: float,
    dt: float,
    seed: int,
) -> SamplePath:
    """One path, deterministic in the seed; each jump is stamped with its step's time."""
    _check_run(x0, T, dt)
    times, states, jump_log = [0.0], [float(x0)], []
    for t, x, jumps in _steps(field, policy, x0, T, dt, _chunk_rng(seed, 0), 1):
        times.append(t)
        states.append(float(x[0]))
        for marks, applied in jumps:
            jump_log.extend((t, float(z), float(k)) for z, k in zip(marks, applied))
    return SamplePath(np.asarray(times), np.asarray(states), tuple(jump_log))


def _terminals(field, policy, x0, T, dt, n_paths, seed, collect_jumps=False):
    """Terminal states of n_paths paths, CHUNK at a time from child streams.

    With ``collect_jumps`` it returns (terminal states, every applied jump
    size) instead.
    """
    outs, sizes = [], []
    for chunk, start in enumerate(range(0, n_paths, CHUNK)):
        rng = _chunk_rng(seed, chunk)
        for _, x, jumps in _steps(field, policy, x0, T, dt, rng, min(CHUNK, n_paths - start)):
            if collect_jumps:
                sizes.extend(applied for _, applied in jumps)
        outs.append(x)
    terms = np.concatenate(outs)
    if collect_jumps:
        return terms, np.concatenate(sizes) if sizes else np.empty(0)
    return terms


def estimate_value(
    field: CoefficientField,
    policy: PolicySchedule,
    psi,
    x0: float,
    T: float,
    dt: float,
    n_paths: int,
    seed: int,
):
    """Sample mean and standard error of psi at the terminal state."""
    if n_paths < 2:
        raise ValueError("n_paths must be >= 2")
    _check_run(x0, T, dt)
    terms = _terminals(field, policy, x0, T, dt, n_paths, seed)
    vals = np.asarray(psi(terms), dtype=float)
    if vals.shape != terms.shape:
        vals = np.broadcast_to(vals, terms.shape)
    mean = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(n_paths))
    return mean, stderr


def mc_lower_bound(
    field: CoefficientField,
    fieldU: ValueField,
    psi,
    x0: float,
    T: float,
    dt: float,
    n_paths: int,
    seed: int,
):
    """(mean, stderr, pide_value) under ``fieldU.policy``, the rule its march recorded.

    ``fieldU`` must come from ``solve(..., policy=True)`` on ``field``.  The
    mean is a single-policy value, so up to scheme tolerance it sits at or
    below the PIDE value: mean <= pide_value + 3 stderr + tolerance.
    """
    if abs(float(fieldU.times[-1]) - T) > 1e-9:
        raise ValueError("fieldU horizon does not match T")
    if fieldU.policy is None:
        raise ValueError("this field holds no recorded policy; solve with policy=True")
    mean, stderr = estimate_value(field, fieldU.policy, psi, x0, T, dt, n_paths, seed)
    pide_value = float(fieldU.terminal_value(x0))
    return mean, stderr, pide_value

