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
estimators keep each chunk's terminal states.  A step whose policy row
names one state-free control skips the per-path cell lookup.

Reproducibility: paths are generated in fixed-size chunks, each from an
independent child stream of the seed, so a chunk's paths depend on the seed
and the chunk index alone.  A call deals its chunks round-robin over the
fork pool of ``_pool``: k workers, k being the usable cores capped at the
number of chunks, the calling process worker 0 and the others forked for
the call and reaped before it returns.  Results are joined in chunk order,
so estimates are bit-identical for a given seed whatever k is.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import _pool, core
from .core import CoefficientField
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
    does not vary with the state.  They are read through
    ``core._coefficients``, so a value that is not finite raises
    ``AuditError`` here.
    """
    b, s, ktab = core._coefficients(field, f, x)
    if field.reference.total_mass > 0:
        b = b - _compensator(field, ktab, field.reference.quadrature.weights)
    return b, s


class _Plan:
    """One call's checked arguments and the tables each of its chunks reads.

    ``btab``/``stab`` hold each state-free control's (drift - compensator,
    dispersion); ``per_state`` marks the controls evaluated at their paths'
    states.  ``single[m]`` is the one state-free control that knot row m of
    the policy names, or -1.
    """

    def __init__(self, field, policy, x0, T, dt):
        if not (0 < T < math.inf and 0 < dt < math.inf):
            raise ValueError(f"T and dt must be positive and finite, got T={T!r}, dt={dt!r}")
        if not math.isfinite(x0):
            raise ValueError(f"x0 must be finite, got {x0!r}")
        measure = field.reference
        mass = float(measure.total_mass)
        if math.isinf(mass):
            raise ValueError("only finite-mass jump measures can be simulated")
        if mass > 0 and measure.sampler is None:
            raise ValueError("jump measure has positive mass but no sampler")
        controls = field.control_grid.points
        if tuple(policy.controls) != controls:
            raise ValueError("policy was built for another control grid")
        self.field, self.policy, self.x0 = field, policy, float(x0)
        self.n_steps = max(1, int(round(T / dt)))
        self.dt_eff = T / self.n_steps

        # two states tell a state-free one-row jump table from a single state's row
        self.btab = np.zeros(len(controls))
        self.stab = np.zeros(len(controls))
        self.per_state = np.zeros(len(controls), dtype=bool)
        for ci, f in enumerate(controls):
            b, s = _coefficients(field, f, np.full(2, self.x0))
            if b.ndim == 0 and s.ndim == 0:
                self.btab[ci], self.stab[ci] = b, s
            else:
                self.per_state[ci] = True
        # as intp: the recorded indices are uint8, where -1 would wrap to 255
        lo = policy.indices.min(axis=1).astype(np.intp)
        one = (lo == policy.indices.max(axis=1)) & ~self.per_state[lo]
        self.single = np.where(one, lo, -1)


def _steps(plan, rng, n):
    """Advance n paths to T, yielding (t, x, jumps) after each step.

    t is the step's end time and x the paths' states there; the next step
    rebinds x to a new array, so a reader may keep the one it got.  jumps
    holds one (marks, applied sizes) pair per round of jumps in the step.
    A step whose knot row names one state-free control looks up no cell:
    its coefficients are that control's scalars, which round as arrays of
    equal entries do, and each round of jumps is one jump-map call.
    """
    field, policy, dt_eff = plan.field, plan.policy, plan.dt_eff
    measure = field.reference
    mass = float(measure.total_mass)
    controls = field.control_grid.points
    sq = math.sqrt(dt_eff)
    any_per_state = bool(plan.per_state.any())

    x = np.full(n, plan.x0)
    for step in range(plan.n_steps):
        t = step * dt_eff
        ci = int(plan.single[policy.knot(t)])
        if ci >= 0:
            beff, sig = plan.btab[ci], plan.stab[ci]
        else:
            fidx = np.asarray(policy.control_indices(t, x), dtype=int)
            beff = plan.btab[fidx]
            sig = plan.stab[fidx]
            if any_per_state:
                for c in np.unique(fidx[plan.per_state[fidx]]):
                    m = fidx == c
                    beff[m], sig[m] = _coefficients(field, controls[c], x[m])
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
            if ci >= 0:
                groups = [(ci, slice(None))]
            else:
                fa = fidx[act]
                groups = [(c, fa == c)
                          for c in np.flatnonzero(np.bincount(fa, minlength=len(controls)))]
            for c, mm in groups:
                sel = act[mm]
                k = np.asarray(
                    field.jump_density_map(controls[c], x[sel], z[mm]), dtype=float
                )
                applied[mm] = np.broadcast_to(k, sel.shape)
            x[act] = x[act] + applied
            jumps.append((z, applied))
        if not np.all(np.isfinite(x)):
            raise RuntimeError(f"non-finite state after jumps at step {step}")
        yield (step + 1) * dt_eff, x, jumps


def sample_path(
    field: CoefficientField,
    policy: PolicySchedule,
    x0: float,
    T: float,
    dt: float,
    seed: int,
) -> SamplePath:
    """One path, deterministic in the seed; each jump is stamped with its step's time."""
    plan = _Plan(field, policy, x0, T, dt)
    times, states, jump_log = [0.0], [float(x0)], []
    for t, x, jumps in _steps(plan, _chunk_rng(seed, 0), 1):
        times.append(t)
        states.append(float(x[0]))
        for marks, applied in jumps:
            jump_log.extend((t, float(z), float(k)) for z, k in zip(marks, applied))
    return SamplePath(np.asarray(times), np.asarray(states), tuple(jump_log))


def _terminals(field, policy, x0, T, dt, n_paths, seed, collect_jumps=False):
    """Terminal states of n_paths paths, CHUNK at a time from child streams.

    With ``collect_jumps`` it returns (terminal states, every applied jump
    size) instead.  The chunks are dealt over the usable cores, at most one
    process per core, and joined in chunk order (see the module docstring),
    so the result is the same bit for bit however many processes ran them.
    """
    plan = _Plan(field, policy, x0, T, dt)
    starts = range(0, n_paths, CHUNK)

    def run(c):
        sizes = []
        for _, x, jumps in _steps(plan, _chunk_rng(seed, c), min(CHUNK, n_paths - starts[c])):
            if collect_jumps:
                sizes.extend(applied for _, applied in jumps)
        return x, np.concatenate(sizes) if sizes else np.empty(0)

    results = _pool.map_chunks(run, len(starts))
    terms = np.concatenate([x for x, _ in results])
    if collect_jumps:
        return terms, np.concatenate([sizes for _, sizes in results])
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

