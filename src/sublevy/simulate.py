"""Weak-control Monte Carlo for the controlled jump-diffusion.

Paths follow an Euler scheme for the continuous part plus compound-Poisson
jumps: the reference measure (finite mass only) drives jump times, marks
are drawn from its normalized law, and each jump applies the control's jump
map to the state after its step's diffusion, as the regular Euler scheme
for jump SDEs does.  The continuous drift is the raw drift minus the
truncated-jump compensator, so path laws match the generator the PIDE
solver discretizes.  Under one state-free control that law is a Levy jump
diffusion, whose increments over any interval can be drawn exactly; so a
run of steps under such a control is one Gaussian increment plus the run's
jumps, and ``dt`` sets the step only where the control changes with the
state or the time.  A control whose coefficients come back without a
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
after each run of steps; the estimators keep each chunk's terminal states.
Jumps are drawn a block of steps at a time, from each path's count over
the block and a uniform step for each of its events (the compound-Poisson
process from its jump times, not a count in every Euler step); a block
holds about one event per path.  A run is a stretch of steps inside one
block whose policy rows all name the same state-free control, and every
other step, which looks up its paths' cells, is a run of its own.  Each
run draws one normal per path and applies all its jumps at once, with
one jump-map call per control among them.

Reproducibility: paths are generated in fixed-size chunks, each from an
independent child stream of the seed, so a chunk's paths depend on the seed
and the chunk index alone.  A call deals its chunks round-robin over the
fork pool of ``_pool``: k workers, k being the usable cores capped at the
number of chunks, the calling process worker 0 and the others forked for
the call and reaped before it returns.  Results are joined in chunk order,
so estimates are bit-identical for a given seed whatever k is.
"""

from __future__ import annotations

import math

import numpy as np

from . import _pool, core
from .core import CoefficientField
from .pide import PolicySchedule, ValueField, _compensator

__all__ = [
    "CHUNK",
    "PolicySchedule",
    "estimate_value",
    "mc_lower_bound",
]

CHUNK = 4096


def _chunk_rng(seed: int, chunk: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(chunk,)))


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
    the policy names, or -1.  ``rows[k]`` is the knot row in force at step
    k, ``policy.knot(k * dt_eff)``.  ``block`` is the number of steps whose
    jumps are drawn at once: about one event per path, so a chunk's schedule
    holds O(paths) events at any jump rate.
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
        self.rate = mass * self.dt_eff
        # floor(1 / rate), capped at the horizon; the cap also keeps 1 / rate finite
        self.block = self.n_steps if self.rate * self.n_steps <= 1 else max(1, int(1 / self.rate))

        # each distinct read once, at two states: they tell a state-free one-row jump table
        # from a single state's row
        drifts, disps, tables, at = core._sources(field, np.full(2, self.x0))
        weights = measure.quadrature.weights
        comps = [_compensator(field, t, weights) if mass > 0 else 0.0 for t in tables]
        # each control's state-free reads, nan for a read with a state axis (the reader lets
        # no nan through); b - 0.0 is b, bit for bit
        b, s, c = (np.array([v if np.ndim(v) == 0 else np.nan for v in reads])[i]
                   for reads, i in zip((drifts, disps, comps), at))
        b = b - c
        self.per_state = np.isnan(b) | np.isnan(s)
        self.btab = np.where(self.per_state, 0.0, b)
        self.stab = np.where(self.per_state, 0.0, s)
        # as intp: the recorded indices are uint8, where -1 would wrap to 255
        lo = policy.indices.min(axis=1).astype(np.intp)
        one = (lo == policy.indices.max(axis=1)) & ~self.per_state[lo]
        self.single = np.where(one, lo, -1)
        self.rows = policy.knot(np.arange(self.n_steps) * self.dt_eff)


def _schedule(rng, n, rate, nb, sampler):
    """The jumps of n paths over a block of nb steps, in (step, path) order.

    Each path's count is Poisson(rate nb), and each event falls on a step
    drawn uniformly from the block: split so, the counts per (path, step)
    are independent Poisson(rate), as one draw per step would give.
    Returns ``(bounds, paths, marks)``: step j's events are ``bounds[j]``
    to ``bounds[j + 1]``, their paths in increasing order, and a path with
    m events in a step is listed m times.
    """
    counts = rng.poisson(rate * nb, n)
    # one int64 key per event, step-major then path; sorting it orders the events
    key = rng.integers(0, nb, int(counts.sum())) * n + np.repeat(np.arange(n), counts)
    key.sort()
    slots, paths = np.divmod(key, n)
    bounds = np.searchsorted(slots, np.arange(nb + 1)).tolist()
    # marks are i.i.d., drawn in event order
    return bounds, paths, sampler(rng.random(key.size))


def _steps(plan, rng, n):
    """Advance n paths to T, yielding (t, x, applied) after each run of steps.

    A run is a stretch of steps inside one block of ``plan.block`` whose
    knot rows all name the same state-free control (``plan.single``); a
    step that looks up cells is a run of its own.  t is the run's end time
    and x the paths' states there; the next run rebinds x to a new array,
    so a reader may keep the one it got.  applied holds the run's jump
    sizes, in event order.

    Every run takes one Euler step of its length h: each path's control
    (the run's one control, or its cell's at the run's start), then one
    Gaussian of mean beff h and variance sig^2 h, then all the run's
    scheduled jumps, each read by its path's control at the state after
    the diffusion and added by ``np.add.at`` one after another.  Under one
    state-free control that is one exact increment of the Levy process the
    control gives; a step that looks up cells is the regular Euler step
    for jump SDEs, every jump of the step read at the step's state.

    The stream draws, at the first step of each block and before that
    step's normals, the block's jump schedule (``_schedule``: per-path
    counts, each event's step, then the marks), and at every run n normals.
    """
    field, policy, dt_eff = plan.field, plan.policy, plan.dt_eff
    measure = field.reference
    controls = field.control_grid.points
    any_per_state = bool(plan.per_state.any())
    single = plan.single[plan.rows]
    # a run ends where the control changes, at a block's end, and around each lookup step
    cuts = (np.diff(single) != 0) | (single[1:] < 0)
    cuts[plan.block - 1::plan.block] = True
    starts = np.flatnonzero(np.concatenate(([True], cuts)))
    runs = zip(starts.tolist(), starts[1:].tolist() + [plan.n_steps], single[starts].tolist())

    x = np.full(n, plan.x0)
    # no events without jumps
    bounds, paths, marks = [0] * (plan.block + 1), np.empty(0, dtype=np.intp), np.empty(0)
    for step, end, ci in runs:
        j = step % plan.block
        if plan.rate > 0 and j == 0:
            nb = min(plan.block, plan.n_steps - step)
            bounds, paths, marks = _schedule(rng, n, plan.rate, nb, measure.sampler)
        if ci >= 0:
            fidx = np.full(n, ci)
        else:
            fidx = np.asarray(policy.control_indices(step * dt_eff, x), dtype=int)
        beff, sig = plan.btab[fidx], plan.stab[fidx]
        if any_per_state:
            for c in np.unique(fidx[plan.per_state[fidx]]):
                m = fidx == c
                beff[m], sig[m] = _coefficients(field, controls[c], x[m])
        h = (end - step) * dt_eff
        x = x + beff * h + sig * math.sqrt(h) * rng.standard_normal(n)
        if not np.all(np.isfinite(x)):
            raise RuntimeError(f"non-finite state after diffusion step {step}")
        lo, hi = bounds[j], bounds[j + end - step]
        act, z = paths[lo:hi], marks[lo:hi]
        fa = fidx[act]
        applied = np.empty(act.size)
        for c in np.flatnonzero(np.bincount(fa)):
            mm = fa == c
            sel = act[mm]
            k = np.asarray(field.jump_density_map(controls[c], x[sel], z[mm]), dtype=float)
            applied[mm] = np.broadcast_to(k, sel.shape)
        # unbuffered: a path's jumps are added one after another, in event order
        np.add.at(x, act, applied)
        # the other paths kept the finite states the diffusion check saw
        if not np.all(np.isfinite(x[act])):
            raise RuntimeError(f"non-finite state after jumps in steps {step} to {end - 1}")
        yield end * dt_eff, x, applied


def _terminals(field, policy, x0, T, dt, n_paths, seed, collect_jumps=False):
    """Terminal states of n_paths paths, CHUNK at a time from child streams.

    With ``collect_jumps`` it returns (terminal states, every applied jump
    size, in chunk, run and event order) instead.  The chunks are dealt
    over the usable cores, at most one process per core, and joined in
    chunk order (see the module docstring), so the result is the same bit
    for bit however many processes ran them.
    """
    plan = _Plan(field, policy, x0, T, dt)
    starts = range(0, n_paths, CHUNK)

    def run(c):
        sizes = []
        for _, x, applied in _steps(plan, _chunk_rng(seed, c), min(CHUNK, n_paths - starts[c])):
            if collect_jumps:
                sizes.append(applied)
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
    """Sample mean and standard error of psi at the terminal state.

    The jump measure must have finite mass and a sampler (``ValueError``
    otherwise), and its quadrature must resolve that mass on its window:
    the plan reads the controls through ``core._sources``, which raises
    ``QuadratureError`` on one that misses it.
    """
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

