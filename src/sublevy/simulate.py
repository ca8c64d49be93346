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
after each step; the estimators keep each chunk's terminal states.  A step
whose policy row names one state-free control skips the per-path cell
lookup.  Jumps are drawn a block of steps at a time, from each path's
count over the block and a uniform step for each of its events (the
compound-Poisson process from its jump times, not a count in every Euler
step); a block holds about one event per path, so a step with no jumps
draws only its normals.

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
    """The jumps of n paths over a block of nb steps, as rounds in step order.

    Each path's count is Poisson(rate nb), and each event falls on a step
    drawn uniformly from the block: split so, the counts per (path, step)
    are independent Poisson(rate), as one draw per step would give.  A path
    with m events in a step has one in each of that step's rounds 0..m-1.
    Returns ``(bounds, width, paths, marks)``: round r of step j is events
    ``bounds[j * width + r]`` to ``bounds[j * width + r + 1]``, its paths in
    increasing order, and a step has at most ``width`` rounds.
    """
    counts = rng.poisson(rate * nb, n)
    # one int64 key per event, step-major then path; sorting it orders the events
    key = rng.integers(0, nb, int(counts.sum())) * n + np.repeat(np.arange(n), counts)
    key.sort()
    # an event's round is its rank among the events of its (step, path)
    idx = np.arange(key.size)
    rank = idx - np.maximum.accumulate(np.where(np.diff(key, prepend=-1) != 0, idx, 0))
    width = int(rank.max(initial=0)) + 1
    if width > 1:  # rekey by (step, round, path): step n + path -> (step width + rank) n + path
        key += (key // n * (width - 1) + rank) * n
        key.sort()
    slots, paths = np.divmod(key, n)
    bounds = np.searchsorted(slots, np.arange(nb * width + 1)).tolist()
    # marks are i.i.d., drawn in event order
    return bounds, width, paths, sampler(rng.random(key.size))


def _steps(plan, rng, n):
    """Advance n paths to T, yielding (t, x, jumps) after each step.

    t is the step's end time and x the paths' states there; the next step
    rebinds x to a new array, so a reader may keep the one it got.  jumps
    holds one (marks, applied sizes) pair per round of jumps in the step.
    A step whose knot row names one state-free control looks up no cell:
    its coefficients are that control's scalars, which round as arrays of
    equal entries do, and each round of jumps is one jump-map call.

    The stream draws, at the first step of each block of ``plan.block``
    steps and before that step's normals, the block's jump schedule
    (``_schedule``: per-path counts, each event's step, then the marks), and
    at every step n normals.  A round holds the paths with a further jump in
    the step, in path order, and its jump map reads the states the round
    before left.
    """
    field, policy, dt_eff = plan.field, plan.policy, plan.dt_eff
    measure = field.reference
    controls = field.control_grid.points
    sq = math.sqrt(dt_eff)
    any_per_state = bool(plan.per_state.any())
    single = plan.single[plan.rows].tolist()

    x = np.full(n, plan.x0)
    width = 0  # rounds a step may hold; none without jumps
    for step in range(plan.n_steps):
        t = step * dt_eff
        j = step % plan.block
        if plan.rate > 0 and j == 0:
            nb = min(plan.block, plan.n_steps - step)
            bounds, width, paths, marks = _schedule(rng, n, plan.rate, nb, measure.sampler)
        ci = single[step]
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
        x = x + beff * dt_eff + sig * sq * dw
        if not np.all(np.isfinite(x)):
            raise RuntimeError(f"non-finite state after diffusion step {step}")
        jumps = []
        for r in range(j * width, (j + 1) * width):
            lo, hi = bounds[r], bounds[r + 1]
            if lo == hi:
                break
            act, z = paths[lo:hi], marks[lo:hi]
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
            # the other paths kept the finite states the diffusion check saw
            xa = x[act] + applied
            if not np.all(np.isfinite(xa)):
                raise RuntimeError(f"non-finite state after jumps at step {step}")
            x[act] = xa
            jumps.append((z, applied))
        yield (step + 1) * dt_eff, x, jumps


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

