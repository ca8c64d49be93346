"""Explicit monotone finite-difference solver for the control-envelope PIDE.

The value field u(t, x) starts at the terminal payoff and evolves by
``u += dt * sup_f L_f u`` where each one-control operator uses upwind first
differences for the effective drift (raw drift minus the jump compensator,
which shares the drift stencil), a centered second difference for the
diffusion, and a linearly interpolated quadrature of u(x + jump) for the
jump part, with constant extension outside the domain.  Every stencil
weight off the diagonal is nonnegative under the reported CFL step, which
is what makes the scheme monotone and the discrete field a semigroup
(constants preserved, pointwise monotone in the payoff, stable in sup
norm).

The envelope holds every control's operator as rows of coefficients, and
controls with identical jump tables share one jump term.  The route of a
term is read from the table's shape (the contract in ``core``): a one-row
table is state-free and becomes one row of a stacked correlation kernel
(conv), applied with the other conv rows by one batched FFT per step whose
length is bounded by the grid, as the taps off the grid are folded into
edge weights; any other table is interpolated node by node (gather), and a
zero-mass measure has no jump term at all.  The envelope applies itself
into buffers it owns and ``solve`` sizes its timeline before it marches,
so no step allocates a new stack or row, except on the gather route: each
gather term forms (nx, nz) temporaries and a new row at every step.

Control f's operator on w sums ((bp*dp + bm*dm) + ca*(dp + dm)) + jump -
mass*w, where bp and bm are the upwind weights of its effective drift and
ca = a / (2 dx^2).  The envelope holds one drift row per (jump row, drift
source) pair, sorted jump-major so that each jump row's drift rows are one
slice, and the march takes the sup on rows only:

    max over jump rows g of [(max_b drift_{b,g} + max_a diff_a) + jump_g] - mass*w

A field may declare which control coordinate alone drives the drift, the
dispersion and the jump map (``CoefficientField.control_axes``, which
``kou.build_field`` sets).  When its grid holds more than one control and
every combination of those coordinates' values, the drift sources are the
drift values and the diffusion is held apart, one row of ca per variance
value; the compensator couples drift and jump, hence one drift row per
pair.  Any other field has one drift source per control and folds its
diffusion into the upwind weights, (bp + ca)*dp + (bm + ca)*dm, so that
max_a diff_a drops out.  Round-to-nearest ``fl(a + c)`` is monotone in a
and in c, so either way this gives the bits of the max of the full
per-control sums; and ``fl(ca * s)`` is monotone in ca for s of either
sign, so max_a diff_a is the larger of the products of s = dp + dm with
the pointwise largest and smallest ca, Peng's G-heat nonlinearity,
whatever the number of variance values.  A march that records the policy
forms the full sums and takes their max and their argmax: a1 < a2 can
round to a tie once a shared row is added, so only the full sums break
ties as the per-control operators do.  The record is a
``PolicySchedule``, the feedback rule that the Monte Carlo in ``simulate``
runs its paths under.

Stepping is performed on w = u - u[mid] so a constant payoff propagates
bitwise unchanged regardless of quadrature summation order.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np

from .core import CoefficientField, _coefficients

__all__ = [
    "PolicySchedule",
    "SpatialGrid",
    "ValueField",
    "cfl_timestep",
    "restart",
    "solve",
    "viscosity_residual",
]


@dataclasses.dataclass(frozen=True)
class SpatialGrid:
    """Uniform 1-d grid on [x_min, x_max] with nx >= 3 nodes."""

    x_min: float
    x_max: float
    nx: int

    def __post_init__(self):
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max) and self.x_min < self.x_max):
            raise ValueError("need finite x_min < x_max")
        if isinstance(self.nx, bool) or not isinstance(self.nx, (int, np.integer)) or self.nx < 3:
            raise ValueError("need an integer nx >= 3")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.nx - 1)

    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)

    def inner_mask(self, fraction: float = 0.6) -> np.ndarray:
        """Boolean mask of the central ``fraction`` of nodes (boundary layer cut)."""
        if not 0 < fraction <= 1:
            raise ValueError("fraction must be in (0, 1]")
        margin = 0.5 * (1.0 - fraction) * (self.x_max - self.x_min)
        xs = self.xs()
        return (xs >= self.x_min + margin) & (xs <= self.x_max - margin)


@dataclasses.dataclass(frozen=True)
class PolicySchedule:
    """Piecewise-constant-in-time feedback rule on the solver's spatial grid.

    ``indices[m, c]`` is the control-grid index used from elapsed time
    ``time_knots[m]`` on, for states nearest node c of ``grid``; with
    ``grid`` None there is one cell and every state uses column 0.  Knots
    start at 0 and increase strictly.  ``controls`` are the points the
    indices name.  The rule ``solve(..., policy=True)`` records takes, from
    knot m on, the argmax of the march's step at remaining time
    T - knots[m], ties to the first control in grid order, with one byte
    per entry while there are at most 256 controls.
    """

    time_knots: np.ndarray
    indices: np.ndarray
    grid: SpatialGrid | None
    controls: tuple

    def __post_init__(self):
        knots = np.asarray(self.time_knots, dtype=float)
        idx = np.asarray(self.indices)
        object.__setattr__(self, "time_knots", knots)
        object.__setattr__(self, "indices", idx)
        if knots.ndim != 1 or knots.size == 0 or knots[0] != 0.0:
            raise ValueError("time knots must start at 0")
        if not np.all(np.isfinite(knots)) or np.any(np.diff(knots) <= 0):
            raise ValueError("time knots must be finite and increase strictly")
        if self.grid is not None and not isinstance(self.grid, SpatialGrid):
            raise ValueError("grid must be a SpatialGrid or None")
        if not np.issubdtype(idx.dtype, np.integer):
            raise ValueError("indices must be integers")
        n_cells = 1 if self.grid is None else self.grid.nx
        if idx.shape != (knots.size, n_cells):
            raise ValueError("indices must be one row per knot over the cells")
        if idx.size and (idx.min() < 0 or idx.max() >= len(self.controls)):
            raise ValueError("control index out of range")

    @classmethod
    def constant(cls, controls, index: int = 0) -> "PolicySchedule":
        return cls(time_knots=np.array([0.0]), indices=np.array([[index]]), grid=None,
                   controls=tuple(controls))

    @property
    def shares(self) -> np.ndarray:
        """Each control's share of the (knot, cell) entries: the worst-case model map."""
        n = len(self.controls)
        # row by row: one bincount of the whole table would copy it as intp, 8x its bytes
        return sum(np.bincount(row, minlength=n) for row in self.indices) / self.indices.size

    def knot(self, t: float) -> int:
        """Index of the knot row in force at elapsed time t."""
        return max(int(np.searchsorted(self.time_knots, t + 1e-12, side="right")) - 1, 0)

    def control_indices(self, t: float, x) -> np.ndarray:
        """Control-grid indices for states x at elapsed time t.

        A state takes its nearest grid node, ties to the even node; states
        beyond the grid take the edge node.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        row = self.indices[self.knot(t)]
        g = self.grid
        if g is None:
            return np.full(x.shape, row[0])
        # divide by dx: multiplying by 1/dx can move a state at a tie
        u = (x - g.x_min) / g.dx
        np.clip(u, 0, g.nx - 1, out=u)
        return row.take(np.rint(u, out=u).astype(np.intp))


@dataclasses.dataclass(frozen=True)
class ValueField:
    """Solved timeline: values[i] approximates the semigroup image at times[i].

    ``policy`` is the feedback rule the march recorded (``solve(...,
    policy=True)``), on ``grid``, and None otherwise.
    """

    grid: SpatialGrid
    times: np.ndarray
    values: np.ndarray
    metadata: dict
    policy: PolicySchedule | None = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if times.ndim != 1 or values.shape != (times.size, self.grid.nx):
            raise ValueError("values must be one row per time over the grid")
        if times.size == 0:
            raise ValueError("the timeline is empty; it must hold the row at t = 0")
        if times[0] != 0.0 or np.any(np.diff(times) <= 0):
            raise ValueError("times must start at 0 and increase strictly")

    def terminal_value(self, x):
        """Linear interpolation of the last row (constant beyond the edges)."""
        return np.interp(np.asarray(x, dtype=float), self.grid.xs(), self.values[-1])

    def write_csv(self, path) -> None:
        """Write ``t,x,u``, one line per (time, node), every float via repr."""
        xs = [f"{x!r}," for x in self.grid.xs().tolist()]
        with open(path, "w") as fh:
            fh.write("t,x,u\n")
            # row by row: the whole timeline as Python floats costs ~19 MB more
            for t, row in zip(self.times.tolist(), self.values):
                head = f"{t!r},"
                fh.write("".join([f"{head}{x}{v!r}\n" for x, v in zip(xs, row.tolist())]))


def _fft_length(n: int) -> int:
    """Smallest 2**a * 3**b * 5**c >= n: a length numpy's FFT transforms fast."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


class _ConvBlock:
    """Every state-free jump term, one row each, applied with one FFT of w.

    Row j is ``sum_m taps[j, m] * w[clip(i + m, 0, nx - 1)]``: the taps that
    stay on the grid correlate with w zero-padded to ``n_fft`` (the wrap-around
    lands on the padding), and those that leave it sum, once, to the edge
    weights of ``left[i] * w[0] + right[i] * w[-1]``.  On-grid offsets reach
    at most nx - 1 nodes, so ``n_fft`` is at most ``_fft_length(2 nx - 1)``
    whatever the jump sizes.
    """

    def __init__(self, kappas, weights, dx, out):
        nx = out.shape[1]
        self.out = out  # (rows, nx), overwritten by every call
        taps = np.zeros((len(kappas), 2 * nx + 1))  # interpolation taps at offsets -nx..nx
        for row, kappa in zip(taps, kappas):
            pos = kappa / dx
            i0 = np.floor(pos)
            frac = pos - i0
            # an offset beyond +-nx reads the edge value at every node, as +-nx does
            at = np.clip(np.concatenate([i0, i0 + 1.0]), -nx, nx).astype(int) + nx
            np.add.at(row, at, np.concatenate([weights * (1.0 - frac), weights * frac]))
        self._left = np.ascontiguousarray(np.cumsum(taps[:, :nx], axis=1)[:, ::-1])  # offsets < -i
        self._right = np.cumsum(taps[:, :nx:-1], axis=1)  # offsets > nx - 1 - i
        on_grid = np.flatnonzero(np.any(taps[:, 1:-1] != 0.0, axis=0)) - (nx - 1)
        self.n_fft = _fft_length(nx + int(np.abs(on_grid).max(initial=0)))
        kernel = np.zeros((len(kappas), self.n_fft))
        kernel[:, :nx] = taps[:, nx:-1]  # offsets 0..nx-1
        kernel[:, self.n_fft - nx + 1 :] += taps[:, 1:nx]  # offsets 1-nx..-1, wrapped
        self._kernel = np.conj(np.fft.rfft(kernel))
        self._spec = np.empty(self._kernel.shape[1], dtype=complex)
        self._prod = np.empty_like(self._kernel)
        self._corr = np.empty_like(kernel)

    def __call__(self, w):
        np.fft.rfft(w, self.n_fft, out=self._spec)
        np.multiply(self._kernel, self._spec, out=self._prod)
        np.fft.irfft(self._prod, self.n_fft, out=self._corr)
        corr = self._corr[:, : w.size]
        np.multiply(self._left, w[0], out=self.out)
        self.out += corr
        self.out += np.multiply(self._right, w[-1], out=corr)


def _gather_term(ktab, weights, dx, nx):
    """Jump term of a state-dependent table: interpolate w at every x + jump."""
    pos = np.clip(np.arange(nx)[:, None] + ktab / dx, 0.0, nx - 1.0)
    idx = np.minimum(np.floor(pos).astype(int), nx - 2)
    frac = pos - idx
    lo = 1.0 - frac

    def term(w):
        return (w[idx] * lo + w[idx + 1] * frac) @ weights

    return term


def _compensator(field, ktab, weights):
    """Truncated-jump compensator of a jump table, one value per table row.

    A one-row table is state-free and gives a plain number.
    """
    h = np.asarray(field.truncation.evaluate(ktab), dtype=float)
    if h.shape[0] == 1:
        return float(h[0] @ weights)
    return (h * weights[None, :]).sum(axis=1)


class _Envelope:
    """Every control's spatial operator on one grid, held as rows of coefficients.

    Each control's operator on w = u - u[mid] is linear in w and zero on
    w = 0, which keeps constants exact.  Control f applies ((bp*dp + bm*dm)
    + ca*(dp + dm)) + jump - mass*w, where bp and bm are the upwind weights
    of its effective drift (drift minus the compensator of its jump table)
    and ca = a / (2 dx^2).  Each source control is read once, through
    ``core._coefficients``, and the envelope keeps one list of the distinct
    jump tables, by their bytes, one-row (conv) tables first: each is one
    row of ``_jumps``, so controls with byte-identical tables share it and
    tie exactly.  There is one drift row per (jump row, drift source) pair,
    sorted jump-major, so that each jump row's drift rows are one slice of
    ``_drift``.

    ``per_axis`` says that the diffusion is held apart: the field declares
    ``control_axes`` and its grid holds more than one control and every
    combination of the axes' values.  Its drift sources are the drift axis's
    values and the envelope holds n_a ``ca`` rows, so its size follows the
    axes' values, not the controls; a drift row whose drift and compensator
    are both state-free is upwind on one side only, so it is one product.
    Any other field has one drift source per control, so its drift rows are
    its controls stably sorted by jump row, and folds its diffusion into the
    upwind weights, (bp + ca)*dp + (bm + ca)*dm, leaving ``_ca`` None.

    ``apply`` forms the (n_controls, nx) stack in control order; ``sup`` is
    its max over the controls, bit for bit, and never forms it.  The stacks
    are allocated at the first ``apply``.
    """

    def __init__(self, field: CoefficientField, grid: SpatialGrid):
        xs = grid.xs()
        dx = grid.dx
        nx = grid.nx
        controls = field.control_grid.points
        quad = field.reference.quadrature
        self.mass = quad.mass
        axes = field.control_axes
        keys = [tuple(f[i] for i in axes) for f in controls] if axes is not None else []
        # every combination of the axes' values is on the grid, and there is more than one
        # control to split (one control's folded row is the cheaper step): split by axis
        self.per_axis = len(keys) > 1 and len(set(keys)) == math.prod(map(len, map(set, zip(*keys))))
        if not self.per_axis:
            keys = [(i, i, i) for i in range(len(controls))]
        # read each source control once: the first control with each value of an axis
        firsts = ({}, {}, {})  # per axis: each value's source index, first seen first
        drifts, disps, jump_of = [], [], []  # per source: its drift, dispersion, jump table
        tables = {}  # each distinct jump table, by its bytes, first seen first
        for f, key in zip(controls, keys):
            new = [k not in first for k, first in zip(key, firsts)]
            if not any(new):
                continue
            drift, disp, ktab = _coefficients(field, f, xs)
            for k, first in zip(key, firsts):
                first.setdefault(k, len(first))
            if new[0]:
                drifts.append(drift)
            if new[1]:
                disps.append(disp)
            if new[2] and self.mass != 0.0:
                jump_of.append(tables.setdefault(ktab.tobytes(), ktab))
        drift_at, disp_at, jump_at = ([first[k] for k in ax] for first, ax in zip(firsts, zip(*keys)))
        b = np.array([np.broadcast_to(v, xs.shape) for v in drifts])
        sig = np.array([np.broadcast_to(v, xs.shape) for v in disps])
        a = sig * sig
        kappas = sorted(tables.values(), key=lambda t: len(t) > 1)  # conv (one-row) tables first
        n_conv = sum(len(t) == 1 for t in kappas)
        self.routes = sorted({"conv" if len(t) == 1 else "gather" for t in kappas}) or ["none"]
        # with no jump term, one row of zeros: apply still adds 0.0, as it always has
        self._jumps = np.zeros((max(1, len(kappas)), nx))
        comp = np.zeros_like(self._jumps)
        for row, ktab in zip(comp, kappas):
            row[:] = _compensator(field, ktab, quad.weights)
        conv = [t[0] for t in kappas[:n_conv]]
        self._conv = _ConvBlock(conv, quad.weights, dx, self._jumps[:n_conv]) if conv else None
        self._gathers = [(row, _gather_term(t, quad.weights, dx, nx))
                         for row, t in zip(self._jumps[n_conv:], kappas[n_conv:])]
        row_of_table = {id(t): i for i, t in enumerate(kappas)}
        jump_rows = [row_of_table[id(jump_of[j])] for j in jump_at] if kappas else [0] * len(controls)
        pairs = sorted(set(zip(jump_rows, drift_at)))  # jump-major
        g_of, b_of = (list(v) for v in zip(*pairs))
        # the one CFL denominator, checked before the upwind weights divide by dx; its drift
        # sup uses |drift| + |compensator|
        b_max = float((np.abs(b[b_of]) + np.abs(comp[g_of])).max())
        self.denom = float(a.max()) / (dx * dx) + b_max / dx + self.mass
        if not math.isfinite(self.denom):
            raise ValueError("the CFL denominator a_max/dx^2 + b_max/dx + jump rate overflows a float")
        eff = b[b_of] - comp[g_of]
        bps = np.maximum(eff, 0.0) / dx
        bms = np.maximum(-eff, 0.0) / dx
        ca = a / (2.0 * dx * dx)
        if self.per_axis:
            self._ca = ca
            # a row of ca*s is monotone in ca, so its max over the rows takes one of these two
            self._ca_lo = ca.min(axis=0)
            self._ca_hi = ca.max(axis=0)
        else:  # one drift row per control: its diffusion folds into the upwind weights
            bps += ca[b_of]
            bms += ca[b_of]
            self._ca = None
        row_of = {pair: i for i, pair in enumerate(pairs)}
        self._at = np.array([[row_of[p] for p in zip(jump_rows, drift_at)], disp_at, jump_rows])
        ends = list(itertools.accumulate(map(g_of.count, range(len(self._jumps)))))
        self._groups = [slice(lo, hi) for lo, hi in zip([0, *ends], ends)]
        self._rows = np.zeros((6, nx))
        dp, dm = self._rows[:2]
        self._upwind = []  # each drift row's (coefficient, difference) terms
        for bp, bm, (g, j) in zip(bps, bms, pairs):
            if self.per_axis and np.ndim(drifts[j]) == 0 and g not in range(n_conv, len(kappas)):
                # a state-free effective drift is upwind on one side only
                terms = [(bp[0], dp)] if bp[0] > 0 else [(bm[0], dm)]
            else:
                terms = [(bp, dp), (bm, dm)]
            self._upwind.append(terms)
        self._drift = np.empty_like(eff)
        self._best = np.empty_like(self._jumps)
        self._stacks = None  # the (n_controls, nx) buffers, from the first apply

    def timestep(self, safety: float, dt_max: float) -> float:
        """Stable explicit step safety / denom, capped at ``dt_max``."""
        if not 0.0 < safety <= 1.0:
            raise ValueError("safety must be in (0, 1]")
        if not dt_max > 0:
            raise ValueError(f"dt_max must be positive, got {dt_max!r}")
        if self.denom == 0.0:
            return float(dt_max)
        step = min(safety / self.denom, dt_max)
        if step == 0.0:
            raise ValueError(f"safety {safety!r} / CFL denominator {self.denom!r} underflows to a zero step")
        return float(step)

    def _fill_rows(self, u):
        """Fill the jump and drift rows; return w = u - u[mid] and s = dp + dm."""
        dp, dm, s, w, _, tmp = self._rows  # dp[-1] and dm[0] stay 0
        np.subtract(u, u[u.size // 2], out=w)
        np.subtract(w[1:], w[:-1], out=dp[:-1])
        np.negative(dp[:-1], out=dm[1:])
        if self._conv is not None:
            self._conv(w)
        for row, term in self._gathers:
            row[:] = term(w)
        for row, ((c, d), *rest) in zip(self._drift, self._upwind):
            np.multiply(c, d, out=row)
            for c, d in rest:
                row += np.multiply(c, d, out=tmp)
        return w, np.add(dp, dm, out=s)

    def apply(self, u):
        """The (n_controls, nx) stack of L_f u, in control order, in a buffer the next call overwrites."""
        w, s = self._fill_rows(u)
        if self._stacks is None:
            stack = np.empty((self._at.shape[1], u.size))
            self._stacks = stack, np.empty_like(stack), None if self._ca is None else np.empty_like(self._ca)
        out, tmp, diff = self._stacks
        at_drift, at_disp, at_jump = self._at
        # every index is valid; mode="raise" would copy through a buffer
        np.take(self._drift, at_drift, axis=0, out=out, mode="clip")
        if self._ca is not None:
            np.multiply(self._ca, s, out=diff)
            out += np.take(diff, at_disp, axis=0, out=tmp, mode="clip")
        out += np.take(self._jumps, at_jump, axis=0, out=tmp, mode="clip")
        out -= np.multiply(self.mass, w, out=self._rows[4])
        return out

    def sup(self, u, out):
        """max_f L_f u into ``out``: bit for bit ``apply(u).max(axis=0)``."""
        w, s = self._fill_rows(u)
        best, tmp = self._best, self._rows[5]
        for rows, row in zip(self._groups, best):
            _max_rows(self._drift[rows], row)
        if self._ca is not None:
            diff = self._rows[4]
            np.multiply(self._ca_hi, s, out=diff)
            best += np.maximum(diff, np.multiply(self._ca_lo, s, out=tmp), out=diff)
        best += self._jumps
        _max_rows(best, out)
        out -= np.multiply(self.mass, w, out=tmp)
        return out


def _max_rows(rows, out):
    """Max over the first axis into ``out``, one ``np.maximum`` per row: faster than a reduction."""
    np.maximum(rows[0], rows[-1], out=out)
    for row in rows[1:-1]:
        np.maximum(out, row, out=out)
    return out


def cfl_timestep(field: CoefficientField, grid: SpatialGrid, safety: float, *, dt_max: float = 1.0) -> float:
    """Stable explicit step: safety / (a_max/dx^2 + b_max/dx + jump_rate).

    ``a_max`` is the squared-dispersion sup, ``b_max`` the sup of
    |drift| + |jump compensator| over controls and grid nodes, and the jump
    rate is the quadrature mass.  Zero coefficients cap the step at
    ``dt_max``.  A denominator that overflows a float, or a step that
    underflows to 0, raises ``ValueError``: no explicit step is stable.
    """
    return _Envelope(field, grid).timestep(safety, dt_max)


def _landings(T, checkpoints, dt):
    """Solve's schedule: each time in (0, T] it lands on, in order, and its steps of at most dt to it."""
    t = 0.0
    for target in sorted({c for c in (*checkpoints, float(T)) if 0.0 < c <= T}):
        yield target, max(1, math.ceil((target - t) / dt - 1e-12))
        t = target


def solve(
    field: CoefficientField,
    psi,
    T: float,
    grid: SpatialGrid,
    safety: float = 0.9,
    *,
    dt_max: float = 1.0,
    checkpoints=(),
    every_step: bool = False,
    policy: bool = False,
) -> ValueField:
    """March the payoff forward: u(0) = psi, u(t + dt) = u(t) + dt sup_f L_f u.

    ``psi`` is a callable on states or an array over the grid.  Checkpoint
    times (and T itself) are landed on exactly by shortening steps.  Rows
    are stored at 0, at each landed checkpoint and at T; ``every_step``
    stores every step taken instead, so the timeline resolution is the CFL
    step.  ``policy`` records the argmax control of every step, and of the
    row at T, as the field's ``PolicySchedule``: (steps + 1) * nx bytes with
    at most 256 controls, where the every-step timeline takes 8 bytes per
    entry.  The march, its values and ``metadata`` are the same whatever
    is kept.  The jump quadrature must resolve the measure's mass on its
    window (``QuadratureError`` otherwise).
    """
    checkpoints = [float(c) for c in checkpoints]
    if not (0.0 <= T < math.inf and all(map(math.isfinite, checkpoints))):
        raise ValueError(f"need finite T >= 0 and checkpoints, got {T!r}, {checkpoints!r}")
    xs = grid.xs()
    u = np.array(psi(xs) if callable(psi) else psi, dtype=float)
    if u.shape != xs.shape:
        raise ValueError("psi must give one value per grid node")
    if not np.all(np.isfinite(u)):
        raise ValueError("psi must be finite on the grid")
    field.reference.validate_mass()
    env = _Envelope(field, grid)
    dt = env.timestep(safety, dt_max)
    psi_sup = float(np.max(np.abs(u)))

    times = [0.0]
    sub_dts = []  # sub_dts[k - 1] is the step that ends at times[k]
    landed = []
    t = 0.0
    for target, n_sub in _landings(T, checkpoints, dt):
        span = target - t
        sub_dt = span / n_sub
        if sub_dt > dt * (1.0 + 1e-9):
            raise RuntimeError(
                f"internal CFL violation: step {sub_dt} exceeds stable step {dt}"
            )
        times += [t + (i + 1) * sub_dt for i in range(n_sub)]
        sub_dts += [sub_dt] * n_sub
        t = target
        times[-1] = t  # land exactly, clearing accumulated roundoff
        landed.append(len(times) - 1)
    kept = range(len(times)) if every_step else [0, *landed]
    values = np.empty((len(kept), grid.nx))
    values[0] = u
    row_of = dict(zip(kept, values))  # step index -> its stored row
    # a step not kept lands in the scratch row its predecessor does not hold
    scratch = np.empty((2, grid.nx))
    sup = env.sup
    if policy:
        controls = field.control_grid.points
        picks = np.empty((len(times), grid.nx), dtype=np.min_scalar_type(len(controls) - 1))
        rows = iter(picks[::-1])  # the march runs in remaining time, the policy in elapsed time
        pick = np.empty(grid.nx, dtype=np.intp)  # np.argmax writes intp only

        def sup(u, out):
            """env.sup(u, out) as the max of the full sums; their argmax is the next policy row."""
            stack = env.apply(u)
            np.argmax(stack, axis=0, out=pick)
            next(rows)[:] = pick
            return np.max(stack, axis=0, out=out)

    for k, sub_dt in enumerate(sub_dts, start=1):
        step = sup(u, row_of.get(k, scratch[k % 2]))
        step *= sub_dt
        u = np.add(u, step, out=step)
        if not np.all(np.isfinite(u)):
            raise RuntimeError(f"non-finite value at step {k}, t = {times[k]}")
    recorded = None
    if policy:
        sup(u, scratch[0])  # the row at T
        knots = times[-1] - np.array(times[::-1])
        knots[0] = 0.0
        recorded = PolicySchedule(knots, picks, grid, controls)

    max_sub = max(sub_dts, default=0.0)
    tail_rate = field.reference.tail_mass_outside_window()
    metadata = {
        "scheme": "explicit-upwind-monotone",
        "nx": grid.nx,
        "dt": dt,
        "max_substep": max_sub,
        "n_steps": len(sub_dts),
        "safety": safety,
        "cfl_ratio": max_sub * env.denom,
        "tail_mass_rate": tail_rate,
        "tail_value_error_bound": 2.0 * psi_sup * tail_rate * float(T),
        "psi_sup": psi_sup,
        "routes": env.routes,
    }
    return ValueField(grid=grid, times=[times[k] for k in kept], values=values,
                      metadata=metadata, policy=recorded)


def viscosity_residual(fieldU: ValueField, field: CoefficientField, t_index: int) -> np.ndarray:
    """Centered-in-time defect d_t u - sup_f L_f u at an interior stored time.

    The field must hold every step (``solve(..., every_step=True)``); a
    field whose metadata records no step count is taken as it is.
    """
    if fieldU.metadata.get("n_steps", fieldU.times.size - 1) != fieldU.times.size - 1:
        raise ValueError(
            "viscosity_residual reads every step, but this field keeps only its "
            "landed rows; solve with every_step=True"
        )
    nt = fieldU.times.size
    if not 0 < t_index < nt - 1:
        raise ValueError(f"t_index must be interior to 0..{nt - 1}")
    u = fieldU.values[t_index]
    du = (fieldU.values[t_index + 1] - fieldU.values[t_index - 1]) / (
        fieldU.times[t_index + 1] - fieldU.times[t_index - 1]
    )
    return du - _Envelope(field, fieldU.grid).sup(u, np.empty_like(u))


def restart(
    fieldU: ValueField,
    field: CoefficientField,
    s: float,
    additional: float,
    safety: float | None = None,
) -> ValueField:
    """Re-solve from the stored row at time s for ``additional`` more time.

    The semigroup law says the result at time t matches the direct solve at
    s + t up to scheme error.  As with ``solve``, ``additional = 0`` gives
    the row as a one-time field.
    """
    idx = int(np.argmin(np.abs(fieldU.times - s)))
    if not abs(float(fieldU.times[idx]) - s) <= 1e-9:
        stored = np.array2string(fieldU.times, threshold=10)
        raise ValueError(
            f"time {s} not in the stored timeline {stored}; "
            "pass s in the checkpoints of the solve"
        )
    use_safety = fieldU.metadata.get("safety", 0.9) if safety is None else safety
    return solve(field, fieldU.values[idx], additional, fieldU.grid, use_safety)
