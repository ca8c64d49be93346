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
(conv), applied with the other conv rows by one FFT of w and one batched
inverse FFT per step, whose length is bounded by the grid, as the taps off
the grid are folded into edge weights, and is a 5-smooth multiple of 4
(``_fft_length``); any other table is interpolated node by node (gather), and a
zero-mass measure has no jump term at all.  The jump rate is one more node
of every table, at 0 with weight -mass, so a jump row holds J w - mass*w.
The envelope builds its step once, as a flat list of numpy calls bound
(``functools.partial``) to the rows and views it owns, and a step forms
w and runs that list into a row the envelope owns: no step re-walks the
layout.  The calls take their output positionally, as a keyword costs
each call a dict, except ``np.maximum``, whose third positional argument
is deprecated.  ``solve`` sizes its timeline before it marches, so no
step allocates a new row, except on the gather route: each gather term
forms (nx, nz + 1) temporaries and a new row at every step.  Every call
but the FFTs and the conv edges' matmul is 1-D, as numpy allocates an
iterator buffer the size of its output for a 2-D broadcast or strided
call; the conv block multiplies and adds its rows one at a time.  A march
that records the policy runs a second list, the same calls with the pick
calls among them, so it reads the policy off the same maxes and never
forms the (controls, nx) stack of full sums.

The envelope is built in two parts.  The preflight, ``_preflight``, reads
the controls through ``core._sources``, takes the distinct jump tables and
their compensators, forms the effective drift rows, and returns them with
the CFL denominator and the count of the entries the envelope will hold;
it forms nothing of size (rows, nx) when the reads are state-free.
``cfl_timestep`` and the CLI's config check call only the preflight.  The
allocation, ``_Envelope``, builds the rows from the preflight's results and
takes its denominator from it, so a solve reads and evaluates each
coefficient once.  A max does not depend on its order, so the denominator
has the bits of the max over the full rows.

Control f's operator on w sums ((bp*dp + bm*dm) + ca*(dp + dm)) + jump,
where bp and bm are the upwind weights of its effective drift (its drift
less the compensator of its jump table), ca = a / (2 dx^2) and jump = J w -
mass*w.  The march holds one difference row, d = (0, w[1:] - w[:-1], 0),
so dp = d[1:] and dm = -d[:-1]: a bm*dm term is the coefficient -bm on
d[:-1], and dp + dm = d[1:] - d[:-1].  IEEE arithmetic gives x + (-y) = x -
y and (-c)*y = -(c*y), so these are the bits of the sums with dm.  An upwind
term whose coefficient is a plain 0 is no term, and a drift row without
terms is zeros, filled once.

A field may declare which control coordinate alone drives the drift, the
dispersion and the jump map (``CoefficientField.control_axes``, which
``kou.build_field`` sets).  Where its grid holds more than one control and
every combination of those coordinates' values, and every jump row has the
same compensator, the effective drift does not depend on the jump row, and
the envelope splits by axis: one drift row per drift value, one row of ca
per variance value, and the sup is three maxes,

    (max_b drift_b + max_a diff_a) + max_g jump_g

Every Kou field splits: its jumps are symmetric and its truncation odd, so
each compensator is a sum within its rounding error of 0, which
``_compensator`` returns as 0.0.  Any other field has one drift row per
control, stably sorted by jump row, and folds its diffusion into the upwind
weights, (bp + ca)*dp + (bm + ca)*dm; its sup is the max over the jump rows
g of jump_g plus the max of the drift rows of g's controls.  Round-to-nearest
``fl(a + c)`` is monotone in a and in c, so either way this gives the bits
of the max of the full per-control sums; and ``fl(ca * s)`` is monotone in
ca for s of either sign, so max_a diff_a is the larger of the products of s
= dp + dm with the pointwise largest and smallest ca, Peng's G-heat
nonlinearity, whatever the number of variance values.  The same
monotonicity gives the policy: on a field split by axis, the control of
the first drift row, the first variance row and the first jump row that
attain their part's max has a full sum equal to the sup, bit for bit, and
a table keyed by the three rows names it; on any other field, it is the
first control in grid order whose full sum (its drift row plus its jump
row) equals the sup.  The record is a ``PolicySchedule``, the feedback rule
that the Monte Carlo in ``simulate`` runs its paths under.

Stepping is performed on w = u - u[mid] so a constant payoff propagates
bitwise unchanged regardless of quadrature summation order.  The march
checks that its values are finite where it stores a row: a node that is
not finite stays so, as u + dt*S is not finite wherever u is.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from functools import partial

import numpy as np

from .core import CoefficientField, _sources

__all__ = [
    "PolicySchedule",
    "SpatialGrid",
    "ValueField",
    "cfl_timestep",
    "restart",
    "solve",
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
    knot m on, a control whose full sum attains the march's step at
    remaining time T - knots[m], bit for bit, with one byte per entry while
    there are at most 256 controls.  Where several attain it, a field that
    splits by axis (``pide``'s module docstring) takes the first drift
    value, the first variance and the first jump table to attain their
    part's max, each in the order of the first control to read it
    (state-free tables before the others), and the first control in grid
    order with those three; any other field takes the first control in grid
    order.  So the split field takes the first control in grid order too,
    unless full sums tie only after rounding, or the grid's order does not
    follow its axes' (a state-dependent table read before a state-free one,
    or points out of axis order).
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

    def knot(self, t):
        """Index of the knot row in force at elapsed time t; elementwise for an array t."""
        return np.maximum(np.searchsorted(self.time_knots, t + 1e-12, side="right") - 1, 0)

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


# nodes of u.csv formed and written at a time: about 170 KB of text, 0.7 MB traced
_CSV_CHUNK = 4096


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
        """Write ``t,x,u``, one line per (time, node), every float via repr.

        Each row goes out in chunks of ``_CSV_CHUNK`` nodes, each chunk's
        text formed as it is written, so the writer holds the grid's nodes
        and one chunk's text, not a row's.
        """
        xs = self.grid.xs()
        with open(path, "w") as fh:
            fh.write("t,x,u\n")
            for t, row in zip(self.times.tolist(), self.values):
                head = f"{t!r},"
                for at in range(0, row.size, _CSV_CHUNK):
                    chunk = zip(xs[at : at + _CSV_CHUNK].tolist(), row[at : at + _CSV_CHUNK].tolist())
                    fh.write("".join([f"{head}{x!r},{v!r}\n" for x, v in chunk]))


def _fft_length(n: int) -> int:
    """Smallest 4 * 2**a * 3**b * 5**c >= n: a length numpy's FFT transforms fast.

    Where it differs from the smallest 5-smooth length it transforms faster:
    2500 against 2430 at 1601 nodes, 1280 against 1215 at 801.
    """
    n = -(-n // 4) * 4
    while True:
        m = n // 4
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 4


class _ConvBlock:
    """Every state-free jump term, one row each, applied with one FFT of w.

    Row j is ``sum_m taps[j, m] * w[clip(i + m, 0, nx - 1)]``: the taps that
    stay on the grid correlate with w zero-padded to ``n_fft`` (the wrap-around
    lands on the padding), and those that leave it sum, once, to the edge
    weights of ``left[i] * w[0] + right[i] * w[-1]``, held stacked as
    ``edges[j] = (left, right)``.  On-grid offsets reach at most nx - 1
    nodes, so ``n_fft`` is at most ``_fft_length(2 nx - 1)`` whatever the
    jump sizes.  ``calls`` fill ``out`` from the row ``w``, bound once to
    views built here: the ``rfft`` of w, the kernel multiply a row, the
    batched ``irfft``, the edge ``matmul`` and the correlation add a row.
    The multiplies and adds are 1-D, so a call allocates no iterator buffer.
    """

    def __init__(self, kappas, weights, dx, w, out):
        nx = out.shape[1]
        taps = np.zeros((len(kappas), 2 * nx + 1))  # interpolation taps at offsets -nx..nx
        for row, kappa in zip(taps, kappas):
            pos = kappa / dx
            i0 = np.floor(pos)
            frac = pos - i0
            # an offset beyond +-nx reads the edge value at every node, as +-nx does
            at = np.clip(np.concatenate([i0, i0 + 1.0]), -nx, nx).astype(int) + nx
            np.add.at(row, at, np.concatenate([weights * (1.0 - frac), weights * frac]))
        left = np.cumsum(taps[:, :nx], axis=1)[:, ::-1]  # offsets < -i
        right = np.cumsum(taps[:, :nx:-1], axis=1)  # offsets > nx - 1 - i
        edges = np.stack([left, right], axis=1)
        on_grid = np.flatnonzero(np.any(taps[:, 1:-1] != 0.0, axis=0)) - (nx - 1)
        self.n_fft = n = _fft_length(nx + int(np.abs(on_grid).max(initial=0)))
        kernel = np.zeros((len(kappas), n))
        kernel[:, :nx] = taps[:, nx:-1]  # offsets 0..nx-1
        kernel[:, n - nx + 1 :] += taps[:, 1:nx]  # offsets 1-nx..-1, wrapped
        spectrum = np.conj(np.fft.rfft(kernel))
        spec, prod, corr = np.empty(spectrum.shape[1], dtype=complex), np.empty_like(spectrum), np.empty_like(kernel)
        self.calls = [partial(np.fft.rfft, w, n, -1, None, spec),
                      *(partial(np.multiply, k, spec, p) for k, p in zip(spectrum, prod)),
                      partial(np.fft.irfft, prod, n, -1, None, corr),
                      partial(np.matmul, w[:: nx - 1], edges, out),
                      *(partial(np.add, row, c, row) for row, c in zip(out, corr[:, :nx]))]


def _gather_term(ktab, weights, dx, w, row):
    """Jump term of a state-dependent table into ``row``: interpolate w at every x + jump."""
    nx = w.size
    pos = np.clip(np.arange(nx)[:, None] + ktab / dx, 0.0, nx - 1.0)
    idx = np.minimum(np.floor(pos).astype(int), nx - 2)
    frac = pos - idx
    lo = 1.0 - frac

    def term():
        row[:] = (w[idx] * lo + w[idx + 1] * frac) @ weights

    return term


def _compensator(field, ktab, weights):
    """Truncated-jump compensator of a jump table, one value per table row.

    A one-row table is state-free and gives a value without a state axis.
    A row's sum of nz terms h*w carries a rounding error of at most nz eps
    sum |h w|; a sum within that bound cannot be told from 0 and comes back
    exactly 0.0.  A symmetric jump law under an odd truncation, as on every
    Kou field, gives such sums, so its drift does not couple to its jump
    rows.
    """
    h = np.asarray(field.truncation(ktab), dtype=float)
    comp = h @ weights
    comp[np.abs(comp) <= h.shape[1] * np.finfo(float).eps * (np.abs(h) @ np.abs(weights))] = 0.0
    return comp.squeeze()


def _preflight(field: CoefficientField, grid: SpatialGrid):
    """The march's CFL denominator and the envelope's size, from the coefficient reads alone.

    Returns ``(denom, entries, layout)``.  ``denom`` is a_max/dx^2 +
    b_max/dx + mass, where a_max is the squared-dispersion sup and b_max the
    sup of |drift| + |compensator|, pointwise, over the (jump row, drift
    read) pairs; a denominator that overflows a float raises ``ValueError``.
    ``entries`` counts the floats of the envelope built on ``layout``: the
    arrays it holds, its rows of picks for the policy march included, and
    its build's compensator rows and conv taps.  ``layout`` is what
    ``_Envelope`` allocates from: the effective drift rows, the dispersion
    rows, the distinct jump tables, whether the field splits by axis, and
    each control's jump, drift and dispersion row.  The reads are those of
    ``core._sources``, each distinct read once.  A field splits by axis
    where its grid holds more than one control and every combination of the
    sources, and every jump row has the same compensator (the same bytes):
    its drift rows are the drift reads less that compensator.  Any other
    field has one drift and one dispersion row per control, its drift less
    its own jump row's compensator, stably sorted by jump row.  Nothing of
    size (rows, nx) is formed when the reads are state-free.
    """
    dx, nx = grid.dx, grid.nx
    quad = field.reference.quadrature
    drifts, disps, tables, at = _sources(field, grid.xs())
    drift_at, disp_at, jump_at = at.tolist()
    n = len(drift_at)
    # each distinct jump table once, by its bytes, first seen first, conv (one-row) tables
    # first; none with zero mass
    names = [t.tobytes() for t in tables] if quad.mass != 0.0 else []
    distinct = dict(zip(names, tables))
    row_of_table = {k: i for i, k in enumerate(sorted(distinct, key=lambda k: len(distinct[k]) > 1))}
    kappas = [distinct[k] for k in row_of_table]
    # with no jump term, one jump row of zeros: the sup adds 0.0
    comps = [_compensator(field, t, quad.weights) for t in kappas] or [0.0]
    jump_rows = [row_of_table[names[j]] for j in jump_at] if kappas else [0] * n
    # the one CFL denominator, checked before the upwind weights divide by dx
    a_max = max(float(np.max(v * v)) for v in disps)
    b_max = max(float(np.max(np.abs(drifts[j]) + np.abs(comps[g]))) for g, j in set(zip(jump_rows, drift_at)))
    denom = a_max / (dx * dx) + b_max / dx + quad.mass
    if not math.isfinite(denom):
        raise ValueError("the CFL denominator a_max/dx^2 + b_max/dx + jump rate overflows a float")
    # split by axis where there is more than one control (one control's folded row is the
    # cheaper step), every combination of the sources is a control, and the effective drift
    # does not depend on the jump row
    per_axis = (n > 1 and len(set(zip(drift_at, disp_at, jump_at))) == len(drifts) * len(disps) * len(tables)
                and len({np.broadcast_to(c, (nx,)).tobytes() for c in comps}) == 1)
    if per_axis:
        effs = [b - comps[0] for b in drifts]
    else:  # one drift and one dispersion row per control, stably sorted by jump row
        order = sorted(range(n), key=jump_rows.__getitem__)
        effs = [drifts[drift_at[c]] - comps[jump_rows[c]] for c in order]
        disps = [disps[disp_at[c]] for c in order]
        drift_at = disp_at = np.argsort(order).tolist()  # control c's drift and dispersion row
    n_conv = sum(len(t) == 1 for t in kappas)
    # the conv FFT's length, from the farthest on-grid tap a conv table reaches (see _ConvBlock)
    n_fft = _fft_length(nx + min(nx - 1, max((int(np.abs(t).max() / dx) + 1 for t in kappas[:n_conv]), default=1)))
    # rows of nx: the drift rows and their two upwind weights; per jump row, its compensator,
    # which the preflight forms for a gather table, and its jump row; the ca rows; split by
    # axis, one best row and the least and largest ca, and otherwise a best row per jump row;
    # 3 rows of picks; 6 scratch rows.  Each conv row's taps, edge weights, kernel, spectra and
    # correlation take at most 4 (nx + n_fft + 2), and each gather table, with its node for
    # the jump rate, three (nx, nz + 1) arrays.  The step's bound calls take about 320 B (40
    # entries) each, their views included: at most six a drift row (its upwind terms, its max
    # and, split by axis, its pick), three a ca row or, where the field does not split, a
    # control's pick, four a jump row, two a conv row, and 12 more
    rows = 3 * len(effs) + 2 * len(comps) + len(disps) + (3 if per_axis else len(comps)) + 3 + 6
    calls = 6 * len(effs) + 3 * (len(disps) if per_axis else n) + 4 * len(comps) + 2 * n_conv + 12
    entries = (nx * rows + 4 * n_conv * (nx + n_fft + 2) + 3 * nx * (quad.nodes.size + 1) * (len(kappas) - n_conv)
               + 40 * calls)
    return denom, entries, (effs, disps, kappas, per_axis, jump_rows, drift_at, disp_at, n_conv)


def _step(denom: float, safety: float, dt_max: float) -> float:
    """The one step rule: safety / denom, capped at ``dt_max``; no cap on a zero denominator.

    ``solve`` (on its envelope's ``denom``), ``cfl_timestep`` and the CLI's
    config check (on ``_preflight``'s) all take their step here.
    """
    if not 0.0 < safety <= 1.0:
        raise ValueError("safety must be in (0, 1]")
    if not dt_max > 0:
        raise ValueError(f"dt_max must be positive, got {dt_max!r}")
    if denom == 0.0:
        return float(dt_max)
    step = min(safety / denom, dt_max)
    if step == 0.0:
        raise ValueError(f"safety {safety!r} / CFL denominator {denom!r} underflows to a zero step")
    return float(step)


class _Envelope:
    """Every control's spatial operator on one grid, held as rows of coefficients.

    Each control's operator on w = u - u[mid] is linear in w and zero on
    w = 0, which keeps constants exact.  Control f applies ((bp*dp + bm*dm)
    + ca*(dp + dm)) + jump, where bp and bm are the upwind weights of its
    effective drift (drift minus the compensator of its jump table), ca =
    a / (2 dx^2) and jump = J w - mass*w.  The step holds one difference
    row d, with dp = d[1:] and dm = -d[:-1], so each drift row's
    terms are (bp, d[1:]) and (-bm, d[:-1]).  The rows come from
    ``_preflight``: the effective drift rows, and one list of the distinct
    jump tables, by their bytes, one-row (conv) tables first, each one row
    of ``_jumps``, so controls with byte-identical tables share it and tie
    exactly.  Each compensator is taken on its table before the jump rate
    joins it as a node at 0.

    ``per_axis`` says that the field splits by axis (``_preflight``): its
    drift rows are the drift axis's values and the envelope holds n_a
    ``ca`` rows, so its size follows the axes' values, not the controls,
    and ``_groups`` is one group, every drift row with every jump row.  The
    pointwise least and largest ``ca`` are plain numbers when every
    dispersion read is state-free.  A state-free effective drift row is
    upwind on one side only, so it is one product, or none where its
    effective drift is 0: that row is zeros.  Any other field has one drift
    row per control, stably sorted by jump row, and folds its diffusion into
    the upwind weights, (bp + ca)*dp + (bm + ca)*dm, leaving ``_ca`` None;
    ``_groups`` holds each jump row with the slice of ``_drift`` of its
    controls.

    The build binds the step as a list of calls, ``_calls``, in the order
    of the sums above: the difference row, the conv block's calls
    (``_ConvBlock``), each gather term, the upwind terms, s and the ``ca``
    max where the field splits by axis, then each group's jump max, its
    drift max (none for a lone row, which is its own max) and its sum, and
    the max over the groups into ``_out``, the first group's row.
    ``_pick_calls`` is the same list with the pick calls among them: between
    the part maxes and the sums on a field split by axis, after the max over
    the groups otherwise.  ``sup`` is the max of the full per-control sums,
    bit for bit, and never forms them all: with a pick row it also records
    a control that attains it, from the maxes it takes (``_index``,
    ``_table``; see ``sup``).
    """

    def __init__(self, field: CoefficientField, grid: SpatialGrid):
        dx, nx = grid.dx, grid.nx
        quad = field.reference.quadrature
        self.denom, _, layout = _preflight(field, grid)
        effs, disps, kappas, self.per_axis, jump_rows, drift_at, disp_at, n_conv = layout
        self.routes = sorted({"conv" if len(t) == 1 else "gather" for t in kappas}) or ["none"]
        # with no jump term, one jump row of zeros: the sup adds 0.0
        self._jumps = np.zeros((len(kappas) or 1, nx))
        d = np.zeros(nx + 1)  # first differences of w, d[0] = d[nx] = 0
        dp, dm = d[1:], d[:-1]
        self._rows = np.zeros((4, nx))
        s, w, diff, tmp = self._rows
        self._w = w
        self._mid = nx // 2
        # the step: each call bound once to the rows it reads and writes, out positionally but
        # for np.maximum (a third positional argument is deprecated there)
        calls = [partial(np.subtract, w[1:], w[:-1], d[1:-1])]
        # the jump rate is one more node, at 0 with weight -mass: a jump row holds J w - mass*w
        weights = np.append(quad.weights, -quad.mass)
        conv = [np.append(t[0], 0.0) for t in kappas[:n_conv]]
        self._conv = _ConvBlock(conv, weights, dx, w, self._jumps[:n_conv]) if conv else None
        calls += self._conv.calls if conv else []
        calls += [_gather_term(np.pad(t, ((0, 0), (0, 1))), weights, dx, w, row)
                  for row, t in zip(self._jumps[n_conv:], kappas[n_conv:])]
        ca = np.array([np.broadcast_to(v * v / (2.0 * dx * dx), (nx,)) for v in disps])
        self._ca = ca if self.per_axis else None
        self._drift = np.zeros((len(effs), nx))  # a row without terms stays 0
        for k, (row, v) in enumerate(zip(self._drift, effs)):
            bp, bm = np.maximum(v, 0.0) / dx, np.maximum(-v, 0.0) / dx
            if self._ca is None:  # one drift row per control: its diffusion folds into the upwind weights
                bp, bm = bp + ca[k], bm + ca[k]
            # the dm = -d[:-1] term of a drift row is the coefficient -bm on d[:-1]
            terms = [(bp, dp), (-bm, dm)]
            if np.ndim(bp) == 0:
                # a state-free effective drift is upwind on one side only, and one of 0 on none
                terms = [(c, x) for c, x in terms if c != 0.0]
            if terms:
                (c, x), *rest = terms
                calls.append(partial(np.multiply, c, x, row))
                for c, x in rest:
                    calls += [partial(np.multiply, c, x, tmp), partial(np.add, row, tmp, row)]
        if self.per_axis:
            # a row of ca*s is monotone in ca, so its max over the rows takes the least or the
            # largest ca, plain numbers when every dispersion read is state-free
            lo, hi = ca.min(axis=0), ca.max(axis=0)
            if all(np.ndim(v) == 0 for v in disps):
                lo, hi = float(lo[0]), float(hi[0])
            calls += [partial(np.subtract, dp, dm, s), partial(np.multiply, hi, s, diff),
                      partial(np.multiply, lo, s, tmp), partial(np.maximum, diff, tmp, out=diff)]
            self._groups = [(slice(None), list(self._jumps))]
        else:  # each jump row with the slice of its controls' drift rows
            ends = list(itertools.accumulate(map(jump_rows.count, range(len(self._jumps)))))
            self._groups = [(slice(lo, hi), [row]) for lo, hi, row in zip([0, *ends], ends, self._jumps)]
        # the sup is the max of the groups' sums, written into the first
        best = np.empty((len(self._groups), nx))
        self._out = best[0]
        # a pick is ``_table`` at a key, the sum of three labels, each that of the first row of
        # its part to attain the part's max.  Split by axis, the parts are the drift, ca and
        # jump rows, each labelled by its index times a stride; otherwise one part, the full
        # sums, each labelled by its control's drift row, and the other two labels stay 0.
        # Each row is compared last first, so the first row's label lands last
        self._index, mask = np.zeros((3, nx), dtype=np.intp), np.empty(nx, dtype=bool)
        key, at_ca, at_jump = self._index
        n_ca, n_jump = len(ca), len(self._jumps)

        def first(index, label, row, best):  # label into index where row equals best
            return [partial(np.equal, row, best, mask), partial(np.copyto, index, label, "same_kind", mask)]

        picks, split = [], None
        for (drifts, jumps), row in zip(self._groups, best):
            jump_calls, jump = _max_calls(jumps, tmp)
            drift_calls, top = _max_calls(self._drift[drifts], row)
            calls += jump_calls + drift_calls
            if self.per_axis:  # one group, every drift row and jump row; its part maxes are whole
                for k in reversed(range(len(self._drift))):
                    picks += first(key, k * n_ca * n_jump, self._drift[k], top)
                for k in reversed(range(n_ca)):  # w is free by now: each ca*s is formed into it
                    picks += [partial(np.multiply, ca[k], s, w), *first(at_ca, k * n_jump, w, diff)]
                for k in reversed(range(n_jump)):
                    picks += first(at_jump, k, self._jumps[k], jump)
                picks += [partial(np.add, key, at_ca, key), partial(np.add, key, at_jump, key)]
                split = len(calls)  # the picks go between the part maxes and the sums
                calls += [partial(np.add, top, diff, row), partial(np.add, row, jump, row)]
            else:
                calls.append(partial(np.add, top, jump, row))
        calls += _max_calls(best, self._out)[0]
        if self.per_axis:
            keys = [(d * n_ca + a) * n_jump + g for d, a, g in zip(drift_at, disp_at, jump_rows)]
        else:  # each control's full sum, its drift row plus its jump row, against the sup
            keys = drift_at
            for r, g in reversed(list(zip(drift_at, jump_rows))):
                picks += [partial(np.add, self._drift[r], self._jumps[g], tmp), *first(key, r, tmp, self._out)]
        # each key's first control
        self._table = np.unique(keys, return_index=True)[1].astype(np.min_scalar_type(len(keys) - 1))
        self._calls = calls
        split = len(calls) if split is None else split
        self._pick_calls = [*calls[:split], *picks, *calls[split:]]

    def sup(self, u, pick=None):
        """max_f L_f u, into a row the envelope owns; with a ``pick`` row, the index of a control that attains it.

        The row is overwritten by the next call.  A call forms w = u - u[mid]
        and runs the step's calls, bound once at build; with a pick row it
        runs the same calls with the pick calls among them, so the row has
        the same bits, those of the max of the full per-control sums.  On a
        field that splits by axis, the pick is the control of the first drift
        row, the first ``ca`` row (by its product with s) and the first jump
        row that attain their part's max; rounding an addition is monotone, so
        its full sum is the max.  On any other field it is the first control
        in grid order whose full sum, its drift row plus its jump row, equals
        the max.
        """
        np.subtract(u, u[self._mid], self._w)
        for call in self._calls if pick is None else self._pick_calls:
            call()
        if pick is not None:
            # every key is valid; mode="raise" would copy through a buffer
            np.take(self._table, self._index[0], out=pick, mode="clip")
        return self._out


def _max_calls(rows, out):
    """The calls that take the max over the first axis into ``out``, and the row that holds it.

    One ``np.maximum`` a row is faster than a reduction.  A lone row is its
    own max, with no call: max(r, r) is r, bit for bit.
    """
    if len(rows) == 1:
        return [], rows[0]
    return [partial(np.maximum, rows[0], rows[-1], out=out),
            *(partial(np.maximum, out, row, out=out) for row in rows[1:-1])], out


def cfl_timestep(field: CoefficientField, grid: SpatialGrid, safety: float) -> float:
    """Stable explicit step: safety / (a_max/dx^2 + b_max/dx + jump_rate).

    ``a_max`` is the squared-dispersion sup, ``b_max`` the sup of
    |drift| + |jump compensator| over controls and grid nodes, and the jump
    rate is the quadrature mass.  The step is capped at 1.0, ``solve``'s
    default ``dt_max``, which zero coefficients give.  A denominator that
    overflows a float, or a step that underflows to 0, raises
    ``ValueError``: no explicit step is stable.
    The denominator comes from ``_preflight``, which reads the coefficients
    and builds no envelope, and the step from ``_step``, the rule ``solve``
    applies to its envelope's denominator.  The reads check the jump
    quadrature first, as ``solve``'s do, so one that misses the measure's
    mass raises ``QuadratureError``.
    """
    return _step(_preflight(field, grid)[0], safety, 1.0)


def _landings(T, checkpoints, dt):
    """Solve's schedule: each time in (0, T] it lands on, in order, and its steps of at most dt to it.

    A span takes n = max(1, ceil(span/dt - 1e-12)) steps, and one more where
    a step of span / n, computed as ``solve`` computes it, would exceed dt:
    a span over a multiple of dt by less than 1e-12 of it, or one that
    rounds so.  Every step is then at most dt.
    """
    t = 0.0
    for target in sorted({c for c in (*checkpoints, float(T)) if 0.0 < c <= T}):
        n = max(1, math.ceil((target - t) / dt - 1e-12))
        yield target, n + ((target - t) / n > dt)
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
    step.  ``policy`` records a control that attains the sup of every step,
    and of the row at T, as the field's ``PolicySchedule`` (its docstring
    gives the rule): (steps + 1) * nx bytes with at most 256 controls, where
    the every-step timeline takes 8 bytes per entry.  The envelope's sup
    records it as it takes the max, so both marches make one call a step.
    The march, its values and ``metadata`` are the same whatever is kept.
    The envelope's reads check the jump quadrature (``core._sources``): one
    that misses the measure's mass on its window, or a measure of infinite
    mass, raises ``QuadratureError``.  A march whose values leave the floats
    raises ``RuntimeError`` at the first stored row that is not finite; the
    step it names is that row's, not the step where the values first left
    the floats.
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
    env = _Envelope(field, grid)
    dt = _step(env.denom, safety, dt_max)
    psi_sup = float(np.max(np.abs(u)))

    times = [0.0]
    sub_dts = []  # sub_dts[k - 1] is the step that ends at times[k]
    landed = []
    t = 0.0
    for target, n_sub in _landings(T, checkpoints, dt):
        sub_dt = (target - t) / n_sub
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
    controls = field.control_grid.points
    picks = np.empty((len(times), grid.nx), dtype=np.min_scalar_type(len(controls) - 1)) if policy else None
    # each step's pick row, none without the policy; the march runs in remaining time, the
    # policy in elapsed time
    rows = iter(picks[::-1]) if policy else itertools.repeat(None)
    for k, sub_dt in enumerate(sub_dts, start=1):
        stored = row_of.get(k)
        target = scratch[k % 2] if stored is None else stored
        np.multiply(env.sup(u, next(rows)), sub_dt, out=target)
        u = np.add(u, target, out=target)
        # checked where a row is stored: a node that is not finite stays so, as u + dt*S is
        # not finite wherever u is
        if stored is not None and not np.all(np.isfinite(u)):
            raise RuntimeError(f"non-finite value by step {k}, t = {times[k]}")
    recorded = None
    if policy:
        env.sup(u, next(rows))  # the row at T
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
