"""Shared domain types for controlled jump-diffusion models.

A model is a family of Markovian coefficient triples (drift, dispersion,
jump map) indexed by points of a finite control grid, together with a
reference jump measure on the mark space.  This module owns the container
types, the reference-measure quadrature and its mass check, the push-forward
tail evaluation, and a sampling-based audit of the regularity the numerics
rely on (boundedness, Lipschitz increments in the state, jump-size
majorants).

Conventions: the engine is one-dimensional.  Coefficient callables follow
NumPy broadcasting -- ``drift(f, x)`` maps an array of states to an array
of drifts, and ``jump_density_map(f, x, z)`` broadcasts states against
marks (pass ``x[:, None]`` and ``z[None, :]`` for a full table).  A result
that comes back without a state axis (a number for drift or dispersion,
a single row for the jump table) declares that coefficient state-free.
The solver (its jump route), the Monte Carlo and the audit all rely on
this.  Every layer reads a control's coefficients on the quadrature nodes
through ``_coefficients``, the one reader: it keeps that shape and raises
``AuditError`` on a value that is not finite.  ``_sources`` reads all the
controls through it, each distinct coefficient once, for the solver's
envelope, the audit, the symbol sup and the Monte Carlo, and checks the
jump quadrature's mass (``JumpReferenceMeasure.validate_mass``) before it
reads: it is the one place that check is made.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from collections.abc import Callable

import numpy as np

__all__ = [
    "AuditError",
    "CoefficientField",
    "ConditionAudit",
    "ControlGrid",
    "JumpReferenceMeasure",
    "Quadrature",
    "QuadratureError",
    "audit_conditions",
    "clip_truncation",
    "pushforward_tail",
    "simpson_quadrature",
    "zero_jump_measure",
]


class QuadratureError(RuntimeError):
    """The reference-measure quadrature failed its own mass invariant."""


class AuditError(ValueError):
    """A coefficient field is structurally unusable (e.g. a coefficient that is not finite)."""


def clip_truncation(y):
    """The default truncation h: clip to [-1, 1] componentwise."""
    return np.clip(y, -1.0, 1.0)


@dataclasses.dataclass(frozen=True)
class ControlGrid:
    """Finite grid of control points, all of one dimension."""

    points: tuple

    def __post_init__(self):
        if not self.points:
            raise ValueError("control grid must be nonempty")
        if len(set(self.points)) != len(self.points):
            raise ValueError("control grid has duplicate points")
        for p in self.points:
            if len(p) != len(self.points[0]):
                raise ValueError(f"control point {p} has wrong dimension")

    @classmethod
    def uniform(cls, box_lo, box_hi, resolution) -> "ControlGrid":
        """Uniform per-axis grid of a box, in lexicographic order; an axis with lo == hi is one point."""
        lo = tuple(float(v) for v in np.atleast_1d(box_lo))
        hi = tuple(float(v) for v in np.atleast_1d(box_hi))
        if isinstance(resolution, (int, np.integer)):
            res = (int(resolution),) * len(lo)
        else:
            res = tuple(int(r) for r in resolution)
        if len(res) != len(lo) or any(r < 1 for r in res):
            raise ValueError("bad control resolution")
        axes = []
        for a, b, r in zip(lo, hi, res):
            if b < a:
                raise ValueError("control box has lo > hi")
            axes.append((a,) if a == b or r == 1 else tuple(float(v) for v in np.linspace(a, b, r)))
        return cls(points=tuple(itertools.product(*axes)))


@dataclasses.dataclass(frozen=True)
class Quadrature:
    """Nonnegative node/weight rule on [-z_cut, z_cut]; weights include the density."""

    nodes: np.ndarray
    weights: np.ndarray
    z_cut: float

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise ValueError("quadrature nodes/weights must be matching 1-d arrays")
        if np.any(weights < 0):
            raise ValueError("negative quadrature weight")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("quadrature nodes must be strictly increasing")

    @property
    def mass(self) -> float:
        return float(np.sum(self.weights))


def _simpson_weights(n: int, h: float) -> np.ndarray:
    w = np.full(n, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return w * (h / 3.0)


def simpson_quadrature(density, z_cut: float, nz: int) -> Quadrature:
    """Composite-Simpson rule for ``density`` on [-z_cut, z_cut].

    One panel set per half-line so a kink at the origin (double-exponential
    densities) does not degrade the rate; the shared node at 0 is merged.
    The rule has at least ``nz`` nodes.
    """
    if nz < 3:
        raise ValueError("nz must be >= 3")
    if z_cut <= 0:
        raise ValueError("z_cut must be positive")
    half = nz // 2 + 1
    if half % 2 == 0:
        half += 1
    left = np.linspace(-z_cut, 0.0, half)
    right = np.linspace(0.0, z_cut, half)
    w = _simpson_weights(half, z_cut / (half - 1))
    nodes = np.concatenate([left[:-1], right])
    weights = np.concatenate([w[:-1], w])
    weights[half - 1] += w[-1]  # merged node at z = 0
    vals = np.asarray(density(nodes), dtype=float)
    return Quadrature(nodes=nodes, weights=weights * vals, z_cut=float(z_cut))


@dataclasses.dataclass(frozen=True)
class JumpReferenceMeasure:
    """Reference measure on the mark space (the real line), held as its tails and quadrature.

    ``tail_upper(y)`` is the mass of [y, inf) and ``tail_lower(y)`` of
    (-inf, y]; both accept 0 as a one-sided limit.  The measure has no
    density: ``quadrature`` carries it on the window, its weights including
    the density.  ``total_mass`` may be ``math.inf``; such a measure still
    serves ``generator.apply_generator``, ``generator.symbol`` and
    ``pushforward_tail``, which read only the quadrature and the tails, but
    ``validate_mass`` rejects it, so no reader behind ``_sources`` takes it.
    The ``sampler`` (inverse CDF on (0,1), for the normalized measure)
    exists only when the mass is finite.
    """

    total_mass: float
    tail_upper: Callable[[float], float]
    tail_lower: Callable[[float], float]
    quadrature: Quadrature
    sampler: Callable[[np.ndarray], np.ndarray] | None = None

    def tail_mass_outside_window(self) -> float:
        z = self.quadrature.z_cut
        return float(self.tail_upper(z) + self.tail_lower(-z))

    def validate_mass(self) -> None:
        """Check the quadrature mass against the measure's mass on the window, to a relative 1e-4.

        That mass is ``total_mass`` less the tails outside the window, exact
        for any finite ``total_mass``, which catches a node spacing that
        misses a density peak.  An infinite ``total_mass`` is rejected by
        name: the window's mass cannot be read off the tails then.
        ``_sources`` calls this before it reads a coefficient, so every
        layer that reads the controls checks its quadrature here.
        """
        if not math.isfinite(self.total_mass):
            raise QuadratureError(
                f"total_mass is {self.total_mass!r}: the quadrature's mass can only be checked "
                "against a finite total mass"
            )
        ref = self.total_mass - self.tail_mass_outside_window()
        mass = self.quadrature.mass
        err = abs(mass - ref)
        if err > 1e-4 * max(1.0, abs(ref)):
            raise QuadratureError(
                f"quadrature mass {mass:.8g} vs window mass {ref:.8g} "
                f"(diff {err:.3g} > rtol 1e-4): the nodes do not resolve the density"
            )


def zero_jump_measure(z_cut: float = 1.0) -> JumpReferenceMeasure:
    """Jump-free reference measure (zero mass, no sampler)."""
    quad = Quadrature(nodes=np.array([0.0]), weights=np.array([0.0]), z_cut=z_cut)
    return JumpReferenceMeasure(
        total_mass=0.0,
        tail_upper=lambda y: 0.0,
        tail_lower=lambda y: 0.0,
        quadrature=quad,
        sampler=None,
    )


@dataclasses.dataclass(frozen=True)
class CoefficientField:
    """Controlled Markovian coefficients over a finite control grid.

    Callables broadcast elementwise over states.  ``truncation`` is the
    cutoff h that separates the small (compensated) jumps from the large
    ones: it acts componentwise, is bounded, equals the identity near 0 and
    is Lipschitz.  The solver and the generator compensate with any such
    function; ``kou.characteristic_exponent`` assumes an odd one, as
    ``clip_truncation`` is.
    ``declared_lipschitz`` bounds the sampled increment ratio
    (|drift| + |dispersion|) / |x - y|, ``declared_bound`` the pointwise
    |drift| + |dispersion| + capped jump second moment, and ``gamma``
    majorizes both the jump size and the jump increment ratio per mark; all
    three are optional and only checked by :func:`audit_conditions` when
    present.  ``state_box`` is the state range audits and symbol sups sample
    from.

    ``control_axes`` optionally declares, as three distinct coordinates of
    the control point, the one coordinate that alone drives the drift, the
    one that alone drives the dispersion and the one that alone drives the
    jump map.  The solver then takes its sup over the controls one axis at
    a time when the grid holds every combination of the axes' values.
    """

    drift: Callable
    dispersion: Callable
    jump_density_map: Callable
    reference: JumpReferenceMeasure
    truncation: Callable[[np.ndarray], np.ndarray]
    control_grid: ControlGrid
    declared_lipschitz: float | None = None
    declared_bound: float | None = None
    gamma: Callable[[np.ndarray], np.ndarray] | None = None
    state_box: tuple = (-10.0, 10.0)
    control_axes: tuple | None = None

    def __post_init__(self):
        lo, hi = self.state_box
        if not lo < hi:
            raise ValueError("state_box must be a nonempty interval")
        n_coords = len(self.control_grid.points[0])
        if self.control_axes is not None and (
            tuple(self.control_axes) not in itertools.permutations(range(n_coords), 3)
        ):
            raise ValueError("control_axes must name three distinct control coordinates")


@dataclasses.dataclass(frozen=True)
class ConditionAudit:
    """Result of a sampling audit; empty ``violations`` means all checks passed."""

    lipschitz_constant_estimate: float
    violations: tuple
    sup_drift_dispersion: float
    sup_jump_moment: float

    @property
    def passed(self) -> bool:
        return not self.violations

    @property
    def coefficient_bound(self) -> float:
        """Sampled sup(|b| + |sigma|) plus the sampled capped jump moment."""
        return self.sup_drift_dispersion + self.sup_jump_moment


def _jump_table(field, f, x):
    """Jump sizes at states x (rows) and quadrature nodes; one row if the map is state-free."""
    nodes = field.reference.quadrature.nodes
    k = np.asarray(field.jump_density_map(f, x[:, None], nodes[None, :]), dtype=float)
    return np.broadcast_to(k, np.broadcast_shapes(k.shape, (1, nodes.size)))


def _coefficients(field, f, x, wanted=(True, True, True)):
    """Control f's (drift, dispersion, jump table) at the 1-d states x, as the model returns them.

    A value without a state axis declares its coefficient state-free.  A
    value that is not finite raises ``AuditError`` naming the coefficient,
    the control and, when the value has a state axis, the first bad state.
    A coefficient that is not ``wanted`` is not read and comes back None.
    """
    values = (
        np.asarray(field.drift(f, x), dtype=float) if wanted[0] else None,
        np.asarray(field.dispersion(f, x), dtype=float) if wanted[1] else None,
        _jump_table(field, f, x) if wanted[2] else None,
    )
    for name, v in zip(("drift", "dispersion", "jump map"), values):
        if v is not None and not np.all(np.isfinite(v)):
            where = f"non-finite {name} at control {f}"
            if v.ndim and v.shape[0] == x.size:
                where += f", state {x[np.argwhere(~np.isfinite(v))[0][0]]}"
            raise AuditError(where)
    return values


def _sources(field, x):
    """Every distinct coefficient read of the controls at the 1-d states x, and each control's.

    Returns the drift, dispersion and jump-table reads, each as
    ``_coefficients`` returns it, in the order of the first control to make
    it, and ``at``, (3, n_controls) ints: control c's reads are
    ``drifts[at[0, c]]``, ``dispersions[at[1, c]]`` and ``tables[at[2, c]]``.
    On a field that declares ``control_axes`` the controls with the same
    value on an axis share that axis's read; any other control reads its own.
    It checks the field's jump quadrature first (``validate_mass``), so the
    envelope's preflight (``solve``, ``restart``, ``cfl_timestep`` and the
    CLI's config check), ``audit_conditions``, ``small_symbol_sup`` and the
    Monte Carlo all raise ``QuadratureError`` on one that misses its mass.
    """
    field.reference.validate_mass()
    controls, axes = field.control_grid.points, field.control_axes
    keys = [tuple(f[i] for i in axes) if axes is not None else (c,) * 3 for c, f in enumerate(controls)]
    reads, firsts = ([], [], []), ({}, {}, {})  # per coefficient: its reads, each key's read
    for f, key in zip(controls, keys):
        wanted = [k not in first for k, first in zip(key, firsts)]
        if any(wanted):
            for k, first, read, v in zip(key, firsts, reads, _coefficients(field, f, x, wanted)):
                if v is not None:
                    first[k] = len(read)
                    read.append(v)
    return (*reads, np.array([[first[k] for k in ax] for first, ax in zip(firsts, zip(*keys))]))


def audit_conditions(field: CoefficientField, sample_budget: int, rng_seed: int) -> ConditionAudit:
    """Spot-check boundedness, state-Lipschitz increments and jump majorants.

    Deterministic in ``rng_seed``.  States are drawn from ``field.state_box``;
    each is paired with a far partner and a near partner for increment
    ratios.  Violations are only recorded against constants the field
    declares (``declared_lipschitz``, ``declared_bound``, ``gamma``).

    Each check runs once per distinct coefficient read (see ``_sources``):
    the jump checks once per distinct jump table, the drift-dispersion
    checks once per distinct (drift, dispersion) pair.  The loop over the
    controls only joins a control's pair with its table for the coefficient
    bound, and records each control's witnesses in grid order, up to 50.
    """
    if sample_budget < 1:
        raise ValueError("sample_budget must be >= 1")

    rng = np.random.default_rng(rng_seed)
    lo, hi = field.state_box
    xs = rng.uniform(lo, hi, size=sample_budget)
    partners = (
        rng.uniform(lo, hi, size=sample_budget),
        np.clip(xs + rng.normal(0.0, 1e-3 * (hi - lo), size=sample_budget), lo, hi),
    )

    quad = field.reference.quadrature
    nodes, weights = quad.nodes, quad.weights
    slack = 1e-9
    cap = None if field.gamma is None else (
        np.asarray(field.gamma(nodes), dtype=float)[None, :] * (1.0 + slack))

    def over_cap(a):
        """The (row, node) where a most exceeds the declared gamma, or None."""
        if cap is None:
            return None
        excess = a - cap
        excess -= 1e-12  # in place, as the arrays are (budget, nodes)
        return np.unravel_index(int(np.argmax(excess)), excess.shape) if excess.max() > 0 else None

    # every distinct read at the samples and at each partner set; ``at`` is the same for all
    # three, as it depends on the controls only
    (drifts, dispersions, tables, at), *partner_reads = [_sources(field, s) for s in (xs, *partners)]
    apart = []  # each partner set with a state apart from its sample: ys, |x - y|, where, reads
    for ys, reads in zip(partners, partner_reads):
        dx = np.abs(xs - ys)
        ok = dx > 1e-12
        if ok.any():
            apart.append((ys, dx, ok, reads))

    # per distinct jump table: its capped moments, and its witnesses (size, then an
    # increment per partner set), each a (kind, witness without the control) or None
    sup_jump, moments, table_found = 0.0, [], []
    for t, kappa in enumerate(tables):
        moments.append((np.minimum(kappa * kappa, 1.0) * weights).sum(axis=1))
        sup_jump = max(sup_jump, float(moments[t].max()))
        size = np.abs(kappa)
        ij = over_cap(size)
        found = [ij and ("jump-size-majorant",
                         (float(xs[ij[0]]), float(nodes[ij[1]]), float(size[ij])))]
        for ys, dx, ok, reads in apart:
            diff = np.abs(kappa - reads[2][t])
            if len(diff) == 1:  # a state-free table's row, zero by the reader's contract
                inc = diff / dx[ok][:1, None]
            else:
                inc = diff[ok]
                inc /= dx[ok, None]
            ij = over_cap(inc)
            i = ij and int(np.flatnonzero(ok)[ij[0]])
            found.append(ij and ("jump-increment-majorant",
                                 (float(xs[i]), float(ys[i]), float(nodes[ij[1]]))))
        table_found.append(found)

    # per distinct (drift, dispersion) pair: its sup, and a Lipschitz witness per partner set
    sup_bs, lip_est, pair_found = 0.0, 0.0, {}
    for d, s in dict.fromkeys(zip(at[0], at[1])):
        b, sd = np.broadcast_to(drifts[d], xs.shape), np.broadcast_to(dispersions[s], xs.shape)
        sup_bs = max(sup_bs, float((np.abs(b) + np.abs(sd)).max()))
        found = pair_found[d, s] = []
        for ys, dx, ok, reads in apart:
            ratios = (np.abs(b - reads[0][d]) + np.abs(sd - reads[1][s]))[ok] / dx[ok]
            rmax = float(ratios.max())
            lip_est = max(lip_est, rmax)
            i = int(np.flatnonzero(ok)[np.argmax(ratios)])
            found.append(("drift-dispersion-lipschitz", (float(xs[i]), float(ys[i]), rmax))
                         if field.declared_lipschitz is not None
                         and rmax > field.declared_lipschitz * (1.0 + slack) + slack else None)

    violations: list = []
    for f, (d, s, t) in zip(field.control_grid.points, at.T):
        if len(violations) >= 50:
            break
        found = []
        if field.declared_bound is not None:
            total = np.abs(drifts[d]) + np.abs(dispersions[s]) + moments[t]
            if total.max() > field.declared_bound * (1.0 + slack) + slack:
                i = int(np.argmax(total))
                found.append(("coefficient-bound", (float(xs[i]), float(total[i]))))
        found += [table_found[t][0], *itertools.chain(*zip(pair_found[d, s], table_found[t][1:]))]
        violations += [(kind, (f, *w)) for kind, w in filter(None, found)][:50 - len(violations)]

    return ConditionAudit(
        lipschitz_constant_estimate=lip_est,
        violations=tuple(violations),
        sup_drift_dispersion=sup_bs,
        sup_jump_moment=sup_jump,
    )


def _bisect_edge(z_false, z_true, predicate, tol=1e-12, iters=80):
    """Refine a predicate sign change; predicate(z_true) holds, predicate(z_false) does not."""
    for _ in range(iters):
        mid = 0.5 * (z_false + z_true)
        if predicate(mid):
            z_true = mid
        else:
            z_false = mid
        if abs(z_true - z_false) <= tol:
            break
    return 0.5 * (z_true + z_false)


def _indicator_intervals(nodes, ind, predicate):
    """Maximal runs of True on the node mesh with bisection-refined endpoints.

    Returns (a, b) pairs; a run that touches an end of the mesh gets -inf or
    inf there, so it extends through the measure's tails.
    """
    intervals = []
    n = len(nodes)
    i = 0
    while i < n:
        if not ind[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and ind[j + 1]:
            j += 1
        a = -math.inf if i == 0 else _bisect_edge(nodes[i - 1], nodes[i], predicate)
        b = math.inf if j == n - 1 else _bisect_edge(nodes[j + 1], nodes[j], predicate)
        intervals.append((float(a), float(b)))
        i = j + 1
    return intervals


def _interval_mass(upper, lower, a, b):
    """Mass of [a, b], a <= b, under the tail functions ``upper`` and ``lower`` (atomless convention)."""
    if a >= 0:
        hi = 0.0 if math.isinf(b) else upper(b)
        return max(upper(a) - hi, 0.0)
    if b <= 0:
        lo = 0.0 if math.isinf(a) else lower(a)
        return max(lower(b) - lo, 0.0)
    return _interval_mass(upper, lower, a, 0.0) + _interval_mass(upper, lower, 0.0, b)


def _pushed_mass(upper, lower, nodes, k_nodes, k, y):
    """Mass, under the tails ``upper`` and ``lower``, that a map k sends at or beyond y.

    For y > 0 this is the mass of {z : k(z) >= y} (respectively <= y for
    y < 0).  The indicator's sign changes are located on the node mesh from
    ``k_nodes``, k at the nodes, refined by bisection on k itself, and the
    resulting intervals are integrated exactly through the tails; runs
    touching the mesh's ends extend to infinity through the tails.
    """
    if y == 0:
        raise ValueError("threshold must be nonzero")
    if y > 0:
        ind, predicate = k_nodes >= y, lambda z: k(z) >= y
    else:
        ind, predicate = k_nodes <= y, lambda z: k(z) <= y
    runs = _indicator_intervals(nodes, ind, predicate)
    return sum((_interval_mass(upper, lower, a, b) for a, b in runs), 0.0)


def pushforward_tail(field: CoefficientField, f, x, threshold: float) -> float:
    """Reference mass the jump map sends at or beyond ``threshold``.

    For ``threshold`` y > 0 this is the mass of {z : jump(f,x,z) >= y}
    (respectively <= y for y < 0); marks mapped exactly to 0 never qualify
    because y is nonzero.  The map is read on the quadrature node mesh and
    at single marks for the bisection; see ``_pushed_mass``.
    """
    measure = field.reference
    kappa = _coefficients(field, f, np.array([x], dtype=float))[2][0]

    def predicate(z):  # the map at one mark
        return float(np.asarray(field.jump_density_map(f, x, np.array([z])), dtype=float).reshape(-1)[0])

    return _pushed_mass(measure.tail_upper, measure.tail_lower, measure.quadrature.nodes, kappa,
                        predicate, threshold)
