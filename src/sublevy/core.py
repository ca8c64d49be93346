"""Shared domain types for controlled jump-diffusion models.

A model is a family of Markovian coefficient triples (drift, dispersion,
jump map) indexed by points of a finite control grid, together with a
reference jump measure on the mark space.  This module owns the container
types, the reference-measure quadrature, the push-forward tail evaluation,
and a sampling-based audit of the regularity the numerics rely on
(boundedness, Lipschitz increments in the state, jump-size majorants).

Conventions: the engine is one-dimensional.  Coefficient callables follow
NumPy broadcasting -- ``drift(f, x)`` maps an array of states to an array
of drifts, and ``jump_density_map(f, x, z)`` broadcasts states against
marks (pass ``x[:, None]`` and ``z[None, :]`` for a full table).  A result
that comes back without a state axis (a number for drift or dispersion,
a single row for the jump table) declares that coefficient state-free.
The solver (its jump route), the Monte Carlo and the audit all rely on
this.  Every layer reads a control's coefficients on the quadrature nodes
through ``_coefficients``, the one reader: it keeps that shape and raises
``AuditError`` on a value that is not finite.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from collections.abc import Callable, Sequence

import numpy as np

__all__ = [
    "AuditError",
    "CoefficientField",
    "ConditionAudit",
    "ControlGrid",
    "JumpReferenceMeasure",
    "Quadrature",
    "QuadratureError",
    "TruncationFunction",
    "audit_conditions",
    "pushforward_tail",
    "simpson_quadrature",
    "zero_jump_measure",
]


class QuadratureError(RuntimeError):
    """The reference-measure quadrature failed its own mass invariant."""


class AuditError(ValueError):
    """A coefficient field is structurally unusable (e.g. empty control grid)."""


@dataclasses.dataclass(frozen=True)
class TruncationFunction:
    """Bounded cutoff separating small (compensated) from large jumps.

    ``evaluate`` acts componentwise, equals the identity on
    ``[-identity_radius, identity_radius]``, is Lipschitz with the declared
    constant, and satisfies ``|evaluate(y)| <= bound`` everywhere.
    """

    kind: str
    evaluate: Callable[[np.ndarray], np.ndarray]
    lipschitz_bound: float
    identity_radius: float
    bound: float

    def __post_init__(self):
        if self.kind not in ("clip", "custom"):
            raise ValueError(f"unknown truncation kind {self.kind!r}")
        if self.lipschitz_bound < 0 or self.identity_radius <= 0 or self.bound <= 0:
            raise ValueError("truncation constants out of range")

    @classmethod
    def clip(cls) -> "TruncationFunction":
        """Default cutoff: clip to [-1, 1] componentwise."""
        return cls(
            kind="clip",
            evaluate=lambda y: np.clip(y, -1.0, 1.0),
            lipschitz_bound=1.0,
            identity_radius=1.0,
            bound=1.0,
        )


@dataclasses.dataclass(frozen=True)
class ControlGrid:
    """Finite grid of control points inside a box, in lexicographic order."""

    points: tuple
    resolution: tuple
    box_lo: tuple
    box_hi: tuple

    def __post_init__(self):
        if not self.points:
            raise ValueError("control grid must be nonempty")
        if len(set(self.points)) != len(self.points):
            raise ValueError("control grid has duplicate points")
        for p in self.points:
            if len(p) != len(self.box_lo):
                raise ValueError(f"control point {p} has wrong dimension")
            for v, lo, hi in zip(p, self.box_lo, self.box_hi):
                if not (lo - 1e-12 <= v <= hi + 1e-12):
                    raise ValueError(f"control point {p} outside box")

    @classmethod
    def uniform(cls, box_lo, box_hi, resolution) -> "ControlGrid":
        """Uniform per-axis grid; an axis with lo == hi collapses to one point."""
        lo = tuple(float(v) for v in np.atleast_1d(box_lo))
        hi = tuple(float(v) for v in np.atleast_1d(box_hi))
        if isinstance(resolution, (int, np.integer)):
            res = (int(resolution),) * len(lo)
        else:
            res = tuple(int(r) for r in resolution)
        if len(res) != len(lo) or any(r < 1 for r in res):
            raise ValueError("bad control resolution")
        axes = []
        final_res = []
        for a, b, r in zip(lo, hi, res):
            if b < a:
                raise ValueError("control box has lo > hi")
            if a == b or r == 1:
                axes.append((a,))
                final_res.append(1)
            else:
                axes.append(tuple(float(v) for v in np.linspace(a, b, r)))
                final_res.append(r)
        points = tuple(itertools.product(*axes))
        return cls(points=points, resolution=tuple(final_res), box_lo=lo, box_hi=hi)


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
    """Reference measure on the mark space (the real line).

    ``tail_upper(y)`` is the mass of [y, inf) and ``tail_lower(y)`` of
    (-inf, y]; both accept 0 as a one-sided limit.  ``total_mass`` may be
    ``math.inf``; the ``sampler`` (inverse CDF on (0,1), for the normalized
    measure) exists only when the mass is finite.
    """

    density: Callable[[np.ndarray], np.ndarray]
    total_mass: float
    tail_upper: Callable[[float], float]
    tail_lower: Callable[[float], float]
    quadrature: Quadrature
    sampler: Callable[[np.ndarray], np.ndarray] | None = None

    @property
    def window_mass(self) -> float:
        return self.quadrature.mass

    def tail_mass_outside_window(self) -> float:
        z = self.quadrature.z_cut
        return float(self.tail_upper(z) + self.tail_lower(-z))

    def validate_mass(self, rtol: float = 1e-4) -> None:
        """Compare the quadrature mass with the measure's mass on the window.

        That mass is exact for a finite ``total_mass`` (less the tails outside
        the window), which catches a node spacing that misses a density peak;
        an infinite-mass measure falls back to a fine trapezoid of the density.
        """
        if math.isfinite(self.total_mass):
            ref = self.total_mass - self.tail_mass_outside_window()
        else:
            z = self.quadrature.z_cut
            grid = np.linspace(-z, z, 20001)
            ref = float(np.trapezoid(np.asarray(self.density(grid), dtype=float), grid))
        err = abs(self.window_mass - ref)
        if err > rtol * max(1.0, abs(ref)):
            raise QuadratureError(
                f"quadrature mass {self.window_mass:.8g} vs window mass {ref:.8g} "
                f"(diff {err:.3g} > rtol {rtol:g}): the nodes do not resolve the density"
            )


def zero_jump_measure(z_cut: float = 1.0) -> JumpReferenceMeasure:
    """Jump-free reference measure (zero mass, no sampler)."""
    quad = Quadrature(nodes=np.array([0.0]), weights=np.array([0.0]), z_cut=z_cut)
    return JumpReferenceMeasure(
        density=lambda z: np.zeros_like(np.asarray(z, dtype=float)),
        total_mass=0.0,
        tail_upper=lambda y: 0.0,
        tail_lower=lambda y: 0.0,
        quadrature=quad,
        sampler=None,
    )


@dataclasses.dataclass(frozen=True)
class CoefficientField:
    """Controlled Markovian coefficients over a finite control grid.

    Callables broadcast elementwise over states.  ``declared_lipschitz``
    bounds the sampled increment ratio (|drift| + |dispersion|) / |x - y|,
    ``declared_bound`` the pointwise |drift| + |dispersion| + capped jump
    second moment, and ``gamma`` majorizes both the jump size and the jump
    increment ratio per mark; all three are optional and only checked by
    :func:`audit_conditions` when present.  ``state_box`` is the state range
    audits and symbol sups sample from.

    ``control_axes`` optionally declares, as three distinct coordinates of
    the control point, the one coordinate that alone drives the drift, the
    one that alone drives the dispersion and the one that alone drives the
    jump map.  The solver then takes its sup over the controls one axis at
    a time when the grid holds every combination of the axes' values.
    """

    dimension: int
    drift: Callable
    dispersion: Callable
    jump_density_map: Callable
    reference: JumpReferenceMeasure
    truncation: TruncationFunction
    control_grid: ControlGrid
    declared_lipschitz: float | None = None
    declared_bound: float | None = None
    gamma: Callable[[np.ndarray], np.ndarray] | None = None
    state_box: tuple = (-10.0, 10.0)
    control_axes: tuple | None = None

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be positive")
        lo, hi = self.state_box
        if not lo < hi:
            raise ValueError("state_box must be a nonempty interval")
        n_coords = len(self.control_grid.box_lo)
        if self.control_axes is not None and (
            tuple(self.control_axes) not in itertools.permutations(range(n_coords), 3)
        ):
            raise ValueError("control_axes must name three distinct control coordinates")


@dataclasses.dataclass(frozen=True)
class ConditionAudit:
    """Result of a sampling audit; empty ``violations`` means all checks passed.

    ``gamma_majorant`` / ``beta_majorant`` interpolate the per-mark sampled
    sups of (increment ratio or size) and size respectively.
    """

    lipschitz_constant_estimate: float
    gamma_majorant: Callable[[np.ndarray], np.ndarray]
    beta_majorant: Callable[[np.ndarray], np.ndarray]
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


def _coefficients(field, f, x):
    """Control f's (drift, dispersion, jump table) at the 1-d states x, as the model returns them.

    A value without a state axis declares its coefficient state-free.  A
    value that is not finite raises ``AuditError`` naming the coefficient,
    the control and, when the value has a state axis, the first bad state.
    """
    values = (
        np.asarray(field.drift(f, x), dtype=float),
        np.asarray(field.dispersion(f, x), dtype=float),
        _jump_table(field, f, x),
    )
    for name, v in zip(("drift", "dispersion", "jump map"), values):
        if not np.all(np.isfinite(v)):
            where = f"non-finite {name} at control {f}"
            if v.ndim and v.shape[0] == x.size:
                where += f", state {x[np.argwhere(~np.isfinite(v))[0][0]]}"
            raise AuditError(where)
    return values


def audit_conditions(field: CoefficientField, sample_budget: int, rng_seed: int) -> ConditionAudit:
    """Spot-check boundedness, state-Lipschitz increments and jump majorants.

    Deterministic in ``rng_seed``.  States are drawn from ``field.state_box``;
    each is paired with a far partner and a near partner for increment
    ratios.  Violations are only recorded against constants the field
    declares (``declared_lipschitz``, ``declared_bound``, ``gamma``).
    """
    if sample_budget < 1:
        raise ValueError("sample_budget must be >= 1")
    grid = field.control_grid
    if not grid.points:
        raise AuditError("empty control grid")
    field.reference.validate_mass()

    rng = np.random.default_rng(rng_seed)
    lo, hi = field.state_box
    xs = rng.uniform(lo, hi, size=sample_budget)
    partners = (
        rng.uniform(lo, hi, size=sample_budget),
        np.clip(xs + rng.normal(0.0, 1e-3 * (hi - lo), size=sample_budget), lo, hi),
    )

    quad = field.reference.quadrature
    nodes, weights = quad.nodes, quad.weights
    gamma_declared = (
        np.asarray(field.gamma(nodes), dtype=float) if field.gamma is not None else None
    )

    sup_bs = 0.0
    sup_jump = 0.0
    lip_est = 0.0
    gamma_nodes = np.zeros_like(nodes)
    beta_nodes = np.zeros_like(nodes)
    violations: list = []
    slack = 1e-9

    def record(kind, witness):
        if len(violations) < 50:
            violations.append((kind, witness))

    def read(f, states):
        """Control f's drift, dispersion and jump table, broadcast to the states."""
        b, s, kappa = _coefficients(field, f, states)
        n = states.size
        return np.broadcast_to(b, n), np.broadcast_to(s, n), np.broadcast_to(kappa, (n, nodes.size))

    for f in grid.points:
        b, s, kappa = read(f, xs)
        mag = np.abs(b) + np.abs(s)
        sup_bs = max(sup_bs, float(mag.max()))
        jm = (np.minimum(kappa * kappa, 1.0) * weights).sum(axis=1)
        sup_jump = max(sup_jump, float(jm.max()))
        beta_nodes = np.maximum(beta_nodes, np.abs(kappa).max(axis=0))

        if field.declared_bound is not None:
            total = mag + jm
            if total.max() > field.declared_bound * (1.0 + slack) + slack:
                i = int(np.argmax(total))
                record("coefficient-bound", (f, float(xs[i]), float(total[i])))
        if gamma_declared is not None:
            excess = np.abs(kappa) - gamma_declared[None, :] * (1.0 + slack) - 1e-12
            if excess.max() > 0:
                i, j = np.unravel_index(int(np.argmax(excess)), excess.shape)
                record(
                    "jump-size-majorant",
                    (f, float(xs[i]), float(nodes[j]), float(abs(kappa[i, j]))),
                )

        for ys in partners:
            dx = np.abs(xs - ys)
            ok = dx > 1e-12
            if not ok.any():
                continue
            b2, s2, kappa2 = read(f, ys)
            ratios = (np.abs(b - b2) + np.abs(s - s2))[ok] / dx[ok]
            rmax = float(ratios.max())
            lip_est = max(lip_est, rmax)
            if field.declared_lipschitz is not None and rmax > field.declared_lipschitz * (
                1.0 + slack
            ) + slack:
                i = int(np.flatnonzero(ok)[np.argmax(ratios)])
                record(
                    "drift-dispersion-lipschitz",
                    (f, float(xs[i]), float(ys[i]), rmax),
                )
            inc = np.abs(kappa - kappa2)[ok] / dx[ok, None]
            gamma_nodes = np.maximum(gamma_nodes, inc.max(axis=0))
            if gamma_declared is not None:
                excess = inc - gamma_declared[None, :] * (1.0 + slack) - 1e-12
                if excess.max() > 0:
                    i, j = np.unravel_index(int(np.argmax(excess)), excess.shape)
                    io = int(np.flatnonzero(ok)[i])
                    record(
                        "jump-increment-majorant",
                        (f, float(xs[io]), float(ys[io]), float(nodes[j])),
                    )

    gamma_nodes = np.maximum(gamma_nodes, beta_nodes)

    def _majorant(vals):
        frozen = vals.copy()

        def fn(z):
            return np.interp(np.asarray(z, dtype=float), nodes, frozen)

        return fn

    return ConditionAudit(
        lipschitz_constant_estimate=lip_est,
        gamma_majorant=_majorant(gamma_nodes),
        beta_majorant=_majorant(beta_nodes),
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


def _interval_mass(measure, a, b):
    """Measure of [a, b] through the tail functions (atomless convention)."""
    if b < a:
        return 0.0
    if a >= 0:
        hi = 0.0 if math.isinf(b) else measure.tail_upper(b)
        return max(measure.tail_upper(a) - hi, 0.0)
    if b <= 0:
        lo = 0.0 if math.isinf(a) else measure.tail_lower(a)
        return max(measure.tail_lower(b) - lo, 0.0)
    return _interval_mass(measure, a, 0.0) + _interval_mass(measure, 0.0, b)


def pushforward_tail(field: CoefficientField, f, x, threshold: float) -> float:
    """Reference mass the jump map sends at or beyond ``threshold``.

    For ``threshold`` y > 0 this is the mass of {z : jump(f,x,z) >= y}
    (respectively <= y for y < 0); marks mapped exactly to 0 never qualify
    because y is nonzero.  Indicator sign changes are located on the
    quadrature node mesh, refined by bisection on the map itself, and the
    resulting intervals are integrated exactly via the measure's tail
    functions; runs touching the window edge extend to infinity through the
    tails.
    """
    if threshold == 0:
        raise ValueError("threshold must be nonzero")
    measure = field.reference
    nodes = measure.quadrature.nodes
    kappa = _coefficients(field, f, np.array([x], dtype=float))[2][0]
    if threshold > 0:
        ind = kappa >= threshold
    else:
        ind = kappa <= threshold

    def predicate(z):
        k = float(np.asarray(field.jump_density_map(f, x, np.array([z])), dtype=float).reshape(-1)[0])
        return k >= threshold if threshold > 0 else k <= threshold

    runs = _indicator_intervals(nodes, ind, predicate)
    return sum((_interval_mass(measure, a, b) for a, b in runs), 0.0)
