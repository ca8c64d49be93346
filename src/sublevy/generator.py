"""Pointwise integro-differential generator and its control envelope.

``apply_generator`` evaluates, for one control, the sum of the drift term,
the diffusion term and the compensated jump integral at a point.  The
envelope ``hamiltonian_G`` takes the supremum over the control grid, which
is the nonlinearity driving the PIDE solver.  ``symbol`` is the Fourier
multiplier of the single-control operator; its decay near zero frequency
(``small_symbol_sup``) certifies that the uncertain family stays uniformly
continuous in the sense the semigroup construction needs.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Callable

import numpy as np

from .core import CoefficientField, _coefficients, _sources

__all__ = [
    "TestFunction",
    "apply_generator",
    "constant_function",
    "gaussian_bump",
    "hamiltonian_G",
    "small_symbol_sup",
    "symbol",
]


@dataclasses.dataclass(frozen=True)
class TestFunction:
    """Twice differentiable function with explicit derivatives."""

    value: Callable
    gradient: Callable
    hessian: Callable


def constant_function(c: float) -> TestFunction:
    c = float(c)
    return TestFunction(
        value=lambda x: c + 0.0 * np.asarray(x, dtype=float),
        gradient=lambda x: 0.0 * np.asarray(x, dtype=float),
        hessian=lambda x: 0.0 * np.asarray(x, dtype=float),
    )


def gaussian_bump(amplitude: float = 1.0, center: float = 0.0, width: float = 1.0) -> TestFunction:
    """Gaussian bump with analytic first and second derivatives."""
    if width <= 0:
        raise ValueError("width must be positive")
    a, c, s = float(amplitude), float(center), float(width)

    def value(x):
        u = (np.asarray(x, dtype=float) - c) / s
        return a * np.exp(-0.5 * u * u)

    def gradient(x):
        u = (np.asarray(x, dtype=float) - c) / s
        return -a * u / s * np.exp(-0.5 * u * u)

    def hessian(x):
        u = (np.asarray(x, dtype=float) - c) / s
        return a * (u * u - 1.0) / (s * s) * np.exp(-0.5 * u * u)

    return TestFunction(value=value, gradient=gradient, hessian=hessian)


def _point(field, f, x):
    """Control f's drift, dispersion and jump row at the one state x, checked finite."""
    b, sig, kappa = _coefficients(field, f, np.array([float(x)]))
    return b.item(0), sig.item(0), kappa[0]


def apply_generator(field: CoefficientField, f, phi: TestFunction, x: float) -> float:
    """One-control generator value at x; the jump integral runs over the quadrature window only."""
    x = float(x)
    b, sig, kappa = _point(field, f, x)
    g = float(np.asarray(phi.gradient(x), dtype=float))
    hess = float(np.asarray(phi.hessian(x), dtype=float))
    quad = field.reference.quadrature
    h = np.asarray(field.truncation(kappa), dtype=float)
    phi_x = float(np.asarray(phi.value(x), dtype=float))
    incr = np.asarray(phi.value(x + kappa), dtype=float) - phi_x - g * h
    jump = float(incr @ quad.weights)
    total = g * b + 0.5 * sig * sig * hess + jump
    if not math.isfinite(total):
        raise ValueError(f"non-finite generator value at control {f}, x {x}")
    return total


def hamiltonian_G(field: CoefficientField, phi: TestFunction, x: float):
    """Sup of the generator over the control grid; ties keep the first control."""
    best = None
    best_f = None
    for f in field.control_grid.points:
        val = apply_generator(field, f, phi, x)
        if best is None or val > best:
            best, best_f = val, f
    return best, best_f


def symbol(field: CoefficientField, f, x: float, xi):
    """Fourier multiplier of the one-control generator at state x."""
    xi_arr = np.asarray(xi, dtype=float)
    out = _symbol(field, *_point(field, f, x), np.atleast_1d(xi_arr))
    return complex(out[0]) if xi_arr.ndim == 0 else out


def _symbol(field, b, sig, kappa, xv):
    """The symbol at the frequencies xv of the generator with drift b, dispersion sig and jump row kappa."""
    h = np.asarray(field.truncation(kappa), dtype=float)
    term = (
        1.0
        - np.exp(1j * xv[:, None] * kappa[None, :])
        + 1j * xv[:, None] * h[None, :]
    )
    return -1j * b * xv + 0.5 * sig * sig * xv * xv + term @ field.reference.quadrature.weights


def small_symbol_sup(
    field: CoefficientField,
    radius: float,
    sample_budget: int = 64,
    rng_seed: int = 0,
) -> float:
    """Sup of |symbol| over controls, sampled states and |xi| <= radius.

    The state sample always contains both box edges and the midpoint, and
    the frequency sample always contains +-radius, so shrinking the radius
    can only shrink the reported sup for a fixed seed.  The coefficients are
    read once, at all the sampled states, through ``core._sources``, which
    first checks the jump quadrature (``QuadratureError`` on one that misses
    the measure's mass).
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if sample_budget < 1:
        raise ValueError("sample_budget must be positive")
    rng = np.random.default_rng(rng_seed)
    lo, hi = field.state_box
    xs = np.concatenate(
        [[lo, 0.5 * (lo + hi), hi], rng.uniform(lo, hi, size=sample_budget)]
    )
    # unit draws scaled by radius: nested radii give nested frequency samples
    unit = rng.uniform(-1.0, 1.0, size=sample_budget)
    xis = np.concatenate([[-radius, radius], radius * unit])
    drifts, disps, tables, at = _sources(field, xs)
    worst = 0.0
    for i, j, k in at.T:
        # a control whose three reads are state-free has one symbol, the same at every state
        n = 1 if drifts[i].ndim == disps[j].ndim == 0 and len(tables[k]) == 1 else xs.size
        b, sig = (np.broadcast_to(v, xs.shape)[:n].tolist() for v in (drifts[i], disps[j]))
        kappa = np.broadcast_to(tables[k], (xs.size, tables[k].shape[1]))
        for point in zip(b, sig, kappa):
            worst = max(worst, float(np.max(np.abs(_symbol(field, *point, xis)))))
    return worst
