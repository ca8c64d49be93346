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

from .core import CoefficientField, _coefficients

__all__ = [
    "TestFunction",
    "apply_generator",
    "constant_function",
    "drift_correction",
    "gaussian_bump",
    "hamiltonian_G",
    "small_symbol_sup",
    "symbol",
]


@dataclasses.dataclass(frozen=True)
class TestFunction:
    """Twice differentiable function with explicit derivatives and sup bounds."""

    value: Callable
    gradient: Callable
    hessian: Callable
    value_bound: float
    gradient_bound: float
    hessian_bound: float

    @property
    def bounds(self):
        return (self.value_bound, self.gradient_bound, self.hessian_bound)

    def check_gradient(self, xs, step: float = 1e-6, tol: float = 1e-5) -> None:
        """Central-difference sanity check of the declared derivatives."""
        for x in np.atleast_1d(np.asarray(xs, dtype=float)):
            fd_g = (self.value(x + step) - self.value(x - step)) / (2 * step)
            fd_h = (self.value(x + step) - 2 * self.value(x) + self.value(x - step)) / step**2
            if abs(fd_g - self.gradient(x)) > tol * (1 + abs(fd_g)):
                raise ValueError(f"gradient mismatch at x={x}: {fd_g} vs {self.gradient(x)}")
            if abs(fd_h - self.hessian(x)) > 1e3 * tol * (1 + abs(fd_h)):
                raise ValueError(f"hessian mismatch at x={x}: {fd_h} vs {self.hessian(x)}")


def constant_function(c: float) -> TestFunction:
    c = float(c)
    return TestFunction(
        value=lambda x: c + 0.0 * np.asarray(x, dtype=float),
        gradient=lambda x: 0.0 * np.asarray(x, dtype=float),
        hessian=lambda x: 0.0 * np.asarray(x, dtype=float),
        value_bound=abs(c),
        gradient_bound=0.0,
        hessian_bound=0.0,
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

    return TestFunction(
        value=value,
        gradient=gradient,
        hessian=hessian,
        value_bound=abs(a),
        gradient_bound=abs(a) * math.exp(-0.5) / s,
        hessian_bound=abs(a) / (s * s),
    )


def _point(field, f, x):
    """Control f's drift, dispersion and jump row at the one state x, checked finite."""
    b, sig, kappa = _coefficients(field, f, np.array([float(x)]))
    return b.item(0), sig.item(0), kappa[0]


def apply_generator(
    field: CoefficientField,
    f,
    phi: TestFunction,
    x: float,
    *,
    return_tail_bound: bool = False,
):
    """One-control generator value at x; optionally a window-tail error bound.

    The jump integral runs over the quadrature window only.  The tail bound
    covers the discarded ``|z| > z_cut`` part using the sup bounds of phi
    and the measure mass outside the window.
    """
    x = float(x)
    b, sig, kappa = _point(field, f, x)
    g = float(np.asarray(phi.gradient(x), dtype=float))
    hess = float(np.asarray(phi.hessian(x), dtype=float))
    quad = field.reference.quadrature
    h = np.asarray(field.truncation.evaluate(kappa), dtype=float)
    phi_x = float(np.asarray(phi.value(x), dtype=float))
    incr = np.asarray(phi.value(x + kappa), dtype=float) - phi_x - g * h
    jump = float(incr @ quad.weights)
    total = g * b + 0.5 * sig * sig * hess + jump
    if not math.isfinite(total):
        raise ValueError(f"non-finite generator value at control {f}, x {x}")
    if not return_tail_bound:
        return total
    tail_mass = field.reference.tail_mass_outside_window()
    bound = (2.0 * phi.value_bound + phi.gradient_bound * field.truncation.bound) * tail_mass
    return total, bound


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
    scalar = xi_arr.ndim == 0
    xv = np.atleast_1d(xi_arr)
    b, sig, kappa = _point(field, f, x)
    quad = field.reference.quadrature
    h = np.asarray(field.truncation.evaluate(kappa), dtype=float)
    term = (
        1.0
        - np.exp(1j * xv[:, None] * kappa[None, :])
        + 1j * xv[:, None] * h[None, :]
    )
    out = -1j * b * xv + 0.5 * sig * sig * xv * xv + term @ quad.weights
    return complex(out[0]) if scalar else out


def small_symbol_sup(
    field: CoefficientField,
    radius: float,
    sample_budget: int = 64,
    rng_seed: int = 0,
) -> float:
    """Sup of |symbol| over controls, sampled states and |xi| <= radius.

    The state sample always contains both box edges and the midpoint, and
    the frequency sample always contains +-radius, so shrinking the radius
    can only shrink the reported sup for a fixed seed.
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
    worst = 0.0
    for f in field.control_grid.points:
        for x in xs:
            worst = max(worst, float(np.max(np.abs(symbol(field, f, x, xis)))))
    return worst


def drift_correction(field: CoefficientField, f, x: float, gamma=None) -> float:
    """Drift shift from the jump compensation, split by the gamma level set.

    Marks with gamma(z) <= 1 contribute kappa - h(kappa), the rest
    contribute -h(kappa).  ``gamma`` defaults to the field's majorant, then
    to |z|.
    """
    quad = field.reference.quadrature
    kappa = _point(field, f, x)[2]
    h = np.asarray(field.truncation.evaluate(kappa), dtype=float)
    if gamma is None:
        gamma = field.gamma
    if gamma is None:
        small = np.abs(quad.nodes) <= 1.0
    else:
        small = np.asarray(gamma(quad.nodes), dtype=float) <= 1.0
    w = quad.weights
    small_part = float(((kappa - h) * w)[small].sum())
    large_part = float((-(h * w))[~small].sum())
    return small_part + large_part
