"""Interval-uncertainty double-exponential jump model.

Drift, squared volatility and jump intensity each range over an interval,
parameterized affinely by a control point f in [0,1]^3.  The mark measure is
``lam_star * exp(-|z|) dz`` and the jump map shrinks every mark toward zero
by the log-intensity deficit ``log(lam_star / lam(f, x))``, so the pushed
measure has density ``lam(f, x) * exp(-|y|)`` plus an atom at zero that the
push-forward convention excises.  The degenerate (collapsed-interval) case
is an ordinary jump diffusion with a closed-form characteristic exponent,
which powers the Fourier reference value used to validate the PIDE solver.

Interval bounds may be plain numbers or Lipschitz functions of the state;
state-dependent specs must declare a Lipschitz constant for the audit.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .core import (
    CoefficientField,
    ControlGrid,
    JumpReferenceMeasure,
    clip_truncation,
    pushforward_tail,
    simpson_quadrature,
)

__all__ = [
    "GaussianBump",
    "KouSpec",
    "LinearKouTriplet",
    "build_field",
    "characteristic_exponent",
    "clamp_jump",
    "control_coefficients",
    "double_exponential_measure",
    "fourier_reference",
    "verify_pushforward",
]


def _at(bound, x):
    """A bound's value at states x; a constant bound stays a plain number."""
    return bound(x) if callable(bound) else float(bound)


@dataclasses.dataclass(frozen=True)
class KouSpec:
    """Interval bounds for drift b, squared volatility a and intensity lam.

    Requires 0 < lam_floor <= lam_lo <= lam_hi <= lam_star, b_lo <= b_hi and
    0 <= a_lo <= a_hi, with every bound and constant finite.  ``validate``
    checks what needs no state: the constants, and the bounds that are
    plain numbers against each other and the constants.  A bound that is a
    state function is checked by ``build_field``, pointwise at the 201
    states it samples across its ``state_box``, endpoints included.
    ``lipschitz_constant`` declares the state-Lipschitz constant of the
    bound maps (0 for constant bounds).
    """

    b_lo: object
    b_hi: object
    a_lo: object
    a_hi: object
    lam_lo: object
    lam_hi: object
    lam_star: float
    lam_floor: float
    lipschitz_constant: float = 0.0

    def validate(self) -> None:
        if not self.lam_floor > 0:
            raise ValueError("lam_floor must be positive")
        if not self.lam_star > 0:
            raise ValueError("lam_star must be positive")
        # a nan passes every order check below, since each comparison with it is False
        if not all(map(math.isfinite, (self.lam_star, self.lam_floor, self.lipschitz_constant))):
            raise ValueError("lam_star, lam_floor and lipschitz_constant must be finite")
        # at no state: a state-function bound reads as an empty array, so only the plain
        # numbers are compared
        self._check_bounds(np.empty(0))

    def _check_bounds(self, xs) -> None:
        """The bounds are finite and in order at the states xs."""
        blo, bhi = _at(self.b_lo, xs), _at(self.b_hi, xs)
        alo, ahi = _at(self.a_lo, xs), _at(self.a_hi, xs)
        llo, lhi = _at(self.lam_lo, xs), _at(self.lam_hi, xs)
        if not all(np.all(np.isfinite(v)) for v in (blo, bhi, alo, ahi, llo, lhi)):
            raise ValueError("interval bounds must be finite at the sample states")
        if np.any(blo > bhi):
            raise ValueError("b_lo > b_hi")
        if np.any(alo < 0) or np.any(alo > ahi):
            raise ValueError("need 0 <= a_lo <= a_hi")
        if np.any(llo < self.lam_floor) or np.any(llo > lhi) or np.any(lhi > self.lam_star):
            raise ValueError("need lam_floor <= lam_lo <= lam_hi <= lam_star")

    @property
    def degenerate(self) -> bool:
        """All intervals collapsed to constants (single effective model)."""
        return _axis_resolution(self, 2) == [1, 1, 1]


@dataclasses.dataclass(frozen=True)
class LinearKouTriplet:
    """Single-model coefficients: drift b, variance a, jump intensity lam.

    ``lam == 0`` switches jumps off entirely.
    """

    b: float
    a: float
    lam: float

    def __post_init__(self):
        if self.a < 0:
            raise ValueError("variance must be nonnegative")
        if self.lam < 0:
            raise ValueError("intensity must be nonnegative")


def double_exponential_measure(lam_star: float, z_cut: float = 10.0, nz: int = 401) -> JumpReferenceMeasure:
    """Measure ``lam_star * exp(-|z|) dz`` with exact tails and inverse-CDF sampler."""
    lam_star = float(lam_star)
    if lam_star <= 0:
        raise ValueError("lam_star must be positive")

    def tail_upper(y):
        return lam_star * math.exp(-y) if y >= 0 else lam_star * (2.0 - math.exp(y))

    def tail_lower(y):
        return lam_star * math.exp(y) if y <= 0 else lam_star * (2.0 - math.exp(-y))

    def sampler(u):
        u = np.clip(np.asarray(u, dtype=float), 1e-16, 1.0 - 1e-16)
        return np.where(u < 0.5, np.log(2.0 * u), -np.log(2.0 * (1.0 - u)))

    return JumpReferenceMeasure(
        total_mass=2.0 * lam_star,
        tail_upper=tail_upper,
        tail_lower=tail_lower,
        quadrature=simpson_quadrature(lambda z: lam_star * np.exp(-np.abs(z)), z_cut, nz),
        sampler=sampler,
    )


def clamp_jump(z, log_ratio):
    """Shrink marks toward zero by ``log_ratio`` >= 0, clamping at zero."""
    z = np.asarray(z, dtype=float)
    return np.sign(z) * np.maximum(np.abs(z) - log_ratio, 0.0)


def _between(lo, hi, s, x):
    """lo + s * (hi - lo) for two bounds evaluated at states x."""
    at_lo = _at(lo, x)
    return at_lo + s * (_at(hi, x) - at_lo)


def control_coefficients(spec: KouSpec, f, x):
    """Pointwise (drift, variance, intensity) at control f and state x.

    A coefficient whose bounds are both constants comes back as a plain
    number, without the state axis, which tells callers it is state-free.
    """
    return (
        _between(spec.b_lo, spec.b_hi, f[0], x),
        _between(spec.a_lo, spec.a_hi, f[1], x),
        _between(spec.lam_lo, spec.lam_hi, f[2], x),
    )


# capped second moment of exp(-|z|) marks: 2 * (2 - 4/e) per unit lam_star
_CAPPED_MOMENT = 2.0 * (2.0 - 4.0 / math.e)


def _axis_resolution(spec: KouSpec, control_resolution) -> list:
    """Grid points on each control axis (drift, variance, intensity).

    ``control_resolution`` is an int or a per-axis triple; an axis whose
    interval is a collapsed constant gets one point, as the control has no
    effect there.
    """
    if isinstance(control_resolution, (int, np.integer)):
        res = [int(control_resolution)] * 3
    else:
        res = [int(r) for r in control_resolution]
    for axis, (lo, hi) in enumerate(
        ((spec.b_lo, spec.b_hi), (spec.a_lo, spec.a_hi), (spec.lam_lo, spec.lam_hi))
    ):
        if not callable(lo) and not callable(hi) and float(lo) == float(hi):
            res[axis] = 1
    return res


def build_field(
    spec: KouSpec,
    control_resolution,
    *,
    z_cut: float = 10.0,
    nz: int = 401,
    state_box=(-10.0, 10.0),
) -> CoefficientField:
    """Assemble the coefficient field for a spec on a [0,1]^3 control grid.

    ``control_resolution`` is an int or per-axis (drift, variance,
    intensity) triple.  Axes whose interval is a collapsed constant carry a
    single grid point; the control has no effect there.  Control coordinate
    0 alone drives the drift, 1 the variance and 2 the intensity, which the
    field declares as its ``control_axes``.  The marks' law is symmetric,
    the clamp is odd in the mark and the clip truncation is odd, so the
    compensator is 0 and ``pide._compensator`` returns exactly 0.0.  The
    spec is checked by ``KouSpec.validate``, and its bounds at 201 states
    across ``state_box``, its endpoints included.
    """
    spec.validate()
    xs = np.linspace(state_box[0], state_box[1], 201)
    spec._check_bounds(xs)
    grid = ControlGrid.uniform((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), _axis_resolution(spec, control_resolution))
    measure = double_exponential_measure(spec.lam_star, z_cut, nz)
    lam_star = float(spec.lam_star)

    def drift(f, x):
        return _between(spec.b_lo, spec.b_hi, f[0], x)

    def dispersion(f, x):
        return np.sqrt(_between(spec.a_lo, spec.a_hi, f[1], x))

    def jump_density_map(f, x, z):
        lam = _between(spec.lam_lo, spec.lam_hi, f[2], x)
        return clamp_jump(z, np.log(lam_star / lam))

    lip_log_lam = spec.lipschitz_constant / spec.lam_floor

    def gamma(z):
        return np.maximum(np.abs(np.asarray(z, dtype=float)), lip_log_lam)

    b_mag = float(
        max(np.max(np.abs(_at(spec.b_lo, xs))), np.max(np.abs(_at(spec.b_hi, xs))))
    )
    sig_mag = float(math.sqrt(np.max(_at(spec.a_hi, xs))))
    declared_bound = b_mag + sig_mag + lam_star * _CAPPED_MOMENT + 1e-3

    return CoefficientField(
        drift=drift,
        dispersion=dispersion,
        jump_density_map=jump_density_map,
        reference=measure,
        truncation=clip_truncation,
        control_grid=grid,
        declared_lipschitz=0.0 if spec.lipschitz_constant == 0 else None,
        declared_bound=declared_bound,
        gamma=gamma,
        state_box=tuple(state_box),
        control_axes=(0, 1, 2),
    )


def verify_pushforward(spec: KouSpec, f, x, thresholds, *, z_cut: float = 10.0, nz: int = 401) -> float:
    """Max |push-forward tail - lam(f,x) * exp(-|y|)| over the thresholds."""
    field = build_field(spec, 2, z_cut=z_cut, nz=nz)
    lam = float(np.asarray(control_coefficients(spec, f, x)[2], dtype=float))
    worst = 0.0
    for y in thresholds:
        y = float(y)
        got = pushforward_tail(field, f, x, y)
        worst = max(worst, abs(got - lam * math.exp(-abs(y))))
    return worst


def characteristic_exponent(triplet: LinearKouTriplet, xi):
    """Exponent of E[exp(i xi X_t)] = exp(t * exponent) for the single model.

    The closed form for the clip truncation, or any odd one, under which
    the compensator of the symmetric marks vanishes:
    ``i b xi - a xi^2 / 2 + lam (2 / (1 + xi^2) - 2)``, the cosine transform
    of the double-exponential density (Kou 2002).
    """
    xi_arr = np.asarray(xi, dtype=float)
    scalar = xi_arr.ndim == 0
    xv = np.atleast_1d(xi_arr)
    out = 1j * triplet.b * xv - 0.5 * triplet.a * xv * xv
    if triplet.lam != 0:
        out = out + triplet.lam * (2.0 / (1.0 + xv * xv) - 2.0)
    return complex(out[0]) if scalar else out


@dataclasses.dataclass(frozen=True)
class GaussianBump:
    """Terminal payoff amplitude * exp(-(x-center)^2 / (2 width^2)).

    The analytic Fourier transform is what makes this the supported family
    for the Fourier reference value.
    """

    amplitude: float = 1.0
    center: float = 0.0
    width: float = 1.0

    def __post_init__(self):
        if self.width <= 0:
            raise ValueError("width must be positive")

    def value(self, x):
        u = (np.asarray(x, dtype=float) - self.center) / self.width
        return self.amplitude * np.exp(-0.5 * u * u)

    def fourier_transform(self, xi):
        xi = np.asarray(xi, dtype=float)
        s = self.width
        return (
            self.amplitude
            * s
            * math.sqrt(2.0 * math.pi)
            * np.exp(-1j * xi * self.center - 0.5 * (s * xi) ** 2)
        )

    def gaussian_blur(self, x0, mean, variance):
        """Closed form E[value(x0 + N(mean, variance))]; the no-jump oracle."""
        v = self.width * self.width + variance
        return float(
            self.amplitude
            * self.width
            / math.sqrt(v)
            * math.exp(-0.5 * (x0 + mean - self.center) ** 2 / v)
        )


def fourier_reference(
    triplet: LinearKouTriplet,
    psi: GaussianBump,
    T: float,
    x0: float,
    *,
    xi_max: float | None = None,
    n_xi: int = 4097,
) -> float:
    """E[psi(x0 + X_T)] by Fourier inversion of the characteristic function.

    The exponent is ``characteristic_exponent``'s closed form, which holds
    for the clip truncation that ``build_field`` gives the model.  The
    integration window is chosen from the payoff width and diffusive
    variance so the integrand has decayed below 1e-17 at the edges.
    """
    if not isinstance(psi, GaussianBump):
        raise ValueError("psi outside the supported analytic family")
    if not (0.0 <= T < math.inf and math.isfinite(x0)):
        raise ValueError(f"T must be nonnegative and finite and x0 finite, got T={T!r}, x0={x0!r}")
    s = psi.width
    if xi_max is None:
        xi_max = math.sqrt(80.0 / (s * s + triplet.a * T))
    xi = np.linspace(-xi_max, xi_max, n_xi)
    eta = characteristic_exponent(triplet, xi)
    integrand = psi.fourier_transform(xi) * np.exp(1j * xi * x0 + T * eta)
    return float(np.real(np.trapezoid(integrand, xi))) / (2.0 * math.pi)
