"""Build a jump map from a target kernel by monotone tail inversion (1-d).

Given upper/lower tail functions of a target kernel and of a reference
measure, ``quantile_k`` returns the generalized quantile map k with the
convention sup of the empty set = 0; pushing the reference measure through
k reproduces the target kernel whenever the reference is non-atomic and
carries at least as much mass near zero.  ``verify_transport`` checks that
identity numerically on a quadrature of the reference measure.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Callable

import numpy as np

from .core import _bisect_edge, _pushed_mass

__all__ = [
    "NonMonotoneTailError",
    "TailPair",
    "exponential_tails",
    "power_tails",
    "quantile_k",
    "verify_transport",
]


class NonMonotoneTailError(ValueError):
    """A tail function increased along the bracketing sweep."""


@dataclasses.dataclass(frozen=True)
class TailPair:
    """Upper/lower tails of the target kernel and of the reference measure.

    ``target_upper(z)`` is the target mass of [z, inf) for z > 0 and
    ``target_lower(z)`` of (-inf, z] for z < 0; ``reference_upper`` /
    ``reference_lower`` are the same tails of the reference measure.  All
    four must be finite for every nonzero argument and monotone toward the
    far tail; infinite total mass (blow-up at 0) is allowed.
    """

    target_upper: Callable[[float], float]
    target_lower: Callable[[float], float]
    reference_upper: Callable[[float], float]
    reference_lower: Callable[[float], float]


def _sup_level(tail, level, tol, z_max):
    """sup{z > 0 : tail(z) >= level} for a nonincreasing tail, capped at z_max.

    The empty set gives 0; brackets grow geometrically from [0, 1] and cap
    at z_max.  The last bracket, at least 1 wide, is halved by
    ``core._bisect_edge`` until it is ``tol`` wide, at least once and at
    most 200 times, and its midpoint returned.
    """
    probe = min(tol, 1e-9)
    prev = tail(probe)
    if not math.isfinite(prev):
        raise ValueError(f"tail not finite at z = {probe}")
    if prev < level:
        return 0.0
    z_lo, z_hi = 0.0, 1.0
    while True:
        cur = tail(z_hi)
        if cur > prev + 1e-9 * (1.0 + abs(prev)):
            raise NonMonotoneTailError(
                f"tail rose from {prev:.6g} to {cur:.6g} between brackets near z = {z_hi:.6g}"
            )
        prev = cur
        if cur < level:
            break
        z_lo = z_hi
        z_hi *= 2.0
        if z_hi > z_max:
            return float(z_max)
    return _bisect_edge(z_hi, z_lo, lambda z: tail(z) >= level, tol, 200)


def quantile_k(tails: TailPair, y: float, tol: float, *, z_max: float = 1e6) -> float:
    """Quantile jump map at mark y: tail level matching by bisection.

    For y > 0 this is sup{z > 0 : target_upper(z) >= reference_upper(y)},
    resolved to width ``tol``; 0 when the set is empty, and ``z_max`` when
    the tail still reaches the level there.  Negative marks use the mirrored
    lower tails.
    """
    y = float(y)
    if y == 0:
        raise ValueError("y must be nonzero")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if y > 0:
        return _sup_level(tails.target_upper, tails.reference_upper(y), tol, z_max)
    return -_sup_level(lambda w: tails.target_lower(-w), tails.reference_lower(y), tol, z_max)


def verify_transport(
    tails: TailPair,
    quadrature,
    thresholds,
    *,
    tol: float = 1e-9,
    z_max: float = 1e6,
) -> float:
    """Max tail error of the reference measure pushed through the quantile map.

    The quantile map is evaluated on the quadrature nodes of the reference
    measure; level-set crossings are refined by bisection on the map and the
    resulting intervals are measured exactly through the reference tails,
    then compared against the target tails at each threshold.
    """
    nodes = np.asarray(quadrature.nodes, dtype=float)

    def k_at(z):
        if z == 0:
            return 0.0
        return quantile_k(tails, float(z), tol, z_max=z_max)

    k_vals = np.array([k_at(z) for z in nodes])
    worst = 0.0
    for y in map(float, thresholds):
        got = _pushed_mass(tails.reference_upper, tails.reference_lower, nodes, k_vals, k_at, y)
        worst = max(worst, abs(got - (tails.target_upper(y) if y > 0 else tails.target_lower(y))))
    return worst


def exponential_tails(lam: float, lam_star: float) -> TailPair:
    """Symmetric double-exponential pair: target mass lam, reference lam_star."""
    if lam <= 0 or lam_star <= 0:
        raise ValueError("intensities must be positive")
    return TailPair(
        target_upper=lambda z: lam * math.exp(-z),
        target_lower=lambda z: lam * math.exp(z),
        reference_upper=lambda y: lam_star * math.exp(-y),
        reference_lower=lambda y: lam_star * math.exp(y),
    )


def power_tails(alpha: float, c_target: float, c_reference: float) -> TailPair:
    """Symmetric power-law pair with infinite mass at the origin.

    Tails c * |y|^(-alpha); the quantile map is the exact dilation
    y * (c_target / c_reference)^(1/alpha).
    """
    if alpha <= 0 or c_target <= 0 or c_reference <= 0:
        raise ValueError("power-law parameters must be positive")
    return TailPair(
        target_upper=lambda z: c_target * z**-alpha,
        target_lower=lambda z: c_target * abs(z) ** -alpha,
        reference_upper=lambda y: c_reference * y**-alpha,
        reference_lower=lambda y: c_reference * abs(y) ** -alpha,
    )
