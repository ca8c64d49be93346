"""Worst-case expectations for controlled jump diffusions.

The package computes sup-over-models expectations of terminal payoffs when
drift, volatility and jump intensity are each only known up to an interval.
The workhorse is an explicit monotone finite-difference solver for the
nonlinear evolution driven by the pointwise-sup generator (`pide`), cross
checked by a policy-driven jump-SDE Monte Carlo engine (`simulate`), a
Fourier reference for the single-model case (`kou`), and a quantile-based
measure-transport construction (`transform`).
"""

from .core import (
    AuditError,
    CoefficientField,
    ConditionAudit,
    ControlGrid,
    JumpReferenceMeasure,
    Quadrature,
    QuadratureError,
    audit_conditions,
    clip_truncation,
    pushforward_tail,
    simpson_quadrature,
    zero_jump_measure,
)
from .generator import (
    TestFunction,
    apply_generator,
    gaussian_bump,
    hamiltonian_G,
    small_symbol_sup,
    symbol,
)
from .kou import (
    GaussianBump,
    KouSpec,
    LinearKouTriplet,
    build_field,
    characteristic_exponent,
    double_exponential_measure,
    fourier_reference,
    verify_pushforward,
)
from .pide import (
    PolicySchedule,
    SpatialGrid,
    ValueField,
    cfl_timestep,
    restart,
    solve,
)
from .simulate import estimate_value, mc_lower_bound
from .transform import TailPair, exponential_tails, power_tails, quantile_k, verify_transport

__version__ = "0.1.0"
