import dataclasses

import numpy as np
import pytest

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.line(line)

from sublevy.core import (
    CoefficientField,
    ControlGrid,
    Quadrature,
    clip_truncation,
    zero_jump_measure,
)
from sublevy.kou import KouSpec, build_field


def constant_drift_field(b, sigma=0.0, controls=None):
    """Jump-free field with constant coefficients, one or more drift controls.

    ``controls`` is a ControlGrid whose first coordinate is the drift when
    given; otherwise the single control has drift b and dispersion sigma.
    """
    if controls is None:
        grid = ControlGrid.uniform((0.0,), (0.0,), 1)
        drift = lambda f, x: b + 0.0 * np.asarray(x, dtype=float)
    else:
        grid = controls
        drift = lambda f, x: f[0] + 0.0 * np.asarray(x, dtype=float)
    return CoefficientField(
        drift=drift,
        dispersion=lambda f, x: sigma + 0.0 * np.asarray(x, dtype=float),
        jump_density_map=lambda f, x, z: 0.0 * (np.asarray(x, dtype=float) + np.asarray(z, dtype=float)),
        reference=zero_jump_measure(),
        truncation=clip_truncation,
        control_grid=grid,
    )


def doubled_weights(field):
    """The field with its jump quadrature's weights doubled: a rule that misses the measure's mass."""
    q = field.reference.quadrature
    doubled = Quadrature(nodes=q.nodes, weights=2.0 * q.weights, z_cut=q.z_cut)
    return dataclasses.replace(field, reference=dataclasses.replace(field.reference, quadrature=doubled))


@pytest.fixture(scope="session")
def degenerate_spec():
    return KouSpec(b_lo=0.05, b_hi=0.05, a_lo=0.2, a_hi=0.2,
                   lam_lo=1.5, lam_hi=1.5, lam_star=1.5, lam_floor=0.5)


@pytest.fixture(scope="session")
def degenerate_field(degenerate_spec):
    return build_field(degenerate_spec, 2)


@pytest.fixture(scope="session")
def kou_spec():
    return KouSpec(b_lo=0.0, b_hi=0.1, a_lo=0.1, a_hi=0.3,
                   lam_lo=1.0, lam_hi=2.0, lam_star=2.0, lam_floor=0.5)


@pytest.fixture(scope="session")
def kou_field(kou_spec):
    return build_field(kou_spec, 2)
