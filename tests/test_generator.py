import math

import numpy as np
import pytest

from sublevy.core import (
    AuditError,
    CoefficientField,
    ControlGrid,
    clip_truncation,
    zero_jump_measure,
)
from sublevy.generator import (
    TestFunction as GenTestFunction,
    apply_generator,
    constant_function,
    gaussian_bump,
    hamiltonian_G,
    small_symbol_sup,
    symbol,
)
from sublevy.kou import build_field
from tests.conftest import constant_drift_field


class TestTestFunction:
    def test_gaussian_bump_derivatives_match_central_differences(self):
        xs, step = np.linspace(-3, 3, 11), 1e-6
        for f in (gaussian_bump(1.0, 0.0, 1.0), gaussian_bump(2.0, 0.5, 0.7)):
            fd_g = (f.value(xs + step) - f.value(xs - step)) / (2 * step)
            fd_h = (f.value(xs + step) - 2 * f.value(xs) + f.value(xs - step)) / step**2
            assert np.allclose(f.gradient(xs), fd_g, rtol=0, atol=1e-8)
            assert np.allclose(f.hessian(xs), fd_h, rtol=0, atol=1e-3)

    def test_constant_function(self):
        f = constant_function(3.5)
        xs = np.linspace(-4, 4, 9)
        assert np.all(f.value(xs) == 3.5)
        assert np.all(f.gradient(xs) == 0.0)
        assert np.all(f.hessian(xs) == 0.0)


class TestApplyGenerator:
    def test_constant_function_annihilated(self, kou_field):
        f = kou_field.control_grid.points[0]
        phi = constant_function(7.0)
        for x in (-1.0, 0.0, 2.0):
            assert apply_generator(kou_field, f, phi, x) == pytest.approx(0.0, abs=1e-12)

    def test_pure_drift_reads_gradient(self):
        field = constant_drift_field(2.0)
        phi = GenTestFunction(
            value=lambda x: np.sin(np.asarray(x, dtype=float)),
            gradient=lambda x: np.cos(np.asarray(x, dtype=float)),
            hessian=lambda x: -np.sin(np.asarray(x, dtype=float)),
        )
        got = apply_generator(field, field.control_grid.points[0], phi, 0.0)
        assert got == pytest.approx(2.0, abs=1e-14)

    def test_pure_diffusion_reads_hessian(self):
        field = constant_drift_field(0.0, sigma=math.sqrt(2.0))
        phi = GenTestFunction(
            value=lambda x: np.sin(np.asarray(x, dtype=float)),
            gradient=lambda x: np.cos(np.asarray(x, dtype=float)),
            hessian=lambda x: -np.sin(np.asarray(x, dtype=float)),
        )
        got = apply_generator(field, field.control_grid.points[0], phi, math.pi / 2.0)
        assert got == pytest.approx(-1.0, abs=1e-12)

    def test_jump_part_against_quadrature_oracle(self, kou_field):
        f = kou_field.control_grid.points[-1]
        phi = gaussian_bump(1.0, 0.0, 1.0)
        x = 0.4
        got = apply_generator(kou_field, f, phi, x)
        # rebuild the integral directly from the quadrature nodes
        quad = kou_field.reference.quadrature
        zs = quad.nodes
        ws = quad.weights
        ks = np.asarray(kou_field.jump_density_map(f, x, zs), dtype=float)
        hks = kou_field.truncation(ks)
        b = float(kou_field.drift(f, x))
        sig = float(kou_field.dispersion(f, x))
        jump = np.sum(ws * (phi.value(x + ks) - phi.value(x)
                            - hks * float(phi.gradient(x))))
        local = b * float(phi.gradient(x)) + 0.5 * sig * sig * float(phi.hessian(x))
        assert got == pytest.approx(local + jump, rel=1e-12)

    def test_non_finite_coefficient_diagnosed(self):
        grid = ControlGrid.uniform((0.0,), (1.0,), 2)
        field = CoefficientField(
            drift=lambda f, x: np.nan + 0.0 * np.asarray(x, dtype=float),
            dispersion=lambda f, x: 0.0 * np.asarray(x, dtype=float),
            jump_density_map=lambda f, x, z: 0.0 * np.asarray(z, dtype=float),
            reference=zero_jump_measure(),
            truncation=clip_truncation,
            control_grid=grid,
        )
        with pytest.raises(ValueError, match="non-finite"):
            apply_generator(field, grid.points[0], gaussian_bump(), 0.0)


class TestHamiltonian:
    def test_matches_brute_force_max(self, kou_field):
        phi = gaussian_bump(1.0, 0.3, 0.8)
        x = -0.2
        vals = []
        for f in kou_field.control_grid.points:
            # independent route: quadrature sum, not apply_generator
            quad = kou_field.reference.quadrature
            ks = np.asarray(kou_field.jump_density_map(f, x, quad.nodes), dtype=float)
            jump = np.sum(quad.weights * (phi.value(x + ks) - phi.value(x)
                                          - kou_field.truncation(ks)
                                          * float(phi.gradient(x))))
            b = float(kou_field.drift(f, x))
            sig = float(kou_field.dispersion(f, x))
            vals.append(b * float(phi.gradient(x))
                        + 0.5 * sig * sig * float(phi.hessian(x)) + jump)
        want = max(vals)
        got, f_star = hamiltonian_G(kou_field, phi, x)
        assert got == pytest.approx(want, rel=1e-10)
        assert vals[kou_field.control_grid.points.index(f_star)] == pytest.approx(
            want, rel=1e-10)

    def test_tie_break_takes_first_control(self):
        # three distinct controls that the coefficients ignore: an exact tie
        grid = ControlGrid.uniform((0.0,), (1.0,), 3)
        field = CoefficientField(
            drift=lambda f, x: 0.3 + 0.0 * np.asarray(x, dtype=float),
            dispersion=lambda f, x: 0.0 * np.asarray(x, dtype=float),
            jump_density_map=lambda f, x, z: 0.0 * np.asarray(z, dtype=float),
            reference=zero_jump_measure(),
            truncation=clip_truncation,
            control_grid=grid,
        )
        _, f_star = hamiltonian_G(field, gaussian_bump(), 0.1)
        assert f_star == grid.points[0]

    def test_constant_function_gives_zero(self, kou_field):
        val, _ = hamiltonian_G(kou_field, constant_function(5.0), 0.0)
        assert val == pytest.approx(0.0, abs=1e-12)


class TestSymbol:
    def test_zero_frequency(self, kou_field):
        f = kou_field.control_grid.points[0]
        assert symbol(kou_field, f, 0.0, 0.0) == 0

    def test_pure_drift(self):
        field = constant_drift_field(2.0)
        got = symbol(field, field.control_grid.points[0], 0.0, 1.0)
        assert got == pytest.approx(-2j, abs=1e-14)

    def test_pure_diffusion(self):
        field = constant_drift_field(0.0, sigma=1.0)
        got = symbol(field, field.control_grid.points[0], 0.0, 2.0)
        assert got == pytest.approx(2.0 + 0j, abs=1e-12)

    def test_conjugate_symmetry(self, kou_field):
        f = kou_field.control_grid.points[-1]
        xis = np.array([0.5, 1.0, 3.0])
        fwd = symbol(kou_field, f, 0.0, xis)
        bwd = symbol(kou_field, f, 0.0, -xis)
        assert np.allclose(np.conj(fwd), bwd, atol=1e-12)

    def test_array_frequencies(self, kou_field):
        f = kou_field.control_grid.points[0]
        xis = np.array([0.2, 0.9])
        arr = symbol(kou_field, f, 0.0, xis)
        assert arr.shape == (2,)
        assert arr[0] == pytest.approx(symbol(kou_field, f, 0.0, 0.2))

    def test_non_finite_drift_rejected(self):
        # the drift was read unchecked, so the symbol came back nan+nanj
        with pytest.raises(AuditError, match="non-finite drift"):
            symbol(constant_drift_field(np.nan), (0.0,), 0.0, 1.0)


class TestSmallSymbolSup:
    def test_non_finite_drift_rejected(self):
        # max(0.0, nan) is 0.0, so a nan drift gave a sup of 0.0: a certificate on garbage
        with pytest.raises(AuditError, match="non-finite drift"):
            small_symbol_sup(constant_drift_field(np.nan), 0.5)

    def test_zero_coefficients_give_zero(self):
        field = constant_drift_field(0.0)
        assert small_symbol_sup(field, 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_pure_drift_scales_linearly(self):
        field = constant_drift_field(1.0)
        r = 0.25
        # |psi(xi)| = |b xi| <= b r on |xi| <= r, attained at the endpoint
        assert small_symbol_sup(field, r) == pytest.approx(r, rel=1e-9)

    def test_radius_must_be_positive(self, kou_field):
        with pytest.raises(ValueError):
            small_symbol_sup(kou_field, 0.0)

    def test_decreases_with_radius(self, kou_field):
        sups = [small_symbol_sup(kou_field, r) for r in (0.4, 0.1, 0.025)]
        assert sups[0] > sups[1] > sups[2]

