import dataclasses
import math

import numpy as np
import pytest

from sublevy.generator import symbol
from sublevy.kou import (
    GaussianBump,
    KouSpec,
    LinearKouTriplet,
    build_field,
    characteristic_exponent,
    clamp_jump,
    control_coefficients,
    double_exponential_measure,
    fourier_reference,
    verify_pushforward,
)

LOG2 = 0.6931471805599453
ONE_MINUS_LOG2 = 0.3068528194400547


def _spec_with(**bounds):
    """A valid spec with the given bounds replaced."""
    return dataclasses.replace(
        KouSpec(b_lo=0.0, b_hi=0.0, a_lo=0.1, a_hi=0.2, lam_lo=1.0, lam_hi=1.5, lam_star=1.5,
                lam_floor=0.5, lipschitz_constant=1.0), **bounds)


class TestKouSpec:
    def test_valid(self, kou_spec):
        kou_spec.validate()
        assert not kou_spec.degenerate

    def test_degenerate_property(self, degenerate_spec):
        assert degenerate_spec.degenerate

    def test_interval_order_enforced(self):
        with pytest.raises(ValueError):
            KouSpec(b_lo=1.0, b_hi=0.0, a_lo=0.1, a_hi=0.2,
                    lam_lo=1.0, lam_hi=1.0, lam_star=1.0, lam_floor=0.5).validate()
        with pytest.raises(ValueError):
            KouSpec(b_lo=0.0, b_hi=0.0, a_lo=0.5, a_hi=0.2,
                    lam_lo=1.0, lam_hi=1.0, lam_star=1.0, lam_floor=0.5).validate()
        with pytest.raises(ValueError):
            KouSpec(b_lo=0.0, b_hi=0.0, a_lo=0.1, a_hi=0.2,
                    lam_lo=1.0, lam_hi=2.5, lam_star=2.0, lam_floor=0.5).validate()
        # every comparison with nan is False, so a nan bound passed the order checks
        spec = KouSpec(b_lo=0.05, b_hi=0.05, a_lo=0.2, a_hi=0.2, lam_lo=1.0, lam_hi=1.0,
                       lam_star=1.5, lam_floor=0.5)
        for entry in [{"lam_hi": math.nan}, {"b_hi": math.inf}, {"a_hi": math.inf},
                      {"lam_star": math.inf}, {"lipschitz_constant": math.nan},
                      {"lipschitz_constant": math.inf}]:
            with pytest.raises(ValueError, match="finite"):
                dataclasses.replace(spec, **entry).validate()

    def test_floor_positive(self):
        with pytest.raises(ValueError):
            KouSpec(b_lo=0.0, b_hi=0.0, a_lo=0.0, a_hi=0.0,
                    lam_lo=1.0, lam_hi=1.0, lam_star=1.0, lam_floor=0.0).validate()

    def test_validate_alone_samples_no_state(self):
        # bounds that are state functions are build_field's to check, across its state box
        spec = KouSpec(b_lo=lambda x: np.sin(np.asarray(x, dtype=float)), b_hi=0.0,
                       a_lo=lambda x: np.where(np.asarray(x) > 5.0, math.nan, 0.1), a_hi=0.2,
                       lam_lo=1.0, lam_hi=1.0, lam_star=1.0, lam_floor=0.5, lipschitz_constant=1.0)
        spec.validate()
        # constant bounds are still checked against each other and the constants
        with pytest.raises(ValueError, match="lam_floor <= lam_lo"):
            dataclasses.replace(spec, lam_lo=0.25).validate()

    # build_field checks state-function bounds at the 201 states it samples across state_box

    def test_state_dependent_bounds_sampled(self):
        with pytest.raises(ValueError, match="b_lo > b_hi"):
            build_field(_spec_with(b_lo=lambda x: np.sin(np.asarray(x, dtype=float))), 2)

    def test_a_bound_not_finite_somewhere_in_the_box(self):
        spec = _spec_with(a_hi=lambda x: np.where(np.asarray(x) > 5.0, math.nan, 0.2))
        with pytest.raises(ValueError, match="finite"):
            build_field(spec, 2)
        build_field(spec, 2, state_box=(-5.0, 5.0))

    def test_bounds_checked_across_the_state_box(self):
        # b_lo(x) = x - 8.5 is below b_hi = 0 at x = -8, -3, -1, 0, 1, 3 and 8, but crosses
        # it at x = 8.5, inside the default state box (-10, 10)
        spec = _spec_with(b_lo=lambda x: np.asarray(x, dtype=float) - 8.5)
        with pytest.raises(ValueError, match="b_lo > b_hi"):
            build_field(spec, 2)
        # the box's endpoints are sampled: one that ends at 8.4 holds no crossing, one
        # that ends just past 8.5 holds one only at its endpoint
        build_field(spec, 2, state_box=(-10.0, 8.4))
        with pytest.raises(ValueError, match="b_lo > b_hi"):
            build_field(spec, 2, state_box=(-10.0, 8.5 + 1e-9))

    def test_only_the_state_box_is_sampled(self):
        # b_lo(x) = x - 5 <= -3 on (-2, 2); it crosses b_hi = 0 at x = 5, outside that box
        spec = _spec_with(b_lo=lambda x: np.asarray(x, dtype=float) - 5.0)
        field = build_field(spec, 2, state_box=(-2.0, 2.0))
        assert field.state_box == (-2.0, 2.0)
        with pytest.raises(ValueError, match="b_lo > b_hi"):
            build_field(spec, 2)


class TestLinearKouTriplet:
    def test_zero_intensity_allowed(self):
        LinearKouTriplet(b=1.0, a=0.0, lam=0.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LinearKouTriplet(b=0.0, a=-0.1, lam=1.0)
        with pytest.raises(ValueError):
            LinearKouTriplet(b=0.0, a=0.1, lam=-1.0)


class TestDoubleExponentialMeasure:
    def test_mass_and_tails(self):
        m = double_exponential_measure(2.0)
        assert m.total_mass == 4.0
        assert m.tail_upper(0.0) == pytest.approx(2.0)
        assert m.tail_upper(1.0) == pytest.approx(2.0 * math.exp(-1.0))
        assert m.tail_lower(-1.0) == pytest.approx(2.0 * math.exp(-1.0))
        assert m.tail_upper(-1.0) + m.tail_lower(-1.0) == pytest.approx(4.0)
        m.validate_mass()

    def test_sampler_is_inverse_cdf(self):
        m = double_exponential_measure(1.5)
        us = np.array([0.1, 0.25, 0.5, 0.75, 0.9])
        zs = m.sampler(us)
        # CDF of the normalized law at the sampled point recovers u
        cdf = np.where(zs <= 0, 0.5 * np.exp(zs), 1.0 - 0.5 * np.exp(-zs))
        assert np.allclose(cdf, us, atol=1e-12)

    def test_sampler_guards_endpoints(self):
        m = double_exponential_measure(1.0)
        assert np.all(np.isfinite(m.sampler(np.array([0.0, 1.0]))))

    def test_bad_intensity(self):
        with pytest.raises(ValueError):
            double_exponential_measure(0.0)


class TestClamp:
    def test_inside_clamp_region_maps_to_zero(self):
        assert clamp_jump(0.5, LOG2) == 0.0
        assert clamp_jump(-0.5, LOG2) == 0.0

    def test_outside_clamp_region_shrinks_toward_zero(self):
        assert clamp_jump(1.0, LOG2) == pytest.approx(ONE_MINUS_LOG2, abs=1e-15)
        assert clamp_jump(-1.0, LOG2) == pytest.approx(-ONE_MINUS_LOG2, abs=1e-15)

    def test_zero_ratio_is_identity(self):
        zs = np.linspace(-3, 3, 13)
        assert np.array_equal(clamp_jump(zs, 0.0), zs)

    def test_zero_maps_to_zero(self):
        assert clamp_jump(0.0, LOG2) == 0.0

    def test_contraction_in_log_intensity(self):
        zs = np.linspace(-5, 5, 101)
        for c1, c2 in [(0.0, 0.3), (0.2, 0.9), (1.0, 1.5)]:
            gap = np.abs(clamp_jump(zs, c1) - clamp_jump(zs, c2))
            assert np.all(gap <= abs(c1 - c2) + 1e-15)


class TestBuildField:
    def test_degenerate_controls_identical(self, degenerate_field):
        pts = degenerate_field.control_grid.points
        assert len(pts) == 1  # collapsed axes
        xs = np.linspace(-5, 5, 7)
        b = degenerate_field.drift(pts[0], xs)
        assert np.allclose(b, 0.05)

    def test_full_grid_size(self, kou_field):
        assert len(kou_field.control_grid.points) == 8

    def test_affine_in_control(self, kou_spec):
        b, a, lam = control_coefficients(kou_spec, (1.0, 0.0, 0.5), 0.0)
        assert b == pytest.approx(0.1)
        assert a == pytest.approx(0.1)
        assert lam == pytest.approx(1.5)

    def test_jump_map_is_clamp(self, kou_field):
        # control with lam = 1 against lam_star = 2
        f = (0.0, 0.0, 0.0)
        zs = np.array([0.5, 1.0, -1.0])
        got = np.asarray(kou_field.jump_density_map(f, 0.0, zs), dtype=float)
        assert got[0] == 0.0
        assert got[1] == pytest.approx(ONE_MINUS_LOG2, abs=1e-15)
        assert got[2] == pytest.approx(-ONE_MINUS_LOG2, abs=1e-15)

    @pytest.mark.parametrize("wave", [None, lambda x: np.cos(np.asarray(x, dtype=float))],
                             ids=["constant", "state-function"])
    def test_jump_map_reads_the_intensity_of_the_coefficients(self, wave):
        # drift and dispersion, too, read exactly their own coefficient
        def lo(base, amp):
            return base if wave is None else (lambda x: base + amp * wave(x))

        spec = KouSpec(b_lo=lo(0.0, 0.05), b_hi=0.1, a_lo=lo(0.1, 0.05), a_hi=0.3,
                       lam_lo=lo(1.0, 0.5), lam_hi=2.0, lam_star=2.0, lam_floor=0.5)
        field = build_field(spec, 2)
        xs = np.linspace(-10.0, 10.0, 41)
        zs = np.linspace(-3.0, 3.0, 41)
        assert len(field.control_grid.points) == 8
        for f in field.control_grid.points:
            b, a, lam = control_coefficients(spec, f, xs)
            assert np.array_equal(field.drift(f, xs), b)
            assert np.array_equal(field.dispersion(f, xs), np.sqrt(a))
            assert np.array_equal(field.jump_density_map(f, xs, zs), clamp_jump(zs, np.log(2.0 / lam)))

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            build_field(KouSpec(b_lo=0.0, b_hi=0.0, a_lo=0.3, a_hi=0.1,
                                lam_lo=1.0, lam_hi=1.0, lam_star=1.0,
                                lam_floor=0.5), 2)


class TestVerifyPushforward:
    def test_identity_regime(self):
        spec = KouSpec(b_lo=0.0, b_hi=0.0, a_lo=0.0, a_hi=0.0,
                       lam_lo=2.0, lam_hi=2.0, lam_star=2.0, lam_floor=0.5)
        err = verify_pushforward(spec, (0.0, 0.0, 0.0), 0.0,
                                 [0.1, 1.0, 3.0, -0.1, -1.0, -3.0])
        assert err <= 1e-8

    def test_clamped_regime_tail_value(self):
        spec = KouSpec(b_lo=0.0, b_hi=0.0, a_lo=0.0, a_hi=0.0,
                       lam_lo=1.0, lam_hi=1.0, lam_star=2.0, lam_floor=0.5)
        err = verify_pushforward(spec, (0.0, 0.0, 0.0), 0.0, [1.0])
        assert err <= 1e-8

    def test_zero_threshold_rejected(self, kou_spec):
        with pytest.raises(ValueError):
            verify_pushforward(kou_spec, (0.0, 0.0, 0.0), 0.0, [0.0])

    def test_far_tail_vanishes(self, kou_spec):
        err = verify_pushforward(kou_spec, (0.0, 0.0, 1.0), 0.0, [40.0])
        # closed form ~ 2e-18 and computed tail is 0 beyond the window
        assert err <= 1e-12


class TestCharacteristicExponent:
    def test_zero_frequency(self):
        trip = LinearKouTriplet(b=0.3, a=0.2, lam=1.5)
        assert characteristic_exponent(trip, 0.0) == 0

    def test_no_jumps_pure_drift(self):
        trip = LinearKouTriplet(b=1.0, a=0.0, lam=0.0)
        assert characteristic_exponent(trip, 1.0) == 1j

    @pytest.mark.parametrize("lam,lam_star", [(2.0, 2.0), (1.0, 2.0)])
    def test_agrees_with_negated_symbol(self, lam, lam_star):
        # two independent code paths: closed form vs push-forward quadrature
        spec = KouSpec(b_lo=0.05, b_hi=0.05, a_lo=0.2, a_hi=0.2,
                       lam_lo=lam, lam_hi=lam, lam_star=lam_star, lam_floor=0.5)
        field = build_field(spec, 1, z_cut=30.0, nz=64001)
        trip = LinearKouTriplet(b=0.05, a=0.2, lam=lam)
        f = field.control_grid.points[0]
        for xi in (0.3, 1.0, 2.0, 5.0):
            eta = characteristic_exponent(trip, xi)
            q = symbol(field, f, 0.0, xi)
            assert abs(eta - (-q)) <= 1e-8


class TestGaussianBump:
    def test_width_positive(self):
        with pytest.raises(ValueError):
            GaussianBump(1.0, 0.0, 0.0)

    def test_fourier_transform_matches_quadrature(self):
        bump = GaussianBump(0.8, 0.4, 1.3)
        xs = np.linspace(-15, 15, 20001)
        for xi in (0.0, 0.7, 2.0):
            direct = np.trapezoid(bump.value(xs) * np.exp(-1j * xi * xs), xs)
            assert abs(bump.fourier_transform(xi) - direct) <= 1e-10

    def test_blur_at_zero_variance_is_value(self):
        bump = GaussianBump(1.0, 0.2, 0.9)
        assert bump.gaussian_blur(0.5, 0.0, 0.0) == pytest.approx(float(bump.value(0.5)))


class TestFourierReference:
    def test_time_zero_recovers_payoff(self):
        trip = LinearKouTriplet(b=0.05, a=0.2, lam=1.5)
        bump = GaussianBump(1.0, 0.0, 1.0)
        got = fourier_reference(trip, bump, 0.0, 0.7)
        assert got == pytest.approx(float(bump.value(0.7)), abs=1e-10)

    def test_pure_drift_shifts_payoff(self):
        trip = LinearKouTriplet(b=0.3, a=0.0, lam=0.0)
        bump = GaussianBump(1.0, 0.0, 1.0)
        got = fourier_reference(trip, bump, 2.0, 0.5)
        assert got == pytest.approx(float(bump.value(0.5 + 0.6)), abs=1e-10)

    def test_pure_diffusion_is_gaussian_blur(self):
        trip = LinearKouTriplet(b=0.0, a=0.4, lam=0.0)
        bump = GaussianBump(1.0, 0.0, 1.0)
        got = fourier_reference(trip, bump, 1.0, 0.5)
        assert got == pytest.approx(bump.gaussian_blur(0.5, 0.0, 0.4), abs=1e-10)

    def test_unsupported_payoff_rejected(self):
        trip = LinearKouTriplet(b=0.0, a=0.1, lam=0.0)
        with pytest.raises(ValueError):
            fourier_reference(trip, lambda x: x, 1.0, 0.0)

    @pytest.mark.parametrize("T, x0", [(-1.0, 0.0), (math.nan, 0.0), (math.inf, 0.0),
                                       (1.0, math.nan), (1.0, math.inf)],
                             ids=["negative-T", "nan-T", "inf-T", "nan-x0", "inf-x0"])
    def test_negative_horizon_rejected(self, T, x0):
        # a nan reference value would pass fourier-check's max(worst, |diff|) gate
        trip = LinearKouTriplet(b=0.0, a=0.1, lam=0.0)
        with pytest.raises(ValueError):
            fourier_reference(trip, GaussianBump(), T, x0)
