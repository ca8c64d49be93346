import dataclasses
import math

import numpy as np
import pytest

from sublevy.core import (
    AuditError,
    CoefficientField,
    ControlGrid,
    JumpReferenceMeasure,
    Quadrature,
    QuadratureError,
    TruncationFunction,
    audit_conditions,
    pushforward_tail,
    simpson_quadrature,
    zero_jump_measure,
)
from sublevy.kou import KouSpec, build_field, double_exponential_measure

from tests.conftest import constant_drift_field


class TestTruncation:
    def test_clip_is_identity_inside_unit_ball(self):
        h = TruncationFunction.clip()
        ys = np.array([-1.0, -0.3, 0.0, 0.7, 1.0])
        assert np.array_equal(h.evaluate(ys), ys)

    def test_clip_saturates_and_stays_bounded(self):
        h = TruncationFunction.clip()
        ys = np.array([-5.0, -1.5, 1.5, 100.0])
        out = h.evaluate(ys)
        assert np.array_equal(out, np.array([-1.0, -1.0, 1.0, 1.0]))
        assert np.all(np.abs(out) <= h.bound)

    def test_constants(self):
        h = TruncationFunction.clip()
        assert h.kind == "clip"
        assert h.lipschitz_bound == 1.0
        assert h.identity_radius == 1.0

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            TruncationFunction(kind="spline", evaluate=lambda y: y,
                               lipschitz_bound=1.0, identity_radius=1.0, bound=1.0)

    def test_bad_constants_rejected(self):
        with pytest.raises(ValueError):
            TruncationFunction(kind="custom", evaluate=lambda y: y,
                               lipschitz_bound=-1.0, identity_radius=1.0, bound=1.0)


class TestControlGrid:
    def test_uniform_lexicographic_order(self):
        g = ControlGrid.uniform((0.0, 0.0), (1.0, 1.0), 2)
        assert g.points == ((0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0))
        assert g.resolution == (2, 2)

    def test_collapsed_axis_single_point(self):
        g = ControlGrid.uniform((0.0, 0.5), (1.0, 0.5), 3)
        assert g.resolution == (3, 1)
        assert all(p[1] == 0.5 for p in g.points)

    def test_per_axis_resolution(self):
        g = ControlGrid.uniform((0.0, 0.0), (1.0, 1.0), (2, 3))
        assert len(g.points) == 6

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ControlGrid(points=(), resolution=(), box_lo=(), box_hi=())

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            ControlGrid(points=((0.0,), (0.0,)), resolution=(2,),
                        box_lo=(0.0,), box_hi=(1.0,))

    def test_out_of_box_rejected(self):
        with pytest.raises(ValueError):
            ControlGrid(points=((2.0,),), resolution=(1,), box_lo=(0.0,), box_hi=(1.0,))

    def test_bad_resolution_rejected(self):
        with pytest.raises(ValueError):
            ControlGrid.uniform((0.0,), (1.0,), 0)

    def test_inverted_box_rejected(self):
        with pytest.raises(ValueError):
            ControlGrid.uniform((1.0,), (0.0,), 2)


class TestQuadrature:
    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            Quadrature(nodes=np.array([0.0, 1.0]), weights=np.array([1.0, -1.0]), z_cut=1.0)

    def test_non_increasing_nodes_rejected(self):
        with pytest.raises(ValueError):
            Quadrature(nodes=np.array([0.0, 0.0]), weights=np.array([1.0, 1.0]), z_cut=1.0)

    def test_simpson_mass_matches_analytic_tails(self):
        z = 10.0
        truth = 2.0 * (1.0 - math.exp(-z))
        quad = simpson_quadrature(lambda s: np.exp(-np.abs(s)), z, 401)
        assert quad.mass == pytest.approx(truth, abs=1e-6)
        # fourth-order rate: doubling the nodes cuts the error by ~16
        fine = simpson_quadrature(lambda s: np.exp(-np.abs(s)), z, 801)
        assert abs(fine.mass - truth) < abs(quad.mass - truth) / 12.0

    def test_simpson_single_zero_node(self):
        quad = simpson_quadrature(lambda s: np.ones_like(s), 1.0, 11)
        assert np.count_nonzero(quad.nodes == 0.0) == 1
        assert quad.mass == pytest.approx(2.0, abs=1e-12)

    def test_simpson_kink_does_not_degrade(self):
        # the split-at-zero rule keeps 4th-order accuracy for |z|-kinked densities
        coarse = simpson_quadrature(lambda s: np.exp(-np.abs(s)), 5.0, 51)
        fine = simpson_quadrature(lambda s: np.exp(-np.abs(s)), 5.0, 101)
        truth = 2.0 * (1.0 - math.exp(-5.0))
        e_c = abs(coarse.mass - truth)
        e_f = abs(fine.mass - truth)
        assert e_f < e_c / 8.0

    def test_simpson_bad_args(self):
        with pytest.raises(ValueError):
            simpson_quadrature(lambda s: s, 1.0, 2)
        with pytest.raises(ValueError):
            simpson_quadrature(lambda s: s, -1.0, 11)


class TestJumpReferenceMeasure:
    def test_zero_measure(self):
        m = zero_jump_measure()
        assert m.total_mass == 0.0
        assert m.window_mass == 0.0
        assert m.tail_mass_outside_window() == 0.0
        m.validate_mass()

    def test_validate_mass_catches_mismatch(self):
        quad = simpson_quadrature(lambda s: np.exp(-np.abs(s)), 5.0, 101)
        bad = JumpReferenceMeasure(
            density=lambda s: 2.0 * np.exp(-np.abs(np.asarray(s, dtype=float))),
            total_mass=4.0,
            tail_upper=lambda y: 2.0 * math.exp(-y),
            tail_lower=lambda y: 2.0 * math.exp(y),
            quadrature=quad,
        )
        with pytest.raises(QuadratureError):
            bad.validate_mass()

    def test_validate_mass_catches_an_unresolved_peak(self):
        # nodes 15 apart put one Simpson weight on the exp(-|z|) peak; a fine
        # trapezoid over the same window does the same, the exact mass does not
        m = double_exponential_measure(1.5, z_cut=1e5, nz=13333)
        assert m.window_mass == pytest.approx(15.0, rel=1e-3)
        with pytest.raises(QuadratureError):
            m.validate_mass()


class TestCoefficientField:
    def test_bad_state_box_rejected(self):
        with pytest.raises(ValueError):
            CoefficientField(
                dimension=1, drift=lambda f, x: x, dispersion=lambda f, x: x,
                jump_density_map=lambda f, x, z: z, reference=zero_jump_measure(),
                truncation=TruncationFunction.clip(),
                control_grid=ControlGrid.uniform((0.0,), (0.0,), 1),
                state_box=(1.0, -1.0),
            )

    @pytest.mark.parametrize("axes", [(0, 1), (0, 0, 1), (0, 1, 3), (-1, 0, 1)],
                             ids=["two", "repeated", "out-of-range", "negative"])
    def test_control_axes_name_three_distinct_coordinates(self, kou_field, axes):
        assert kou_field.control_axes == (0, 1, 2)
        with pytest.raises(ValueError, match="control_axes"):
            dataclasses.replace(kou_field, control_axes=axes)


class TestAudit:
    def test_kou_field_passes(self, kou_field):
        audit = audit_conditions(kou_field, 128, 3)
        assert audit.passed
        assert audit.lipschitz_constant_estimate == pytest.approx(0.0, abs=1e-12)
        # drift up to 0.1, dispersion up to sqrt(0.3)
        assert audit.sup_drift_dispersion == pytest.approx(0.1 + math.sqrt(0.3), abs=1e-9)
        assert audit.coefficient_bound > 0

    def test_deterministic_in_seed(self, kou_field):
        a1 = audit_conditions(kou_field, 64, 11)
        a2 = audit_conditions(kou_field, 64, 11)
        assert a1.lipschitz_constant_estimate == a2.lipschitz_constant_estimate
        assert a1.sup_jump_moment == a2.sup_jump_moment

    def test_bad_budget_rejected(self, kou_field):
        with pytest.raises(ValueError):
            audit_conditions(kou_field, 0, 1)

    def test_non_finite_drift_detected(self):
        field = CoefficientField(
            dimension=1,
            drift=lambda f, x: np.where(np.asarray(x) > 0, np.nan, 0.0),
            dispersion=lambda f, x: 0.0 * np.asarray(x, dtype=float),
            jump_density_map=lambda f, x, z: 0.0 * (np.asarray(x) + np.asarray(z)),
            reference=zero_jump_measure(),
            truncation=TruncationFunction.clip(),
            control_grid=ControlGrid.uniform((0.0,), (0.0,), 1),
        )
        with pytest.raises(AuditError):
            audit_conditions(field, 32, 0)

    def test_non_finite_drift_at_a_partner_state_detected(self):
        # the partner states were read unchecked: this drift, nan beyond x = 9, passed
        # with a Lipschitz estimate of 0.0 from the state 0.236 and its partner 9.009
        field = CoefficientField(
            dimension=1,
            drift=lambda f, x: np.where(np.asarray(x) > 9.0, np.nan, 0.0),
            dispersion=lambda f, x: 0.0 * np.asarray(x, dtype=float),
            jump_density_map=lambda f, x, z: 0.0 * (np.asarray(x) + np.asarray(z)),
            reference=zero_jump_measure(),
            truncation=TruncationFunction.clip(),
            control_grid=ControlGrid.uniform((0.0,), (0.0,), 1),
            declared_lipschitz=0.0,
        )
        with pytest.raises(AuditError, match=r"non-finite drift at control \(0\.0,\), state 9\.009"):
            audit_conditions(field, 1, 1)

    def test_lipschitz_violation_recorded(self):
        field = CoefficientField(
            dimension=1,
            drift=lambda f, x: 3.0 * np.asarray(x, dtype=float),
            dispersion=lambda f, x: 0.0 * np.asarray(x, dtype=float),
            jump_density_map=lambda f, x, z: 0.0 * (np.asarray(x) + np.asarray(z)),
            reference=zero_jump_measure(),
            truncation=TruncationFunction.clip(),
            control_grid=ControlGrid.uniform((0.0,), (0.0,), 1),
            declared_lipschitz=1.0,
        )
        audit = audit_conditions(field, 64, 0)
        assert not audit.passed
        assert any(kind == "drift-dispersion-lipschitz" for kind, _ in audit.violations)
        assert audit.lipschitz_constant_estimate == pytest.approx(3.0, rel=1e-6)

    def test_coefficient_bound_violation_recorded(self, kou_spec):
        field = build_field(kou_spec, 2)
        tight = CoefficientField(
            dimension=1, drift=field.drift, dispersion=field.dispersion,
            jump_density_map=field.jump_density_map, reference=field.reference,
            truncation=field.truncation, control_grid=field.control_grid,
            declared_bound=1e-6, gamma=field.gamma,
        )
        audit = audit_conditions(tight, 32, 0)
        assert any(kind == "coefficient-bound" for kind, _ in audit.violations)

    def test_jump_majorant_violation_recorded(self):
        spec = KouSpec(b_lo=0.0, b_hi=0.0, a_lo=0.0, a_hi=0.0,
                       lam_lo=2.0, lam_hi=2.0, lam_star=2.0, lam_floor=0.5)
        field = build_field(spec, 1)
        bad = CoefficientField(
            dimension=1, drift=field.drift, dispersion=field.dispersion,
            jump_density_map=field.jump_density_map, reference=field.reference,
            truncation=field.truncation, control_grid=field.control_grid,
            gamma=lambda z: 0.0 * np.asarray(z, dtype=float),
        )
        audit = audit_conditions(bad, 32, 0)
        assert any(kind == "jump-size-majorant" for kind, _ in audit.violations)

    def test_majorants_cover_sampled_jumps(self, kou_field):
        audit = audit_conditions(kou_field, 64, 5)
        zs = np.linspace(-8.0, 8.0, 33)
        beta = audit.beta_majorant(zs)
        gamma = audit.gamma_majorant(zs)
        assert np.all(gamma >= beta - 1e-12)
        # identity-region marks map to |kappa| <= |z|
        assert np.all(beta <= np.abs(zs) + 1e-12)


class TestPushforwardTail:
    def test_zero_jump_map_gives_zero(self):
        field = constant_drift_field(1.0)
        assert pushforward_tail(field, (0.0,), 0.0, 0.5) == 0.0
        assert pushforward_tail(field, (0.0,), 0.0, -2.0) == 0.0

    def test_zero_threshold_rejected(self, kou_field):
        with pytest.raises(ValueError):
            pushforward_tail(kou_field, kou_field.control_grid.points[0], 0.0, 0.0)

    def test_identity_map_matches_reference_tails(self):
        spec = KouSpec(b_lo=0.0, b_hi=0.0, a_lo=0.0, a_hi=0.0,
                       lam_lo=2.0, lam_hi=2.0, lam_star=2.0, lam_floor=0.5)
        field = build_field(spec, 1)
        f = field.control_grid.points[0]
        for y in (0.1, 1.0, 3.0, -0.1, -1.0, -3.0):
            got = pushforward_tail(field, f, 0.0, y)
            assert got == pytest.approx(2.0 * math.exp(-abs(y)), abs=1e-10)

    def test_clamped_tail_near_zero_approaches_intensity(self):
        spec = KouSpec(b_lo=0.0, b_hi=0.0, a_lo=0.0, a_hi=0.0,
                       lam_lo=1.0, lam_hi=1.0, lam_star=2.0, lam_floor=0.5)
        field = build_field(spec, 1)
        f = field.control_grid.points[0]
        got = pushforward_tail(field, f, 0.0, 1e-9)
        assert got == pytest.approx(1.0, abs=1e-8)

    def test_clamped_tail_at_one_is_lam_over_e(self):
        spec = KouSpec(b_lo=0.0, b_hi=0.0, a_lo=0.0, a_hi=0.0,
                       lam_lo=1.0, lam_hi=1.0, lam_star=2.0, lam_floor=0.5)
        field = build_field(spec, 1)
        f = field.control_grid.points[0]
        got = pushforward_tail(field, f, 0.0, 1.0)
        assert got == pytest.approx(0.36787944117144233, abs=1e-10)

    def test_non_finite_jump_map_rejected(self):
        # a nan jump size failed both indicator tests, so the tail read 0.0
        spec = KouSpec(b_lo=0.0, b_hi=0.0, a_lo=0.0, a_hi=0.0,
                       lam_lo=2.0, lam_hi=2.0, lam_star=2.0, lam_floor=0.5)
        field = dataclasses.replace(
            build_field(spec, 1),
            jump_density_map=lambda f, x, z: np.where(np.asarray(z) > 0, np.nan, z) + 0.0 * x,
        )
        with pytest.raises(AuditError, match="non-finite jump map"):
            pushforward_tail(field, field.control_grid.points[0], 0.0, 0.5)

    def test_far_threshold_gives_zero(self, kou_field):
        f = kou_field.control_grid.points[0]
        assert pushforward_tail(kou_field, f, 0.0, 50.0) == 0.0
