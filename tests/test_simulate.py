import dataclasses
import math
import os
import re
import tracemalloc

import numpy as np
import pytest
from scipy.stats import ks_2samp

from sublevy.core import (
    CoefficientField,
    ControlGrid,
    JumpReferenceMeasure,
    Quadrature,
    clip_truncation,
    zero_jump_measure,
)
from sublevy.kou import GaussianBump, KouSpec, build_field, double_exponential_measure
from sublevy.pide import SpatialGrid, _compensator, solve
from sublevy import _pool, simulate
from sublevy.simulate import (
    CHUNK,
    PolicySchedule,
    _chunk_rng,
    _Plan,
    _steps,
    _terminals,
    estimate_value,
    mc_lower_bound,
)
from tests.conftest import constant_drift_field, every_step_argmax


def _linear_decay_field():
    """Deterministic ODE x' = -x: exact solution x0 exp(-t)."""
    grid = ControlGrid.uniform((0.0,), (0.0,), 1)
    return CoefficientField(
        drift=lambda f, x: -np.asarray(x, dtype=float),
        dispersion=lambda f, x: 0.0 * np.asarray(x, dtype=float),
        jump_density_map=lambda f, x, z: 0.0 * np.asarray(z, dtype=float),
        reference=zero_jump_measure(),
        truncation=clip_truncation,
        control_grid=grid,
    )


class TestPolicySchedule:
    def test_constant_policy(self):
        p = PolicySchedule.constant(((0.0,), (1.0,)), index=1)
        assert p.shares.tolist() == [0.0, 1.0]
        assert np.all(p.control_indices(0.3, np.array([-5.0, 0.0, 5.0])) == 1)

    def test_knots_must_start_at_zero(self):
        with pytest.raises(ValueError):
            PolicySchedule(time_knots=np.array([0.1]),
                           indices=np.array([[0]]),
                           grid=None,
                           controls=((0.0,),))

    def test_knots_must_increase(self):
        with pytest.raises(ValueError):
            PolicySchedule(time_knots=np.array([0.0, 0.0]),
                           indices=np.zeros((2, 1), dtype=int),
                           grid=None,
                           controls=((0.0,),))

    def test_index_shape_and_range_checked(self):
        with pytest.raises(ValueError):
            PolicySchedule(time_knots=np.array([0.0]),
                           indices=np.zeros((2, 1), dtype=int),
                           grid=None,
                           controls=((0.0,),))
        with pytest.raises(ValueError):
            PolicySchedule(time_knots=np.array([0.0]),
                           indices=np.array([[3]]),
                           grid=None,
                           controls=((0.0,),))

    @pytest.mark.parametrize("grid", [np.array([-1.0, 0.0, 1.0]), (-1.0, 1.0, 3)],
                             ids=["centers", "tuple"])
    def test_grid_must_be_a_spatial_grid(self, grid):
        with pytest.raises(ValueError, match="SpatialGrid"):
            PolicySchedule(time_knots=np.array([0.0]),
                           indices=np.zeros((1, 3), dtype=int),
                           grid=grid,
                           controls=((0.0,),))

    @pytest.mark.parametrize("grid", [SpatialGrid(-10.0, 10.0, 801),
                                      SpatialGrid(-10.0, 10.0, 800)],
                             ids=["odd", "even"])
    def test_control_indices_pick_the_nearest_node(self, grid):
        xs = grid.xs()
        rng = np.random.default_rng(17)
        x = rng.uniform(grid.x_min - 1.0, grid.x_max + 1.0, 10_000)
        # every cell maps to a distinct index, so indices name the cell
        p = PolicySchedule(time_knots=np.array([0.0]),
                           indices=np.arange(grid.nx)[None, :],
                           grid=grid,
                           controls=tuple((float(i),) for i in range(grid.nx)))
        nearest = np.abs(x[:, None] - xs).argmin(axis=1)
        assert np.array_equal(p.control_indices(0.0, x), nearest)

    def test_indices_must_be_integers(self):
        # a float index would be truncated: 0.9 -> 0 and 1.6 -> 1
        with pytest.raises(ValueError, match="indices must be integers"):
            PolicySchedule(time_knots=np.array([0.0]),
                           indices=np.array([[0.9, 1.6, 0.0, 0.0]]),
                           grid=SpatialGrid(-1.5, 1.5, 4),
                           controls=((0.0,), (1.0,)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_knots_must_be_finite(self, bad):
        # nan <= 0 is False, so a strict-increase test alone lets nan through
        with pytest.raises(ValueError, match="time knots"):
            PolicySchedule(time_knots=np.array([0.0, bad]),
                           indices=np.zeros((2, 1), dtype=int),
                           grid=None,
                           controls=((0.0,),))

    def test_control_indices_select_time_row_and_nearest_cell(self):
        p = PolicySchedule(
            time_knots=np.array([0.0, 0.5]),
            indices=np.array([[0, 0, 1], [1, 1, 0]]),
            grid=SpatialGrid(-1, 1, 3),
            controls=((0.0,), (1.0,)),
        )
        xs = np.array([-0.9, 0.2, 3.0])
        assert p.control_indices(0.2, xs).tolist() == [0, 0, 1]
        # from the second knot on, rows switch; the knot itself uses the new row
        assert p.control_indices(0.5, xs).tolist() == [1, 1, 0]
        assert p.control_indices(0.9, xs).tolist() == [1, 1, 0]


class TestSamplePath:
    """One-step runs of the step loop: the state a path reaches in a step."""

    def test_zero_coefficients_freeze_the_state(self):
        field = constant_drift_field(0.0)
        policy = PolicySchedule.constant(field.control_grid.points)
        x, jumps = _terminals(field, policy, 1.3, 0.25, 0.25, 1, seed=7, collect_jumps=True)
        assert x.tolist() == [1.3]
        assert jumps.size == 0

    def test_pure_drift_is_exact(self):
        field = constant_drift_field(1.0)
        policy = PolicySchedule.constant(field.control_grid.points)
        assert _terminals(field, policy, 0.0, 1.0, 1.0, 1, seed=0).tolist() == [1.0]

    def test_same_seed_same_path(self, degenerate_field):
        policy = PolicySchedule.constant(degenerate_field.control_grid.points)
        args = (degenerate_field, policy, 0.0, 0.05, 0.05, 1)
        x1, j1 = _terminals(*args, seed=11, collect_jumps=True)
        x2, j2 = _terminals(*args, seed=11, collect_jumps=True)
        assert np.array_equal(x1, x2)
        assert np.array_equal(j1, j2)

    def test_different_seed_different_path(self, degenerate_field):
        policy = PolicySchedule.constant(degenerate_field.control_grid.points)
        args = (degenerate_field, policy, 0.0, 0.05, 0.05, 1)
        assert not np.array_equal(_terminals(*args, seed=11), _terminals(*args, seed=12))


def _tent(x):
    """Zero at the states -10, 0 and 10, one at |x| = 5."""
    return np.maximum(0.0, 1.0 - np.abs(np.abs(x) - 5.0) / 5.0)


def _one_control_field(drift, dispersion, jump_density_map, reference):
    return CoefficientField(
        drift=drift,
        dispersion=dispersion,
        jump_density_map=jump_density_map,
        reference=reference,
        truncation=clip_truncation,
        control_grid=ControlGrid.uniform((0.0,), (0.0,), 1),
    )


class TestStateDependence:
    """Coefficients are evaluated at the paths' own states, never at sample states."""

    def test_drift_vanishing_at_box_edges_and_midpoint(self):
        field = _one_control_field(
            lambda f, x: x * (x * x - 100.0) / 100.0,
            lambda f, x: 0.0 * x,
            lambda f, x, z: 0.0 * (x + z),
            zero_jump_measure(),
        )
        policy = PolicySchedule.constant(field.control_grid.points)
        x = _terminals(field, policy, 5.0, 0.01, 0.01, 1, seed=0)
        assert x[0] == pytest.approx(5.0 - 3.75 * 0.01, abs=1e-14)

    @pytest.mark.parametrize("zero", [lambda f, x: 0.0 * x, lambda f, x: 0.0],
                             ids=["array", "scalar"])
    def test_compensator_of_a_state_dependent_jump_map(self, zero):
        # the scalar form leaves only the jump table to show the state
        # dependence, and one path gives a one-row table at each step
        measure = double_exponential_measure(1.0)
        field = _one_control_field(zero, zero,
                                   lambda f, x, z: _tent(x) * np.abs(z), measure)
        policy = PolicySchedule.constant(field.control_grid.points)
        x, jumps = _terminals(field, policy, 5.0, 0.001, 0.001, 1, seed=3, collect_jumps=True)
        assert jumps.size == 0
        quad = measure.quadrature
        comp = float(np.clip(np.abs(quad.nodes), -1.0, 1.0) @ quad.weights)
        assert x[0] == pytest.approx(5.0 - 0.001 * comp, abs=1e-14)
        assert x[0] == pytest.approx(4.998735849813832, abs=1e-14)

    def test_full_shape_coefficients_agree_with_state_free_ones(self, kou_field):
        def full(fn):
            return lambda f, *args: np.broadcast_to(
                fn(f, *args), np.broadcast_shapes(*(np.shape(a) for a in args)))

        per_state = dataclasses.replace(
            kou_field,
            drift=full(kou_field.drift),
            dispersion=full(kou_field.dispersion),
            jump_density_map=full(kou_field.jump_density_map),
        )
        n_controls = len(kou_field.control_grid.points)
        policy = PolicySchedule(
            time_knots=np.array([0.0, 0.25]),
            indices=np.array([[0, 3, 5, 7], [6, 1, 4, 2]]) % n_controls,
            grid=SpatialGrid(-1.5, 1.5, 4),
            controls=kou_field.control_grid.points,
        )
        args = (policy, np.tanh, 0.0, 0.5, 0.01, 2000)
        m_table, _ = estimate_value(kou_field, *args, seed=9)
        m_state, _ = estimate_value(per_state, *args, seed=9)
        assert abs(m_table - m_state) <= 1e-12


class TestEstimateValue:
    def test_policy_for_another_control_grid_rejected(self, kou_spec, kou_field):
        # index 5 of the 27-point grid is (0, 0.5, 1); on the 8-point grid
        # it is (1, 0, 1), which was simulated silently
        fine = build_field(kou_spec, 3).control_grid.points
        policy = PolicySchedule.constant(fine, index=5)
        with pytest.raises(ValueError, match="control grid"):
            estimate_value(kou_field, policy, np.tanh, 0.0, 0.5, 0.01, 100, seed=3)

    @pytest.mark.parametrize("x0", [math.nan, math.inf, -math.inf])
    def test_non_finite_x0_rejected(self, kou_field, x0):
        # a grid policy cast NaN to a cell index and failed with an IndexError
        grid = SpatialGrid(-10.0, 10.0, 101)
        fieldU = solve(kou_field, np.tanh, 0.2, grid, policy=True)
        policy = fieldU.policy
        with pytest.raises(ValueError, match="x0"):
            estimate_value(kou_field, policy, np.tanh, x0, 0.2, 0.01, 100, seed=3)
        with pytest.raises(ValueError, match="x0"):
            mc_lower_bound(kou_field, fieldU, np.tanh, x0, 0.2, 0.01, 100, seed=3)

    @pytest.mark.parametrize("T, dt", [(math.nan, 0.01), (0.2, math.nan), (0.2, math.inf),
                                       (0.2, 0.0), (0.0, 0.01)])
    def test_non_finite_horizon_or_step_rejected(self, kou_field, T, dt):
        # a NaN failed later in int(round(nan)); dt = inf ran one step; zero is no step
        policy = PolicySchedule.constant(kou_field.control_grid.points)
        with pytest.raises(ValueError, match="T and dt"):
            estimate_value(kou_field, policy, np.tanh, 0.0, T, dt, 100, seed=3)

    def test_pure_drift_identity_payoff(self):
        field = constant_drift_field(1.0)
        policy = PolicySchedule.constant(field.control_grid.points)
        mean, stderr = estimate_value(field, policy, lambda x: x,
                                      0.0, 1.0, 0.25, 64, seed=0)
        assert mean == 1.0
        assert stderr == 0.0

    def test_a_payoff_that_returns_a_plain_number(self, degenerate_field):
        # a psi without a state axis is broadcast over the paths
        policy = PolicySchedule.constant(degenerate_field.control_grid.points)
        mean, stderr = estimate_value(degenerate_field, policy, lambda x: 0.7,
                                      0.0, 0.5, 0.1, 32, seed=0)
        assert abs(mean - 0.7) <= 1e-15
        assert stderr < 1e-15

    def test_constant_payoff(self, degenerate_field):
        policy = PolicySchedule.constant(degenerate_field.control_grid.points)
        mean, stderr = estimate_value(degenerate_field, policy,
                                      lambda x: 2.5 + 0.0 * x,
                                      0.0, 0.5, 0.1, 32, seed=0)
        assert mean == 2.5
        assert stderr == 0.0

    def test_reproducible_across_calls(self, degenerate_field):
        policy = PolicySchedule.constant(degenerate_field.control_grid.points)
        args = (degenerate_field, policy, lambda x: np.tanh(x), 0.0, 0.5, 0.05)
        m1, s1 = estimate_value(*args, 500, seed=42)
        m2, s2 = estimate_value(*args, 500, seed=42)
        assert (m1, s1) == (m2, s2)
        m3, _ = estimate_value(*args, 500, seed=43)
        assert m3 != m1

    def test_needs_two_paths(self, degenerate_field):
        policy = PolicySchedule.constant(degenerate_field.control_grid.points)
        with pytest.raises(ValueError):
            estimate_value(degenerate_field, policy, np.tanh, 0.0, 1.0, 0.1,
                           1, seed=0)

    def test_euler_error_shrinks_linearly(self):
        field = _linear_decay_field()
        policy = PolicySchedule.constant(field.control_grid.points)
        exact = math.exp(-1.0)
        errs = []
        for dt in (0.1, 0.05):
            mean, _ = estimate_value(field, policy, lambda x: x,
                                     1.0, 1.0, dt, 2, seed=0)
            errs.append(abs(mean - exact))
        assert errs[0] < 0.05
        assert errs[1] < errs[0] * 0.7


class TestJumpStatistics:
    def test_jump_count_matches_poisson_rate(self, degenerate_field):
        # reference mass 2 lam_star = 3; T = 1; expect mass*T per path
        policy = PolicySchedule.constant(degenerate_field.control_grid.points)
        n = CHUNK + 500  # spans two chunks
        _, marks = _terminals(degenerate_field, policy, 0.0, 1.0, 0.05, n,
                              seed=5, collect_jumps=True)
        mu = degenerate_field.reference.total_mass * 1.0 * n
        z = abs(marks.size - mu) / math.sqrt(mu)
        assert z < 3.5

    def test_marks_are_centered(self, degenerate_field):
        policy = PolicySchedule.constant(degenerate_field.control_grid.points)
        _, marks = _terminals(degenerate_field, policy, 0.0, 1.0, 0.05, 2000,
                              seed=6, collect_jumps=True)
        # symmetric double-exponential marks: mean 0, sd sqrt(2)
        assert abs(np.mean(marks)) < 4.0 * math.sqrt(2.0 / marks.size)


class TestMeasureRequirements:
    def test_infinite_mass_rejected(self):
        quad = Quadrature(nodes=np.array([-1.0, 1.0]),
                          weights=np.array([1.0, 1.0]), z_cut=2.0)
        measure = JumpReferenceMeasure(
            total_mass=math.inf,
            tail_upper=lambda y: 1.0 / max(y, 1e-12),
            tail_lower=lambda y: 1.0 / max(-y, 1e-12),
            quadrature=quad,
        )
        field = CoefficientField(
            drift=lambda f, x: 0.0 * np.asarray(x, dtype=float),
            dispersion=lambda f, x: 0.0 * np.asarray(x, dtype=float),
            jump_density_map=lambda f, x, z: np.asarray(z, dtype=float),
            reference=measure,
            truncation=clip_truncation,
            control_grid=ControlGrid.uniform((0.0,), (0.0,), 1),
        )
        policy = PolicySchedule.constant(field.control_grid.points)
        with pytest.raises(ValueError, match="finite-mass"):
            estimate_value(field, policy, np.tanh, 0.0, 1.0, 0.1, 2, seed=0)

    def test_missing_sampler_rejected(self):
        quad = Quadrature(nodes=np.array([-1.0, 1.0]),
                          weights=np.array([1.0, 1.0]), z_cut=2.0)
        measure = JumpReferenceMeasure(
            total_mass=2.0,
            tail_upper=lambda y: max(0.0, 1.0 - y),
            tail_lower=lambda y: max(0.0, 1.0 + y),
            quadrature=quad,
            sampler=None,
        )
        field = CoefficientField(
            drift=lambda f, x: 0.0 * np.asarray(x, dtype=float),
            dispersion=lambda f, x: 0.0 * np.asarray(x, dtype=float),
            jump_density_map=lambda f, x, z: np.asarray(z, dtype=float),
            reference=measure,
            truncation=clip_truncation,
            control_grid=ControlGrid.uniform((0.0,), (0.0,), 1),
        )
        policy = PolicySchedule.constant(field.control_grid.points)
        with pytest.raises(ValueError, match="sampler"):
            estimate_value(field, policy, np.tanh, 0.0, 1.0, 0.1, 2, seed=0)


class TestPolicyFromPide:
    def test_single_control_policy_is_trivial(self, degenerate_field):
        grid = SpatialGrid(-10.0, 10.0, 101)
        fieldU = solve(degenerate_field, lambda x: np.exp(-x * x), 0.2, grid, policy=True)
        policy = fieldU.policy
        assert np.all(policy.indices == 0)
        assert policy.time_knots[0] == 0.0
        assert policy.time_knots[-1] == pytest.approx(0.2)

    def test_monotone_payoff_selects_maximal_drift(self):
        grid_c = ControlGrid.uniform((-1.0,), (1.0,), 2)
        field = constant_drift_field(0.0, controls=grid_c)
        grid = SpatialGrid(-10.0, 10.0, 401)
        fieldU = solve(field, np.tanh, 0.5, grid, policy=True)
        policy = fieldU.policy
        inner = grid.inner_mask()
        assert np.all(policy.indices[:, inner] == 1)

    def test_flat_payoff_ties_to_first_control(self):
        grid_c = ControlGrid.uniform((-1.0,), (1.0,), 2)
        field = constant_drift_field(0.0, controls=grid_c)
        grid = SpatialGrid(-10.0, 10.0, 101)
        fieldU = solve(field, lambda x: 1.0 + 0.0 * x, 0.5, grid, policy=True)
        policy = fieldU.policy
        assert np.all(policy.indices == 0)

    def test_field_without_recorded_policy_rejected(self, degenerate_field):
        # keeping every step no longer stands in for the recorded policy
        grid = SpatialGrid(-10.0, 10.0, 101)
        psi = lambda x: np.exp(-x * x)
        for every_step in (False, True):
            fieldU = solve(degenerate_field, psi, 0.2, grid, every_step=every_step)
            with pytest.raises(ValueError, match="policy=True"):
                mc_lower_bound(degenerate_field, fieldU, psi, 0.0, 0.2, 0.05, 16, seed=0)

    def test_policy_recorded_for_another_control_grid_rejected(self, kou_spec, kou_field):
        # the 8 recorded indices are all valid on the 27-point grid, where
        # they name other controls
        grid = SpatialGrid(-10.0, 10.0, 101)
        fieldU = solve(kou_field, np.tanh, 0.2, grid, policy=True)
        fine = build_field(kou_spec, 3)
        with pytest.raises(ValueError, match="control grid"):
            mc_lower_bound(fine, fieldU, np.tanh, 0.0, 0.2, 0.01, 100, seed=3)


class TestMcLowerBound:
    def test_horizon_mismatch_rejected(self, degenerate_field):
        grid = SpatialGrid(-10.0, 10.0, 101)
        fieldU = solve(degenerate_field, lambda x: np.exp(-x * x), 0.2, grid, policy=True)
        with pytest.raises(ValueError, match="horizon"):
            mc_lower_bound(degenerate_field, fieldU, lambda x: np.exp(-x * x),
                           0.0, 0.3, 0.05, 16, seed=0)

    def test_returns_consistent_triple(self):
        field = constant_drift_field(1.0)
        grid = SpatialGrid(-10.0, 10.0, 801)
        fieldU = solve(field, np.tanh, 0.5, grid, policy=True)
        mean, stderr, pide_value = mc_lower_bound(
            field, fieldU, np.tanh, 0.0, 0.5, 0.01, 8, seed=0)
        # deterministic dynamics: every path gives tanh(0.5)
        assert stderr == 0.0
        assert mean == pytest.approx(math.tanh(0.5), abs=1e-12)
        assert mean <= pide_value + 1e-2


    def test_estimates_match_the_every_step_argmax_policy(self, kou_field):
        # the policy the march records drives the same paths, bit for bit,
        # as the argmax taken by a second pass over every stored row
        grid = SpatialGrid(-10.0, 10.0, 201)
        psi = GaussianBump().value
        full = solve(kou_field, psi, 0.3, grid, every_step=True)
        knots, indices = every_step_argmax(kou_field, full)
        reference = PolicySchedule(time_knots=knots, indices=indices, grid=grid,
                                   controls=kou_field.control_grid.points)
        recorded = solve(kou_field, psi, 0.3, grid, policy=True)
        assert np.array_equal(recorded.policy.indices, indices)
        assert len(np.unique(indices[:, grid.inner_mask(0.2)])) > 1
        args = (psi, 0.0, 0.3, 0.01, 3000)
        want = estimate_value(kou_field, reference, *args, seed=5)
        mean, stderr, _ = mc_lower_bound(kou_field, recorded, *args, seed=5)
        assert (mean, stderr) == want


def _serial_reference(field, policy, psi, x0, T, dt, n_paths, seed):
    """(terminals, jump sizes, mean, stderr), one chunk after another in this process."""
    plan = _Plan(field, policy, x0, T, dt)
    terms, sizes = [], []
    for c, start in enumerate(range(0, n_paths, CHUNK)):
        for _, x, jumps in _steps(plan, _chunk_rng(seed, c), min(CHUNK, n_paths - start)):
            sizes.append(jumps)
        terms.append(x)
    terms = np.concatenate(terms)
    vals = psi(terms)
    return (terms, np.concatenate(sizes), float(np.mean(vals)),
            float(np.std(vals, ddof=1) / math.sqrt(n_paths)))


class TestChunkWorkers:
    @pytest.fixture(scope="class")
    def kou_recorded(self, kou_field):
        grid = SpatialGrid(-10.0, 10.0, 201)
        return solve(kou_field, GaussianBump().value, 0.3, grid, policy=True).policy

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("case", ["degenerate-constant", "kou-recorded"])
    def test_bit_identical_to_serial_chunks(self, monkeypatch, degenerate_field, kou_field,
                                            kou_recorded, case, workers):
        # four chunks, the last one short, dealt over 1, 2 or 3 processes
        if case == "kou-recorded":
            field, policy = kou_field, kou_recorded
            assert np.all(_Plan(field, policy, 0.0, 0.3, 0.01).single < 0)
        else:
            field = degenerate_field
            policy = PolicySchedule.constant(field.control_grid.points)
        monkeypatch.setattr(_pool, "workers", lambda n: min(workers, n))
        psi = GaussianBump().value
        args = (0.0, 0.3, 0.01, 3 * CHUNK + 500)
        terms, sizes, mean, stderr = _serial_reference(field, policy, psi, *args, seed=21)
        assert sizes.size > 0
        assert np.array_equal(_terminals(field, policy, *args, seed=21), terms)
        got_terms, got_sizes = _terminals(field, policy, *args, seed=21, collect_jumps=True)
        assert np.array_equal(got_terms, terms)
        assert np.array_equal(got_sizes, sizes)
        assert estimate_value(field, policy, psi, *args, seed=21) == (mean, stderr)

    @pytest.mark.parametrize("failing", [500, CHUNK], ids=["forked-chunk", "own-chunk"])
    def test_a_failing_chunk_reaches_the_caller_and_no_child_is_left(
            self, monkeypatch, degenerate_field, failing):
        # chunk 0 (CHUNK paths) runs in this process, chunk 1 (500 paths) in a child
        real = simulate._steps

        def steps(plan, rng, n):
            if n == failing:
                raise RuntimeError(f"chunk of {n} paths failed")
            return real(plan, rng, n)

        monkeypatch.setattr(simulate, "_steps", steps)
        monkeypatch.setattr(_pool, "workers", lambda n: min(2, n))
        policy = PolicySchedule.constant(degenerate_field.control_grid.points)
        with pytest.raises(RuntimeError, match=f"^chunk of {failing} paths failed$"):
            _terminals(degenerate_field, policy, 0.0, 0.2, 0.01, CHUNK + 500, seed=4)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_argument_errors_raise_before_any_fork(self, monkeypatch, kou_field):
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        policy = PolicySchedule.constant(kou_field.control_grid.points)
        with pytest.raises(ValueError, match="T and dt"):
            _terminals(kou_field, policy, 0.0, 0.2, math.nan, 3 * CHUNK, seed=1)


def _edge_policies(controls, knots, rows):
    """One control per knot row, as a state-free policy and as one that looks up cells.

    The second also names control 0 on the cell at x = 20, which no path
    from 0 reaches by T = 1, so each of its rows names two controls.
    """
    grid = SpatialGrid(-20.0, 20.0, 401)
    indices = np.repeat(np.asarray(rows, dtype=np.uint8)[:, None], grid.nx, axis=1)
    edge = indices.copy()
    edge[:, -1] = 0
    return (PolicySchedule(time_knots=knots, indices=idx, grid=grid, controls=controls)
            for idx in (indices, edge))


class TestOneControlRows:
    def test_shortcut_agrees_with_the_per_cell_lookup(self, kou_field):
        # knots on every step alternate controls 1 and 2, so each run is one
        # step long, and one step is the per-cell lookup's step bit for bit
        args = (0.0, 1.0, 0.01, 3000)
        one, mixed = _edge_policies(kou_field.control_grid.points, np.arange(100) * 0.01,
                                    1 + np.arange(100) % 2)
        plan = _Plan(kou_field, one, *args[:3])
        assert plan.rows.tolist() == list(range(100))
        assert plan.single.tolist() == [1, 2] * 50
        assert _Plan(kou_field, mixed, *args[:3]).single.tolist() == [-1] * 100
        assert len(list(_steps(plan, _chunk_rng(8, 0), 16))) == 100
        want_terms, want_sizes = _terminals(kou_field, mixed, *args, seed=8, collect_jumps=True)
        terms, sizes = _terminals(kou_field, one, *args, seed=8, collect_jumps=True)
        assert want_sizes.size > 10_000
        assert np.array_equal(terms, want_terms)
        assert np.array_equal(sizes, want_sizes)

    @pytest.mark.parametrize("case", ["kou", "diffusion"])
    def test_runs_have_the_law_of_the_per_step_path(self, kou_field, case):
        # one control over T = 1 in runs (4 of 25 steps under Kou control 7;
        # one of 100 without jumps, where the Gaussian carries all the spread),
        # against 100 steps that look up cells; distinct seeds keep the two
        # samples independent
        if case == "kou":
            field, ends = kou_field, [0.25, 0.5, 0.75, 1.0]
        else:
            field = dataclasses.replace(
                _one_control_field(lambda f, x: f[0], lambda f, x: 0.3, lambda f, x, z: 0.0 * z,
                                   zero_jump_measure()),
                control_grid=ControlGrid.uniform((-0.5,), (0.5,), 8))
            ends = [1.0]
        args = (0.0, 1.0, 0.01, 20_000)
        one, mixed = _edge_policies(field.control_grid.points, np.array([0.0]), [7])
        plan = _Plan(field, one, *args[:3])
        assert plan.single.tolist() == [7]
        assert [t for t, _, _ in _steps(plan, _chunk_rng(8, 0), 16)] == ends
        runs = _terminals(field, one, *args, seed=8)
        steps = _terminals(field, mixed, *args, seed=9)
        n = args[-1]

        def var_of_var(x):
            d = x - x.mean()
            return (np.mean(d ** 4) - np.mean(d ** 2) ** 2) / n

        mean_se = math.sqrt((runs.var(ddof=1) + steps.var(ddof=1)) / n)
        assert abs(runs.mean() - steps.mean()) <= 4.0 * mean_se
        var_se = math.sqrt(var_of_var(runs) + var_of_var(steps))
        assert abs(runs.var(ddof=1) - steps.var(ddof=1)) <= 4.0 * var_se
        assert ks_2samp(runs, steps).pvalue > 0.01


class TestKnotRows:
    @pytest.mark.parametrize("per_knot", [1, 2])
    def test_rows_are_the_knots_in_force_at_each_step(self, kou_field, per_knot):
        # the march's uniform steps put its knots on the Monte Carlo's step
        # times (every step, or every other one), where the 1e-12 decides
        policy = solve(kou_field, np.tanh, 0.3, SpatialGrid(-10.0, 10.0, 201),
                       policy=True).policy
        marches = policy.time_knots.size - 1
        plan = _Plan(kou_field, policy, 0.0, 0.3, 0.3 / (marches * per_knot))
        assert plan.n_steps == marches * per_knot
        on_steps = policy.time_knots / plan.dt_eff
        assert np.allclose(on_steps, np.rint(on_steps), rtol=0, atol=1e-9)
        want = [policy.knot(k * plan.dt_eff) for k in range(plan.n_steps)]
        assert plan.rows.tolist() == want
        assert want == [k // per_knot for k in range(plan.n_steps)]


def _jump_counting_field(field):
    """``field`` with zero drift and dispersion, every jump of size 1, and two controls.

    A run's state change is then the drift table's compensator term times
    the run's length plus the number of jumps the path took in the run.
    The two controls differ in name only, so a policy that names both looks
    up cells at every step and moves the paths as either one alone would.
    """
    return dataclasses.replace(field, drift=lambda f, x: 0.0, dispersion=lambda f, x: 0.0,
                               jump_density_map=lambda f, x, z: 1.0 + 0.0 * z,
                               control_grid=ControlGrid.uniform((0.0,) * 3, (0.0, 0.0, 1.0), 2))


def _counts(plan, seed):
    """(run lengths in steps, per-path jump counts per run) of one chunk on a jump-counting field."""
    runs = list(_steps(plan, _chunk_rng(seed, 0), CHUNK))
    ends = np.rint(np.array([t for t, _, _ in runs]) / plan.dt_eff).astype(int)
    lengths = np.diff(ends, prepend=0)
    states = np.array([np.full(CHUNK, 0.0)] + [x for _, x, _ in runs])
    counts = np.diff(states, axis=0) - plan.btab[0] * plan.dt_eff * lengths[:, None]
    assert np.allclose(counts, np.rint(counts), rtol=0, atol=1e-9)
    return lengths, np.rint(counts)


def _assert_poisson(counts, lam):
    """Mean, variance and P(count >= 2) of the counts within 4 standard errors of Poisson(lam)'s."""
    p2 = 1.0 - math.exp(-lam) * (1.0 + lam)
    size = counts.size
    for got, want, se in (
            (counts.mean(), lam, math.sqrt(lam / size)),
            (counts.var(ddof=1), lam, math.sqrt((lam + 2.0 * lam * lam) / size)),
            (np.mean(counts >= 2), p2, math.sqrt(p2 * (1.0 - p2) / size))):
        assert abs(got - want) <= 4.0 * se


class _CountingRng:
    """A Generator that counts its ``poisson`` and ``standard_normal`` calls."""

    def __init__(self, rng):
        self.rng, self.poisson_calls, self.normal_calls = rng, 0, 0

    def poisson(self, *args, **kwargs):
        self.poisson_calls += 1
        return self.rng.poisson(*args, **kwargs)

    def standard_normal(self, *args, **kwargs):
        self.normal_calls += 1
        return self.rng.standard_normal(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.rng, name)


class TestJumpSchedule:
    @pytest.mark.parametrize("T, dt, block", [(2.0, 0.1, 3), (5.0, 0.5, 1)],
                             ids=["rate-0.3", "rate-1.5"])
    def test_counts_per_path_and_step_are_poisson(self, degenerate_field, T, dt, block):
        # a block of steps shares one count per path; the counts per (path,
        # step) it gives must still be Poisson(mass dt), as one draw per step.
        # A policy that names both controls takes one step per run.
        field = _jump_counting_field(degenerate_field)
        _, policy = _edge_policies(field.control_grid.points, np.array([0.0]), [1])
        plan = _Plan(field, policy, 0.0, T, dt)
        assert plan.block == block and plan.n_steps > 2 * block
        assert plan.single.tolist() == [-1]
        lengths, counts = _counts(plan, 3)
        assert lengths.tolist() == [1] * plan.n_steps
        _assert_poisson(counts, degenerate_field.reference.total_mass * plan.dt_eff)

    @pytest.mark.parametrize("T, dt, block", [(2.0, 0.1, 3), (5.0, 0.5, 1)],
                             ids=["rate-0.3", "rate-1.5"])
    def test_counts_per_path_and_run_are_poisson(self, degenerate_field, T, dt, block):
        # one state-free control: a run is a whole block, and its count per
        # path is Poisson(mass dt r) over its r steps
        field = _jump_counting_field(degenerate_field)
        policy = PolicySchedule.constant(field.control_grid.points)
        plan = _Plan(field, policy, 0.0, T, dt)
        assert plan.block == block and plan.single.tolist() == [0]
        lengths, counts = _counts(plan, 3)
        assert lengths.sum() == plan.n_steps and np.all(lengths[:-1] == block)
        full = counts[lengths == block]
        _assert_poisson(full, degenerate_field.reference.total_mass * plan.dt_eff * block)

    def test_memory_does_not_grow_with_the_jump_rate(self):
        # one block holds about one event per path: at lam_star = 150 a
        # schedule for the whole horizon would hold about 1.2e6 events
        peaks = []
        for lam in (1.5, 150.0):
            spec = KouSpec(b_lo=0.05, b_hi=0.05, a_lo=0.2, a_hi=0.2,
                           lam_lo=lam, lam_hi=lam, lam_star=lam, lam_floor=0.5)
            field = build_field(spec, 2)
            plan = _Plan(field, PolicySchedule.constant(field.control_grid.points),
                         0.0, 1.0, 1e-3)
            tracemalloc.start()
            try:
                for _ in _steps(plan, _chunk_rng(2, 0), CHUNK):
                    pass
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 2.0 * peaks[0]

    def test_one_poisson_draw_per_block(self, degenerate_field):
        # the cli spec: mass 3, dt 1e-3, 1,000 steps
        policy = PolicySchedule.constant(degenerate_field.control_grid.points)
        plan = _Plan(degenerate_field, policy, 0.0, 1.0, 1e-3)
        assert plan.n_steps == 1000
        block = max(1, math.floor(1.0 / (degenerate_field.reference.total_mass * plan.dt_eff)))
        rng = _CountingRng(_chunk_rng(1, 0))
        for _ in _steps(plan, rng, 64):
            pass
        assert 1 <= rng.poisson_calls <= math.ceil(plan.n_steps / block) == 4

    def test_one_normal_draw_per_run(self, degenerate_field):
        # the cli spec: a state-free constant policy takes each block of 333
        # steps as one run, and a policy that looks up cells steps by mc.dt
        policy = PolicySchedule.constant(degenerate_field.control_grid.points)
        plan = _Plan(degenerate_field, policy, 0.0, 1.0, 1e-3)
        assert (plan.n_steps, plan.block) == (1000, 333)
        rng = _CountingRng(_chunk_rng(1, 0))
        for _ in _steps(plan, rng, 64):
            pass
        assert 1 <= rng.normal_calls <= math.ceil(plan.n_steps / plan.block) == 4
        field = _jump_counting_field(degenerate_field)
        _, lookup = _edge_policies(field.control_grid.points, np.array([0.0]), [1])
        plan = _Plan(field, lookup, 0.0, 1.0, 1e-3)
        rng = _CountingRng(_chunk_rng(1, 0))
        for _ in _steps(plan, rng, 64):
            pass
        assert rng.normal_calls == plan.n_steps == 1000


class TestOneJumpRule:
    def test_every_jump_of_a_step_reads_the_state_after_its_diffusion(self, degenerate_field):
        # k(f, x, z) = x, one path at mass dt = 0.9: reading the state an
        # earlier jump of its step left, a second jump would be twice the first
        field = dataclasses.replace(_jump_counting_field(degenerate_field),
                                    jump_density_map=lambda f, x, z: x + 0.0 * z)
        _, lookup = _edge_policies(field.control_grid.points, np.array([0.0]), [1])
        plan = _Plan(field, lookup, 1.0, 6.0, 0.3)
        assert plan.block == 1 and plan.rate == pytest.approx(0.9)
        assert plan.single.tolist() == [-1] and np.all(plan.per_state)
        steps = list(_steps(plan, _chunk_rng(4, 0), 1))
        assert len(steps) == plan.n_steps == 20
        assert sum(applied.size >= 2 for _, _, applied in steps) >= 2
        for _, _, applied in steps:
            assert np.all(applied != 0.0) and np.all(applied == applied[:1])

    def test_one_jump_map_call_per_step_with_events(self, degenerate_field):
        # the cli rate, CHUNK paths, 1,000 steps that look up cells: a few
        # steps hold a path with two events, and they too make one call
        calls = []

        def unit(f, x, z):
            calls.append(np.size(x))
            return 1.0 + 0.0 * z

        field = dataclasses.replace(_jump_counting_field(degenerate_field), jump_density_map=unit)
        _, lookup = _edge_policies(field.control_grid.points, np.array([0.0]), [1])
        plan = _Plan(field, lookup, 0.0, 1.0, 1e-3)
        assert plan.n_steps == 1000 and plan.single.tolist() == [-1]
        calls.clear()
        lengths, counts = _counts(plan, 1)
        assert lengths.tolist() == [1] * plan.n_steps
        assert np.any(counts >= 2)
        assert len(calls) == np.any(counts > 0, axis=1).sum()
        assert sum(calls) == counts.sum()


class TestNonFiniteStates:
    def test_a_drift_that_overflows_the_state_names_its_step(self):
        # the drift reads 1e308 at every state: the state is 1e308 after step 0 and
        # overflows in step 1
        field = _one_control_field(lambda f, x: 1e308 + 0.0 * x, lambda f, x: 0.0 * x,
                                   lambda f, x, z: 0.0 * (x + z), zero_jump_measure())
        plan = _Plan(field, PolicySchedule.constant(field.control_grid.points), 0.0, 2.0, 1.0)
        assert plan.per_state.tolist() == [True]
        with np.errstate(over="ignore"), pytest.raises(
                RuntimeError, match="non-finite state after diffusion step 1$"):
            list(_steps(plan, _chunk_rng(0, 0), 1))

    def test_a_jump_map_that_overflows_the_state_names_its_steps(self):
        # every jump is 1e308, so a path's second jump overflows its state; the runs
        # are blocks of 33 steps, about one jump each
        field = _one_control_field(lambda f, x: 0.0, lambda f, x: 0.0,
                                   lambda f, x, z: 1e308 + 0.0 * z, double_exponential_measure(1.5))
        plan = _Plan(field, PolicySchedule.constant(field.control_grid.points), 0.0, 10.0, 0.01)
        assert plan.block == 33
        ends, jumps = [0], 0
        with np.errstate(over="ignore"), pytest.raises(RuntimeError) as err:
            for t, x, applied in _steps(plan, _chunk_rng(0, 0), 1):
                ends.append(round(t / plan.dt_eff))
                jumps += applied.size
        # the run named is the one after the last that kept the state finite
        first, last = map(int, re.fullmatch(r"non-finite state after jumps in steps (\d+) to (\d+)",
                                            str(err.value)).groups())
        assert jumps <= 1 and first == ends[-1] and first < last


class TestStateFreeCompensator:
    @pytest.mark.parametrize("T, dt, runs", [(0.5, 0.5, 1), (1.0, 0.01, 4)],
                             ids=["one-step", "runs-of-33"])
    def test_the_drift_is_minus_the_compensator(self, degenerate_field, T, dt, runs):
        # |z| is not odd, so its compensator c is far from 0; with no drift or
        # dispersion a path moves by its jumps less c T, however the steps run
        field = dataclasses.replace(degenerate_field, drift=lambda f, x: 0.0,
                                    dispersion=lambda f, x: 0.0,
                                    jump_density_map=lambda f, x, z: np.abs(z))
        quad = field.reference.quadrature
        c = _compensator(field, np.abs(quad.nodes)[None, :], quad.weights)
        assert c > 1.0
        policy = PolicySchedule.constant(field.control_grid.points)
        assert len(list(_steps(_Plan(field, policy, 0.3, T, dt), _chunk_rng(0, 0), 1))) == runs
        jumps = 0
        for seed in range(5):
            x, applied = _terminals(field, policy, 0.3, T, dt, 1, seed=seed, collect_jumps=True)
            assert x[0] - 0.3 - applied.sum() == pytest.approx(-c * T, abs=1e-12)
            jumps += applied.size
        assert jumps > 0
