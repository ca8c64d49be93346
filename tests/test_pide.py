import dataclasses
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from sublevy.cli import AUDIT_TABLE_MAX, parse_config
from sublevy.core import ControlGrid, QuadratureError, _jump_table
from sublevy.kou import GaussianBump, KouSpec, build_field
from sublevy.pide import (
    PolicySchedule,
    SpatialGrid,
    ValueField,
    _compensator,
    _Envelope,
    _fft_length,
    _landings,
    _preflight,
    _step,
    cfl_timestep,
    restart,
    solve,
)
from sublevy.simulate import _coefficients, _Plan
from tests.conftest import constant_drift_field

BENCH_CFG = Path(__file__).parents[1] / "perfbench" / "cli.cfg"


@pytest.fixture(scope="module")
def coarse_grid():
    return SpatialGrid(-10.0, 10.0, 201)


class TestSpatialGrid:
    def test_dx_and_nodes(self, coarse_grid):
        assert coarse_grid.dx == pytest.approx(0.1)
        xs = coarse_grid.xs()
        assert xs[0] == -10.0 and xs[-1] == 10.0 and xs.size == 201

    def test_validation(self):
        with pytest.raises(ValueError):
            SpatialGrid(1.0, 1.0, 11)
        with pytest.raises(ValueError):
            SpatialGrid(0.0, 1.0, 2)

    @pytest.mark.parametrize("args", [
        (-np.inf, 0.0, 5), (0.0, np.inf, 5), (np.nan, 1.0, 5),
        (0.0, 1.0, 3.0), (0.0, 1.0, np.float64(5.0)), (0.0, 1.0, True), (0.0, 1.0, "5"),
    ], ids=["-inf", "inf", "nan", "float-nx", "numpy-float-nx", "bool-nx", "str-nx"])
    def test_non_finite_bounds_and_non_integer_nx_rejected(self, args):
        with pytest.raises(ValueError):
            SpatialGrid(*args)

    @pytest.mark.parametrize("nx", [5, np.int32(5), np.int64(5)])
    def test_python_and_numpy_integer_nx_accepted(self, nx):
        assert SpatialGrid(0.0, 1.0, nx).xs().size == 5

    def test_inner_mask_trims_both_sides(self, coarse_grid):
        mask = coarse_grid.inner_mask(0.5)
        xs = coarse_grid.xs()
        assert np.all(np.abs(xs[mask]) <= 5.0 + 1e-12)
        assert mask.sum() > 0.4 * xs.size

    def test_inner_mask_fraction_validated(self, coarse_grid):
        with pytest.raises(ValueError):
            coarse_grid.inner_mask(0.0)


class TestValueField:
    def test_shape_mismatch_rejected(self, coarse_grid):
        with pytest.raises(ValueError):
            ValueField(grid=coarse_grid, times=np.array([0.0]),
                       values=np.zeros((1, 5)), metadata={})

    def test_times_must_increase_from_zero(self, coarse_grid):
        vals = np.zeros((2, coarse_grid.nx))
        with pytest.raises(ValueError):
            ValueField(grid=coarse_grid, times=np.array([0.1, 0.2]),
                       values=vals, metadata={})
        with pytest.raises(ValueError):
            ValueField(grid=coarse_grid, times=np.array([0.0, 0.0]),
                       values=vals, metadata={})

    def test_empty_timeline_rejected(self, coarse_grid):
        with pytest.raises(ValueError, match="timeline is empty"):
            ValueField(grid=coarse_grid, times=[], values=np.empty((0, coarse_grid.nx)),
                       metadata={})

    def test_terminal_value_interpolates(self, coarse_grid):
        xs = coarse_grid.xs()
        fieldU = ValueField(grid=coarse_grid, times=np.array([0.0]),
                            values=xs[None, :] ** 2, metadata={})
        assert fieldU.terminal_value(0.0) == pytest.approx(0.0)
        # midpoint of a parabola on a uniform grid: average of neighbors
        mid = 0.5 * (xs[100] + xs[101])
        assert fieldU.terminal_value(mid) == pytest.approx(
            0.5 * (xs[100] ** 2 + xs[101] ** 2))

    def test_write_csv_layout(self, coarse_grid, tmp_path):
        fieldU = ValueField(grid=coarse_grid, times=np.array([0.0]),
                            values=np.zeros((1, coarse_grid.nx)), metadata={})
        out = tmp_path / "u.csv"
        fieldU.write_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "t,x,u"
        assert lines[1] == "0.0,-10.0,0.0"
        assert len(lines) == 1 + coarse_grid.nx


def _serial_csv(fieldU):
    """The bytes of u.csv, formatted line by line in this process."""
    xs = fieldU.grid.xs().tolist()
    lines = ["t,x,u\n"]
    for t, row in zip(fieldU.times.tolist(), fieldU.values.tolist()):
        lines += [f"{t!r},{x!r},{v!r}\n" for x, v in zip(xs, row)]
    return "".join(lines).encode()


class TestWriteCsv:
    @pytest.fixture(scope="class")
    def timelines(self, coarse_grid):
        field = constant_drift_field(0.3, sigma=0.5)
        psi = GaussianBump().value
        many = solve(field, psi, 0.3, coarse_grid, every_step=True)
        assert many.times.size > 3
        return {"timeline": many, "one-row": solve(field, psi, 0.0, coarse_grid)}

    @pytest.mark.parametrize("case", ["timeline", "one-row"])
    def test_bytes_match_the_serial_formatting(self, tmp_path, timelines, case):
        fieldU = timelines[case]
        fieldU.write_csv(tmp_path / "u.csv")
        assert (tmp_path / "u.csv").read_bytes() == _serial_csv(fieldU)


def _drift_and_intensity_vary_field(kou_field):
    """Kou field whose drift peaks at x = -3 and whose one-sided jumps peak at x = 3.

    Its jumps are all upward, so the compensator is not 0, and the sup of
    |drift| + |compensator| lies below the sum of the two sups.
    """
    return dataclasses.replace(
        kou_field,
        drift=lambda f, x: 0.3 * f[0] * np.exp(-(np.asarray(x, dtype=float) + 3.0) ** 2),
        jump_density_map=lambda f, x, z: np.abs(z) * (0.5 + 0.5 * f[2] * np.exp(-(np.asarray(x) - 3.0) ** 2)))


class TestCflTimestep:
    def test_stated_arithmetic_example(self, coarse_grid):
        field = constant_drift_field(0.0, sigma=1.0)
        assert cfl_timestep(field, coarse_grid, 0.5) == pytest.approx(
            0.005, rel=1e-12)

    def test_zero_coefficients_cap_at_dt_max(self, coarse_grid):
        # a zero denominator takes the cap: solve's dt_max, and 1.0 for cfl_timestep
        field = constant_drift_field(0.0)
        assert solve(field, np.sin, 1.0, coarse_grid, 0.9, dt_max=0.125).metadata["dt"] == 0.125
        assert cfl_timestep(field, coarse_grid, 0.9) == 1.0

    @pytest.mark.parametrize("case", ["kou", "state-dependent"])
    def test_matches_independent_sups(self, kou_field, case):
        field = kou_field if case == "kou" else _drift_and_intensity_vary_field(kou_field)
        grid = SpatialGrid(-10.0, 10.0, 401)
        xs = grid.xs()
        quad = field.reference.quadrature
        a_max = b_max = 0.0
        for f in field.control_grid.points:
            b = np.broadcast_to(np.asarray(field.drift(f, xs), dtype=float),
                                xs.shape)
            sig = np.broadcast_to(
                np.asarray(field.dispersion(f, xs), dtype=float), xs.shape)
            # the compensator at each state, summed with |drift| state by state
            ks = np.broadcast_to(np.asarray(field.jump_density_map(f, xs[:, None], quad.nodes[None, :]),
                                            dtype=float), (xs.size, quad.nodes.size))
            comp = (field.truncation(ks) * quad.weights).sum(axis=1)
            a_max = max(a_max, float(np.max(sig * sig)))
            b_max = max(b_max, float(np.max(np.abs(b) + np.abs(comp))))
        want = 0.9 / (a_max / grid.dx**2 + b_max / grid.dx + quad.mass)
        assert cfl_timestep(field, grid, 0.9) == pytest.approx(want, rel=1e-12)

    def test_safety_range_enforced(self, coarse_grid):
        field = constant_drift_field(1.0)
        with pytest.raises(ValueError):
            cfl_timestep(field, coarse_grid, 0.0)
        with pytest.raises(ValueError):
            cfl_timestep(field, coarse_grid, 1.5)
        with pytest.raises(ValueError):
            solve(field, np.sin, 1.0, coarse_grid, 0.5, dt_max=0.0)

    def test_nan_dt_max_rejected(self, coarse_grid):
        # a NaN cap was ignored, or returned as the step when no coefficient
        # bounds it, and solve then failed in math.ceil
        for field in (constant_drift_field(1.0), constant_drift_field(0.0)):
            with pytest.raises(ValueError, match="dt_max"):
                solve(field, np.sin, 1.0, coarse_grid, dt_max=math.nan)
        with pytest.raises(ValueError, match="dt_max"):
            _step(0.0, 0.5, math.nan)

    def test_overflowing_denominator_rejected(self, coarse_grid):
        # b_max / dx overflows to inf, so the step was 0.0 and solve divided by it
        field = constant_drift_field(1e308)
        with pytest.raises(ValueError, match="overflows"):
            cfl_timestep(field, coarse_grid, 0.9)
        with pytest.raises(ValueError, match="overflows"):
            solve(field, np.sin, 1.0, coarse_grid)

    def test_step_that_underflows_to_zero_rejected(self, coarse_grid):
        # a finite denominator over 1 takes the smallest safety to a zero step
        field = constant_drift_field(1.0, sigma=1.0)
        with pytest.raises(ValueError, match="zero step"):
            cfl_timestep(field, coarse_grid, 5e-324)
        assert cfl_timestep(field, coarse_grid, 1e-300) > 0.0


class TestLandings:
    @staticmethod
    def _largest_step(T, checkpoints, dt):
        """The largest step solve takes on its schedule, computed as solve computes it."""
        t, largest = 0.0, 0.0
        for target, n in _landings(T, checkpoints, dt):
            largest = max(largest, (target - t) / n)
            t = target
        return largest

    def test_no_step_exceeds_dt(self):
        # random steps and horizons within 2 ulps of a multiple of the step, each with
        # and without random checkpoints below it; the worst step is dt
        rng = np.random.default_rng(20261020)
        eps = np.finfo(float).eps
        worst = 0.0
        for _ in range(5000):
            dt = 10.0 ** rng.uniform(-4.0, 0.0)
            T = int(rng.integers(1, 2000)) * dt * (1.0 + int(rng.integers(-2, 3)) * eps)
            checkpoints = rng.uniform(0.0, T, size=int(rng.integers(1, 6))).tolist()
            for stops in ((), checkpoints):
                largest = self._largest_step(T, stops, dt)
                assert largest <= dt
                worst = max(worst, largest / dt)
        assert worst == 1.0

    def test_a_span_within_the_ceilings_slack_takes_one_more_step(self):
        # a span over k steps by less than 1e-12 of a step takes k + 1 steps, each at most dt
        for k in (1, 7, 1000):
            dt = 0.1
            T = dt * (k + 0.9e-12)
            assert [n for _, n in _landings(T, (), dt)] == [k + 1]
            assert self._largest_step(T, (), dt) <= dt


class TestSolve:
    def test_constant_payoff_is_exactly_preserved(self, kou_field):
        grid = SpatialGrid(-10.0, 10.0, 101)
        fieldU = solve(kou_field, lambda x: 3.7 + 0.0 * x, 0.2, grid, every_step=True)
        assert np.array_equal(fieldU.values,
                              np.full_like(fieldU.values, 3.7))

    def test_transport_against_characteristics(self):
        field = constant_drift_field(1.0)
        grid = SpatialGrid(-10.0, 10.0, 801)
        fieldU = solve(field, np.sin, 1.0, grid)
        xs = grid.xs()
        mask = grid.inner_mask()
        err = np.max(np.abs(fieldU.values[-1][mask] - np.sin(xs + 1.0)[mask]))
        assert err <= 1e-2

    def test_control_envelope_picks_maximal_drift(self):
        grid_c = ControlGrid.uniform((-1.0,), (1.0,), 3)
        field = constant_drift_field(0.0, controls=grid_c)
        grid = SpatialGrid(-10.0, 10.0, 801)
        fieldU = solve(field, np.tanh, 1.0, grid)
        xs = grid.xs()
        mask = grid.inner_mask()
        err = np.max(np.abs(fieldU.values[-1][mask] - np.tanh(xs + 1.0)[mask]))
        assert err <= 1e-2

    def test_discrete_maximum_principle(self, kou_field):
        grid = SpatialGrid(-10.0, 10.0, 101)
        psi = lambda x: np.sin(3.0 * x) * np.exp(-0.1 * x * x)
        fieldU = solve(kou_field, psi, 0.5, grid, every_step=True)
        lo, hi = float(np.min(psi(grid.xs()))), float(np.max(psi(grid.xs())))
        assert np.all(fieldU.values <= hi + 1e-12)
        assert np.all(fieldU.values >= lo - 1e-12)

    def test_array_payoff_accepted(self, coarse_grid):
        field = constant_drift_field(0.0)
        psi = np.cos(coarse_grid.xs())
        fieldU = solve(field, psi, 0.1, coarse_grid)
        assert np.array_equal(fieldU.values[0], psi)

    def test_zero_horizon_returns_initial_row(self, coarse_grid):
        field = constant_drift_field(1.0)
        fieldU = solve(field, np.sin, 0.0, coarse_grid)
        assert fieldU.times.tolist() == [0.0]
        assert np.array_equal(fieldU.values[0], np.sin(coarse_grid.xs()))

    def test_checkpoints_landed_exactly(self, coarse_grid):
        field = constant_drift_field(1.0)
        fieldU = solve(field, np.sin, 1.0, coarse_grid, checkpoints=(0.313, 2.5))
        assert 0.313 in fieldU.times.tolist()
        assert fieldU.times[-1] == 1.0
        assert 2.5 not in fieldU.times.tolist()

    def test_final_time_exact_for_awkward_horizon(self, coarse_grid):
        field = constant_drift_field(1.0, sigma=0.7)
        fieldU = solve(field, np.sin, 0.7303, coarse_grid)
        assert fieldU.times[-1] == 0.7303

    def test_bad_payoff_rejected(self, coarse_grid):
        field = constant_drift_field(1.0)
        with pytest.raises(ValueError):
            solve(field, np.zeros(7), 1.0, coarse_grid)
        bad = np.zeros(coarse_grid.nx)
        bad[3] = np.nan
        with pytest.raises(ValueError):
            solve(field, bad, 1.0, coarse_grid)
        with pytest.raises(ValueError):
            solve(field, np.sin, -1.0, coarse_grid)

    @pytest.mark.parametrize("T, checkpoints", [
        (math.nan, ()), (math.inf, ()), (1.0, (math.nan,)), (1.0, (0.5, math.inf))])
    def test_non_finite_horizon_or_checkpoint_rejected(self, coarse_grid, T, checkpoints):
        # T = nan returned the payoff as the value at T; a non-finite
        # checkpoint was dropped silently
        field = constant_drift_field(1.0)
        with pytest.raises(ValueError, match="finite"):
            solve(field, np.sin, T, coarse_grid, checkpoints=checkpoints)

    def test_unresolved_jump_quadrature_rejected(self, degenerate_spec):
        # a Simpson mass of 500 against a true mass of 3 gave u(T, 0) = 0.911
        # in place of 0.452, and nothing was raised
        field = build_field(degenerate_spec, 2, z_cut=1e5)
        grid = SpatialGrid(-10.0, 10.0, 201)
        with pytest.raises(QuadratureError):
            solve(field, GaussianBump().value, 1.0, grid)

    def test_non_finite_coefficients_rejected_up_front(self, coarse_grid):
        field = constant_drift_field(np.nan)
        with pytest.raises(ValueError, match="non-finite"):
            solve(field, np.sin, 0.1, coarse_grid)

    def test_a_march_that_leaves_the_floats_raises(self, kou_field):
        # differences of a payoff of amplitude 1e308 overflow on the first step; a
        # node that is not finite stays so, and the check at the landing catches it
        grid = SpatialGrid(-10.0, 10.0, 101)
        psi = 1e308 * GaussianBump().value(grid.xs())
        with np.errstate(all="ignore"):
            n_steps = solve(kou_field, np.tanh, 0.5, grid).metadata["n_steps"]
            with pytest.raises(RuntimeError, match=f"non-finite value by step {n_steps}, t = 0.5"):
                solve(kou_field, psi, 0.5, grid)
            with pytest.raises(RuntimeError, match="non-finite value by step 1, t = "):
                solve(kou_field, psi, 0.5, grid, every_step=True)
            with pytest.raises(RuntimeError, match="non-finite value by step 1, t = "):
                solve(kou_field, psi, 0.5, grid, checkpoints=[0.5 / n_steps])

    def test_a_horizon_just_over_whole_steps_keeps_the_cfl_step(self):
        # at safety 1.0, three steps over dt (3 + 0.9e-12) each exceeded the CFL step, with
        # cfl_ratio 1 + 3.0e-13; the march takes a fourth step instead
        cfg = parse_config(BENCH_CFG.read_text() + "pide.nx = 201\n")
        field, grid = cfg.field(), cfg.grid()
        dt = cfl_timestep(field, grid, 1.0)
        md = solve(field, GaussianBump().value, dt * (3 + 0.9e-12), grid, 1.0).metadata
        assert md["dt"] == dt
        assert md["n_steps"] == 4
        assert md["max_substep"] <= dt
        assert md["cfl_ratio"] <= 1.0

    def test_metadata_records_scheme(self, kou_field):
        grid = SpatialGrid(-10.0, 10.0, 101)
        fieldU = solve(kou_field, lambda x: np.exp(-x * x), 0.2, grid, safety=0.8)
        md = fieldU.metadata
        assert md["scheme"] == "explicit-upwind-monotone"
        assert md["nx"] == 101
        assert md["cfl_ratio"] <= 0.8 + 1e-9
        assert md["routes"] == ["conv"]
        assert md["tail_value_error_bound"] >= 0.0

    @pytest.mark.parametrize("checkpoints", [(), (0.5,)], ids=["T", "checkpoint"])
    def test_default_keeps_landed_rows_of_the_every_step_march(self, kou_spec, checkpoints):
        # the march spec: uncertain Kou, 8 controls, nx=1601, T=1
        field = build_field(kou_spec, 2)
        grid = SpatialGrid(-10.0, 10.0, 1601)
        psi = GaussianBump().value
        kept = solve(field, psi, 1.0, grid, 0.9, checkpoints=checkpoints)
        full = solve(field, psi, 1.0, grid, 0.9, checkpoints=checkpoints, every_step=True)
        assert kept.values.shape == (2 + len(checkpoints), 1601)
        assert kept.times.tolist() == [0.0, *checkpoints, 1.0]
        rows = np.searchsorted(full.times, kept.times)
        assert np.array_equal(full.times[rows], kept.times)
        assert np.array_equal(full.values[rows], kept.values)
        assert kept.metadata == full.metadata
        assert full.values.shape == (full.metadata["n_steps"] + 1, 1601)


class TestRestart:
    def test_zero_additional_returns_stored_row(self, coarse_grid):
        field = constant_drift_field(1.0)
        fieldU = solve(field, np.sin, 0.5, coarse_grid, every_step=True)
        s = float(fieldU.times[3])
        again = restart(fieldU, field, s, 0.0)
        assert again.times.tolist() == [0.0]
        assert np.array_equal(again.values[0], fieldU.values[3])

    def test_unknown_time_rejected(self, coarse_grid):
        field = constant_drift_field(1.0)
        fieldU = solve(field, np.sin, 0.5, coarse_grid)
        with pytest.raises(ValueError, match="timeline"):
            restart(fieldU, field, 0.123456, 0.1)
        # every comparison with nan is False; a nan s re-solved from the row at 0
        with pytest.raises(ValueError, match="timeline"):
            restart(fieldU, field, math.nan, 0.1)

    def test_unknown_time_error_names_stored_times_and_checkpoints(self, coarse_grid):
        field = constant_drift_field(1.0)
        fieldU = solve(field, np.sin, 0.5, coarse_grid, checkpoints=(0.125,))
        with pytest.raises(ValueError) as err:
            restart(fieldU, field, 0.25, 0.1)
        message = str(err.value)
        assert "0.125" in message and "0.5" in message
        assert "checkpoints" in message

    def test_negative_additional_rejected(self, coarse_grid):
        field = constant_drift_field(1.0)
        fieldU = solve(field, np.sin, 0.5, coarse_grid)
        with pytest.raises(ValueError):
            restart(fieldU, field, 0.0, -0.1)

    def test_non_finite_additional_rejected(self, coarse_grid):
        field = constant_drift_field(1.0)
        fieldU = solve(field, np.sin, 0.5, coarse_grid)
        with pytest.raises(ValueError, match="finite"):
            restart(fieldU, field, 0.5, math.nan)

    def test_constants_restart_exactly(self, kou_field):
        grid = SpatialGrid(-10.0, 10.0, 101)
        fieldU = solve(kou_field, lambda x: 1.5 + 0.0 * x, 0.4,
                       grid, checkpoints=(0.2,))
        again = restart(fieldU, kou_field, 0.2, 0.2)
        assert np.array_equal(again.values[-1], fieldU.values[-1])

    def test_semigroup_composition_close(self):
        field = constant_drift_field(0.5, sigma=0.6)
        grid = SpatialGrid(-10.0, 10.0, 401)
        direct = solve(field, lambda x: np.exp(-0.5 * x * x), 1.0,
                       grid, checkpoints=(0.5,))
        again = restart(direct, field, 0.5, 0.5, safety=0.45)
        gap = np.max(np.abs(again.values[-1][grid.inner_mask()]
                            - direct.values[-1][grid.inner_mask()]))
        assert gap <= 5e-3


def _state_dependent_field():
    """Intensity with a tent at x = 1.5 and constant 1 elsewhere."""
    spec = KouSpec(b_lo=0.0, b_hi=0.0, a_lo=0.2, a_hi=0.2,
                   lam_lo=lambda x: 1.0 + 0.9 * np.maximum(0.0, 1.0 - np.abs(x - 1.5)),
                   lam_hi=2.0, lam_star=2.0, lam_floor=0.5)
    return build_field(spec, 1)


def _reference_stack(field, grid, w):
    """Per-control loop over the plain formulas of the scheme.

    A table whose rows are all equal is applied as a direct np.correlate
    with interpolation taps on the constant-extended field; any other table
    interpolates w at every x + jump.
    """
    xs, dx, nx = grid.xs(), grid.dx, grid.nx
    quad = field.reference.quadrature
    nodes, weights = quad.nodes, quad.weights
    h_of = field.truncation
    d = np.diff(w)
    dp = np.append(d, 0.0)
    dm = np.concatenate(([0.0], -d))
    rows = []
    for f in field.control_grid.points:
        b = np.broadcast_to(np.asarray(field.drift(f, xs), dtype=float), xs.shape)
        sig = np.broadcast_to(np.asarray(field.dispersion(f, xs), dtype=float), xs.shape)
        comp, jump = 0.0, 0.0
        if quad.mass > 0:
            ktab = np.broadcast_to(
                np.asarray(field.jump_density_map(f, xs[:, None], nodes[None, :]), dtype=float),
                (nx, nodes.size))
            if np.all(ktab == ktab[0]):
                kappa = ktab[0]
                comp = float(h_of(kappa) @ weights)
                pos = kappa / dx
                i0 = np.floor(pos).astype(int)
                frac = pos - i0
                m_min, m_max = int(i0.min()), int(i0.max()) + 1
                taps = np.zeros(m_max - m_min + 1)
                np.add.at(taps, i0 - m_min, weights * (1.0 - frac))
                np.add.at(taps, i0 - m_min + 1, weights * frac)
                pad_l, pad_r = max(0, -m_min), max(0, m_max)
                p = np.concatenate([np.full(pad_l, w[0]), w, np.full(pad_r, w[-1])])
                k0 = pad_l + m_min
                jump = np.correlate(p, taps, mode="valid")[k0:k0 + nx]
            else:
                comp = (h_of(ktab) * weights[None, :]).sum(axis=1)
                pos = np.clip(np.arange(nx)[:, None] + ktab / dx, 0.0, nx - 1.0)
                idx = np.minimum(np.floor(pos).astype(int), nx - 2)
                frac = pos - idx
                jump = (w[idx] * (1.0 - frac) + w[idx + 1] * frac) @ weights
        eff = b - comp
        bp = np.maximum(eff, 0.0) / dx
        bm = np.maximum(-eff, 0.0) / dx
        diff = sig * sig / (2.0 * dx * dx)
        rows.append(bp * dp + bm * dm + diff * (dp + dm) + jump - quad.mass * w)
    return np.asarray(rows)


def _envelope_stacks(field, grid, ws):
    """For each w of ``ws``, the (controls, nx) stack of L_f w in control order, from the envelope's rows.

    Control f's row is its drift row, plus its ca row times s on a field
    split by axis, plus its jump row, added in that order: the bits of f's
    full sum.  Each stack is overwritten by the next.
    """
    env = _Envelope(field, grid)
    *_, jump_at, drift_at, disp_at, _ = _preflight(field, grid)[2]
    stack = np.empty((len(drift_at), grid.nx))
    for w in ws:
        env.sup(w, np.empty(grid.nx))  # fills the rows
        np.take(env._drift, drift_at, axis=0, out=stack)
        if env._ca is not None:
            stack += (env._ca * env._rows[0])[disp_at]
        stack += env._jumps[jump_at]
        yield stack


def every_step_argmax(field, fieldU):
    """(knots, indices) of the argmax policy, by a second pass over every stored row.

    ``fieldU`` holds every step; row m is the argmax of the full per-control
    sums at remaining time T - knots[m], ties to the first control.
    """
    stacks = _envelope_stacks(field, fieldU.grid, fieldU.values[::-1])
    indices = np.array([stack.argmax(axis=0) for stack in stacks])
    knots = fieldU.times[-1] - fieldU.times[::-1]
    knots[0] = 0.0
    return knots, indices


def _pick_row(field, grid):
    """A row for ``sup``'s pick, of the index type ``solve`` records in."""
    return np.empty(grid.nx, dtype=np.min_scalar_type(len(field.control_grid.points) - 1))


def _mixed_route_field(kou_spec):
    """Uncertain Kou whose lam_hi controls return their jump table with a state axis."""
    field = build_field(kou_spec, 2)
    kmap = field.jump_density_map
    return dataclasses.replace(
        field,
        jump_density_map=lambda f, x, z: kmap(f, x, z) + 0.0 * x if f[2] > 0.5 else kmap(f, x, z))


def _envelope_case(case, kou_spec, degenerate_spec):
    """(field, grid, routes, w) of one named envelope case: w is smooth and 0 at mid."""
    field, grid, routes = {
        "march": (lambda: build_field(kou_spec, 2), (-10.0, 10.0, 1601), ["conv"]),
        # 125 controls, five values an axis
        "march-5": (lambda: build_field(kou_spec, 5), (-10.0, 10.0, 1601), ["conv"]),
        "cli": (lambda: build_field(degenerate_spec, 2), (-10.0, 10.0, 801), ["conv"]),
        "state-dependent": (_state_dependent_field, (-10.0, 10.0, 801), ["gather"]),
        "zero-mass": (lambda: constant_drift_field(
            0.0, sigma=0.3, controls=ControlGrid.uniform((-1.0,), (1.0,), 3)),
            (-10.0, 10.0, 801), ["none"]),
        # jumps of up to 10 leave this grid by more than nx nodes
        "overshoot": (lambda: build_field(kou_spec, 2), (-2.0, 2.0, 101), ["conv"]),
        # lam_lo controls take conv and lam_hi controls gather
        "mixed": (lambda: _mixed_route_field(kou_spec), (-10.0, 10.0, 801), ["conv", "gather"]),
        # one-sided jumps: the jump rows have different compensators, which couple drift and jump
        "coupled": (lambda: _drift_and_intensity_vary_field(build_field(kou_spec, 2)), (-10.0, 10.0, 801),
                    ["gather"]),
    }[case]
    grid = SpatialGrid(*grid)
    xs = grid.xs()
    psi = np.exp(-0.5 * (xs - 0.3) ** 2) + 0.2 * np.tanh(xs)
    return field(), grid, routes, psi - psi[grid.nx // 2]


ENVELOPE_CASES = ["march", "cli", "state-dependent", "zero-mass", "overshoot", "mixed", "coupled"]


def _one_compensator(field, grid):
    """Whether every control's jump table has the same compensator, by its bytes."""
    weights = field.reference.quadrature.weights
    comps = [_compensator(field, _jump_table(field, f, grid.xs()), weights) for f in field.control_grid.points]
    return len({np.broadcast_to(c, (grid.nx,)).tobytes() for c in comps}) == 1


class TestEnvelope:
    @pytest.mark.parametrize("case", ENVELOPE_CASES)
    def test_stack_matches_per_control_formulas(self, case, kou_spec, degenerate_spec):
        field, grid, routes, w = _envelope_case(case, kou_spec, degenerate_spec)
        tol = 1e-13 * float(np.max(np.abs(w)))
        env = _Envelope(field, grid)
        stack, = _envelope_stacks(field, grid, [w])
        want = _reference_stack(field, grid, w)
        assert stack.shape == (len(field.control_grid.points), grid.nx)
        assert float(np.max(np.abs(stack - want))) <= tol
        assert env.routes == routes

    @pytest.mark.parametrize("case", ENVELOPE_CASES)
    def test_sup_is_the_max_of_the_stack(self, case, kou_spec, degenerate_spec):
        field, grid, _, w = _envelope_case(case, kou_spec, degenerate_spec)
        env = _Envelope(field, grid)
        stack, = _envelope_stacks(field, grid, [w])
        got = env.sup(w, np.empty(grid.nx))
        assert np.array_equal(got.view(np.int64), stack.max(axis=0).view(np.int64))
        if case == "mixed":
            # gather rows follow every conv row, so the jump row order is not
            # the control order; on w = 0 every row ties, and the pick is the
            # first control
            pick = _pick_row(field, grid)
            env.sup(np.zeros(grid.nx), np.empty(grid.nx), pick)
            assert not np.any(pick)

    @pytest.mark.parametrize("case", ENVELOPE_CASES)
    def test_a_policy_sup_picks_a_control_that_attains_it(self, case, kou_spec, degenerate_spec):
        field, grid, _, w = _envelope_case(case, kou_spec, degenerate_spec)
        env = _Envelope(field, grid)
        plain = env.sup(w, np.empty(grid.nx))
        pick = _pick_row(field, grid)
        got = env.sup(w, np.empty(grid.nx), pick)
        # the pick does not move the bits of the sup, and its full sum is the sup, bit for bit
        assert np.array_equal(got.view(np.int64), plain.view(np.int64))
        stack, = _envelope_stacks(field, grid, [w])
        attained = stack[pick, np.arange(grid.nx)]
        assert np.array_equal(attained.view(np.int64), got.view(np.int64))
        # on these fields it is also the first control in grid order that attains it
        assert np.array_equal(pick, stack.argmax(axis=0))

    def test_controls_with_one_jump_table_share_one_term(self, kou_spec):
        grid = SpatialGrid(-10.0, 10.0, 201)
        eight = build_field(kou_spec, 2)
        twenty_seven = build_field(kou_spec, 3)
        assert len(eight.control_grid.points) == 8
        assert _Envelope(eight, grid)._jumps.shape[0] == 2
        assert len(twenty_seven.control_grid.points) == 27
        assert _Envelope(twenty_seven, grid)._jumps.shape[0] == 3

    def test_route_is_read_from_the_table_shape(self, kou_field):
        # the same jump map returned with a state axis: its rows are all
        # equal, but only a one-row table declares the map state-free
        kmap = kou_field.jump_density_map
        full = dataclasses.replace(
            kou_field, jump_density_map=lambda f, x, z: kmap(f, x, z) + 0.0 * x)
        grid = SpatialGrid(-10.0, 10.0, 401)
        assert _Envelope(kou_field, grid).routes == ["conv"]
        assert _Envelope(full, grid).routes == ["gather"]
        bump = GaussianBump()
        conv = solve(kou_field, bump.value, 1.0, grid, every_step=True)
        gather = solve(full, bump.value, 1.0, grid, every_step=True)
        assert conv.values.shape == gather.values.shape
        assert float(np.max(np.abs(conv.times - gather.times))) <= 1e-13
        assert float(np.max(np.abs(conv.values - gather.values))) <= 1e-13

    def test_conv_length_is_bounded_by_the_grid(self, degenerate_field):
        # jumps of up to 1e5 span 4e6 nodes of this grid, but every one of
        # them past an edge reads the edge value
        grid = SpatialGrid(-10.0, 10.0, 801)
        jump = degenerate_field.jump_density_map
        field = dataclasses.replace(degenerate_field, jump_density_map=lambda f, x, z: 1e4 * jump(f, x, z))
        env = _Envelope(field, grid)
        assert env.routes == ["conv"]
        assert env._conv.n_fft <= 2 * grid.nx

    def test_fft_length_is_the_smallest_5_smooth_multiple_of_4(self):
        smooth = sorted(4 * 2 ** a * 3 ** b * 5 ** c
                        for a in range(12) for b in range(9) for c in range(7))
        for n in range(1, 5001):
            assert _fft_length(n) == next(m for m in smooth if m >= n), n

    def test_a_policy_sup_reuses_its_buffers(self, kou_field):
        grid = SpatialGrid(-10.0, 10.0, 201)
        w = np.sin(grid.xs())
        for field in (kou_field, _without_the_axes(kou_field)):  # both layouts
            env = _Envelope(field, grid)
            out, pick = np.empty(grid.nx), _pick_row(field, grid)
            env.sup(w, out, pick)
            first, held = (out.copy(), pick.copy()), _held_arrays(env)
            env.sup(2.0 * w, out, pick)
            env.sup(w, out, pick)
            # the same arrays, no new one, and the same sup and picks
            assert _held_arrays(env).keys() == held.keys()
            assert np.array_equal(out, first[0]) and np.array_equal(pick, first[1])

    def test_state_dependent_intensity_is_not_mistaken_for_state_free(self):
        # the tent equals 1 at every sample state a coarse probe set would
        # use on this grid, so only the full table shows its state dependence
        field = _state_dependent_field()
        bump = GaussianBump(center=1.5)
        plain = solve(field, bump.value, 1.0, SpatialGrid(-10.0, 10.0, 801))
        x_min = 1.5 - 266 * 0.025
        aligned = solve(field, bump.value, 1.0, SpatialGrid(x_min, x_min + 20.0, 801))
        assert plain.metadata["routes"] == ["gather"]
        assert abs(float(plain.terminal_value(1.5))
                   - float(aligned.terminal_value(1.5))) <= 1e-2


def _without_the_axes(field):
    return dataclasses.replace(field, control_axes=None)


class TestPerAxisLayout:
    @pytest.mark.parametrize("case", ENVELOPE_CASES)
    def test_both_layouts_give_one_operator_and_one_step(self, case, kou_spec, degenerate_spec):
        field, grid, _, w = _envelope_case(case, kou_spec, degenerate_spec)
        tol = 1e-13 * float(np.max(np.abs(w)))
        declared = _Envelope(field, grid)
        per_control = _Envelope(_without_the_axes(field), grid)
        assert declared.per_axis == (field.control_axes is not None and len(field.control_grid.points) > 1
                                     and _one_compensator(field, grid))
        assert not per_control.per_axis
        assert declared.routes == per_control.routes
        assert declared.denom == per_control.denom
        stack, = _envelope_stacks(field, grid, [w])
        per_control_stack, = _envelope_stacks(_without_the_axes(field), grid, [w])
        assert float(np.max(np.abs(stack - per_control_stack))) <= tol
        got = declared.sup(w, np.empty(grid.nx))
        assert float(np.max(np.abs(got - per_control.sup(w, np.empty(grid.nx))))) <= tol

    def test_a_grid_that_misses_a_combination_takes_the_per_control_rows(self, kou_spec):
        field = build_field(kou_spec, 2)
        full = field.control_grid
        # (1, 1, 1) dropped: every axis keeps both of its values
        field = dataclasses.replace(field, control_grid=dataclasses.replace(full, points=full.points[:-1]))
        grid = SpatialGrid(-10.0, 10.0, 401)
        xs = grid.xs()
        w = np.exp(-0.5 * (xs - 0.3) ** 2) + 0.2 * np.tanh(xs)
        w -= w[grid.nx // 2]
        env = _Envelope(field, grid)
        assert not env.per_axis
        stack, = _envelope_stacks(field, grid, [w])
        assert stack.shape == (7, grid.nx)
        want = _reference_stack(field, grid, w)
        assert float(np.max(np.abs(stack - want))) <= 1e-13 * float(np.max(np.abs(w)))
        got = env.sup(w, np.empty(grid.nx))
        assert np.array_equal(got.view(np.int64), stack.max(axis=0).view(np.int64))

    def test_rows_grow_with_the_axes_values_not_the_controls(self, kou_spec):
        field = build_field(kou_spec, (3, 2, 3))
        env = _Envelope(field, SpatialGrid(-10.0, 10.0, 201))
        assert env.per_axis
        assert len(field.control_grid.points) == 18
        # the compensator is 0 on every jump row, so the drift rows are the 3 drift values
        assert env._jumps.shape[0] == 3 and env._drift.shape[0] == 3
        assert len(env._groups) == 1
        assert env._ca.shape[0] == 2
        # a policy sup picks with three rows whatever the controls
        assert env._index.shape == (3, 201) and env._table.size == 18

    def test_the_benchmark_fields_take_one_group(self, kou_spec):
        # the march spec splits by axis, its compensators all 0.0; the CLI's field has one control
        grid = SpatialGrid(-10.0, 10.0, 1601)
        for resolution in (2, 3):
            env = _Envelope(build_field(kou_spec, resolution), grid)
            assert env.per_axis and len(env._groups) == 1
        cfg = parse_config(BENCH_CFG.read_text())
        field = cfg.field()
        env = _Envelope(field, cfg.grid())
        assert len(field.control_grid.points) == 1
        assert not env.per_axis and len(env._groups) == 1

    def test_jump_rows_with_different_compensators_take_the_per_control_rows(self, kou_spec, degenerate_spec):
        field, grid, _, _ = _envelope_case("coupled", kou_spec, degenerate_spec)
        env = _Envelope(field, grid)
        assert not _one_compensator(field, grid) and not env.per_axis
        # one group per jump row, each with the drift rows of its four controls
        assert [(g.stop - g.start, len(jumps)) for g, jumps in env._groups] == [(4, 1), (4, 1)]

    def test_cfl_step_does_not_build_per_control_arrays(self, kou_spec):
        # 1,000 controls: one (controls, nx) array is 6.4 MB, and the step
        # used to build several of them (58 MB at its peak)
        field = build_field(kou_spec, 10)
        grid = SpatialGrid(-10.0, 10.0, 801)
        tracemalloc.start()
        try:
            cfl_timestep(field, grid, 0.9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * len(field.control_grid.points) * grid.nx * 8


class TestSymmetricJumps:
    @pytest.mark.parametrize("case", ["march", "state-dependent", "mixed"])
    def test_a_kou_compensator_is_exactly_zero(self, case, kou_spec, degenerate_spec):
        field, grid, _, _ = _envelope_case(case, kou_spec, degenerate_spec)
        weights = field.reference.quadrature.weights
        tables = _preflight(field, grid)[2][2]
        comps = [_compensator(field, t, weights) for t in tables]
        assert all(np.all(np.asarray(c) == 0.0) for c in comps)
        # a one-row table's compensator is a plain number, any other's a row per state
        assert [np.shape(c) for c in comps] == [() if len(t) == 1 else (len(t),) for t in tables]
        # the quadrature's sums are roundoff, not 0: their rounding bound makes them 0
        sums = np.concatenate([np.asarray(field.truncation(t), dtype=float) @ weights for t in tables])
        assert np.any(sums != 0.0) and np.max(np.abs(sums)) <= 1e-15

    def test_at_the_largest_nz_the_config_accepts(self):
        # one audit sample, the most jump nodes validate lets through: the sums of
        # 4e6 terms are still roundoff, and still come back 0.0
        cfg = parse_config(f"audit.sample_budget = 1\npide.nz = {AUDIT_TABLE_MAX}\n")
        cfg.validate()
        field = cfg.field()
        assert field.reference.quadrature.nodes.size >= AUDIT_TABLE_MAX
        weights = field.reference.quadrature.weights
        comps = [_compensator(field, t, weights) for t in _preflight(field, cfg.grid())[2][2]]
        assert comps and all(c == 0.0 for c in comps)

    @pytest.mark.parametrize("shift", [1e-12, -1e-12])
    def test_a_sum_past_its_rounding_error_is_kept(self, kou_field, shift):
        # shifted jumps move the sum by about shift * mass, past 401 eps sum |h w| ~ 1e-13
        quad, mass = kou_field.reference.quadrature, kou_field.reference.total_mass
        table = np.clip(quad.nodes, -0.5, 0.5)[None, :] + shift
        c = _compensator(kou_field, table, quad.weights)
        assert c == float(table[0] @ quad.weights)
        assert 0.5 * abs(shift) * mass < c * np.sign(shift) < 2.0 * abs(shift) * mass

    def test_one_class_of_drift_rows_on_a_kou_field(self, kou_field):
        env = _Envelope(kou_field, SpatialGrid(-10.0, 10.0, 201))
        # two intensities, two jump rows, one compensator: the drift rows are the two drifts
        assert env._jumps.shape[0] == 2 and env._drift.shape[0] == 2
        assert len(env._groups) == 1 and len(env._groups[0][1]) == 2

    @pytest.mark.parametrize("case", ["march", "state-dependent"])
    def test_the_monte_carlo_drift_is_the_model_drift(self, case, kou_spec, degenerate_spec):
        field, grid, _, _ = _envelope_case(case, kou_spec, degenerate_spec)
        controls = field.control_grid.points
        plan = _Plan(field, PolicySchedule.constant(controls), 0.3, 1.0, 0.01)
        xs = grid.xs()
        for c, f in enumerate(controls):
            b = np.asarray(field.drift(f, xs), dtype=float)
            got, _ = _coefficients(field, f, xs)
            assert np.array_equal(got, np.broadcast_to(b, np.shape(got)))
            if not plan.per_state[c]:
                assert plan.btab[c] == field.drift(f, 0.3)
        assert case == "state-dependent" or not plan.per_state.any()


def _long_step_field():
    """No diffusion and a drift of at most 1e-9: the jump rate alone bounds the step."""
    return build_field(KouSpec(b_lo=0.0, b_hi=1e-9, a_lo=0.0, a_hi=0.0, lam_lo=1.0, lam_hi=1.5,
                               lam_star=1.5, lam_floor=0.5), 2)


class TestMonotoneStep:
    @pytest.mark.parametrize("case", ["cli", "march", "long-step"])
    def test_raising_one_node_lowers_no_node(self, case, kou_spec, degenerate_spec):
        # E(u) = u + dt sup_f L_f u at the CFL step.  Its jump rows hold J w - mass*w, the
        # rate a tap of the FFT kernel, whose roundoff must not break E's monotonicity
        if case == "long-step":
            field, grid = _long_step_field(), SpatialGrid(-10.0, 10.0, 801)
        else:
            field, grid, _, _ = _envelope_case(case, kou_spec, degenerate_spec)
        env = _Envelope(field, grid)
        dt = _step(env.denom, 0.9, 1.0)
        u = np.random.default_rng(7).uniform(-1.0, 1.0, grid.nx)
        base = u + dt * env.sup(u, np.empty(grid.nx))
        worst, up = np.inf, np.inf
        for j in range(grid.nx):
            bumped = u.copy()
            bumped[j] += 0.5
            gain = bumped + dt * env.sup(bumped, np.empty(grid.nx)) - base
            worst, up = min(worst, float(gain.min())), min(up, float(gain[j]))
        assert worst >= -1e-14
        assert up > 0.0


def _drift_interval_field(b_lo, b_hi):
    """The march spec with the drift interval [b_lo, b_hi], three values an axis."""
    return build_field(KouSpec(b_lo=b_lo, b_hi=b_hi, a_lo=0.1, a_hi=0.3, lam_lo=1.0, lam_hi=2.0,
                               lam_star=2.0, lam_floor=0.5), 3)


# at three values an axis, b = 0 is a grid value of the intervals that hold it, where a
# state-free drift row has no upwind term at all
DRIFT_CASES = [((0.0, 0.1), True), ((-0.1, 0.0), True), ((-0.2, -0.1), True), ((-0.1, 0.1), True),
               ((0.0, 0.1), False), ((-0.1, 0.0), False), ((-0.2, -0.1), False), ((-0.1, 0.1), False)]


def _drift_case(interval, axes):
    """(envelope, grid) of a drift interval, with or without the field's ``control_axes``."""
    field = _drift_interval_field(*interval)
    grid = SpatialGrid(-10.0, 10.0, 201)
    env = _Envelope(field if axes else _without_the_axes(field), grid)
    assert env.per_axis == axes
    return env, grid


class TestUpwindTerms:
    """Upwind terms of each drift sign, one side, both sides or none, on both layouts."""

    @pytest.mark.parametrize("interval, axes", DRIFT_CASES)
    def test_sup_is_the_max_of_the_per_control_rows(self, interval, axes):
        env, grid = _drift_case(interval, axes)
        xs = grid.xs()
        w = np.exp(-0.5 * (xs - 0.3) ** 2) + 0.2 * np.tanh(xs)
        w -= w[grid.nx // 2]
        field = _drift_interval_field(*interval)
        stack, = _envelope_stacks(field if axes else _without_the_axes(field), grid, [w])
        want = _reference_stack(field, grid, w)
        assert float(np.max(np.abs(stack - want))) <= 1e-13 * float(np.max(np.abs(w)))
        got = env.sup(w, np.empty(grid.nx))
        assert np.array_equal(got.view(np.int64), stack.max(axis=0).view(np.int64))

    @pytest.mark.parametrize("interval, axes", DRIFT_CASES)
    def test_one_step_keeps_a_constant_exactly(self, interval, axes):
        env, grid = _drift_case(interval, axes)
        u = np.full(grid.nx, 0.7)
        step = _step(env.denom, 0.9, 1.0) * env.sup(u, np.empty(grid.nx))
        assert np.array_equal(u + step, u)

    @pytest.mark.parametrize("interval, axes", DRIFT_CASES)
    def test_one_step_is_monotone(self, interval, axes):
        env, grid = _drift_case(interval, axes)
        dt = _step(env.denom, 0.9, 1.0)
        u = np.random.default_rng(7).uniform(-1.0, 1.0, grid.nx)
        base = u + dt * env.sup(u, np.empty(grid.nx))
        worst, up = np.inf, np.inf
        for j in range(grid.nx):
            bumped = u.copy()
            bumped[j] += 0.5
            gain = bumped + dt * env.sup(bumped, np.empty(grid.nx)) - base
            worst, up = min(worst, float(gain.min())), min(up, float(gain[j]))
        assert worst >= -1e-14
        assert up > 0.0


class TestStepAllocation:
    def test_sup_allocates_less_than_one_grid_row(self, kou_spec, degenerate_spec):
        # numpy allocates an iterator buffer the size of its output for a 2-D broadcast or
        # strided ufunc call; the step makes 1-D calls only
        field, grid, _, w = _envelope_case("march", kou_spec, degenerate_spec)
        env = _Envelope(field, grid)
        out = np.empty(grid.nx)
        for _ in range(3):
            env.sup(w, out)
        tracemalloc.start()
        try:
            for _ in range(100):
                env.sup(w, out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes

    @pytest.mark.parametrize("resolution", [2, 3])
    def test_a_policy_sup_allocates_less_than_one_grid_row(self, kou_spec, resolution):
        # 8 and 27 controls: the pick is read off the rows the sup already forms
        field, grid = build_field(kou_spec, resolution), SpatialGrid(-10.0, 10.0, 1601)
        w = np.tanh(grid.xs())
        env = _Envelope(field, grid)
        out, pick = np.empty(grid.nx), _pick_row(field, grid)
        for _ in range(3):
            env.sup(w, out, pick)
        tracemalloc.start()
        try:
            env.sup(w, out, pick)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes


def _oracle_field(b, a, lam, lam_star):
    """Kou field at three values an axis on the state box [-40, 40], jumps cut at 30."""
    spec = KouSpec(b_lo=b[0], b_hi=b[1], a_lo=a[0], a_hi=a[1], lam_lo=lam[0], lam_hi=lam[1],
                   lam_star=lam_star, lam_floor=0.5)
    return build_field(spec, 3, z_cut=30.0, nz=1201, state_box=(-40.0, 40.0))


class TestUncertainOracle:
    """Exact values of an uncertain march, which pin the per-axis maxes of its step."""

    grid = SpatialGrid(-40.0, 40.0, 801)

    def test_a_convex_payoff_takes_the_largest_variance_and_intensity(self):
        # x^2 is convex, so every second difference and every jump term is largest at
        # (a_hi, lam_hi); the corner's CFL denominator is the uncertain field's, so both
        # march the same steps
        uncertain = solve(_oracle_field((0.05, 0.05), (0.1, 0.3), (1.0, 1.5), 1.5),
                          lambda x: x * x, 1.0, self.grid)
        corner = solve(_oracle_field((0.05, 0.05), (0.3, 0.3), (1.5, 1.5), 1.5),
                       lambda x: x * x, 1.0, self.grid)
        assert uncertain.metadata["n_steps"] == corner.metadata["n_steps"]
        x = np.array([-1.0, 0.0, 1.0])
        got = uncertain.terminal_value(x)
        assert float(np.max(np.abs(got - corner.terminal_value(x)))) <= 1e-10
        # E(x + bT + sqrt(a) W_T + jumps)^2, the marks' second moment 4 lam per unit time;
        # the scheme's error here is 9.93e-3
        closed = (x + 0.05) ** 2 + (0.3 + 4.0 * 1.5) * 1.0
        assert float(np.max(np.abs(got - closed))) <= 1e-2

    def test_every_step_keeps_the_payoffs_lipschitz_constant(self):
        # a monotone step with state-free coefficients that keeps constants does not grow
        # the difference of neighbours: not by one ulp on this march
        vf = solve(_oracle_field((0.0, 0.1), (0.1, 0.3), (1.0, 2.0), 2.0),
                   lambda x: np.tanh(x / 0.5), 1.0, self.grid, every_step=True)
        lipschitz = np.abs(np.diff(vf.values, axis=1)).max(axis=1)
        assert vf.values.shape[0] > 2
        assert float(np.max(lipschitz - lipschitz[0])) == 0.0


def _held_arrays(obj, held=None):
    """The distinct arrays an object reaches, by id: its attributes, lists and closures."""
    held = {} if held is None else held
    if isinstance(obj, np.ndarray):
        while isinstance(obj.base, np.ndarray):
            obj = obj.base
        held[id(obj)] = obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            _held_arrays(item, held)
    elif callable(obj) and getattr(obj, "__closure__", None):
        for cell in obj.__closure__:
            _held_arrays(cell.cell_contents, held)
    elif hasattr(obj, "__dict__"):
        for item in vars(obj).values():
            _held_arrays(item, held)
    return held


class TestPreflight:
    @pytest.mark.parametrize("case", ["march", "mixed", "state-dependent", "coupled"])
    def test_count_bounds_the_bytes_the_envelope_holds(self, case, kou_spec, degenerate_spec):
        # conv, mixed and gather fields.  The count takes 8 B an entry and covers every
        # array the envelope holds after a policy sup; it also counts the build's
        # compensator rows and conv taps, and the longest conv FFT the grid allows, so it
        # may exceed them, but by less than half
        field, grid, _, w = _envelope_case(case, kou_spec, degenerate_spec)
        for f in (field, _without_the_axes(field)):
            denom, entries, _ = _preflight(f, grid)
            env = _Envelope(f, grid)
            env.sup(w, np.empty(grid.nx), _pick_row(f, grid))
            held = sum(a.nbytes for a in _held_arrays(env).values())
            assert held <= 8 * entries <= 1.5 * held
            assert denom == env.denom


class TestRecordedPolicy:
    @pytest.mark.parametrize("case", [*ENVELOPE_CASES, "march-5"])
    def test_matches_the_argmax_of_every_step(self, case, kou_spec, degenerate_spec):
        # the picks of the sup equal the first control in grid order whose full sum attains
        # it, at every node and step of these fields, both layouts
        field, grid, _, w = _envelope_case(case, kou_spec, degenerate_spec)
        full = solve(field, w, 0.1, grid, checkpoints=(0.05,), every_step=True)
        recorded = solve(field, w, 0.1, grid, checkpoints=(0.05,), policy=True)
        knots, indices = every_step_argmax(field, full)
        policy = recorded.policy
        assert policy.indices.dtype == np.uint8
        assert np.array_equal(policy.indices, indices)
        assert np.array_equal(policy.time_knots, knots)
        assert len(np.unique(indices)) > 1 or len(field.control_grid.points) == 1
        per_control = solve(_without_the_axes(field), w, 0.1, grid, checkpoints=(0.05,), policy=True)
        assert np.array_equal(per_control.policy.indices, indices)
        # the values and what is stored do not move
        assert recorded.times.tolist() == [0.0, 0.05, 0.1]
        rows = np.searchsorted(full.times, recorded.times)
        assert np.array_equal(recorded.values, full.values[rows])
        assert recorded.metadata == full.metadata

    def test_shares_count_the_cells(self, kou_field):
        grid = SpatialGrid(-10.0, 10.0, 201)
        policy = solve(kou_field, np.tanh, 0.2, grid, policy=True).policy
        counts = np.bincount(policy.indices.ravel(), minlength=8)
        assert np.array_equal(policy.shares, counts / policy.indices.size)
        assert math.fsum(policy.shares) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n_controls, dtype", [(256, np.uint8), (257, np.uint16)])
    def test_index_width_follows_the_control_count(self, n_controls, dtype):
        field = constant_drift_field(0.0, controls=ControlGrid.uniform((-1.0,), (1.0,), n_controls))
        grid = SpatialGrid(-10.0, 10.0, 41)
        full = solve(field, np.tanh, 1.0, grid, every_step=True)
        policy = solve(field, np.tanh, 1.0, grid, policy=True).policy
        assert policy.indices.dtype == dtype
        _, indices = every_step_argmax(field, full)
        assert np.array_equal(policy.indices, indices)
        # a nondecreasing payoff takes the largest drift, the last index
        assert policy.indices[:, grid.inner_mask()].min() == n_controls - 1

    def test_without_the_flag_nothing_is_recorded(self, kou_field):
        assert solve(kou_field, np.tanh, 0.2, SpatialGrid(-10.0, 10.0, 101)).policy is None

    def test_zero_horizon_records_the_row_at_t(self, kou_field):
        grid = SpatialGrid(-10.0, 10.0, 101)
        policy = solve(kou_field, np.tanh, 0.0, grid, policy=True).policy
        assert policy.time_knots.tolist() == [0.0]
        assert policy.indices.shape == (1, grid.nx)
