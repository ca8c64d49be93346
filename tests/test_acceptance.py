"""End-to-end acceptance run: one test and one reported line per criterion.

Each test measures the contract quantity, prints a single
``CRITERION n PASS/FAIL`` line (also echoed in the run summary), and
fails only on the stated tolerance.  Expensive solves are shared through
session fixtures.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import ks_2samp

from sublevy.core import ControlGrid, Quadrature, audit_conditions
from sublevy.generator import gaussian_bump, hamiltonian_G, small_symbol_sup
from sublevy.kou import (
    GaussianBump,
    KouSpec,
    LinearKouTriplet,
    build_field,
    clamp_jump,
    control_coefficients,
    fourier_reference,
    verify_pushforward,
)
from sublevy.pide import SpatialGrid, cfl_timestep, restart, solve
from sublevy.simulate import PolicySchedule, _terminals, mc_lower_bound
from sublevy.transform import exponential_tails, quantile_k, verify_transport
from tests.conftest import ACCEPTANCE_LINES, constant_drift_field

GRID = SpatialGrid(-10.0, 10.0, 801)
BUMP = GaussianBump(1.0, 0.0, 1.0)


def _report(num, name, passed, detail):
    line = f"CRITERION {num:2d} {'PASS' if passed else 'FAIL'}  {name}: {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert passed, line


@pytest.fixture(scope="session")
def degenerate_solution(degenerate_field):
    start = time.perf_counter()
    fieldU = solve(degenerate_field, BUMP.value, 1.0, GRID, policy=True)
    return fieldU, time.perf_counter() - start


@pytest.fixture(scope="session")
def kou_solution(kou_field):
    return solve(kou_field, BUMP.value, 1.0, GRID, checkpoints=(0.5,), policy=True)


class TestCriterion1:
    def test_linear_reduction_matches_fourier(self, degenerate_solution):
        fieldU, elapsed = degenerate_solution
        triplet = LinearKouTriplet(b=0.05, a=0.2, lam=1.5)
        worst = 0.0
        for x0 in (-1.0, 0.0, 1.0):
            pide = float(fieldU.terminal_value(x0))
            ref = fourier_reference(triplet, BUMP, 1.0, x0)
            worst = max(worst, abs(pide - ref))
        passed = worst <= 1e-2 and elapsed <= 60.0
        _report(1, "linear reduction vs inversion oracle", passed,
                f"max diff {worst:.3e} (tol 1e-02), solve {elapsed:.1f}s (limit 60s)")


class TestCriterion2:
    def test_controlled_drift_hjb(self):
        controls = ControlGrid.uniform((-1.0,), (1.0,), 5)
        field = constant_drift_field(0.0, controls=controls)
        fieldU = solve(field, np.tanh, 1.0, GRID)
        mask = GRID.inner_mask(0.6)
        xs = GRID.xs()
        err = float(np.max(np.abs(fieldU.values[-1][mask] - np.tanh(xs + 1.0)[mask])))
        _report(2, "drift-control envelope vs analytic value", err <= 1e-2,
                f"inner sup err {err:.3e} (tol 1e-02)")


class TestCriterion3:
    def test_two_stage_matches_direct(self, kou_field, kou_solution):
        two_step = restart(kou_solution, kou_field, 0.5, 0.5, safety=0.45)
        mask = GRID.inner_mask(0.6)
        gap = float(np.max(np.abs(two_step.values[-1][mask]
                                  - kou_solution.values[-1][mask])))
        _report(3, "flow composition vs direct solve", gap <= 2e-2,
                f"inner sup gap {gap:.3e} (tol 2e-02)")


class TestCriterion4:
    GRID4 = SpatialGrid(-10.0, 10.0, 401)

    def test_constants_preserved(self, kou_field):
        fieldU = solve(kou_field, lambda x: 0.8 + 0.0 * x, 0.5, self.GRID4, every_step=True)
        dev = float(np.max(np.abs(fieldU.values - 0.8)))
        _report(4, "axiom: constants preserved", dev <= 1e-12,
                f"max dev {dev:.3e} (tol 1e-12)")

    def test_monotone_in_payoff(self, kou_field):
        xs = self.GRID4.xs()
        psi_lo = np.exp(-xs * xs)
        psi_hi = psi_lo + 0.3 * np.exp(-0.25 * (xs - 1.0) ** 2)
        u_lo = solve(kou_field, psi_lo, 0.5, self.GRID4)
        u_hi = solve(kou_field, psi_hi, 0.5, self.GRID4)
        violation = float(np.max(u_lo.values[-1] - u_hi.values[-1]))
        _report(4, "axiom: monotone in the payoff", violation <= 1e-10,
                f"worst violation {violation:.3e} (tol 1e-10)")

    def test_subadditive_in_payoff(self, kou_field):
        xs = self.GRID4.xs()
        psi1 = np.exp(-((xs + 1.0) ** 2))
        psi2 = 0.8 * np.tanh(xs)
        u12 = solve(kou_field, psi1 + psi2, 0.5, self.GRID4)
        u1 = solve(kou_field, psi1, 0.5, self.GRID4)
        u2 = solve(kou_field, psi2, 0.5, self.GRID4)
        slack = float(np.max(u12.values[-1] - u1.values[-1] - u2.values[-1]))
        _report(4, "axiom: subadditive in the payoff", slack <= 1e-2,
                f"worst slack {slack:.3e} (tol 1e-02)")

    def test_larger_uncertainty_set_dominates(self):
        # binary-representable nested intervals: the small control set's
        # coefficient triples are a subset of the large one's
        small = KouSpec(b_lo=0.0, b_hi=0.25, a_lo=0.25, a_hi=0.5,
                        lam_lo=1.0, lam_hi=2.0, lam_star=2.0, lam_floor=0.5)
        large = KouSpec(b_lo=-0.25, b_hi=0.75, a_lo=0.125, a_hi=0.625,
                        lam_lo=1.0, lam_hi=2.0, lam_star=2.0, lam_floor=0.5)
        f_small = build_field(small, (2, 2, 2))
        f_large = build_field(large, (5, 5, 3))
        triples_small = {control_coefficients(small, f, 0.0)
                         for f in f_small.control_grid.points}
        triples_large = {control_coefficients(large, f, 0.0)
                         for f in f_large.control_grid.points}
        assert triples_small <= triples_large
        dt_shared = min(cfl_timestep(f_small, self.GRID4, 0.9),
                        cfl_timestep(f_large, self.GRID4, 0.9))
        psi = np.exp(-self.GRID4.xs() ** 2)
        u_small = solve(f_small, psi, 0.5, self.GRID4, dt_max=dt_shared)
        u_large = solve(f_large, psi, 0.5, self.GRID4, dt_max=dt_shared)
        violation = float(np.max(u_small.values[-1] - u_large.values[-1]))
        _report(4, "axiom: larger uncertainty set dominates", violation <= 1e-10,
                f"worst violation {violation:.3e} (tol 1e-10, "
                f"{len(triples_small)} of {len(triples_large)} controls shared)")


class TestCriterion5:
    def test_short_time_difference_quotient_converges(self, kou_spec):
        field = build_field(kou_spec, 2, nz=201, state_box=(-8.0, 8.0))
        grid = SpatialGrid(-8.0, 8.0, 2561)
        worst_ratio = 0.0
        for x0 in (-1.0, 0.0, 1.0):
            phi = gaussian_bump(1.0, x0, 0.35)
            g_val, _ = hamiltonian_G(field, phi, x0)
            errs = {}
            for t in (1e-2, 1e-3):
                fieldU = solve(field, phi.value, t, grid)
                quot = (float(fieldU.terminal_value(x0)) - float(phi.value(x0))) / t
                errs[t] = abs(quot - g_val)
            worst_ratio = max(worst_ratio, errs[1e-3] / errs[1e-2])
        _report(5, "difference quotient halves toward the generator",
                worst_ratio <= 0.5,
                f"worst err ratio t=1e-3 vs 1e-2: {worst_ratio:.3f} (limit 0.5)")


class TestCriterion6:
    def test_pushforward_identity(self, kou_spec):
        thresholds = [0.1, 1.0, 3.0, -0.1, -1.0, -3.0]
        worst = 0.0
        for lam in (1.0, 1.5, 2.0):
            f = (0.0, 0.0, lam - 1.0)
            worst = max(worst, verify_pushforward(kou_spec, f, 0.0, thresholds))
        _report(6, "clamped map reproduces the target jump law", worst <= 1e-8,
                f"max tail err {worst:.3e} (tol 1e-08)")


class TestCriterion7:
    def test_transport_and_closed_form(self):
        tails = exponential_tails(1.0, 2.0)
        zs = np.linspace(-8.0, 8.0, 2001)
        quad = Quadrature(nodes=zs, weights=np.zeros_like(zs), z_cut=8.0)
        err = verify_transport(tails, quad,
                               [0.5, 1.0, 2.0, 3.0, -0.5, -1.0, -2.0, -3.0])
        rng = np.random.default_rng(2024)
        lams = rng.uniform(0.5, 2.0, 1000)
        ys = rng.uniform(-4.0, 4.0, 1000)
        ys[np.abs(ys) < 1e-3] = 1.0
        worst = 0.0
        for lam, y in zip(lams, ys):
            k = quantile_k(exponential_tails(lam, 2.0), float(y), 1e-10)
            want = float(clamp_jump(y, math.log(2.0 / lam)))
            worst = max(worst, abs(k - want))
        passed = err <= 1e-6 and worst <= 1e-8
        _report(7, "tail inversion matches the clamp formula", passed,
                f"transport err {err:.3e} (tol 1e-06), "
                f"round-trip err {worst:.3e} on 1000 pairs (tol 1e-08)")


class TestCriterion8:
    def test_mc_agrees_with_pide(self, degenerate_field, degenerate_solution,
                                 kou_field, kou_solution):
        start = time.perf_counter()
        deg_fieldU, _ = degenerate_solution
        mean_d, se_d, pide_d = mc_lower_bound(
            degenerate_field, deg_fieldU, BUMP.value, 0.0, 1.0, 1e-3,
            100_000, seed=20240817)
        gap_d = abs(mean_d - pide_d)
        tol_d = 3.0 * se_d + 1e-2
        mean_k, se_k, pide_k = mc_lower_bound(
            kou_field, kou_solution, BUMP.value, 0.0, 1.0, 1e-3,
            100_000, seed=20240818)
        excess_k = mean_k - pide_k
        tol_k = 3.0 * se_k + 1e-2
        elapsed = time.perf_counter() - start
        passed = gap_d <= tol_d and excess_k <= tol_k and elapsed <= 120.0
        _report(8, "Monte Carlo vs grid value", passed,
                f"collapsed |diff| {gap_d:.3e} (tol {tol_d:.3e}), "
                f"uncertain excess {excess_k:+.3e} (tol {tol_k:.3e}), "
                f"{elapsed:.0f}s (limit 120s)")


class TestCriterion9:
    def test_symbol_sup_shrinks_with_radius(self, kou_field):
        audit = audit_conditions(kou_field, 64, 0)
        bound = audit.coefficient_bound
        radii = (1e-1, 1e-2, 1e-3)
        sups = [small_symbol_sup(kou_field, r) for r in radii]
        strictly_decreasing = sups[0] > sups[1] > sups[2]
        within = all(s <= 2.0 * r * bound for s, r in zip(sups, radii))
        _report(9, "small-frequency symbol bound", strictly_decreasing and within,
                "sups " + ", ".join(f"{s:.2e}" for s in sups)
                + f" vs caps 2r*{bound:.3f}")


class TestCriterion10:
    def test_empirical_jump_law(self, kou_field):
        # fixed control with the lowest intensity: half the reference mass
        # lands on the atom at zero, the rest is a unit double exponential
        policy = PolicySchedule.constant(kou_field.control_grid.points, index=0)
        assert kou_field.control_grid.points[0] == (0.0, 0.0, 0.0)
        _, applied = _terminals(kou_field, policy, 0.0, 1.0, 0.01, 3000,
                                seed=7, collect_jumps=True)
        n = applied.size
        zeros = int(np.sum(applied == 0.0))
        z_atom = abs(zeros - 0.5 * n) / math.sqrt(0.25 * n)
        nonzero = applied[applied != 0.0]
        rng = np.random.default_rng(99)
        ref = rng.laplace(0.0, 1.0, nonzero.size)
        ks = float(ks_2samp(nonzero, ref).statistic)
        crit = 1.628 * math.sqrt((nonzero.size + ref.size)
                                 / (nonzero.size * ref.size))
        passed = n >= 10_000 and z_atom <= 3.5 and ks <= crit
        _report(10, "empirical jump sizes match the pushed law", passed,
                f"{n} jumps, atom z {z_atom:.2f} (limit 3.5), "
                f"KS {ks:.4f} (1% crit {crit:.4f})")
