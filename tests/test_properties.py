"""Randomized invariant checks for the core monotone-scheme guarantees."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sublevy.core import _coefficients, _jump_table, audit_conditions, clip_truncation
from sublevy.generator import gaussian_bump, hamiltonian_G, small_symbol_sup
from sublevy.generator import TestFunction as GenTestFunction
from sublevy.kou import KouSpec, build_field, clamp_jump, double_exponential_measure
from sublevy.pide import SpatialGrid, _Envelope, _step, cfl_timestep, solve
from sublevy.transform import exponential_tails, quantile_k
from tests.test_pide import _one_compensator, _reference_stack

GRID = SpatialGrid(-8.0, 8.0, 101)

finite = st.floats(allow_nan=False, allow_infinity=False)
amps = st.floats(-2.0, 2.0)
centers = st.floats(-3.0, 3.0)
marks = st.floats(-20.0, 20.0)
ratios = st.floats(0.0, 3.0)


def _payoff(a1, c1, a2, c2):
    xs = GRID.xs()
    return a1 * np.exp(-((xs - c1) ** 2)) + a2 * np.tanh(xs - c2)


def _sum_function(f1, f2):
    return GenTestFunction(
        value=lambda x: f1.value(x) + f2.value(x),
        gradient=lambda x: f1.gradient(x) + f2.gradient(x),
        hessian=lambda x: f1.hessian(x) + f2.hessian(x),
    )


def _scaled_function(c, f):
    return GenTestFunction(
        value=lambda x: c * f.value(x),
        gradient=lambda x: c * f.gradient(x),
        hessian=lambda x: c * f.hessian(x),
    )


class TestClampProperties:
    @settings(max_examples=200, deadline=None)
    @given(z=marks, c1=ratios, c2=ratios)
    def test_lipschitz_in_log_ratio(self, z, c1, c2):
        gap = abs(clamp_jump(z, c1) - clamp_jump(z, c2))
        assert gap <= abs(c1 - c2) + 1e-12

    @settings(max_examples=200, deadline=None)
    @given(z=marks, c=ratios)
    def test_shrinks_and_keeps_sign(self, z, c):
        k = clamp_jump(z, c)
        assert abs(k) <= abs(z) + 1e-12
        assert k * z >= 0.0

    @settings(max_examples=200, deadline=None)
    @given(z1=marks, z2=marks, c=ratios)
    def test_lipschitz_in_mark(self, z1, z2, c):
        gap = abs(clamp_jump(z1, c) - clamp_jump(z2, c))
        assert gap <= abs(z1 - z2) + 1e-12


class TestTruncationProperties:
    @settings(max_examples=200, deadline=None)
    @given(y=st.floats(-50.0, 50.0))
    def test_bounded_and_identity_near_zero(self, y):
        v = float(clip_truncation(y))
        assert abs(v) <= 1.0
        if abs(y) <= 1.0:
            assert v == y


class TestQuadratureProperties:
    @settings(max_examples=30, deadline=None)
    @given(lam_star=st.floats(0.1, 5.0))
    def test_symmetric_nodes_and_weights(self, lam_star):
        m = double_exponential_measure(lam_star)
        q = m.quadrature
        assert np.allclose(q.nodes, -q.nodes[::-1], atol=0)
        assert np.allclose(q.weights, q.weights[::-1], rtol=1e-12)
        assert q.mass <= m.total_mass + 1e-9


class TestQuantileProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        lam=st.floats(0.2, 2.0),
        scale=st.floats(1.0, 4.0),
        y1=st.floats(0.05, 6.0),
        y2=st.floats(0.05, 6.0),
    )
    def test_nondecreasing_on_positive_half_line(self, lam, scale, y1, y2):
        tails = exponential_tails(lam, lam * scale)
        lo, hi = sorted((y1, y2))
        k_lo = quantile_k(tails, lo, 1e-9)
        k_hi = quantile_k(tails, hi, 1e-9)
        assert k_hi >= k_lo - 1e-7

    @settings(max_examples=40, deadline=None)
    @given(
        lam=st.floats(0.2, 2.0),
        scale=st.floats(1.0, 4.0),
        y=st.floats(0.05, 6.0),
    )
    def test_odd_symmetry(self, lam, scale, y):
        tails = exponential_tails(lam, lam * scale)
        assert quantile_k(tails, -y, 1e-9) == pytest.approx(
            -quantile_k(tails, y, 1e-9), abs=1e-7)


class TestEnvelopeProperties:
    @settings(max_examples=25, deadline=None)
    @given(a1=amps, c1=centers, a2=amps, c2=centers, x=st.floats(-3.0, 3.0))
    def test_subadditive_in_the_payoff(self, kou_field, a1, c1, a2, c2, x):
        f1 = gaussian_bump(a1, c1, 1.0) if a1 != 0 else gaussian_bump(1e-12, c1, 1.0)
        f2 = gaussian_bump(a2, c2, 0.7) if a2 != 0 else gaussian_bump(1e-12, c2, 0.7)
        g_sum, _ = hamiltonian_G(kou_field, _sum_function(f1, f2), x)
        g1, _ = hamiltonian_G(kou_field, f1, x)
        g2, _ = hamiltonian_G(kou_field, f2, x)
        assert g_sum <= g1 + g2 + 1e-10

    @settings(max_examples=25, deadline=None)
    @given(a=amps, c=centers, scale=st.floats(0.0, 5.0), x=st.floats(-3.0, 3.0))
    def test_positively_homogeneous(self, kou_field, a, c, scale, x):
        f = gaussian_bump(a if a != 0 else 1e-12, c, 1.0)
        g, _ = hamiltonian_G(kou_field, f, x)
        g_scaled, _ = hamiltonian_G(kou_field, _scaled_function(scale, f), x)
        assert g_scaled == pytest.approx(scale * g, rel=1e-9, abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(c=st.floats(-10.0, 10.0), x=st.floats(-3.0, 3.0))
    def test_constants_annihilated(self, kou_field, c, x):
        phi = GenTestFunction(
            value=lambda xx: c + 0.0 * np.asarray(xx, dtype=float),
            gradient=lambda xx: 0.0 * np.asarray(xx, dtype=float),
            hessian=lambda xx: 0.0 * np.asarray(xx, dtype=float),
        )
        g, _ = hamiltonian_G(kou_field, phi, x)
        assert g == pytest.approx(0.0, abs=1e-12)


class TestSemigroupProperties:
    @settings(max_examples=10, deadline=None)
    @given(a1=amps, c1=centers, a2=amps, c2=centers,
           lift=st.floats(0.0, 2.0), c3=centers)
    def test_monotone_in_the_payoff(self, degenerate_field,
                                    a1, c1, a2, c2, lift, c3):
        psi_lo = _payoff(a1, c1, a2, c2)
        psi_hi = psi_lo + lift * np.exp(-((GRID.xs() - c3) ** 2))
        u_lo = solve(degenerate_field, psi_lo, 0.1, GRID)
        u_hi = solve(degenerate_field, psi_hi, 0.1, GRID)
        assert np.all(u_hi.values[-1] >= u_lo.values[-1] - 1e-12)

    @settings(max_examples=10, deadline=None)
    @given(a1=amps, c1=centers, a2=amps, c2=centers)
    def test_subadditive_in_the_payoff(self, kou_field_coarse, a1, c1, a2, c2):
        psi1 = _payoff(a1, c1, 0.0, 0.0)
        psi2 = _payoff(0.0, 0.0, a2, c2)
        u12 = solve(kou_field_coarse, psi1 + psi2, 0.1, GRID)
        u1 = solve(kou_field_coarse, psi1, 0.1, GRID)
        u2 = solve(kou_field_coarse, psi2, 0.1, GRID)
        assert np.all(u12.values[-1] <= u1.values[-1] + u2.values[-1] + 1e-10)

    @settings(max_examples=10, deadline=None)
    @given(c=st.floats(-5.0, 5.0), shift=st.floats(0.0, 3.0))
    def test_constant_shift_invariance(self, degenerate_field, c, shift):
        # S_t(psi + m) = S_t(psi) + m for constants m
        psi = _payoff(1.0, c, 0.5, -c)
        u = solve(degenerate_field, psi, 0.1, GRID)
        u_shift = solve(degenerate_field, psi + shift, 0.1, GRID)
        assert np.allclose(u_shift.values[-1], u.values[-1] + shift, atol=1e-10)


@pytest.fixture(scope="session")
def kou_field_coarse(kou_spec):
    from sublevy.kou import build_field

    return build_field(kou_spec, 2, nz=201)


def _bound(kind, base, height, center):
    """A constant bound, or a tent or step of ``height`` on ``base`` at ``center``."""
    if kind == "constant":
        return base
    if kind == "tent":
        return lambda x: base + height * np.maximum(0.0, 1.0 - np.abs(np.asarray(x) - center))
    return lambda x: base + height * (np.asarray(x) > center)


def _above(bound, gap):
    """``bound`` + ``gap``: a number for a number, a function for a function."""
    return (lambda x: bound(x) + gap) if callable(bound) else bound + gap


@st.composite
def _kou_cases(draw, route):
    """(field, grid, w): a random uncertain Kou field, its jump tables given a state
    axis as ``route`` says, a grid and a smooth w, 0 at mid."""
    kinds = st.sampled_from(["constant", "tent", "step"])
    centers = st.floats(-1.0, 1.0)
    # drift intervals from collapsed to straddling the compensator (which is about 0)
    b_lo = _bound(draw(st.sampled_from(["constant", "constant", "tent", "step"])),
                  draw(st.sampled_from([-0.05, 0.0, -0.2, 0.05])),
                  draw(st.floats(-0.1, 0.1)), draw(centers))
    b_hi = _above(b_lo, draw(st.sampled_from([0.1, 0.3, 0.0])))
    a_lo = _bound(draw(kinds), draw(st.floats(0.0, 0.3)), draw(st.floats(0.0, 0.2)), draw(centers))
    a_hi = _above(a_lo, draw(st.sampled_from([0.0, 0.05, 0.2])))
    lam_star = draw(st.floats(1.0, 3.0))
    lam_floor = 0.5
    span = lam_star - lam_floor
    lo, hi = sorted(draw(st.floats(0.0, 1.0)) for _ in range(2))
    hi = draw(st.sampled_from([hi, lo]))  # a collapsed intensity axis, or not
    base, height = lam_floor + span * lo * 0.5, span * lo * 0.5
    lam_lo = _bound(draw(st.sampled_from(["constant", "constant", "tent", "step"])),
                    base, height, draw(centers))
    # a function lam_lo peaks at base + height
    lam_hi = min(max(lam_floor + span * hi, base + height), lam_star)
    if hi == lo and not callable(lam_lo):
        lam_hi = lam_lo
    spec = KouSpec(b_lo=b_lo, b_hi=b_hi, a_lo=a_lo, a_hi=a_hi, lam_lo=lam_lo, lam_hi=lam_hi,
                   lam_star=lam_star, lam_floor=lam_floor)
    res = tuple(draw(st.sampled_from([2, 3])) for _ in range(3))
    field = build_field(spec, res, z_cut=draw(st.sampled_from([3.0, 10.0])),
                        nz=draw(st.sampled_from([101, 201])))
    # a shift makes the jumps asymmetric, so the compensator is not about 0; on
    # a table with a state axis it varies with the state, and so does the compensator
    shift = draw(st.sampled_from([0.0, 0.02, -0.03]))
    kmap = field.jump_density_map
    state_axis = {"as-built": lambda f: False, "mixed": lambda f: f[2] > 0.5,
                  "gather": lambda f: True}[route]
    field = dataclasses.replace(field, jump_density_map=lambda f, x, z: (
        kmap(f, x, z) + shift * (1.0 + np.tanh(x)) if state_axis(f) else kmap(f, x, z) + shift))
    # half-widths down to 1: narrower than the jumps' reach of z_cut
    half = draw(st.sampled_from([1.0, 2.5, 10.0]))
    mid = draw(st.floats(-1.0, 1.0))
    grid = SpatialGrid(mid - half, mid + half, draw(st.integers(21, 121)))
    xs = grid.xs()
    w = (draw(st.floats(-2.0, 2.0)) * np.exp(-0.5 * ((xs - draw(centers)) / draw(st.floats(0.5, 2.0))) ** 2)
         + draw(st.floats(-1.0, 1.0)) * np.tanh(xs - draw(centers)))
    w -= w[grid.nx // 2]
    return field, grid, w


_ORACLE = settings(max_examples=20, deadline=None, derandomize=True,
                   suppress_health_check=[HealthCheck.too_slow])


def _bits(*values):
    """The float64 bits of each value, so that equality is bit for bit."""
    return [np.asarray(v, dtype=float).view(np.int64).tolist() for v in values]


def _audit_bits(field, sample_budget=8):
    """Every field of the audit, as bits."""
    audit = audit_conditions(field, sample_budget, 3)
    return audit.violations, _bits(audit.lipschitz_constant_estimate, audit.sup_drift_dispersion,
                                   audit.sup_jump_moment)


def _per_control_audit_bits(field, sample_budget, rng_seed):
    """``_audit_bits`` of the audit as a loop over the controls, each read on its own:
    the reference the audit's checks, run once per distinct read, must match."""
    rng = np.random.default_rng(rng_seed)
    lo, hi = field.state_box
    xs = rng.uniform(lo, hi, size=sample_budget)
    partners = (rng.uniform(lo, hi, size=sample_budget),
                np.clip(xs + rng.normal(0.0, 1e-3 * (hi - lo), size=sample_budget), lo, hi))
    nodes, weights = field.reference.quadrature.nodes, field.reference.quadrature.weights
    gamma_declared = None if field.gamma is None else np.asarray(field.gamma(nodes), dtype=float)
    shapes = (sample_budget,), (sample_budget,), (sample_budget, nodes.size)
    sup_bs = sup_jump = lip_est = 0.0
    violations, slack = [], 1e-9
    for f in field.control_grid.points:
        (b, s, kappa), *partner_reads = [
            [np.broadcast_to(v, shape) for v, shape in zip(_coefficients(field, f, states), shapes)]
            for states in (xs, *partners)]
        mag = np.abs(b) + np.abs(s)
        sup_bs = max(sup_bs, float(mag.max()))
        jm = (np.minimum(kappa * kappa, 1.0) * weights).sum(axis=1)
        sup_jump = max(sup_jump, float(jm.max()))
        if field.declared_bound is not None:
            total = mag + jm
            if total.max() > field.declared_bound * (1.0 + slack) + slack:
                i = int(np.argmax(total))
                violations.append(("coefficient-bound", (f, float(xs[i]), float(total[i]))))
        if gamma_declared is not None:
            excess = np.abs(kappa) - gamma_declared[None, :] * (1.0 + slack) - 1e-12
            if excess.max() > 0:
                i, j = np.unravel_index(int(np.argmax(excess)), excess.shape)
                violations.append(("jump-size-majorant",
                                   (f, float(xs[i]), float(nodes[j]), float(abs(kappa[i, j])))))
        for ys, (b2, s2, kappa2) in zip(partners, partner_reads):
            dx = np.abs(xs - ys)
            ok = dx > 1e-12
            if not ok.any():
                continue
            ratios = (np.abs(b - b2) + np.abs(s - s2))[ok] / dx[ok]
            rmax = float(ratios.max())
            lip_est = max(lip_est, rmax)
            if field.declared_lipschitz is not None and rmax > field.declared_lipschitz * (
                    1.0 + slack) + slack:
                i = int(np.flatnonzero(ok)[np.argmax(ratios)])
                violations.append(("drift-dispersion-lipschitz", (f, float(xs[i]), float(ys[i]), rmax)))
            if gamma_declared is not None:
                inc = np.abs(kappa - kappa2)[ok] / dx[ok, None]
                excess = inc - gamma_declared[None, :] * (1.0 + slack) - 1e-12
                if excess.max() > 0:
                    i, j = np.unravel_index(int(np.argmax(excess)), excess.shape)
                    io = int(np.flatnonzero(ok)[i])
                    violations.append(("jump-increment-majorant",
                                       (f, float(xs[io]), float(ys[io]), float(nodes[j]))))
    return tuple(violations[:50]), _bits(lip_est, sup_bs, sup_jump)


class TestEnvelopeOracle:
    """The envelope against the per-control formulas, on random uncertain Kou fields."""

    @pytest.mark.parametrize("route", ["as-built", "mixed", "gather"])
    @_ORACLE
    @given(data=st.data(), c=st.floats(-5.0, 5.0), lift=st.floats(0.0, 1.0))
    def test_envelope_matches_the_per_control_formulas(self, route, data, c, lift):
        field, grid, w = data.draw(_kou_cases(route))
        env = _Envelope(field, grid)
        # split by axis where there is more than one control and one compensator
        assert env.per_axis == (len(field.control_grid.points) > 1 and _one_compensator(field, grid))
        stack = env.apply(w).copy()
        scale = float(np.max(np.abs(w)))
        tol = 1e-13 * scale
        # sup is the max of the stack, bit for bit
        got = env.sup(w, np.empty(grid.nx))
        assert np.array_equal(got.view(np.int64), stack.max(axis=0).view(np.int64))
        assert float(np.max(np.abs(stack - _reference_stack(field, grid, w)))) <= tol
        # the route is conv exactly when the table has one row
        tables = [_jump_table(field, f, grid.xs()) for f in field.control_grid.points]
        assert env.routes == sorted({"conv" if t.shape[0] == 1 else "gather" for t in tables})
        # the same field without its declaration: per-control rows, the same operator
        plain = _Envelope(dataclasses.replace(field, control_axes=None), grid)
        assert not plain.per_axis and plain.denom == env.denom and plain.routes == env.routes
        assert float(np.max(np.abs(plain.apply(w) - stack))) <= tol
        assert float(np.max(np.abs(plain.sup(w, np.empty(grid.nx)) - got))) <= tol
        dt = _step(env.denom, 0.9, 1.0)

        def step(u):
            """One step of the march from u, as ``solve`` takes it."""
            du = env.sup(u, np.empty(grid.nx))
            du *= dt
            return u + du

        # one step keeps a constant exactly, and is monotone in the payoff
        u = np.full(grid.nx, c)
        assert np.array_equal(step(u), u)
        bump = lift * np.exp(-((grid.xs() - grid.xs()[grid.nx // 3]) ** 2))
        assert np.all(step(w + bump) >= step(w) - 1e-13 * (scale + lift))

    @pytest.mark.parametrize("route", ["as-built", "mixed", "gather"])
    @_ORACLE
    @given(data=st.data())
    def test_march_is_the_march_of_the_per_control_rows(self, route, data):
        field, grid, psi = data.draw(_kou_cases(route))
        T = 3.0 * cfl_timestep(field, grid, 0.9)  # a few CFL steps
        declared = solve(field, psi, T, grid)
        plain = solve(dataclasses.replace(field, control_axes=None), psi, T, grid)
        assert declared.metadata == plain.metadata
        tol = 1e-12 * float(np.max(np.abs(psi)))
        assert float(np.max(np.abs(declared.values - plain.values))) <= tol
        # recording the policy leaves the values bit for bit
        recorded = solve(field, psi, T, grid, policy=True)
        assert np.array_equal(recorded.values.view(np.int64), declared.values.view(np.int64))

    @pytest.mark.parametrize("route", ["as-built", "mixed", "gather"])
    @_ORACLE
    @given(data=st.data())
    def test_audit_and_symbol_sup_are_those_of_the_per_control_reads(self, route, data):
        field, _, _ = data.draw(_kou_cases(route))
        # declared constants no control meets, so that every check records violations
        tight = dataclasses.replace(field, declared_lipschitz=0.0, declared_bound=0.0,
                                    gamma=lambda z: 0.0 * z)
        for f in (field, tight):
            declared = _audit_bits(f)
            assert declared == _audit_bits(dataclasses.replace(f, control_axes=None))
        assert declared[0]  # the tight field's violations
        plain = dataclasses.replace(field, control_axes=None)
        sups = [small_symbol_sup(f, 0.4, sample_budget=4) for f in (field, plain)]
        assert _bits(sups[0]) == _bits(sups[1])

    @pytest.mark.parametrize("route", ["as-built", "mixed", "gather"])
    @_ORACLE
    @given(data=st.data(), budget=st.sampled_from([1, 8, 64]))
    def test_audit_is_the_per_control_loop(self, route, data, budget):
        field, _, _ = data.draw(_kou_cases(route))
        tight = dataclasses.replace(field, declared_lipschitz=0.0, declared_bound=0.0,
                                    gamma=lambda z: 0.0 * z)
        for f in (field, tight):
            for g in (f, dataclasses.replace(f, control_axes=None)):
                assert _audit_bits(g, budget) == _per_control_audit_bits(g, budget, 3)
