import ast
import collections
import dataclasses
import importlib
import math
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import sublevy

from sublevy.core import (
    AuditError,
    CoefficientField,
    ControlGrid,
    JumpReferenceMeasure,
    Quadrature,
    QuadratureError,
    _jump_table,
    _sources,
    audit_conditions,
    clip_truncation,
    pushforward_tail,
    simpson_quadrature,
    zero_jump_measure,
)
from sublevy.generator import small_symbol_sup
from sublevy.kou import KouSpec, build_field, double_exponential_measure
from sublevy.pide import PolicySchedule, SpatialGrid, _Envelope, cfl_timestep, solve
from sublevy.simulate import estimate_value

from tests.conftest import constant_drift_field, doubled_weights


def _infinite_mass_field():
    """A field on the measure |z|^-2 dz, of infinite mass, held by a two-node quadrature."""
    quad = Quadrature(nodes=np.array([-1.0, 1.0]), weights=np.array([1.0, 1.0]), z_cut=2.0)
    measure = JumpReferenceMeasure(total_mass=math.inf, tail_upper=lambda y: 1.0 / max(y, 1e-12),
                                   tail_lower=lambda y: 1.0 / max(-y, 1e-12), quadrature=quad)
    return dataclasses.replace(constant_drift_field(0.0), reference=measure,
                               jump_density_map=lambda f, x, z: np.asarray(z, dtype=float))


class TestTruncation:
    def test_clip_is_identity_inside_unit_ball(self):
        ys = np.array([-1.0, -0.3, 0.0, 0.7, 1.0])
        assert np.array_equal(clip_truncation(ys), ys)

    def test_clip_saturates_and_stays_bounded(self):
        ys = np.array([-5.0, -1.5, 1.5, 100.0])
        out = clip_truncation(ys)
        assert np.array_equal(out, np.array([-1.0, -1.0, 1.0, 1.0]))
        assert np.all(np.abs(out) <= 1.0)

    def test_constants(self):
        # Lipschitz constant 1, and odd, as kou.characteristic_exponent assumes
        ys = np.random.default_rng(0).uniform(-5.0, 5.0, size=(2, 1000))
        h = clip_truncation(ys)
        assert np.all(np.abs(h[0] - h[1]) <= np.abs(ys[0] - ys[1]))
        assert np.array_equal(clip_truncation(-ys), -h)


class TestControlGrid:
    def test_uniform_lexicographic_order(self):
        g = ControlGrid.uniform((0.0, 0.0), (1.0, 1.0), 2)
        assert g.points == ((0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0))

    def test_collapsed_axis_single_point(self):
        g = ControlGrid.uniform((0.0, 0.5), (1.0, 0.5), 3)
        assert g.points == ((0.0, 0.5), (0.5, 0.5), (1.0, 0.5))

    def test_per_axis_resolution(self):
        g = ControlGrid.uniform((0.0, 0.0), (1.0, 1.0), (2, 3))
        assert len(g.points) == 6

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ControlGrid(points=())

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            ControlGrid(points=((0.0,), (0.0,)))

    def test_points_of_two_dimensions_rejected(self):
        with pytest.raises(ValueError, match="wrong dimension"):
            ControlGrid(points=((0.0, 1.0), (2.0,)))

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

    def test_one_weight_per_node(self):
        with pytest.raises(ValueError, match="matching"):
            Quadrature(nodes=np.array([0.0, 1.0]), weights=np.array([1.0]), z_cut=1.0)

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
        assert m.quadrature.mass == 0.0
        assert m.tail_mass_outside_window() == 0.0
        m.validate_mass()

    def test_validate_mass_catches_mismatch(self):
        quad = simpson_quadrature(lambda s: np.exp(-np.abs(s)), 5.0, 101)
        bad = JumpReferenceMeasure(
            total_mass=4.0,
            tail_upper=lambda y: 2.0 * math.exp(-y),
            tail_lower=lambda y: 2.0 * math.exp(y),
            quadrature=quad,
        )
        with pytest.raises(QuadratureError):
            bad.validate_mass()

    def test_validate_mass_catches_an_unresolved_peak(self):
        # nodes 15 apart put one Simpson weight on the exp(-|z|) peak; the exact mass
        # on the window is 3
        m = double_exponential_measure(1.5, z_cut=1e5, nz=13333)
        assert m.quadrature.mass == pytest.approx(15.0, rel=1e-3)
        with pytest.raises(QuadratureError):
            m.validate_mass()


class TestCoefficientField:
    def test_bad_state_box_rejected(self):
        with pytest.raises(ValueError):
            CoefficientField(
                drift=lambda f, x: x, dispersion=lambda f, x: x,
                jump_density_map=lambda f, x, z: z, reference=zero_jump_measure(),
                truncation=clip_truncation,
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
            drift=lambda f, x: np.where(np.asarray(x) > 0, np.nan, 0.0),
            dispersion=lambda f, x: 0.0 * np.asarray(x, dtype=float),
            jump_density_map=lambda f, x, z: 0.0 * (np.asarray(x) + np.asarray(z)),
            reference=zero_jump_measure(),
            truncation=clip_truncation,
            control_grid=ControlGrid.uniform((0.0,), (0.0,), 1),
        )
        with pytest.raises(AuditError):
            audit_conditions(field, 32, 0)

    def test_non_finite_drift_at_a_partner_state_detected(self):
        # the partner states were read unchecked: this drift, nan beyond x = 9, passed
        # with a Lipschitz estimate of 0.0 from the state 0.236 and its partner 9.009
        field = CoefficientField(
            drift=lambda f, x: np.where(np.asarray(x) > 9.0, np.nan, 0.0),
            dispersion=lambda f, x: 0.0 * np.asarray(x, dtype=float),
            jump_density_map=lambda f, x, z: 0.0 * (np.asarray(x) + np.asarray(z)),
            reference=zero_jump_measure(),
            truncation=clip_truncation,
            control_grid=ControlGrid.uniform((0.0,), (0.0,), 1),
            declared_lipschitz=0.0,
        )
        with pytest.raises(AuditError, match=r"non-finite drift at control \(0\.0,\), state 9\.009"):
            audit_conditions(field, 1, 1)

    def test_lipschitz_violation_recorded(self):
        field = CoefficientField(
            drift=lambda f, x: 3.0 * np.asarray(x, dtype=float),
            dispersion=lambda f, x: 0.0 * np.asarray(x, dtype=float),
            jump_density_map=lambda f, x, z: 0.0 * (np.asarray(x) + np.asarray(z)),
            reference=zero_jump_measure(),
            truncation=clip_truncation,
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
            drift=field.drift, dispersion=field.dispersion,
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
            drift=field.drift, dispersion=field.dispersion,
            jump_density_map=field.jump_density_map, reference=field.reference,
            truncation=field.truncation, control_grid=field.control_grid,
            gamma=lambda z: 0.0 * np.asarray(z, dtype=float),
        )
        audit = audit_conditions(bad, 32, 0)
        assert any(kind == "jump-size-majorant" for kind, _ in audit.violations)

    def test_majorants_cover_sampled_jumps(self, kou_field):
        # the declared gamma covers every jump size at the sampled states, so the audit's
        # majorant checks find nothing, and every mark maps to |kappa| <= |z|
        audit = audit_conditions(kou_field, 64, 5)
        assert not [kind for kind, _ in audit.violations if kind.endswith("majorant")]
        nodes = kou_field.reference.quadrature.nodes
        xs = np.linspace(*kou_field.state_box, 33)
        for f in kou_field.control_grid.points:
            size = np.abs(_jump_table(kou_field, f, xs))
            assert np.all(size <= kou_field.gamma(nodes))
            assert np.all(size <= np.abs(nodes))


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


def _counted(field):
    """The field with its three coefficient callables counting their calls."""
    calls = collections.Counter()

    def counting(name):
        fn = getattr(field, name)

        def call(*args):
            calls[name] += 1
            return fn(*args)

        return call

    names = ("drift", "dispersion", "jump_density_map")
    return dataclasses.replace(field, **{name: counting(name) for name in names}), calls


class TestSources:
    def test_each_distinct_axis_value_is_read_once(self, kou_spec):
        # 27 controls, 3 values on each axis: one call per value and state set,
        # not one per control or per control that brings a new value
        field, calls = _counted(build_field(kou_spec, 3))
        assert len(field.control_grid.points) == 27

        def reads(state_sets):
            return {"drift": 3 * state_sets, "dispersion": 3 * state_sets,
                    "jump_density_map": 3 * state_sets}

        _Envelope(field, SpatialGrid(-10.0, 10.0, 101))
        assert calls == reads(1)
        calls.clear()
        audit_conditions(field, 16, 0)  # the samples and both partner sets
        assert calls == reads(3)
        calls.clear()
        small_symbol_sup(field, 0.1, sample_budget=8)
        assert calls == reads(1)

    def test_a_field_without_axes_reads_each_control(self, kou_spec):
        field, calls = _counted(dataclasses.replace(build_field(kou_spec, 2), control_axes=None))
        drifts, dispersions, tables, at = _sources(field, np.array([-1.0, 0.5]))
        assert len(drifts) == len(dispersions) == len(tables) == 8
        assert np.array_equal(at, np.tile(np.arange(8), (3, 1)))
        assert calls == {"drift": 8, "dispersion": 8, "jump_density_map": 8}

    def test_the_audit_checks_each_distinct_read_once(self, kou_spec):
        # 1,000 controls but 10 distinct jump tables and 100 (drift, dispersion)
        # pairs: checked once per read, the (budget, nodes) work is that of 10
        # controls; checked once per control it took about 17 s on a 2-core host
        field = build_field(kou_spec, 10)
        assert len(field.control_grid.points) == 1000
        start = time.perf_counter()
        audit_conditions(field, 1000, 0)
        assert time.perf_counter() - start < 3.0

    def test_a_state_free_table_is_audited_on_one_row(self, degenerate_spec):
        # the cli spec's one table is state-free: its increments are one row, not
        # (budget, nodes); two such arrays took 61 MiB at 10,000 x 400
        field = build_field(degenerate_spec, 2, nz=400)
        tracemalloc.start()
        try:
            audit = audit_conditions(field, 10000, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert audit.passed
        assert peak < 10 * 2**20


class TestQuadratureCheck:
    def test_every_reader_rejects_a_quadrature_that_misses_the_mass(self, degenerate_field):
        # the window holds 2.9998638 of the mass 3; doubled weights hold 5.9997278
        field = doubled_weights(degenerate_field)
        with pytest.raises(QuadratureError) as expected:
            field.reference.validate_mass()
        assert str(expected.value).startswith("quadrature mass 5.9997278 vs window mass 2.9998638")
        grid = SpatialGrid(-10.0, 10.0, 201)
        policy = PolicySchedule.constant(field.control_grid.points)
        for call in (lambda: cfl_timestep(field, grid, 0.9),
                     lambda: small_symbol_sup(field, 0.1),
                     lambda: estimate_value(field, policy, np.tanh, 0.0, 0.1, 0.01, 2, seed=0),
                     lambda: solve(field, np.tanh, 0.1, grid),
                     lambda: audit_conditions(field, 16, 0)):
            with pytest.raises(QuadratureError) as got:
                call()
            assert str(got.value) == str(expected.value)

    def test_an_infinite_mass_is_rejected_by_name(self):
        # the Monte Carlo rejects such a measure first, as one it cannot sample
        # (TestMeasureRequirements in test_simulate.py)
        with pytest.raises(QuadratureError, match="total_mass is inf"):
            solve(_infinite_mass_field(), np.tanh, 0.1, SpatialGrid(-5.0, 5.0, 51))

    def test_the_reader_is_the_one_place_that_checks(self):
        modules = sorted(p.stem for p in Path(sublevy.__file__).parent.glob("*.py"))
        checks = [(module, scope) for module in modules
                  for scope, name, _ in _calls(module) if name == "validate_mass"]
        assert checks == [("core", "_sources")]


# (module, enclosing function) -> the model reads it may make; core._coefficients
# and _jump_table are the reader, and the map is called directly at single marks only
MODEL_READS = {
    ("core", "_coefficients"): {"drift", "dispersion", "_jump_table"},
    ("core", "_jump_table"): {"jump_density_map"},
    ("core", "pushforward_tail.predicate"): {"jump_density_map"},  # the bisection's one mark
    ("simulate", "_steps"): {"jump_density_map"},  # the Monte Carlo's applied jumps
}
# the callers of core._coefficients
READER_CALLERS = {("core", "_sources"), ("generator", "_point"), ("simulate", "_coefficients"),
                  ("core", "pushforward_tail")}


def _calls(module):
    """Each call in a module of the package: (enclosing function, called name, is core's reader)."""
    tree = ast.parse((Path(sublevy.__file__).parent / f"{module}.py").read_text())
    # a module with its own _coefficients calls core's as core._coefficients
    own = module != "core" and any(
        isinstance(n, ast.FunctionDef) and n.name == "_coefficients" for n in tree.body)
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif isinstance(child, ast.Call):
                fn = child.func
                if isinstance(fn, ast.Attribute):
                    found.append((scope, fn.attr, fn.attr == "_coefficients"
                                  and isinstance(fn.value, ast.Name) and fn.value.id == "core"))
                elif isinstance(fn, ast.Name):
                    found.append((scope, fn.id, fn.id == "_coefficients" and not own))
            visit(child, inner)

    visit(tree, "")
    return found


class TestOneReader:
    def test_the_model_is_read_through_the_one_reader(self):
        modules = sorted(p.stem for p in Path(sublevy.__file__).parent.glob("*.py"))
        assert {"core", "generator", "pide", "simulate"} <= set(modules)
        stray, callers = [], set()
        for module in modules:
            for scope, name, reader in _calls(module):
                allowed = MODEL_READS.get((module, scope), set())
                if name in {"drift", "dispersion", "jump_density_map", "_jump_table"} - allowed:
                    stray.append(f"{module}.{scope} calls {name}")
                if reader:
                    callers.add((module, scope))
        assert stray == []
        assert ("core", "_sources") in callers and callers <= READER_CALLERS


class TestImports:
    def test_every_imported_name_is_used_or_exported(self):
        unused = []
        for path in sorted(Path(sublevy.__file__).parent.glob("*.py")):
            if path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text())
            imported = []
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    imported += [a.asname or a.name.split(".")[0] for a in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                    imported += [a.asname or a.name for a in node.names]
            used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            exported = set(getattr(importlib.import_module(f"sublevy.{path.stem}"), "__all__", ()))
            unused += [f"{path.stem}.{name}" for name in imported if name not in used | exported]
        assert unused == []

    def test_every_private_helper_is_used(self):
        # a function, class or method named with one leading underscore is referenced
        # somewhere in the package other than its own body; tests do not count
        trees = [ast.parse(p.read_text()) for p in sorted(Path(sublevy.__file__).parent.glob("*.py"))]
        refs = collections.Counter()
        defs = []
        for tree in trees:
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    refs[node.id] += 1
                elif isinstance(node, ast.Attribute):
                    refs[node.attr] += 1
                elif (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                      and node.name.startswith("_") and not node.name.startswith("__")):
                    defs.append(node)
        dead = []
        for node in defs:
            own = sum(isinstance(n, ast.Name) and n.id == node.name
                      or isinstance(n, ast.Attribute) and n.attr == node.name
                      for n in ast.walk(node))
            if refs[node.name] == own:
                dead.append(node.name)
        assert defs
        assert dead == []

    def test_every_public_name_has_a_caller(self):
        # a module-level function or class named without a leading underscore is referenced
        # outside its own body: elsewhere in the package (the re-exports of __init__ do not
        # count), in the acceptance criteria or in perfbench; a reference from a name that
        # has no caller does not count either.  Exempt: two test fixtures, and the
        # one-control symbol, the pointwise oracle of small_symbol_sup and the Fourier
        # exponent
        exempt = {"core.zero_jump_measure", "generator.constant_function", "generator.symbol"}
        tests = Path(__file__).parent
        package = [p for p in sorted(Path(sublevy.__file__).parent.glob("*.py"))
                   if p.name != "__init__.py"]
        callers = [tests / "test_acceptance.py", *sorted((tests.parent / "perfbench").glob("*.py"))]

        def names(tree):
            return collections.Counter(n.id if isinstance(n, ast.Name) else n.attr
                                       for n in ast.walk(tree)
                                       if isinstance(n, (ast.Name, ast.Attribute)))

        refs = collections.Counter()
        public = {}
        for path in package + callers:
            tree = ast.parse(path.read_text())
            refs += names(tree)
            if path in package:
                public.update({f"{path.stem}.{n.name}": n for n in tree.body
                               if isinstance(n, (ast.FunctionDef, ast.ClassDef))
                               and not n.name.startswith("_")})
        assert exempt <= public.keys()
        dead = []
        while new := [k for k, n in public.items() if k not in exempt and k not in dead
                      and refs[n.name] == names(n)[n.name]]:
            dead += new
            for k in new:
                refs -= names(public[k])
        assert dead == []

    def test_every_field_and_method_has_a_reader(self):
        # every dataclass field of src/sublevy/*.py is read as an attribute outside its own
        # class's __post_init__, and every public method or property is referenced as an
        # attribute outside its own body, in the package, the acceptance criteria or
        # perfbench.  Exempt: GaussianBump.gaussian_blur, the closed-form no-jump value that
        # two tests hold the march against
        exempt = {"kou.GaussianBump.gaussian_blur"}
        tests = Path(__file__).parent
        package = [p for p in sorted(Path(sublevy.__file__).parent.glob("*.py"))
                   if p.name != "__init__.py"]
        callers = [tests / "test_acceptance.py", *sorted((tests.parent / "perfbench").glob("*.py"))]

        def reads(tree):
            return collections.Counter(n.attr for n in ast.walk(tree)
                                       if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))

        trees = {path: ast.parse(path.read_text()) for path in package + callers}
        refs = sum(map(reads, trees.values()), collections.Counter())
        members = {}  # "module.Class.name": the reads of the name that its own code makes
        for path in package:
            for cls in (n for n in ast.walk(trees[path]) if isinstance(n, ast.ClassDef)):
                methods = {n.name: n for n in cls.body if isinstance(n, ast.FunctionDef)}
                if any("dataclass" in ast.unparse(d) for d in cls.decorator_list):
                    own = (reads(methods["__post_init__"]) if "__post_init__" in methods
                           else collections.Counter())
                    members.update({f"{path.stem}.{cls.name}.{n.target.id}": own[n.target.id]
                                    for n in cls.body if isinstance(n, ast.AnnAssign)})
                members.update({f"{path.stem}.{cls.name}.{k}": reads(n)[k]
                                for k, n in methods.items() if not k.startswith("_")})
        assert exempt <= members.keys()
        unread = [k for k, own in members.items()
                  if k not in exempt and refs[k.rsplit(".", 1)[1]] == own]
        assert unread == []


class TestFlatStep:
    def test_the_envelope_step_is_one_flat_loop(self):
        # _Envelope.sup forms w and runs the calls its build bound, in one loop; a second
        # loop re-walks the layout at every step, and a call that unpacks keywords costs
        # every step a dict
        tree = ast.parse((Path(sublevy.__file__).parent / "pide.py").read_text())
        envelope = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "_Envelope")
        sup = next(n for n in envelope.body if isinstance(n, ast.FunctionDef) and n.name == "sup")
        loops = [n for n in ast.walk(sup) if isinstance(n, (ast.For, ast.While, ast.comprehension))]
        assert len(loops) == 1
        unpacked = [ast.unparse(n) for n in ast.walk(sup)
                    if isinstance(n, ast.Call) and any(k.arg is None for k in n.keywords)]
        assert unpacked == []
