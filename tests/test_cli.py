import ast
import errno
import filecmp
import gc
import inspect
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sublevy
from sublevy import cli, pide
from sublevy.cli import MC_PATH_STEPS_MAX, ConfigError, main, parse_config
from sublevy.core import ConditionAudit, QuadratureError
from sublevy.kou import build_field
from sublevy.pide import ValueField, solve
from sublevy.simulate import CHUNK
from tests.conftest import doubled_weights

FAST_SOLVE = ["--set", "pide.nx=201", "--set", "pide.t_horizon=0.2"]
BENCH_CFG = Path(__file__).parents[1] / "perfbench" / "cli.cfg"


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseConfig:
    def test_defaults_without_text(self):
        cfg = parse_config("")
        assert cfg["pide"]["nx"] == 801
        assert cfg["model"]["lam_star"] == 1.5

    def test_comments_and_whitespace(self):
        cfg = parse_config(
            "# a comment\n"
            "\n"
            "  pide.nx = 101   # trailing note\n"
            "psi.kind = tanh\n"
        )
        assert cfg["pide"]["nx"] == 101
        assert cfg["psi"]["kind"] == "tanh"

    def test_unknown_section_and_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("nosuch.key = 1\n")
        with pytest.raises(ConfigError):
            parse_config("pide.nosuch = 1\n")

    def test_missing_section_prefix_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("nx = 101\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("pide.nx = many\n")
        with pytest.raises(ConfigError):
            parse_config("psi.kind = sine\n")

    def test_float_list_parsing(self):
        cfg = parse_config("fourier.check_points = -1.0, 0.5, 2\n")
        assert cfg["fourier"]["check_points"] == (-1.0, 0.5, 2.0)


class TestSolveCommand:
    def test_writes_value_and_meta(self, capsys, tmp_path):
        out = tmp_path / "art"
        code, stdout, _ = _run(capsys, "solve", "--out", str(out), *FAST_SOLVE)
        assert code == 0
        assert "wrote" in stdout
        u = (out / "u.csv").read_text()
        assert u.splitlines()[0] == "t,x,u"
        meta = (out / "meta.txt").read_text()
        assert "scheme = explicit-upwind-monotone" in meta
        assert "np.float64" not in u and "np.float64" not in meta

    def test_constant_payoff_column(self, capsys, tmp_path):
        out = tmp_path / "art"
        code, _, _ = _run(capsys, "solve", "--out", str(out), *FAST_SOLVE,
                          "--set", "psi.kind=constant",
                          "--set", "psi.amplitude=2.5")
        assert code == 0
        rows = (out / "u.csv").read_text().splitlines()[1:]
        assert all(row.endswith(",2.5") for row in rows)

    @pytest.mark.parametrize("nx, T", [(201, 0.2), (101, 0.5)])
    def test_value_file_holds_the_payoff_and_the_value_at_T(self, capsys, tmp_path, nx, T):
        out = tmp_path / "art"
        code, _, _ = _run(capsys, "solve", "--out", str(out),
                          "--set", f"pide.nx={nx}", "--set", f"pide.t_horizon={T}")
        assert code == 0
        lines = (out / "u.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * nx
        assert {line.split(",")[0] for line in lines[1:]} == {"0.0", repr(T)}
        cfg = parse_config(f"pide.nx = {nx}\npide.t_horizon = {T}\n")
        fieldU = solve(cfg.field(), cfg.psi(), T, cfg.grid(), cfg["pide"]["cfl_safety"])
        xs = cfg.grid().xs().tolist()
        for t, row, block in zip(("0.0", repr(T)), fieldU.values.tolist(),
                                 (lines[1:1 + nx], lines[1 + nx:])):
            assert block == [f"{t},{x!r},{v!r}" for x, v in zip(xs, row)]

    def test_without_out_the_artifacts_land_in_the_output_directory(self, capsys, tmp_path):
        out = tmp_path / "configured"
        code, _, _ = _run(capsys, "solve", "--set", f"output.directory={out}", *FAST_SOLVE)
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == ["meta.txt", "u.csv"]

    def test_reruns_are_bit_identical(self, capsys, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            code, _, _ = _run(capsys, "solve", "--out", str(out), *FAST_SOLVE)
            assert code == 0
        assert filecmp.cmp(out1 / "u.csv", out2 / "u.csv", shallow=False)
        assert filecmp.cmp(out1 / "meta.txt", out2 / "meta.txt", shallow=False)


class TestSimulateCommand:
    FAST = FAST_SOLVE + ["--set", "mc.paths=400", "--set", "mc.dt=0.01"]

    def test_writes_mc_summary(self, capsys, tmp_path):
        out = tmp_path / "art"
        code, _, _ = _run(capsys, "simulate", "--out", str(out), *self.FAST)
        assert code == 0
        lines = (out / "mc.csv").read_text().splitlines()
        assert lines[0] == "mean,stderr,pide_value"
        assert len(lines) == 2
        # one control attains the sup in every cell
        assert (out / "policy.csv").read_text() == "control,f_b,f_a,f_lam,share\n0,0.0,0.0,0.0,1.0\n"

    def test_seed_flag_controls_reproducibility(self, capsys, tmp_path):
        outs = [tmp_path / n for n in ("a", "b", "c")]
        for out, seed in zip(outs, ("1", "1", "2")):
            code, _, _ = _run(capsys, "simulate", "--out", str(out),
                              "--seed", seed, *self.FAST)
            assert code == 0
        assert filecmp.cmp(outs[0] / "mc.csv", outs[1] / "mc.csv", shallow=False)
        assert not filecmp.cmp(outs[0] / "mc.csv", outs[2] / "mc.csv", shallow=False)

    @pytest.mark.parametrize("seed, message", [("1", "mc mean .* above pide"),
                                               ("4", "degenerate mc mean .* vs pide")])
    def test_mc_outside_its_tolerance_keeps_artifacts(self, capsys, tmp_path, seed, message):
        # two paths and no tolerance: seed 1 lands above the PIDE value, seed 4 below it
        out = tmp_path / "art"
        code, _, err = _run(capsys, "simulate", "--out", str(out), "--seed", seed,
                            "--set", "mc.paths=2", "--set", "mc.tolerance=1e-300")
        assert code == 1
        assert re.match(f"TOLERANCE_EXCEEDED: {message}", err)
        assert sorted(p.name for p in out.iterdir()) == ["mc.csv", "policy.csv"]

    def test_uncertain_model_writes_its_policy_map(self, capsys, tmp_path):
        # drift and intensity intervals: 4 controls, and the sup moves between them
        uncertain = self.FAST + ["--set", "model.b_hi=0.15", "--set", "model.lam_lo=1.0"]
        outs = [tmp_path / n for n in ("a", "b")]
        for out in outs:
            code, _, _ = _run(capsys, "simulate", "--out", str(out), *uncertain)
            assert code == 0
        lines = (outs[0] / "policy.csv").read_text().splitlines()
        assert lines[0] == "control,f_b,f_a,f_lam,share"
        rows = [line.split(",") for line in lines[1:]]
        assert [row[0] for row in rows] == ["0", "1", "2", "3"]
        assert [tuple(map(float, row[1:4])) for row in rows] == [
            (0.0, 0.0, 0.0), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (1.0, 0.0, 1.0)]
        shares = [float(row[4]) for row in rows]
        assert sum(shares) == pytest.approx(1.0, abs=1e-12)
        assert sum(share > 0.0 for share in shares) > 1
        for name in ("mc.csv", "policy.csv"):
            assert filecmp.cmp(outs[0] / name, outs[1] / name, shallow=False)


class TestValidateCommand:
    def test_default_model_passes_audit(self, capsys, tmp_path):
        out = tmp_path / "art"
        code, _, _ = _run(capsys, "validate", "--out", str(out))
        assert code == 0
        report = (out / "audit.txt").read_text()
        assert "passed = True" in report
        assert "n_violations = 0" in report

    def test_a_failed_audit_exits_with_its_violations(self, capsys, tmp_path, monkeypatch):
        # no config reaches a violation, so the audit is stubbed with one
        failed = ConditionAudit(
            lipschitz_constant_estimate=0.0,
            violations=(("coefficient-bound", ((0.0, 0.0, 0.0), 0.5, 9.0)),),
            sup_drift_dispersion=9.0, sup_jump_moment=0.0)
        monkeypatch.setattr(cli, "audit_conditions", lambda field, budget, seed: failed)
        out = tmp_path / "art"
        code, _, err = _run(capsys, "validate", "--out", str(out))
        assert (code, err) == (1, "AUDIT_VIOLATIONS: n=1\n")
        # the report is kept: it names what failed
        report = (out / "audit.txt").read_text().splitlines()
        assert report[0] == "passed = False"
        assert "n_violations = 1" in report
        assert report[-1] == "violation = coefficient-bound ((0.0, 0.0, 0.0), 0.5, 9.0)"


class TestFourierCheckCommand:
    FAST = ["--set", "pide.nx=401", "--set", "pide.t_horizon=0.5"]

    def test_degenerate_model_passes(self, capsys, tmp_path):
        out = tmp_path / "art"
        code, _, _ = _run(capsys, "fourier-check", "--out", str(out), *self.FAST)
        assert code == 0
        lines = (out / "fourier.csv").read_text().splitlines()
        assert lines[0] == "x0,pide,fourier,diff"
        assert len(lines) == 4  # three default check points

    def test_tolerance_exceeded_keeps_artifacts(self, capsys, tmp_path):
        out = tmp_path / "art"
        code, _, err = _run(capsys, "fourier-check", "--out", str(out),
                            "--set", "fourier.tolerance=1e-6", *self.FAST)
        assert code == 1
        assert err.startswith("TOLERANCE_EXCEEDED: fourier diff")
        assert (out / "fourier.csv").exists()

    def test_uncertain_model_rejected(self, capsys, tmp_path):
        out = tmp_path / "art"
        code, _, err = _run(capsys, "fourier-check", "--out", str(out),
                            "--set", "model.b_hi=0.1", *self.FAST)
        assert code == 2
        assert err.startswith("CONFIG_INVALID")
        assert not any(p.name == "fourier.csv" for p in out.iterdir())

    def test_non_gaussian_payoff_rejected(self, capsys, tmp_path):
        out = tmp_path / "art"
        code, _, err = _run(capsys, "fourier-check", "--out", str(out),
                            "--set", "psi.kind=tanh", *self.FAST)
        assert code == 2
        assert err.startswith("CONFIG_INVALID")


class TestTransformCommand:
    def test_exponential_family_passes(self, capsys, tmp_path):
        out = tmp_path / "art"
        code, _, _ = _run(capsys, "transform", "--out", str(out))
        assert code == 0
        lines = (out / "k.csv").read_text().splitlines()
        assert lines[0] == "y,k"
        assert len(lines) == 1 + 2 * 41

    def test_power_family_is_a_dilation(self, capsys, tmp_path):
        out = tmp_path / "art"
        code, _, _ = _run(capsys, "transform", "--out", str(out), "--set", "transform.family=power")
        assert code == 0
        t = parse_config("")["transform"]
        scale = (t["c_target"] / t["c_reference"]) ** (1.0 / t["alpha"])
        rows = [tuple(map(float, line.split(","))) for line in (out / "k.csv").read_text().splitlines()[1:]]
        assert len(rows) == 2 * 41
        assert max(abs(k - y * scale) for y, k in rows) <= 1e-9

    def test_tolerance_exceeded_keeps_artifacts(self, capsys, tmp_path):
        out = tmp_path / "art"
        code, _, err = _run(capsys, "transform", "--out", str(out),
                            "--set", "transform.tolerance=1e-30")
        assert code == 1
        assert err.startswith("TOLERANCE_EXCEEDED")
        assert (out / "k.csv").exists()

    def test_runtime_failure_cleans_partial_output(self, capsys, tmp_path, monkeypatch):
        out = tmp_path / "art"

        def failing_check(*args, **kwargs):
            # k.csv is written before the transport check runs
            assert (out / "k.csv").exists()
            raise ArithmeticError("transport check failed")

        monkeypatch.setattr(cli, "verify_transport", failing_check)
        code, _, err = _run(capsys, "transform", "--out", str(out))
        assert code == 3
        assert err.startswith("RUNTIME_FAILURE")
        assert not (out / "k.csv").exists()


class TestDppCheckCommand:
    def test_restart_matches_direct(self, capsys, tmp_path):
        out = tmp_path / "art"
        code, _, _ = _run(capsys, "dpp-check", "--out", str(out), *FAST_SOLVE)
        assert code == 0
        lines = (out / "dpp.csv").read_text().splitlines()
        assert lines[0] == "x,u_direct,u_restart,diff"
        assert len(lines) > 1

    def test_tolerance_exceeded_keeps_artifacts(self, capsys, tmp_path):
        out = tmp_path / "art"
        code, _, err = _run(capsys, "dpp-check", "--out", str(out), "--set", "dpp.tolerance=1e-9", *FAST_SOLVE)
        assert code == 1
        assert err.startswith("TOLERANCE_EXCEEDED: dpp gap")
        assert (out / "dpp.csv").exists()


class TestTanhPayoff:
    def test_solve_and_simulate_run_on_the_benchmark_config(self, capsys, tmp_path):
        for sub in ("solve", "simulate"):
            code, _, err = _run(capsys, sub, "--config", str(BENCH_CFG), "--out", str(tmp_path / sub),
                                "--set", "psi.kind=tanh", "--seed", "1")
            assert (code, err) == (0, "")

    def test_without_drift_the_value_is_odd_and_inside_the_payoff_range(self, capsys, tmp_path):
        # one model with a symmetric jump law and no drift keeps tanh's oddness, and a
        # monotone march keeps the values in the payoff's range
        code, _, _ = _run(capsys, "solve", "--config", str(BENCH_CFG), "--out", str(tmp_path),
                          "--set", "psi.kind=tanh", "--set", "model.b_lo=0", "--set", "model.b_hi=0")
        assert code == 0
        nx = parse_config(BENCH_CFG.read_text())["pide"]["nx"]
        rows = [line.split(",") for line in (tmp_path / "u.csv").read_text().splitlines()[-nx:]]
        assert {t for t, _, _ in rows} == {"1.0"}
        u = [float(v) for _, _, v in rows]
        assert max(abs(a + b) for a, b in zip(u, u[::-1])) <= 1e-12
        assert -1.0 < min(u) and max(u) < 1.0


class TestErrorChannels:
    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = _run(capsys, "solve", "--config",
                            str(tmp_path / "nope.cfg"))
        assert code == 2
        assert err.startswith("IO_ERROR")

    def test_inverted_interval_rejected(self, capsys, tmp_path):
        code, _, err = _run(capsys, "solve", "--out", str(tmp_path),
                            "--set", "model.a_lo=0.5", "--set", "model.a_hi=0.2")
        assert code == 2
        assert err.startswith("CONFIG_INVALID")

    def test_unknown_override_key(self, capsys, tmp_path):
        code, _, err = _run(capsys, "solve", "--out", str(tmp_path),
                            "--set", "bogus.key=1")
        assert code == 2
        assert err.startswith("CONFIG_INVALID")

    @pytest.mark.parametrize("sub, entry", [
        ("fourier-check", "fourier.tolerance=nan"),
        ("dpp-check", "dpp.tolerance=nan"),
        ("solve", "pide.x_min=-inf"),
        ("solve", "model.b_hi=inf"),
        ("fourier-check", "fourier.check_points=0.0,nan"),
    ])
    def test_non_finite_number_rejected(self, capsys, tmp_path, sub, entry):
        # a nan tolerance would pass every `worst > tolerance` gate
        code, _, err = _run(capsys, sub, "--out", str(tmp_path), "--set", entry)
        assert code == 2
        assert err.startswith("CONFIG_INVALID")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("sub, args", [
        ("simulate", ["--seed", "-1"]),
        ("validate", ["--seed", "-1"]),
        ("simulate", ["--set", "mc.seed=-1"]),
        ("validate", ["--set", "audit.seed=-1"]),
        ("fourier-check", ["--set", "fourier.check_points="]),
        ("transform", ["--set", "transform.thresholds="]),
        ("transform", ["--set", "transform.family=power", "--set", "transform.alpha=-1"]),
        ("transform", ["--set", "transform.family=power", "--set", "transform.c_target=0"]),
        ("transform", ["--set", "transform.family=power", "--set", "transform.c_reference=0"]),
        ("simulate", ["--set", "mc.dt=1e-320"]),
        ("validate", ["--set", "mc.dt=1e-12"]),
        ("validate", ["--set", "mc.paths=1000000000"]),
        ("validate", ["--set", "mc.paths=1000001"]),
        ("validate", ["--set", "mc.paths=2000", "--set", "mc.dt=1e-6"]),
        ("transform", ["--set", "transform.family=power", "--set", "transform.thresholds=1e-300"]),
        ("transform", ["--set", "transform.family=power", "--set", "transform.alpha=400"]),
        ("transform", ["--set", "transform.family=power", "--set", "transform.y_abs_min=1e-300"]),
        ("dpp-check", ["--set", "model.b_hi=1e308"]),
    ], ids=["simulate-seed-flag", "validate-seed-flag", "mc-seed", "audit-seed",
            "no-check-points", "no-thresholds", "power-alpha", "power-c-target",
            "power-c-reference", "mc-dt-overflows", "mc-dt-tiny", "mc-paths-huge",
            "mc-path-steps-over-cap", "mc-path-steps-over-cap-by-dt",
            "power-tails-overflow-at-threshold", "power-tails-overflow-at-probe",
            "power-tails-overflow-at-mark", "march-step-underflows"])
    def test_out_of_range_entry_rejected(self, capsys, tmp_path, sub, args):
        # a negative seed or power-law parameter failed at run time, and so did
        # power-law tails overflowing a float; an empty list passed its gate over
        # nothing; an unbounded Monte Carlo ran for days, or overflowed its step count;
        # a CFL denominator that overflows gives a zero step, which no march can take
        code, _, err = _run(capsys, sub, "--out", str(tmp_path), *args)
        assert code == 2
        assert err.startswith("CONFIG_INVALID")
        assert list(tmp_path.iterdir()) == []

    # an uncertain model whose three intervals are open
    OPEN_AXES = ["model.b_hi=0.15", "model.a_hi=0.3", "model.lam_lo=1.0"]

    def test_control_count_at_the_cap_accepted(self):
        assert cli.CONTROLS_MAX == 1000
        entries = [*self.OPEN_AXES, "control.resolution=10", "pide.nx=101"]
        parse_config("".join(f"{e}\n" for e in entries)).validate()

    @pytest.mark.parametrize("entries", [
        [*OPEN_AXES, "control.resolution=11"],
        ["model.b_hi=0.15", "control.resolution=1001"],
    ], ids=["three-axes", "one-axis"])
    def test_control_count_over_the_cap_rejected(self, capsys, tmp_path, entries):
        # the control grid was unbounded: 1e6 controls took minutes to validate
        args = [a for e in entries for a in ("--set", e)]
        code, _, err = _run(capsys, "validate", "--out", str(tmp_path), *args)
        assert code == 2
        assert err.startswith("CONFIG_INVALID") and "controls" in err
        assert list(tmp_path.iterdir()) == []

    def test_mc_size_at_the_cap_accepted(self):
        # 1e6 paths x round(1.0 / 1e-3) steps is the cap itself
        parse_config(f"mc.paths = {MC_PATH_STEPS_MAX // 1000}\n").validate()

    def test_few_paths_count_as_one_chunk(self):
        # 2 paths at mc.dt = 2e-9 are 5e8 Euler steps, whose per-step tables
        # alone would take about 12 GB; CHUNK x 244,140 steps is the cap
        with pytest.raises(ConfigError, match="Euler steps"):
            parse_config("mc.paths = 2\nmc.dt = 2e-9\n").validate()
        steps = MC_PATH_STEPS_MAX // CHUNK
        parse_config(f"mc.paths = 2\nmc.dt = {1 / steps!r}\n").validate()
        with pytest.raises(ConfigError, match="Euler steps"):
            parse_config(f"mc.paths = 400\nmc.dt = {1 / (steps + 1)!r}\n").validate()

    @pytest.mark.parametrize("z_cut, accepted", [
        ("1e-300", False), ("9.0", False), ("9.2", False), ("9.25", True), ("10.0", True)])
    def test_a_window_that_misses_the_jump_mass_is_rejected(self, z_cut, accepted):
        # the window misses exp(-z_cut) of the double-exponential mass: z_cut = 1e-300
        # misses all of it (u(T, 0) = 0.911 against 0.451), the default 10 misses 4.5e-5
        cfg = parse_config(f"pide.z_cut = {z_cut}\n")
        if accepted:
            cfg.validate()
        else:
            with pytest.raises(ConfigError, match="pide.z_cut must hold all but 0.0001 of the jump mass"):
                cfg.validate()

    def test_sizes_at_their_caps_accepted(self):
        assert (cli.AUDIT_TABLE_MAX, cli.FOURIER_N_XI_MAX, cli.TRANSFORM_POINTS_MAX) == (
            4 * 10**6, 10**6, 10**4)
        # 10,000 x 400 is the audit table's cap itself
        parse_config("audit.sample_budget = 10000\npide.nz = 400\npide.nx = 101\n"
                     "fourier.n_xi = 1000000\ntransform.n_points = 10000\n").validate()

    @pytest.mark.parametrize("sub, entries", [
        ("validate", ["audit.sample_budget=10000", "pide.nz=401"]),
        ("validate", ["audit.sample_budget=64", "pide.nz=62501"]),
        ("fourier-check", ["fourier.n_xi=1000001"]),
        ("transform", ["transform.n_points=10001"]),
    ], ids=["audit-budget", "audit-nz", "fourier-n-xi", "transform-points"])
    def test_size_over_its_cap_rejected(self, capsys, tmp_path, sub, entries):
        # the audit's (budget, nz) tables, fourier-check's frequencies and the
        # transform's bisections grew without bound, in memory or in time
        args = [a for e in entries for a in ("--set", e)]
        code, _, err = _run(capsys, sub, "--out", str(tmp_path), "--set", "pide.nx=101", *args)
        assert code == 2
        assert err.startswith("CONFIG_INVALID")
        assert list(tmp_path.iterdir()) == []

    # the 961-control config of the envelope's memory defect: 31 drift and 31 intensity
    # values, and four CFL steps at any grid
    MANY_ROWS = ["model.b_lo=0.0", "model.b_hi=1e-9", "model.a_lo=0.0", "model.a_hi=0.0",
                 "model.lam_lo=1.0", "model.lam_hi=1.5", "model.lam_star=1.5",
                 "control.resolution=31", "audit.sample_budget=1"]
    # 1,000 controls on the march spec
    THOUSAND = ["model.b_lo=0.0", "model.b_hi=0.1", "model.a_lo=0.1", "model.a_hi=0.3",
                "model.lam_lo=1.0", "model.lam_hi=1.5", "model.lam_star=2.0", "control.resolution=10"]

    @pytest.mark.parametrize("entries", [[], [*MANY_ROWS, "pide.nx=20001"]],
                             ids=["default", "961-controls"])
    def test_validate_builds_no_envelope(self, monkeypatch, entries):
        # validate built the whole envelope to read its CFL denominator: 646 MiB at peak
        # on the 961-control config
        def refuse(*args):
            raise AssertionError("validate built an envelope")

        monkeypatch.setattr(pide._Envelope, "__init__", refuse)
        parse_config("".join(f"{e}\n" for e in entries)).validate()

    @pytest.mark.parametrize("entries, code", [
        ([], 0),
        ([*THOUSAND, "pide.nx=100001"], 2),
        ([*THOUSAND, "pide.nx=300001"], 2),
    ], ids=["default", "thousand-controls-nx-100001", "thousand-controls-nx-300001"])
    def test_rejected_before_any_envelope_is_allocated(self, tmp_path, entries, code):
        # validate built 1,000 controls x nx of envelope before its caps rejected the
        # config: 1,138 MiB at nx=300,001, a MemoryError under this limit.  The default
        # run shows that the limit leaves room for a run
        src = os.path.dirname(os.path.dirname(os.path.abspath(sublevy.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        limited = ("import resource; resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20)); "
                   "from sublevy.cli import entry; entry()")
        args = [a for e in entries for a in ("--set", e)]
        proc = subprocess.run([sys.executable, "-c", limited, "validate", "--out", str(tmp_path), *args],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == code, proc.stderr
        if code:
            assert proc.stderr.startswith("CONFIG_INVALID")
            assert list(tmp_path.iterdir()) == []

    def test_envelope_size_at_the_cap_accepted_and_over_it_rejected(self, capsys, tmp_path):
        # the envelope grew as nx x its rows and nothing capped it: this config was
        # accepted at nx=100,001, where solve would need about 3 GB.  The grid with the
        # last count under the cap is accepted, the next one rejected
        field = parse_config("".join(f"{e}\n" for e in self.MANY_ROWS)).field()

        def count(nx):
            return pide._preflight(field, pide.SpatialGrid(-10.0, 10.0, nx))[1]

        lo, hi = 3, 10**6
        assert count(lo) <= cli.ENVELOPE_ENTRIES_MAX < count(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if count(mid) <= cli.ENVELOPE_ENTRIES_MAX else (lo, mid)
        args = [a for e in self.MANY_ROWS for a in ("--set", e)]
        code, _, err = _run(capsys, "validate", "--out", str(tmp_path / "a"), *args, "--set", f"pide.nx={lo}")
        assert code == 0, err
        code, _, err = _run(capsys, "validate", "--out", str(tmp_path), *args, "--set", f"pide.nx={hi}")
        assert code == 2
        assert err.startswith("CONFIG_INVALID") and "envelope" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a"]

    @pytest.mark.parametrize("sub, args", [
        ("solve", []),
        ("simulate", ["--set", "mc.paths=400", "--set", "mc.dt=0.01"]),
        ("fourier-check", []),
        ("dpp-check", []),
    ], ids=["solve", "simulate", "fourier-check", "dpp-check"])
    def test_march_over_the_cap_rejected(self, capsys, tmp_path, monkeypatch, sub, args):
        code, _, _ = _run(capsys, "solve", "--out", str(tmp_path / "a"), *FAST_SOLVE)
        assert code == 0
        meta = (tmp_path / "a" / "meta.txt").read_text()
        n_steps = int(re.search(r"^n_steps = (\d+)$", meta, re.MULTILINE).group(1))
        node_steps = (n_steps + 1) * 201
        # the cap is inclusive, and checked before the march writes anything
        monkeypatch.setattr(cli, "MARCH_NODE_STEPS_MAX", node_steps)
        code, _, _ = _run(capsys, sub, "--out", str(tmp_path / "b"), *FAST_SOLVE, *args)
        assert code == 0
        monkeypatch.setattr(cli, "MARCH_NODE_STEPS_MAX", node_steps - 1)
        code, _, err = _run(capsys, sub, "--out", str(tmp_path), *FAST_SOLVE, *args)
        assert code == 2
        assert err.startswith("CONFIG_INVALID")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "b"]

    def test_restart_march_over_the_cap_rejected(self, capsys, tmp_path, monkeypatch):
        # the cap counted solve's march only, so a small dpp.restart_safety made
        # dpp-check's restart march over T/2 run without bound
        args = [*FAST_SOLVE, "--set", "dpp.restart_safety=0.3"]
        cfg = parse_config("pide.nx = 201\npide.t_horizon = 0.2\n")
        restart = solve(cfg.field(), cfg.psi(), 0.1, cfg.grid(), 0.3)
        node_steps = (restart.metadata["n_steps"] + 1) * 201
        direct = solve(cfg.field(), cfg.psi(), 0.2, cfg.grid(), 0.9)
        assert (direct.metadata["n_steps"] + 1) * 201 < node_steps - 1
        monkeypatch.setattr(cli, "MARCH_NODE_STEPS_MAX", node_steps)
        code, _, _ = _run(capsys, "dpp-check", "--out", str(tmp_path / "a"), *args)
        assert code == 0
        monkeypatch.setattr(cli, "MARCH_NODE_STEPS_MAX", node_steps - 1)
        code, _, err = _run(capsys, "dpp-check", "--out", str(tmp_path), *args)
        assert code == 2
        assert err.startswith("CONFIG_INVALID") and "restart" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a"]

    def test_march_counted_with_the_landing_at_half_horizon(self, capsys, tmp_path, monkeypatch):
        # the cap counted solve's march over T in one span, but dpp-check's direct
        # solve lands at T/2, which here takes one step more
        args = ["--set", "pide.nx=201", "--set", "pide.t_horizon=0.25"]
        cfg = parse_config("pide.nx = 201\npide.t_horizon = 0.25\n")
        plain = solve(cfg.field(), cfg.psi(), 0.25, cfg.grid(), 0.9)
        landed = solve(cfg.field(), cfg.psi(), 0.25, cfg.grid(), 0.9, checkpoints=(0.125,))
        assert landed.metadata["n_steps"] == plain.metadata["n_steps"] + 1
        node_steps = (landed.metadata["n_steps"] + 1) * 201
        monkeypatch.setattr(cli, "MARCH_NODE_STEPS_MAX", node_steps)
        code, _, _ = _run(capsys, "dpp-check", "--out", str(tmp_path / "a"), *args)
        assert code == 0
        monkeypatch.setattr(cli, "MARCH_NODE_STEPS_MAX", node_steps - 1)
        code, _, err = _run(capsys, "dpp-check", "--out", str(tmp_path), *args)
        assert code == 2
        assert err.startswith("CONFIG_INVALID") and "the march" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a"]

    def test_full_disk_is_an_io_error(self, capsys, tmp_path, monkeypatch):
        class FullDisk(io.TextIOWrapper):
            """A text file with room for its first write only."""

            room = 1

            def write(self, text):
                if not self.room:
                    raise OSError(errno.ENOSPC, "no room for the rows")
                self.room -= 1
                return super().write(text)

        monkeypatch.setattr(pide, "open", lambda path, mode: FullDisk(open(path, mode + "b")),
                            raising=False)
        out = tmp_path / "art"
        code, stdout, err = _run(capsys, "solve", "--out", str(out), *FAST_SOLVE)
        assert code == 2
        assert err.startswith("IO_ERROR") and "no room for the rows" in err
        assert stdout == ""
        assert list(out.iterdir()) == []

    def test_malformed_override(self, capsys, tmp_path):
        code, _, err = _run(capsys, "solve", "--out", str(tmp_path),
                            "--set", "justakey")
        assert code == 2
        assert err.startswith("CONFIG_INVALID")

    @pytest.mark.parametrize("entries", [
        ["pide.z_cut=1e5"],
        ["pide.z_cut=1e5", "pide.nz=13333"],
        ["pide.nz=3"],
    ], ids=["wide-window", "wide-window-more-nodes", "three-nodes"])
    def test_unresolved_jump_quadrature_rejected(self, capsys, tmp_path, entries):
        # each rule's mass is off the true 3.0 by more than 1e-4 relative
        sets = [arg for entry in entries for arg in ("--set", entry)]
        code, _, err = _run(capsys, "dpp-check", "--out", str(tmp_path), *sets)
        assert code == 2
        assert err.startswith("CONFIG_INVALID")
        assert list(tmp_path.iterdir()) == []

    def test_a_quadrature_that_misses_the_mass_is_a_config_error(self, capsys, tmp_path, monkeypatch):
        # no config gives doubled weights, so the field is stubbed with them
        monkeypatch.setattr(cli, "build_field", lambda *args, **kw: doubled_weights(build_field(*args, **kw)))
        with pytest.raises(QuadratureError) as expected:
            parse_config("").field().reference.validate_mass()
        code, _, err = _run(capsys, "validate", "--out", str(tmp_path / "art"))
        assert (code, err) == (2, f"CONFIG_INVALID: {expected.value}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("entries, key", [
        (["fourier.check_points=1, x"], "fourier.check_points"),
        (["pide.x_min=5", "pide.x_max=1"], "pide.x_min"),
        (["transform.y_abs_min=5"], "transform.y_abs_min"),
        (["transform.lam=3"], "transform.lam"),
    ], ids=["float-list", "x-range", "y-range", "lam-over-lam-star"])
    def test_config_checks_name_their_key(self, capsys, tmp_path, entries, key):
        sets = [arg for entry in entries for arg in ("--set", entry)]
        code, _, err = _run(capsys, "validate", "--out", str(tmp_path / "art"), *sets)
        assert code == 2
        assert err.startswith("CONFIG_INVALID") and key in err
        assert list(tmp_path.iterdir()) == []

    def test_out_naming_a_file_is_an_io_error(self, capsys, tmp_path):
        out = tmp_path / "taken"
        out.write_text("keep\n")
        code, stdout, err = _run(capsys, "validate", "--out", str(out))
        assert code == 2
        assert err.startswith("IO_ERROR")
        assert stdout == ""
        assert out.read_text() == "keep\n"
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]

    def test_config_errors_name_their_source(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# header\npide.nx = 201\npide.nosuch = 1\n")
        code, _, err = _run(capsys, "solve", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 2
        assert err.startswith("CONFIG_INVALID: line 3: ")
        code, _, err = _run(capsys, "solve", "--out", str(tmp_path), "--set", "pide.nx=many")
        assert code == 2
        assert err.startswith("CONFIG_INVALID: --set: ")
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    def test_config_file_feeds_run(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("pide.nx = 201\npide.t_horizon = 0.2\n"
                       "psi.kind = constant\npsi.amplitude = 1.0\n")
        out = tmp_path / "art"
        code, _, _ = _run(capsys, "solve", "--config", str(cfg),
                          "--out", str(out))
        assert code == 0
        assert (out / "u.csv").exists()

    def test_failed_value_write_removes_partial_file(self, capsys, tmp_path, monkeypatch):
        def half_write(self, path):
            with open(path, "w") as fh:
                fh.write("t,x,u\n")
            raise RuntimeError("disk gave out")

        monkeypatch.setattr(ValueField, "write_csv", half_write)
        out = tmp_path / "art"
        code, _, err = _run(capsys, "solve", "--out", str(out), *FAST_SOLVE)
        assert code == 3
        assert err.startswith("RUNTIME_FAILURE")
        assert not (out / "u.csv").exists()


# each bound of each key with a range of its own: (key, its last accepted value,
# its first rejected value, other entries).  An open end at 0 accepts the smallest
# float unless a cross-key check rejects it there, as the CFL step's underflow does
# for the safeties; those take 1e-300.  The jump window must hold all but
# cli.WINDOW_TAIL_MAX of the mass, which pide.z_cut = 9.25 does, and three nodes
# resolve that mass within the quadrature's tolerance only when it is tiny.
TINY_JUMP_RATE = [f"model.{key}=1e-5" for key in ("lam_floor", "lam_lo", "lam_hi", "lam_star")]
RANGE_BOUNDS = [
    ("control.resolution", "1", "0", []),
    ("pide.nx", "3", "2", []),
    ("pide.nz", "3", "2", TINY_JUMP_RATE),
    ("pide.t_horizon", "5e-324", "0.0", []),
    ("pide.cfl_safety", "1.0", "1.0000000000000002", []),
    ("pide.cfl_safety", "1e-300", "0.0", ["pide.t_horizon=1e-300"]),
    ("pide.z_cut", "9.25", "0.0", []),
    ("psi.width", "5e-324", "0.0", []),
    ("mc.paths", "2", "1", []),
    ("mc.dt", "5e-324", "0.0", ["pide.t_horizon=5e-324"]),
    ("mc.seed", "0", "-1", []),
    ("mc.tolerance", "5e-324", "0.0", []),
    ("fourier.check_points", "0.0", "", []),
    ("fourier.tolerance", "5e-324", "0.0", []),
    ("fourier.n_xi", "3", "2", []),
    ("fourier.n_xi", "1000000", "1000001", []),
    ("fourier.xi_max", "0.0", "-5e-324", []),
    ("dpp.tolerance", "5e-324", "0.0", []),
    ("dpp.restart_safety", "1.0", "1.0000000000000002", []),
    ("dpp.restart_safety", "1e-300", "0.0", ["pide.t_horizon=1e-300"]),
    ("dpp.inner_fraction", "1.0", "1.0000000000000002", []),
    ("dpp.inner_fraction", "5e-324", "0.0", []),
    ("transform.n_points", "1", "0", []),
    ("transform.n_points", "10000", "10001", []),
    ("transform.tol", "5e-324", "0.0", []),
    ("transform.tolerance", "5e-324", "0.0", []),
    ("transform.z_max", "5e-324", "0.0", []),
    ("transform.y_abs_min", "5e-324", "0.0", []),
    ("transform.thresholds", "-5e-324", "-0.0", []),
    ("transform.thresholds", "1.0", "", []),
    ("audit.sample_budget", "1", "0", []),
    ("audit.seed", "0", "-1", []),
]


def _ranged_keys():
    return {f"{section}.{key}": spec[2] for section, keys in cli._KEYS.items()
            for key, spec in keys.items() if len(spec) == 3}


class TestKeyRanges:
    @pytest.mark.parametrize("key, accepted, rejected, others", RANGE_BOUNDS,
                             ids=[f"{key}={rejected}" for key, _, rejected, _ in RANGE_BOUNDS])
    def test_each_bound_of_each_ranged_key(self, capsys, tmp_path, monkeypatch,
                                           key, accepted, rejected, others):
        # the runner is stubbed: the verdict alone is under test, through main
        monkeypatch.setitem(cli._RUNNERS, "validate", lambda cfg, art: (0, None))
        args = [a for e in others for a in ("--set", e)]
        code, _, err = _run(capsys, "validate", "--out", str(tmp_path / "art"),
                            *args, "--set", f"{key}={accepted}")
        assert (code, err) == (0, "")
        out = tmp_path / "rejected"
        code, _, err = _run(capsys, "validate", "--out", str(out), *args, "--set", f"{key}={rejected}")
        assert code == 2
        # the message names the key, not only its section
        assert err.startswith(f"CONFIG_INVALID: {key} must be ")
        assert not out.exists()

    def test_every_ranged_key_has_its_bounds_tested(self):
        assert set(_ranged_keys()) == {key for key, *_ in RANGE_BOUNDS}

    def test_every_default_is_in_its_range(self):
        defaults = parse_config("")
        for name, (test, wording) in _ranged_keys().items():
            section, key = name.split(".")
            assert test(defaults[section][key]), f"{name} = {defaults[section][key]!r} not {wording}"


class TestImports:
    def test_cli_import_loads_no_scipy(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(sublevy.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        code = ("import sys, sublevy.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "[]"


class TestProcessEntry:
    def test_module_run_exits_zero_and_reports(self, tmp_path):
        src = os.path.dirname(os.path.dirname(os.path.abspath(sublevy.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        out = tmp_path / "art"
        proc = subprocess.run([sys.executable, "-m", "sublevy.cli", "validate", "--out", str(out)],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"wrote {out / 'audit.txt'}\n"

    def test_main_in_process_does_not_freeze(self, capsys, tmp_path):
        before = gc.get_freeze_count()
        code, _, _ = _run(capsys, "validate", "--out", str(tmp_path))
        assert code == 0
        assert gc.get_freeze_count() == before

    def test_console_script_is_the_main_block_entry(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "pyproject.toml")) as fh:
            script = re.search(r'^sublevy = "sublevy\.cli:(\w+)"$', fh.read(), re.MULTILINE)
        assert script is not None
        tree = ast.parse(inspect.getsource(cli))
        main_block = next(node for node in tree.body if isinstance(node, ast.If)
                          and ast.unparse(node.test) == "__name__ == '__main__'")
        assert [ast.unparse(stmt) for stmt in main_block.body] == [f"{script.group(1)}()"]


class TestConsoleScript:
    def test_entry_point_runs(self, tmp_path):
        out = tmp_path / "art"
        proc = subprocess.run(
            ["sublevy", "solve", "--out", str(out), *FAST_SOLVE],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / "u.csv").exists()
        assert "wrote" in proc.stdout
