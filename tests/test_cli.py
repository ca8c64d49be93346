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

import pytest

import sublevy
from sublevy import cli, pide
from sublevy.cli import MC_PATH_STEPS_MAX, ConfigError, main, parse_config
from sublevy.pide import ValueField, solve

FAST_SOLVE = ["--set", "pide.nx=201", "--set", "pide.t_horizon=0.2"]


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


class TestFourierCheckCommand:
    FAST = ["--set", "pide.nx=401", "--set", "pide.t_horizon=0.5"]

    def test_degenerate_model_passes(self, capsys, tmp_path):
        out = tmp_path / "art"
        code, _, _ = _run(capsys, "fourier-check", "--out", str(out), *self.FAST)
        assert code == 0
        lines = (out / "fourier.csv").read_text().splitlines()
        assert lines[0] == "x0,pide,fourier,diff"
        assert len(lines) == 4  # three default check points

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
