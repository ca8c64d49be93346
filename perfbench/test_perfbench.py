"""Tests of the benchmark's own code: span arithmetic, gates, metric names.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
from spans import OpResult  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _span(name, start, end, parent, sid):
    return spans.Span(name, start, end, parent, "r", sid)


class TestSelfTimes:
    def test_hand_built_tree(self):
        tree = [
            _span("root", 0.0, 10.0, None, "0"),
            _span("a", 1.0, 4.0, "0", "1"),
            _span("b", 3.0, 6.0, "0", "2"),  # overlaps a: the union counts once
            _span("a.child", 2.0, 3.0, "1", "3"),
            _span("late", 9.0, 12.0, "0", "4"),  # clipped to the parent's end
        ]
        selfs = spans.self_times(tree)
        assert selfs["0"] == pytest.approx(10.0 - 5.0 - 1.0)
        assert selfs["1"] == pytest.approx(2.0)
        assert selfs["2"] == pytest.approx(3.0)
        assert selfs["3"] == pytest.approx(1.0)
        assert selfs["4"] == pytest.approx(3.0)

    def test_summary_totals(self):
        tree = [
            _span("op", 0.0, 4.0, None, "0"),
            _span("pide.solve", 0.5, 1.5, "0", "1"),
            _span("pide.solve", 2.0, 3.0, "0", "2"),
        ]
        summary = spans.summarize(tree)
        assert summary["pide.solve"]["calls"] == 2
        assert summary["pide.solve"]["total_s"] == pytest.approx(2.0)
        assert summary["op"]["self_s"] == pytest.approx(2.0)

    def test_tracer_nests_and_adopts(self):
        tracer = spans.Tracer("run-1")
        with tracer.span("outer") as outer:
            with tracer.span("inner"):
                pass
        tracer.adopt([_span("child", outer.start, outer.end, None, "x:0")], outer)
        by_name = {sp.name: sp for sp in tracer.spans}
        assert by_name["inner"].parent == outer.id
        assert by_name["child"].parent == outer.id
        assert {sp.run_id for sp in tracer.spans} == {"run-1"}


class TestGates:
    def test_perturbed_reference_fails_the_call(self):
        import workloads as w

        inp = w.Inputs(nx=101)
        exact = w.run_solve(inp, np.zeros(3), spans.NullTracer()).detail["u_T"]
        refs = np.asarray(exact)
        good = w.run_solve(inp, refs, spans.NullTracer())
        assert good.ok and good.failed_calls == 0 and good.value_err == 0.0

        perturbed = refs.copy()
        perturbed[1] += 2.0 * w.VALUE_TOLERANCE
        rounds = run.run_rounds(lambda tr, traced: w.run_solve(inp, perturbed, tr), 0.0, None)
        results = [r for r, _ in rounds]
        assert len(results) == run.MIN_ROUNDS
        assert all(not r.ok and r.failed_calls == 1 for r in results)
        metrics = run.end_to_end_metrics([1.0], results)
        assert metrics["success_rate"]["value"] == 0.0
        assert metrics["value_err"]["value"] == pytest.approx(2.0 * w.VALUE_TOLERANCE)

    def test_raising_call_counts_as_failed(self):
        def boom(tracer, traced):
            raise RuntimeError("solver exploded")

        rounds = run.run_rounds(boom, 0.0, None)
        assert [r.failed_calls for r, _ in rounds] == [1] * run.MIN_ROUNDS
        with pytest.raises(run.BenchError):
            run.end_to_end_metrics([1.0], [r for r, _ in rounds])

    def test_differing_cli_artifact_fails_its_subcommand(self):
        def cli_round(digest):
            subs = {"solve": {"exit_code": 0, "digests": {"u.csv": digest}},
                    "validate": {"exit_code": 0, "digests": {"audit.txt": "a"}}}
            return OpResult(True, 1.0, 0.1, {"subcommands": subs, "failed": []},
                            calls=2, failed_calls=0)

        results = [cli_round("x"), cli_round("y")]
        run.check_repeats("cli", results)
        assert results[0].failed_calls == 0
        assert results[1].failed_calls == 1 and results[1].detail["failed"] == ["solve"]


class TestMetricNames:
    def test_declared_metrics_match_benchmark_json(self):
        declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
        assert declared == run.END_TO_END
        declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        assert declared == {name: unit for name, (unit, _) in run.PER_LAYER.items()}
        assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)

    def test_printed_metrics_match_benchmark_json(self):
        result = OpResult(True, 2.0, 1e-4, {"artifact_bytes": 10})
        e2e = run.end_to_end_metrics([1.0, 1.2], [result, result])
        assert list(e2e) == [m["name"] for m in BENCHMARK["end_to_end"]]
        assert all(e2e[m["name"]]["unit"] == m["unit"] for m in BENCHMARK["end_to_end"])

        recorded = [_span("pide.solve", 0.0, 1.0, None, "0"), _span("round", 0.0, 2.0, None, "1")]
        recorded[0].attrs.update(steps=100, stored_bytes=8000)
        layer = run.per_layer_metrics(recorded, [(result, True), (result, False)])
        assert list(layer) == [m["name"] for m in BENCHMARK["per_layer"]]
        assert layer["pide.step_ms"]["value"] == pytest.approx(10.0)
        assert layer["cli.solve_s"]["value"] == 0.0


class TestHostScale:
    def test_scale_is_reference_over_median(self):
        import calibrate

        samples = [calibrate.REFERENCE_S * f for f in (2.0, 1.0, 4.0)]
        assert calibrate.scale(samples) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            calibrate.scale([])

    def test_times_scale_and_other_metrics_do_not(self):
        result = OpResult(True, 2.0, 1e-4, {"artifact_bytes": 10})
        plain = run.end_to_end_metrics([1.0], [result])
        halved = run.end_to_end_metrics([1.0], [result], scale=0.5)
        for name, m in plain.items():
            factor = 0.5 if name in ("setup_s", "wall_s") else 1.0
            assert halved[name]["value"] == pytest.approx(factor * m["value"])

        recorded = [_span("pide.solve", 0.0, 1.0, None, "0"),
                    _span("simulate.estimate_value", 0.0, 2.0, None, "1")]
        recorded[0].attrs.update(steps=100, stored_bytes=8000)
        recorded[1].attrs.update(path_steps=1000)
        layer = run.per_layer_metrics(recorded, [(result, True)], scale=0.5)
        assert layer["pide.solve_s"]["value"] == pytest.approx(0.5)
        assert layer["pide.step_ms"]["value"] == pytest.approx(5.0)
        assert layer["pide.steps"]["value"] == 100
        assert layer["simulate.path_steps_per_s"]["value"] == pytest.approx(1000.0)

    def test_host_is_probed_before_and_after_each_round(self, monkeypatch):
        import calibrate

        times = iter([1.0, 2.0, 3.0])
        monkeypatch.setattr(calibrate, "sample", lambda: next(times))
        probes = []
        rounds = run.run_rounds(lambda tr, traced: OpResult(True, 0.0, 0.0, {}), 0.0, None,
                                probes)
        assert len(rounds) == run.MIN_ROUNDS == 2
        assert probes == [1.0, 2.0, 3.0]

    def test_probe_runs(self):
        import calibrate

        assert calibrate.sample() > 0.0


def test_exits_nonzero_without_source_tree(tmp_path):
    """In a directory holding only the benchmark, it fails without a result."""
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, *BENCHMARK["command"][1:], "--workload", "march",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
