"""The benchmark's own tests.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from bench_trace import TARGETS, Tracer
from bench_workloads import ArtifactRoundtrip
from pitchftc import harness, supervisor

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _chain():
    """Tune, then compare the three modes: every traced layer but CSV I/O runs."""
    tune = harness.RunConfig(
        mode="offline_tune", load_case="LC3", seed=100, duration_s=600.0,
        fault_blade=3, fault_time_s=0.0,
    )
    entry, tune_report = supervisor.offline_tune(tune)
    cfg = harness.RunConfig(
        mode="proposed", load_case="LC3", seed=5, duration_s=400.0,
        fault_blade=3, fault_time_s=300.0,
    )
    return tune_report, harness.compare_modes(cfg, bank=supervisor.PretunedBank({3: entry}))


def test_tracing_changes_no_simulated_value():
    plain_tune, plain = _chain()
    tracer = Tracer()
    with tracer.installed():
        traced_tune, traced = _chain()

    totals, _ = tracer.layer_totals()
    assert totals["numerics.rls_update"]["calls"] > 0
    assert tracer.counters["supervisor.switches_applied"] == 1
    assert json.dumps(plain_tune.to_dict()) == json.dumps(traced_tune.to_dict())
    assert plain["reduction"] == traced["reduction"]
    for mode, a in plain["results"].items():
        b = traced["results"][mode]
        assert json.dumps(a.report.to_dict()) == json.dumps(b.report.to_dict()), mode
        assert np.array_equal(a.coeff_history, b.coeff_history), mode
        assert a.series.keys() == b.series.keys()
        for name in a.series:
            assert np.array_equal(a.series[name], b.series[name]), (mode, name)


def test_traced_artifact_op_reproduces_untraced(tmp_path):
    short = {"duration_s": 150.0, "fault_time_s": 100.0}
    work = ArtifactRoundtrip(ROOT, seed=0, workdir=tmp_path, overrides=short)
    work.setup()
    plain = work.check(0, work.op(0))
    with Tracer().installed():
        traced = work.check(1, work.op(1))
    work.close()
    assert plain.failures == [] and traced.failures == []
    assert plain.signature == traced.signature
    assert list(tmp_path.iterdir()) == []


def test_wrappers_removed_after_traced_run_even_on_error():
    originals = {name: owner.__dict__[attr] for name, owner, attr, _ in TARGETS}
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert all(
                owner.__dict__[attr] is not originals[name] for name, owner, attr, _ in TARGETS
            )
            raise RuntimeError("op failed")
    for name, owner, attr, _ in TARGETS:
        assert owner.__dict__[attr] is originals[name], name
    assert tracer.leftover_wrappers() == []


class _Nested:
    def outer(self):
        self.inner()
        time.sleep(0.01)
        self.inner()

    def inner(self):
        time.sleep(0.005)


def test_self_times_and_remainder_close_to_the_wall():
    tracer = Tracer(
        (("t.outer", _Nested, "outer", None), ("t.inner", _Nested, "inner", None))
    )
    with tracer.installed():
        t0 = time.perf_counter()
        _Nested().outer()
        _Nested().inner()
        wall = time.perf_counter() - t0
    totals, root = tracer.layer_totals()
    assert totals["t.outer"]["calls"] == 1 and totals["t.inner"]["calls"] == 3
    outer, inner = totals["t.outer"], totals["t.inner"]
    assert outer["self_s"] == pytest.approx(outer["total_s"] - 2 * inner["total_s"] / 3, rel=0.2)
    assert outer["self_s"] + inner["self_s"] == pytest.approx(root, rel=1e-12)
    assert root <= wall


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(args):
    done = _bench(*args)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_result_lines_match_benchmark_json_and_simulated_metrics_repeat():
    args = ["--workload", "diagnosis_sweep", "--seed", "3", "--seconds", "1"]
    untraced = _result(args + ["--trace", "0"])
    first = _result(args + ["--trace", "1"])
    second = _result(args + ["--trace", "1"])
    assert set(untraced) == {"correct", "attempted", "failed", "metrics"}
    assert untraced["correct"] and first["correct"] and second["correct"]
    assert list(untraced["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert list(first["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert all(untraced["metrics"][m]["value"] > 0 for m in untraced["metrics"])
    sim = [k for k in first["metrics"] if k.startswith("sim.")]
    assert sim and all(first["metrics"][k] == second["metrics"][k] for k in sim)
    assert first["metrics"]["numerics.rls_update.calls"]["value"] == 0


def test_bare_benchmark_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "diagnosis_sweep", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
