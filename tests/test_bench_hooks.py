"""The names the benchmark under ``perfbench/`` wraps and calls still exist.

Its own tests are outside the default test paths, so a renamed library
function would otherwise first fail when the benchmark runs.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import assert_stabilizing_riccati
from pitchftc import harness, numerics, supervisor

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import bench_kernels  # noqa: E402
import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402


@pytest.mark.parametrize(
    "layer, owner, attr", [target[:3] for target in bench_trace.TARGETS],
    ids=[target[0] for target in bench_trace.TARGETS],
)
def test_traced_name_exists(layer, owner, attr):
    assert attr in owner.__dict__, layer


def test_every_traced_layer_is_called(tmp_path):
    # a short chain through every layer: an LC3 tune, a comparison whose
    # proposed run switches, and a CSV round trip
    tracer = bench_trace.Tracer()
    tune_cfg = harness.RunConfig(
        mode="offline_tune", load_case="LC3", seed=100, duration_s=600.0,
        fault_blade=3, fault_time_s=0.0,
    )
    run_cfg = harness.RunConfig(load_case="LC3", duration_s=250.0, fault_time_s=125.0)
    with tracer.installed():
        entry, _ = supervisor.offline_tune(tune_cfg)
        bank = supervisor.PretunedBank({entry.fault_blade: entry})
        outcome = harness.compare_modes(run_cfg, bank=bank)
        path = tmp_path / "proposed.csv"
        harness.write_csv(path, outcome["results"]["proposed"].series, run_cfg.Ts)
        harness.read_csv(path)
    assert tracer.leftover_wrappers() == []
    totals, _ = tracer.layer_totals()
    assert [layer for layer, t in totals.items() if t["calls"] == 0] == []
    # every gain the law designs is one Riccati solve under the traced name
    assert totals["numerics.solve_dare"]["calls"] == totals["sprc.update_gain"]["calls"]


def test_lifted_model_shapes():
    a_lift, b_lift = bench_kernels.lifted_model(np.random.default_rng(0))
    assert a_lift.shape == (6, 6)
    assert b_lift.shape == (6, 2)


def test_lifted_model_solves_the_riccati_equation():
    a_lift, b_lift = bench_kernels.lifted_model(np.random.default_rng(0))
    q, r = np.eye(6), 0.1 * np.eye(2)
    assert_stabilizing_riccati(a_lift, b_lift, q, r, *numerics.solve_dare(a_lift, b_lift, q, r))


def test_kernel_timings_are_positive():
    timings = bench_kernels.measure(0)
    assert len(timings) == 6
    for name, (value, _unit) in timings.items():
        assert np.isfinite(value) and value > 0, name


def test_diagnosis_sweep_setup_and_op_pass_their_checks():
    work = bench_workloads.DiagnosisSweep(ROOT, 0)
    work.setup()
    checked = work.check(0, work.op(0))
    work.close()
    assert checked.failures == []


def test_artifact_roundtrip_op_passes_its_checks(tmp_path):
    short = {"duration_s": 150.0, "fault_time_s": 100.0}
    work = bench_workloads.ArtifactRoundtrip(ROOT, 0, tmp_path, overrides=short)
    work.setup()
    try:
        checked = work.check(0, work.op(0))
    finally:
        work.close()
    assert checked.failures == []


def test_reference_chain_builds_its_bank():
    work = bench_workloads.ReferenceLc3(ROOT, 0)
    work.setup()
    entry, _ = supervisor.offline_tune(work.tune_cfg)
    bank = supervisor.PretunedBank({entry.fault_blade: entry})
    assert bank.get(work.run_cfg.fault_blade) is entry
