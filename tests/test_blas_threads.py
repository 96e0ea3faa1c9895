"""One BLAS thread inside every run: the same bits on any thread count, counts restored after."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pitchftc
from pitchftc import harness, numerics, sprc
from pitchftc.plant import Plant

TESTS = Path(__file__).resolve().parent

# the A9 chain: tune LC3, then a proposed run that switches to the tuned entry
_CHAIN = """
import json
import digest_runs
from pitchftc import harness, numerics

def counts():
    return [lib.get_threads() for lib in numerics._openblas_libraries()[0]]

before = counts()
out = []
bank = digest_runs.tune("LC3", out)
cfg = harness.RunConfig(
    mode="proposed", load_case="LC3", seed=17, duration_s=420.0,
    fault_blade=3, fault_time_s=300.0,
)
result = harness.run_simulation(cfg, bank=bank)
assert result.report.switch_applied
out.extend(digest_runs.digest_result("A9", result))
print(json.dumps({"digests": out, "before": before, "after": counts()}))
"""


def _thread_counts() -> list[int]:
    return [lib.get_threads() for lib in numerics._openblas_libraries()[0]]


def test_tune_and_switched_run_are_bit_identical_on_one_and_two_threads():
    src = Path(pitchftc.__file__).resolve().parent.parent
    path = os.pathsep.join([str(src), str(TESTS), os.environ.get("PYTHONPATH", "")])
    procs = {
        threads: subprocess.Popen(
            [sys.executable, "-c", _CHAIN],
            env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for threads in ("1", "2")
    }
    got = {}
    for threads, proc in procs.items():
        stdout, stderr = proc.communicate(timeout=600)
        assert proc.returncode == 0, stderr
        got[threads] = json.loads(stdout.splitlines()[-1])

    for outcome in got.values():
        assert outcome["after"] == outcome["before"]
    assert set(got["1"]["before"]) == {1}
    if len(os.sched_getaffinity(0)) >= 2:
        # the second process really started on two threads
        assert set(got["2"]["before"]) == {2}
    digests = got["1"]["digests"]
    assert any(line.startswith("tune/LC3/entry/coeffs ") for line in digests)
    assert any(line.startswith("A9/series/ident_res ") for line in digests)
    assert digests == got["2"]["digests"]


@pytest.mark.parametrize("raises", [False, True], ids=["returns", "raises"])
def test_run_pins_one_thread_and_restores_the_counts(monkeypatch, raises):
    libraries, missing = numerics._openblas_libraries()
    if missing:
        pytest.skip(f"no OpenBLAS thread control for {missing}")
    inside = []

    def spied(name, fn):
        def spy(*args, **kwargs):
            inside.append((name, _thread_counts()))
            if raises:
                raise RuntimeError(f"{name} failed")
            return fn(*args, **kwargs)

        return spy

    # the plant runs on every chunk, the QR on every identified block and
    # the gain on every adapting boundary
    for owner, name in (
        (Plant, "run_chunk"), (numerics.RlsEstimator, "update_block"), (sprc, "update_gain")
    ):
        monkeypatch.setattr(owner, name, spied(name, getattr(owner, name)))
    original = _thread_counts()
    for lib in libraries:
        lib.set_threads(2)
    # the boundary at 31.25 s is the first that adapts
    cfg = harness.RunConfig(mode="sprc_only", duration_s=40.0, fault_blade=0)
    try:
        if raises:
            with pytest.raises(RuntimeError, match="run_chunk failed"):
                harness.run_simulation(cfg)
        else:
            result = harness.run_simulation(cfg)
        after = _thread_counts()
    finally:
        for lib, count in zip(libraries, original):
            lib.set_threads(count)

    assert after == [2] * len(libraries)
    assert all(counts == [1] * len(libraries) for _, counts in inside)
    seen = {name for name, _ in inside}
    assert seen == ({"run_chunk"} if raises else {"run_chunk", "update_block", "update_gain"})
    if not raises:
        assert result.telemetry == {
            "blas_threads": 1,
            "blas_libraries": {
                lib.package: {"library": lib.library, "corename": lib.corename}
                for lib in libraries
            },
            "blas_missing": [],
        }
        assert "telemetry" not in result.report.to_dict()


def test_run_without_thread_control_goes_on_and_says_so(monkeypatch):
    monkeypatch.setattr(numerics, "_openblas_libraries", lambda: ((), ("numpy", "scipy")))
    result = harness.run_simulation(harness.RunConfig(mode="baseline", duration_s=20.0, fault_blade=0))
    assert result.report.duration_s == 20.0
    assert result.telemetry["blas_missing"] == ["numpy", "scipy"]
    assert result.telemetry["blas_libraries"] == {}
