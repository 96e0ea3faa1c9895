"""The names the benchmark under ``perfbench/`` wraps and calls still exist.

Its own tests are outside the default test paths, so a renamed library
function would otherwise first fail when the benchmark runs.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import bench_kernels  # noqa: E402
import bench_trace  # noqa: E402


@pytest.mark.parametrize(
    "layer, owner, attr", [target[:3] for target in bench_trace.TARGETS],
    ids=[target[0] for target in bench_trace.TARGETS],
)
def test_traced_name_exists(layer, owner, attr):
    assert attr in owner.__dict__, layer


def test_lifted_model_shapes():
    a_lift, b_lift = bench_kernels.lifted_model(np.random.default_rng(0))
    assert a_lift.shape == (6, 6)
    assert b_lift.shape == (6, 2)
