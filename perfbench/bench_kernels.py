"""Micro-timings of single kernel calls on seeded inputs of the reference shapes.

- one ``RlsEstimator.update_block`` absorbing one rotor period (B = 625
  rows) into a 2p = 200 estimator: an 825 x 201 stacked QR,
- one cold-started ``solve_dare`` on a lifted six-state, two-input model,
- one ``design_fdie`` for the reference actuator at pole radius 0.98.

Each is repeated and the median reported.  Operation counts and bytes are
computed from the shapes, not measured.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from pitchftc import actuator, fdi, numerics, sprc

PERIOD = 625
PAST = 100
REPEATS = 15


def rls_work(rows: int, dim: int) -> tuple[float, float]:
    """Computed (GFLOP, bytes) of one block update of ``rows`` into ``dim``.

    Flops are those of a Householder QR of the m = dim + rows by
    n = dim + 1 stacked system, 2 n^2 (m - n/3).  Bytes count each float64
    operand read once (regressors, observations, prior factor and rhs), the
    stacked system written once and read once by the factorization, and the
    new factor and rhs written once.
    """
    m, n = dim + rows, dim + 1
    gflop = 2.0 * n * n * (m - n / 3.0) / 1e9
    words = rows * dim + rows + 2 * (dim * dim + dim) + 2 * m * n
    return gflop, 8.0 * words


def _median_call(fn, make_args) -> float:
    times = []
    for _ in range(REPEATS):
        args = make_args()
        t0 = perf_counter()
        fn(*args)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def lifted_model(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Lifted model of a first-order pitch-to-load lag plus small seeded terms."""
    pole = np.exp(-0.01 / 0.5)
    mu = -30.0 * (1.0 - pole) * pole ** np.arange(PAST)
    row = np.concatenate([mu[::-1], np.zeros(PAST)]) + 1e-3 * rng.normal(size=2 * PAST)
    basis = sprc.build_basis(PERIOD)
    return sprc.build_lifted(row, PERIOD, PAST, basis)


def measure(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    dim = 2 * PAST
    phi = rng.normal(size=(PERIOD, dim))
    y = rng.normal(size=PERIOD)
    rls_s = _median_call(
        lambda est: est.update_block(phi, y),
        lambda: (numerics.RlsEstimator(dim, forgetting=0.99999),),
    )
    gflop, nbytes = rls_work(PERIOD, dim)

    a_lift, b_lift = lifted_model(rng)
    q, r = np.eye(6), 0.1 * np.eye(2)
    dare_s = _median_call(numerics.solve_dare, lambda: (a_lift, b_lift, q, r))

    model = actuator.ActuatorBank(0.01).model
    fdie_s = _median_call(fdi.design_fdie, lambda: (model, 0.98))
    return {
        "kernel.rls_update_block_s": (rls_s, "s"),
        "kernel.rls_gflop_computed": (gflop, "GFLOP"),
        "kernel.rls_bytes_computed": (nbytes, "B"),
        "kernel.rls_gflops": (gflop / rls_s, "GFLOP/s"),
        "kernel.solve_dare_s": (dare_s, "s"),
        "kernel.design_fdie_s": (fdie_s, "s"),
    }
