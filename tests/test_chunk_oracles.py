"""The chunked blocks against the per-sample oracles at random chunk boundaries."""

from dataclasses import replace
from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

from oracles import FdieOracle, FuserOracle, apply_pas_fault, azimuth, periodic_disturbance
from pitchftc import fdi
from pitchftc.actuator import ActuatorBank, FaultDescriptor
from pitchftc.fdi import DecisionFuser, decision_record, design_fdie
from pitchftc.plant import LOAD_CASES, Plant

TS = 0.01
P = 50  # short rotor period, so the disturbance index wraps inside a run
N = 160


def spans(cuts):
    edges = [0, *cuts, N]
    return list(zip(edges[:-1], edges[1:]))


@given(
    seed=st.integers(0, 2**32 - 1),
    cuts=st.sets(st.integers(1, N - 1), max_size=8),
    fault_blade=st.integers(0, 3),
    k0=st.integers(1, N - 1),
)
@example(seed=1, cuts=set(), fault_blade=0, k0=1)  # one chunk, healthy
@settings(max_examples=40, deadline=None)
def test_chunked_blocks_match_per_sample_oracles(seed, cuts, fault_blade, k0):
    cuts = sorted(cuts - {k0})  # the fault onset always lies inside a chunk
    rng = np.random.default_rng(seed)
    lc = LOAD_CASES["LC2"]
    u0 = np.full(3, lc.collective_setpoint)
    u_ref = u0 + rng.normal(0, 3, size=(N, 3))
    noise = rng.normal(0, lc.noise_std, size=(N, 3))
    fault = FaultDescriptor(fault_blade, 0.0, k0) if fault_blade else None

    # actuators: healthy bank one sample at a time, then the output stuck mask
    bank = ActuatorBank(TS, fault)
    bank.init_steady(u0)
    u_act = np.vstack([bank.run_chunk(u_ref[a:b], a) for a, b in spans(cuts)])
    healthy = ActuatorBank(TS)
    healthy.init_steady(u0)
    expected = [
        apply_pas_fault(healthy.run_chunk(u_ref[k : k + 1], k)[0], fault, k) for k in range(N)
    ]
    np.testing.assert_allclose(u_act, expected, rtol=0, atol=1e-12)

    # plant: the lag one sample at a time plus the azimuth disturbance formula
    plant = Plant(lc, TS, P)
    y = np.vstack([plant.run_chunk(u_act[a:b], a, noise[a:b]) for a, b in spans(cuts)])
    lag = Plant(replace(lc, disturbance_amplitude=0.0), TS, P)
    expected = [
        lag.run_chunk(u_act[k : k + 1], k, np.zeros((1, 3)))[0]
        + [periodic_disturbance(azimuth(k, P), b, lc) for b in (1, 2, 3)]
        + noise[k]
        for k in range(N)
    ]
    np.testing.assert_allclose(y, expected, rtol=0, atol=1e-12)

    # observer: one three-column block against three per-sample observers
    fdie = design_fdie(bank.model, 0.9)
    fdie.init_steady(u0)
    u_meas = u_act + rng.normal(0, 1, size=(N, 3))
    r = np.vstack([fdie.run_chunk(u_ref[a:b], u_meas[a:b]) for a, b in spans(cuts)])
    for blade in range(3):
        oracle = FdieOracle(fdie.model, fdie.gain)
        oracle.init_steady(u0[blade])
        r_step = [oracle.step(u_ref[k, blade], u_meas[k, blade]) for k in range(N)]
        np.testing.assert_allclose(r[:, blade], r_step, rtol=0, atol=1e-9)


@given(
    # runs of one crossing pattern: (blade bit mask, length in samples)
    blocks=st.lists(st.tuples(st.integers(0, 7), st.integers(1, 12)), min_size=1, max_size=24),
    cuts=st.sets(st.integers(1, 287), max_size=10),
    n_confirm=st.integers(1, 8),
)
@example(blocks=[(0, 2), (4, 3), (0, 2)], cuts={5}, n_confirm=3)  # confirms on a chunk's last sample
@example(blocks=[(0, 2), (4, 3), (0, 2)], cuts={3}, n_confirm=3)  # confirming run spans a cut
@settings(max_examples=200, deadline=None)
def test_chunked_fuser_matches_per_sample_oracle(blocks, cuts, n_confirm):
    bits = [[(mask >> blade) & 1 for blade in range(3)] for mask, _ in blocks]
    crossing = np.repeat(np.array(bits, dtype=bool), [length for _, length in blocks], axis=0)
    n = crossing.shape[0]
    residuals, thresholds = 2.0 * crossing, np.ones(n)

    fuser = DecisionFuser()
    edges = [0, *sorted(c for c in cuts if c < n), n]
    # mock.patch, as hypothesis refuses function-scoped fixtures such as monkeypatch
    with mock.patch.object(fdi, "N_CONFIRM", n_confirm):
        for a, b in zip(edges[:-1], edges[1:]):
            fuser.scan_chunk(residuals[a:b], thresholds[a:b], a)
    dfd = np.zeros(n, dtype=int)
    if fuser.d_fd:
        dfd[fuser.confirmed_at :] = fuser.d_fd
    d_fd, k_d, decision_sample, ambiguous = decision_record(crossing, dfd)

    oracle = FuserOracle(n_confirm)
    for k in range(n):
        oracle.update(residuals[k], thresholds[k], k)
    assert (fuser.d_fd, fuser.confirmed_at) == (oracle.d_fd, oracle.confirmed_at)
    assert (d_fd, k_d, decision_sample, ambiguous) == (
        oracle.d_fd, oracle.k_d, oracle.confirmed_at, oracle.ambiguous
    )
