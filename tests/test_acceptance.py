"""Acceptance gate for the closed-loop stack.

Each test implements one verification criterion end to end at its stated
tolerance and prints a one-line verdict.  The heavy closed-loop sweeps are
shared through session fixtures; everything is seeded and deterministic.

Criteria:

- A1  no false alarms over twenty seeded healthy runs of 90,000 samples
- A2  correct detection and isolation within five observer time constants
- A3  threshold recursion equals its closed-form sum to 1e-12
- A4  recursive identification matches batch solves and true impulse terms
- A5  Riccati solver golden cases and stabilizing runtime gains
- A6  load alleviation versus baseline on every load case
- A7  warm-started accommodation beats cold re-adaptation two to one
- A8  periodic-difference and waveform periodicity invariants
- A9  bit-exact replay of runs, including the tune/switch/replay chain
"""

import numpy as np
import pytest

from conftest import PipelineSystem
from oracles import DeltaBuffers, FdiBounds, FdieOracle
from pitchftc import harness, supervisor
from pitchftc.numerics import RlsEstimator, StateSpaceModel, solve_dare
from pitchftc.sprc import (
    MarkovIdentifier,
    RepetitiveLaw,
    build_basis,
    build_lifted,
    build_regressor_block,
    update_gain,
)

LOAD_CASES = ("LC1", "LC2", "LC3")
FAULT_TIME_S = 300.0
FAULT_SAMPLE = 30_000


def _pass(line: str) -> None:
    print(f"[PASS] {line}")


def a6_gate(outcome) -> tuple[float, float, list[str]]:
    """A6 on one baseline/proposed comparison: (peak ratio, reduction %, the gates it fails).

    The peak ratio is the proposed run's healthy-blade 1P peak over the
    baseline's; the reduction is the cumulative variance reduction.
    """
    reduction = outcome["reduction"]["proposed"]["cumulative"]
    peaks_base = np.asarray(outcome["results"]["baseline"].report.psd_peak_1p)
    peaks_prop = np.asarray(outcome["results"]["proposed"].report.psd_peak_1p)
    healthy = [0, 1]
    ratio = peaks_prop[healthy].sum() / peaks_base[healthy].sum()
    gates = (
        ("isolation", outcome["results"]["proposed"].report.d_fd == 3),
        ("peak ratio", ratio <= 0.20),
        ("reduction", reduction >= 40.0),
    )
    return ratio, reduction, [name for name, held in gates if not held]


def a7_gate(cfg, warm_report, cold_report) -> tuple[int | None, int, float | None, list[str]]:
    """A7 on one matched pair: (warm periods, cold periods, ratio, the gates it fails).

    A cold run that never converges counts the post-fault periods the run
    holds after its settling.
    """
    cap = cfg.n_samples // cfg.period_samples - (
        cfg.fault_sample // cfg.period_samples + cfg.settle_periods
    )
    warm = warm_report.postfault_converged_periods
    cold = cold_report.postfault_converged_periods
    cold = cap if cold is None else cold
    if warm is None:
        return warm, cold, None, ["warm converges"]
    ratio = warm / cold
    return warm, cold, ratio, [] if ratio < 0.5 else ["ratio"]


@pytest.fixture(scope="session")
def banks():
    out = {}
    for lc in LOAD_CASES:
        cfg = harness.RunConfig(
            mode="offline_tune",
            load_case=lc,
            seed=100,
            duration_s=600.0,
            fault_blade=3,
            fault_time_s=0.0,
        )
        entry, _ = supervisor.offline_tune(cfg)
        out[lc] = supervisor.PretunedBank({3: entry})
    return out


@pytest.fixture(scope="session")
def detection_runs(banks):
    """Twenty seeded fault runs per load case with the full architecture."""
    runs = {}
    for lc in LOAD_CASES:
        runs[lc] = []
        for seed in range(20):
            cfg = harness.RunConfig(
                mode="proposed",
                load_case=lc,
                seed=seed,
                duration_s=400.0,
                fault_blade=3,
                fault_time_s=FAULT_TIME_S,
            )
            runs[lc].append(harness.run_simulation(cfg, bank=banks[lc]))
    return runs


@pytest.fixture(scope="session")
def matched_pairs(banks):
    """Twenty matched-seed (full architecture, adaptive-only) run pairs.

    Each pair is one comparison, which computes the 300 s before the fault
    once; ``tests/digest_runs.py --acceptance`` checks the same pairs as
    independent runs.
    """
    layout = [("LC1", 7), ("LC2", 7), ("LC3", 6)]
    pairs = []
    for lc, n_seeds in layout:
        for seed in range(n_seeds):
            cfg = harness.RunConfig(
                mode="proposed",
                load_case=lc,
                seed=seed,
                duration_s=550.0,
                fault_blade=3,
                fault_time_s=FAULT_TIME_S,
            )
            runs = harness.compare_modes(cfg, bank=banks[lc], modes=("sprc_only", "proposed"))
            warm, cold = runs["results"]["proposed"], runs["results"]["sprc_only"]
            pairs.append((lc, seed, cfg, warm, cold))
    return pairs


def test_a1_no_false_alarms():
    worst = 0.0
    for i in range(20):
        cfg = harness.RunConfig(
            mode="proposed",
            load_case=LOAD_CASES[i % 3],
            seed=1000 + i,
            duration_s=900.0,
            fault_blade=0,
            fault_time_s=0.0,
        )
        report = harness.run_simulation(cfg).report
        assert report.threshold_crossings == [0, 0, 0], (cfg.load_case, cfg.seed)
        worst = max(worst, report.max_residual_ratio)
    _pass(
        "A1 no false alarms: 20 healthy runs x 90,000 samples, zero threshold "
        f"crossings (worst residual/threshold ratio {worst:.3f})"
    )


def test_a2_detection_and_isolation(detection_runs):
    cfg0 = harness.RunConfig()
    tau_samples = -1.0 / np.log(cfg0.pole_radius)
    budget = int(np.ceil(5 * tau_samples))
    worst = {}
    for lc in LOAD_CASES:
        latencies = []
        for result in detection_runs[lc]:
            rep = result.report
            assert rep.d_fd == 3, (lc, rep.seed, rep.d_fd)
            assert not rep.ambiguous, (lc, rep.seed)
            assert rep.threshold_crossings[0] == 0 and rep.threshold_crossings[1] == 0
            latency = rep.k_d - FAULT_SAMPLE
            assert 0 <= latency <= budget, (lc, rep.seed, latency, budget)
            latencies.append(latency)
        worst[lc] = max(latencies)
    _pass(
        "A2 detection & isolation: 20 seeds x 3 load cases, always blade 3, "
        f"worst latencies {worst} samples within the {budget}-sample budget "
        "(5 observer time constants)"
    )


def test_a3_threshold_recursion_oracle():
    rng = np.random.default_rng(2024)
    model = StateSpaceModel([[0.5]], [[1.0]], [[1.0]], [[0.0]], 0.01)
    alpha = float(rng.uniform(1.0, 3.0))
    delta = float(rng.uniform(0.5, 0.97))
    eps0 = float(rng.uniform(0.0, 2.0))
    fdie = FdieOracle(model, [0.1], alpha, delta, FdiBounds(init_error=eps0))

    n = 100_000
    mism = rng.uniform(0.0, 2.0, size=n)
    eta_x = rng.uniform(0.0, 2.0, size=n)
    eta_y = rng.uniform(0.0, 2.0, size=n)
    rbar = np.empty(n)
    for k in range(n):
        rbar[k] = fdie.threshold_step(mism[k], eta_x[k], eta_y[k])

    check_at = np.unique(
        np.concatenate([[0, 1, 2, n - 1], rng.integers(0, n, size=60)])
    )
    drive = mism + eta_x
    worst = 0.0
    for k in check_at:
        direct = (
            alpha * np.sum(delta ** (k - 1 - np.arange(k)) * drive[:k])
            + alpha * delta**k * eps0
            + eta_y[k]
        )
        err = abs(rbar[k] - direct) / max(abs(direct), 1.0)
        worst = max(worst, err)
        assert err <= 1e-12, (k, err)
    _pass(
        "A3 threshold oracle: recursion equals the closed-form sum over "
        f"100,000 steps with random bound draws (worst relative error {worst:.2e})"
    )


def test_a4_identification_oracle():
    sys = PipelineSystem()
    p, P = 6, 20_000
    n = 10 * P
    u, y = sys.simulate(n, seed=0, period=P)
    u3 = np.tile(u[:, None], (1, 3))
    y3 = np.tile(y[:, None], (1, 3))

    ident = MarkovIdentifier(p, forgetting=0.99999)
    unit = RlsEstimator(2 * p, forgetting=1.0)
    all_regs, all_tgts = [], []
    for lo in range(P + p, n, 100_000):
        hi = min(lo + 100_000, n)
        regressors, targets = build_regressor_block(u3, y3, lo, hi, P, p)
        ident.update_block(regressors, targets)
        unit.update_block(regressors[:, :, 0], targets[:, 0])
        all_regs.append(regressors[:, :, 0])
        all_tgts.append(targets[:, 0])

    phi = np.vstack(all_regs)
    tgt = np.concatenate(all_tgts)
    batch = np.linalg.lstsq(phi, tgt, rcond=None)[0]
    rel_batch = np.linalg.norm(unit.estimate - batch) / np.linalg.norm(batch)
    assert rel_batch <= 1e-6

    truth = sys.markov_row(p)
    dominant = np.abs(truth) >= 0.01 * np.abs(truth).max()
    row = ident.rows()[0]
    rel = np.abs(row - truth)[dominant] / np.abs(truth)[dominant]
    assert rel.max() < 0.05
    _pass(
        "A4 identification oracle: unit-forgetting recursion matches batch "
        f"least squares to {rel_batch:.2e} (tol 1e-6); dominant impulse terms "
        f"within {100 * rel.max():.2f}% of truth after 10 periods (tol 5%)"
    )


def test_a5_riccati_oracle_and_runtime_gains():
    P, K = solve_dare([[0.0]], [[1.0]], [[1.0]], [[1.0]])
    assert abs(P[0, 0] - 1.0) <= 1e-9 and abs(K[0, 0]) <= 1e-9
    P, K = solve_dare([[1.0]], [[1.0]], [[1.0]], [[1.0]])
    golden = (1 + np.sqrt(5)) / 2
    assert abs(P[0, 0] - golden) <= 1e-9
    assert abs(K[0, 0] - golden / (1 + golden)) <= 1e-9

    # gains produced under live identification remain stabilizing
    cfg = harness.RunConfig(
        mode="sprc_only",
        load_case="LC3",
        seed=21,
        duration_s=150.0,
        fault_blade=0,
        fault_time_s=0.0,
    )
    result = harness.run_simulation(cfg)
    # identified as the run identifies: on every D-th sample, P/D per period
    D, p = harness.IDENT_DECIMATION, cfg.past_window
    P = cfg.period_samples // D
    basis = build_basis(P)
    law = RepetitiveLaw(basis)
    ident = MarkovIdentifier(p, forgetting=harness.FORGETTING_PER_SAMPLE**D)
    u, y = result.series["u_act"][::D], result.series["y"][::D]
    regs, tgts = build_regressor_block(u, y, P + p, y.shape[0], P, p)
    ident.update_block(regs, tgts)
    radii = []
    for blade in range(3):
        a_lift, b_lift = build_lifted(ident.rows()[blade], P, p, basis)
        res = update_gain(a_lift, b_lift, law.Q, law.R)
        assert res.ok
        rho = np.max(np.abs(np.linalg.eigvals(a_lift - b_lift @ res.gain)))
        assert rho < 1.0
        radii.append(rho)
    _pass(
        "A5 Riccati oracle: golden scalar cases to 1e-9; live identified "
        f"gains stabilize all blades (spectral radii {[f'{r:.3f}' for r in radii]})"
    )


def test_a6_load_alleviation(banks):
    lines = []
    for lc in LOAD_CASES:
        cfg = harness.RunConfig(mode="proposed", load_case=lc, seed=7)
        outcome = harness.compare_modes(cfg, bank=banks[lc], modes=("baseline", "proposed"))
        ratio, reduction, failed = a6_gate(outcome)
        assert not failed, (lc, failed, ratio, reduction)
        lines.append(f"{lc}: peak ratio {100 * ratio:.2f}%, reduction {reduction:.1f}%")
    _pass(
        "A6 load alleviation: healthy-blade 1P peak <= 20% of baseline and "
        f"variance reduction >= 40% on every load case ({'; '.join(lines)})"
    )


def test_a7_fast_accommodation(matched_pairs):
    worst_ratio, results = 0.0, []
    for lc, seed, cfg, warm_run, cold_run in matched_pairs:
        warm, cold_value, ratio, failed = a7_gate(cfg, warm_run.report, cold_run.report)
        assert not failed, (lc, seed, failed, warm, cold_value)
        worst_ratio = max(worst_ratio, ratio)
        results.append((warm, cold_value))
    warms, colds = zip(*results)
    _pass(
        "A7 fast accommodation: warm-started convergence beats cold start on "
        f"20/20 matched seed pairs (worst ratio {worst_ratio:.2f} < 0.5; warm "
        f"{min(warms)}-{max(warms)} periods vs cold {min(colds)}-{max(colds)})"
    )


def test_a8_periodicity_invariants(detection_runs):
    # periodic-difference operator annihilates exactly periodic streams
    P, p = 40, 8
    buf = DeltaBuffers(P, p)
    rng = np.random.default_rng(5)
    pattern_u = rng.normal(size=(P, 3))
    pattern_y = rng.normal(size=(P, 3))
    worst = 0.0
    for k in range(5 * P):
        out = buf.update(pattern_u[k % P], pattern_y[k % P])
        if out is not None:
            regressors, targets = out
            worst = max(worst, np.abs(regressors).max(), np.abs(targets).max())
    assert worst <= 1e-12

    # a stuck actuator's differenced pitch vanishes one period after the fault
    result = detection_runs["LC3"][0]
    cfg = result.config
    u3 = result.series["u_act"][:, 2]
    P_run = cfg.period_samples
    diffs = u3[FAULT_SAMPLE + P_run :] - u3[FAULT_SAMPLE : -P_run]
    assert np.abs(diffs).max() == 0.0

    # the control waveform repeats exactly while its coefficients hold
    law = RepetitiveLaw(build_basis(625))
    law.set_coeffs(rng.normal(size=(3, 2)))
    np.testing.assert_array_equal(law.output_slice(0, 625), law.output_slice(6250, 625))

    # in a live run the frozen blade's waveform repeats bit-exactly
    switch = result.report.switch_sample
    boundary = ((switch // P_run) + 1) * P_run
    a = result.series["sprc"][boundary : boundary + P_run, 2]
    b = result.series["sprc"][boundary + P_run : boundary + 2 * P_run, 2]
    np.testing.assert_array_equal(a, b)
    _pass(
        "A8 periodicity invariants: periodic-difference annihilation at 1e-12, "
        "stuck-blade pitch differences exactly zero one period past the fault, "
        "waveform exactly periodic between coefficient updates"
    )


def test_a9_determinism(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("chain")
    tune_cfg = harness.RunConfig(
        mode="offline_tune",
        load_case="LC3",
        seed=100,
        duration_s=600.0,
        fault_blade=3,
        fault_time_s=0.0,
    )
    paths = []
    for name in ("bank_a.json", "bank_b.json"):
        entry, _ = supervisor.offline_tune(tune_cfg)
        bank = supervisor.PretunedBank({3: entry})
        path = tmp / name
        bank.save(path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()

    run_cfg = harness.RunConfig(
        mode="proposed",
        load_case="LC3",
        seed=17,
        duration_s=420.0,
        fault_blade=3,
        fault_time_s=FAULT_TIME_S,
        bank_path=str(paths[0]),
    )
    first = harness.run_simulation(run_cfg)
    second = harness.run_simulation(run_cfg)
    assert first.report.switch_applied
    for name in first.series:
        np.testing.assert_array_equal(first.series[name], second.series[name])
    assert first.report.to_dict() == second.report.to_dict()
    _pass(
        "A9 determinism: offline tune, parameter bank, and switched replay "
        "chain are bit-identical under a fixed seed"
    )
