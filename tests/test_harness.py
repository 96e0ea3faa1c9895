import csv
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from oracles import FuserOracle
from pitchftc import supervisor
from pitchftc.harness import (
    CSV_SCHEMA,
    RunConfig,
    compare_modes,
    convergence_time,
    dynamics_fingerprint,
    load_reduction_metrics,
    read_csv,
    report_from_series,
    run_simulation,
    write_csv,
)


def short_cfg(**kw):
    base = dict(
        mode="sprc_only",
        load_case="LC3",
        seed=3,
        duration_s=150.0,
        fault_blade=0,
        fault_time_s=0.0,
    )
    base.update(kw)
    return RunConfig(**base)


@pytest.fixture(scope="module")
def lc3_bank():
    cfg = RunConfig(
        mode="offline_tune",
        load_case="LC3",
        seed=100,
        duration_s=600.0,
        fault_blade=3,
        fault_time_s=0.0,
    )
    entry, _ = supervisor.offline_tune(cfg)
    return supervisor.PretunedBank({3: entry})


@pytest.fixture(scope="module")
def last_period_fault_run(lc3_bank):
    # the fault lands in the last rotor period, inside the settle periods
    cfg = RunConfig(
        mode="proposed", load_case="LC3", seed=5, duration_s=100.0, fault_blade=3, fault_time_s=95.0
    )
    return cfg, run_simulation(cfg, bank=lc3_bank)


@pytest.fixture(scope="module")
def healthy_run():
    cfg = short_cfg()
    return cfg, run_simulation(cfg)


@pytest.fixture(scope="module")
def tune_run():
    cfg = RunConfig(
        mode="offline_tune",
        load_case="LC3",
        seed=100,
        duration_s=600.0,
        fault_blade=3,
        fault_time_s=0.0,
    )
    return cfg, run_simulation(cfg)


@pytest.fixture(scope="module")
def faulty_run(lc3_bank):
    cfg = RunConfig(
        mode="proposed",
        load_case="LC3",
        seed=5,
        duration_s=250.0,
        fault_blade=3,
        fault_time_s=125.0,
    )
    return cfg, run_simulation(cfg, bank=lc3_bank)


class TestConfig:
    def test_defaults_follow_reference_protocol(self):
        cfg = RunConfig()
        assert cfg.Ts == 0.01
        assert cfg.duration_s == 1400.0
        assert cfg.fault_time_s == 900.0
        assert cfg.forgetting == 0.99999
        assert cfg.prbs_amplitude == 3.0
        assert cfg.meas_noise_value == 1.5 and not cfg.meas_noise_is_std
        assert cfg.period_samples == 625
        assert cfg.n_samples == 140_000

    def test_validation_failures(self):
        with pytest.raises(ValueError, match="mode"):
            RunConfig(mode="turbo")
        with pytest.raises(ValueError, match="load_case"):
            RunConfig(load_case="LC7")
        with pytest.raises(ValueError, match="integer"):
            RunConfig(rotor_period_s=6.2501)
        with pytest.raises(ValueError, match="fault_time"):
            RunConfig(fault_time_s=2000.0)
        with pytest.raises(ValueError, match="offline_tune"):
            RunConfig(mode="offline_tune", fault_blade=0)
        with pytest.raises(ValueError, match="past_window"):
            RunConfig(past_window=0)

    @pytest.mark.parametrize(
        "bad",
        [
            {"noise_multiplier": float("nan")},
            {"noise_multiplier": -1.0},
            {"past_window": 1.5},
            {"duration_s": float("inf")},
            {"lqr_q": float("nan")},
            {"seed": True},
            {"meas_noise_is_std": "false"},
            {"prbs_hold": 0},
            {"prbs_tau": 0.0},
            {"load_tau": 0.0},
            {"comparison_window_s": -5.0},
            {"convergence_consecutive": 0},
            {"convergence_eps": -0.01},
        ],
        ids=["nan_multiplier", "negative_multiplier", "fractional_window", "inf_duration",
             "nan_lqr_q", "bool_seed", "string_bool_flag", "zero_prbs_hold", "zero_prbs_tau",
             "zero_load_tau", "negative_comparison_window", "zero_consecutive", "negative_eps"],
    )
    def test_from_dict_rejects_bad_numbers(self, bad):
        # a NaN multiplier gives NaN thresholds that no residual crosses, so
        # the stuck blade would never be detected
        data = {"mode": "baseline", "duration_s": 60, "fault_blade": 3, "fault_time_s": 30}
        with pytest.raises(ValueError):
            RunConfig.from_dict({**data, **bad})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            RunConfig.from_dict({"mode": "baseline", "turbo": 1})

    def test_json_roundtrip(self, tmp_path):
        cfg = short_cfg(seed=9, step_gain=0.25)
        path = tmp_path / "cfg.json"
        cfg.to_json_file(path)
        assert RunConfig.from_json_file(path) == cfg

    def test_noise_interpretation_flag(self):
        assert RunConfig().meas_noise_std == pytest.approx(np.sqrt(1.5))
        assert RunConfig(meas_noise_is_std=True).meas_noise_std == 1.5

    def test_fingerprint_ignores_protocol_fields(self):
        a = RunConfig()
        b = replace(a, seed=99, duration_s=700.0, fault_time_s=300.0, mode="sprc_only")
        assert dynamics_fingerprint(a) == dynamics_fingerprint(b)
        # the injected scenario is ground truth the supervisor must not see
        stuck = a.effective_load_case().stuck_angle
        for scenario in (
            replace(a, fault_blade=2),
            replace(a, fault_angle=12.0),
            replace(a, fault_angle=stuck),
        ):
            assert dynamics_fingerprint(scenario) == dynamics_fingerprint(a)
        c = replace(a, load_case="LC1")
        assert dynamics_fingerprint(a) != dynamics_fingerprint(c)

    def test_proposed_with_fault_requires_bank(self):
        cfg = RunConfig(mode="proposed", duration_s=100.0, fault_time_s=50.0)
        with pytest.raises(ValueError, match="bank"):
            run_simulation(cfg)


class TestBaselineMode:
    def test_baseline_is_passthrough(self):
        cfg = short_cfg(mode="baseline", duration_s=60.0)
        result = run_simulation(cfg)
        np.testing.assert_array_equal(result.series["sprc"], 0.0)
        np.testing.assert_array_equal(result.series["prbs"], 0.0)
        lc = cfg.effective_load_case()
        np.testing.assert_allclose(result.series["u_ref"], lc.collective_setpoint)
        # loads are the periodic disturbance plus noise only
        var = np.var(result.series["y"][1000:], axis=0)
        expected = lc.disturbance_amplitude**2 / 2 + lc.noise_std**2
        np.testing.assert_allclose(var, expected, rtol=0.05)


class TestDeterminism:
    def test_identical_config_replays_bit_exactly(self, faulty_run):
        cfg, first = faulty_run
        second = run_simulation(
            cfg, bank=None if cfg.bank_path else _rebuild_bank(cfg)
        )
        for name in first.series:
            np.testing.assert_array_equal(first.series[name], second.series[name])
        assert first.report.to_dict() == second.report.to_dict()


def _rebuild_bank(cfg):
    tune = RunConfig(
        mode="offline_tune",
        load_case=cfg.load_case,
        seed=100,
        duration_s=600.0,
        fault_blade=3,
        fault_time_s=0.0,
    )
    entry, _ = supervisor.offline_tune(tune)
    return supervisor.PretunedBank({3: entry})


class TestFaultyRun:
    def test_detection_and_switch(self, faulty_run):
        cfg, result = faulty_run
        rep = result.report
        assert rep.d_fd == 3
        assert rep.k_d is not None and rep.k_d >= cfg.fault_sample
        assert rep.switch_applied and rep.switch_sample == rep.decision_sample + 1
        assert rep.postfault_converged_periods is not None

    def test_dfd_column_latches(self, faulty_run):
        _, result = faulty_run
        dfd = result.series["dfd"]
        first = np.flatnonzero(dfd)[0]
        assert np.all(dfd[:first] == 0)
        assert np.all(dfd[first:] == 3)

    def test_refused_warm_start_reported_and_blade_frozen(self, faulty_run):
        cfg, _ = faulty_run
        result = run_simulation(cfg, bank=supervisor.PretunedBank())
        rep = result.report
        assert rep.d_fd == 3 and rep.switch_sample == rep.decision_sample + 1
        assert rep.switch_applied is False
        # isolation is trusted without a bank entry: the stuck blade's waveform
        # holds from the switch on
        s, P = rep.switch_sample, cfg.period_samples
        sprc3 = result.series["sprc"][:, 2]
        np.testing.assert_array_equal(sprc3[s + P :], sprc3[s:-P])

    def test_stuck_blade_output_frozen(self, faulty_run):
        cfg, result = faulty_run
        k0 = cfg.fault_sample
        stuck = result.series["u_act"][k0:, 2]
        np.testing.assert_array_equal(stuck, cfg.effective_load_case().stuck_angle)

    def test_fault_before_start_period(self, lc3_bank):
        cfg = RunConfig(
            mode="proposed", load_case="LC3", seed=5, duration_s=100.0, fault_blade=3,
            fault_time_s=10.0,
        )
        result = run_simulation(cfg, bank=lc3_bank)
        rep, history, P = result.report, result.coeff_history, cfg.period_samples
        assert rep.d_fd == 3 and rep.switch_applied
        assert rep.switch_sample < cfg.start_period * P  # before any adaptation
        # the warm start lands in the next period and the stuck blade never moves
        j = rep.switch_sample // P + 1
        np.testing.assert_array_equal(history[j], lc3_bank.get(3).coeffs_array())
        assert (history[j:, 2] == history[j, 2]).all()

    def test_fault_in_last_period(self, last_period_fault_run):
        cfg, result = last_period_fault_run
        rep = result.report
        assert rep.duration_s == cfg.duration_s
        assert cfg.fault_sample // cfg.period_samples == result.coeff_history.shape[0] - 1
        assert rep.windows["faulty"] is None and rep.variance_faulty is None
        assert rep.d_fd == 3 and rep.switch_applied


class TestMetrics:
    def test_reduction_percentages(self):
        rng = np.random.default_rng(0)
        base = rng.normal(0, 2.0, size=(5000, 3))
        run = rng.normal(0, 1.0, size=(5000, 3))
        metrics = load_reduction_metrics(run, base, (0, 5000), faulty_blade=0)
        for b in (1, 2, 3):
            assert metrics[f"blade{b}"] == pytest.approx(75.0, abs=3.0)
        assert metrics["cumulative"] == pytest.approx(75.0, abs=3.0)

    def test_identical_signals_zero_reduction(self):
        y = np.random.default_rng(1).normal(size=(100, 3))
        metrics = load_reduction_metrics(y, y, (0, 100), faulty_blade=0)
        assert metrics["cumulative"] == pytest.approx(0.0, abs=1e-12)

    def test_faulty_blade_excluded(self):
        y = np.random.default_rng(2).normal(size=(100, 3))
        metrics = load_reduction_metrics(y, y, (0, 100), faulty_blade=3)
        assert set(metrics) == {"blade1", "blade2", "cumulative"}

    def test_zero_baseline_variance_rejected(self):
        with pytest.raises(ValueError, match="variance"):
            load_reduction_metrics(np.ones((50, 3)), np.ones((50, 3)), (0, 50))

    def test_convergence_time_constant_series(self):
        history = np.ones((30, 3, 2))
        assert convergence_time(history, 5, eps=0.02, floor=1.0, consecutive=10) == 5

    def test_convergence_time_never(self):
        rng = np.random.default_rng(3)
        history = np.cumsum(rng.normal(5.0, 1.0, size=(30, 3, 2)), axis=0)
        assert convergence_time(history, 1, eps=0.001, floor=1.0, consecutive=10) is None

    def test_final_increment_is_the_last_period(self):
        # converged at period 13; the streak completes at period 22, whose
        # increment (0.133) is not the last period's (0.270)
        cfg = short_cfg(duration_s=400.0)
        result = run_simulation(cfg)
        rep, history = result.report, result.coeff_history
        assert rep.healthy_converged_period is not None
        last = np.linalg.norm(history[-1] - history[-2], axis=1).max()
        assert rep.final_coeff_increment == pytest.approx(last, rel=1e-9)
        assert rep.final_coeff_increment == pytest.approx(0.2698, abs=1e-4)

    def test_final_increment_when_fault_in_last_settle_periods(self):
        # the post-fault scan is empty, but the controller still moved
        cfg = short_cfg(duration_s=100.0, fault_blade=3, fault_time_s=95.0)
        result = run_simulation(cfg)
        history = result.coeff_history
        last = np.linalg.norm(history[-1] - history[-2], axis=1).max()
        assert last > 0.1
        assert result.report.final_coeff_increment == pytest.approx(last, rel=1e-9)

    def test_frozen_updates_flagged_degenerate(self):
        cfg = short_cfg(step_gain=0.0, duration_s=80.0)
        result = run_simulation(cfg)
        assert result.report.frozen_updates


SERIES = ("u_ref", "u_act", "u_meas", "y", "sprc", "prbs", "r", "rbar", "ident_res")
# signed zeros, the smallest and largest subnormals, and the edge of the range
EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, -1e-310, 1e308, -1e308]
FLOATS = st.one_of(st.sampled_from(EXTREMES), st.floats(allow_nan=False, allow_infinity=False))


def _synthetic_series(values):
    """Series dict from an (n, 27) block, nine three-blade columns in CSV order."""
    series = {name: values[:, 3 * i : 3 * i + 3] for i, name in enumerate(SERIES)}
    series["dfd"] = np.arange(values.shape[0]) % 4
    return series


def _set_cell(rows, row, col, value):
    cells = rows[row + 2].rstrip("\n").split(",")
    cells[col] = value
    return rows[: row + 2] + [",".join(cells) + "\n"] + rows[row + 3 :]


def _write_earlier_format(path, series, Ts):
    """The earlier writer: csv module rows of repr floats, CRLF line ends."""
    columns = ["k", "t", *(f"{name}{b}" for name in SERIES for b in (1, 2, 3)), "dfd"]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([f"# {CSV_SCHEMA}"])
        writer.writerow(columns)
        for k, dfd in enumerate(series["dfd"]):
            cells = [repr(float(series[name][k, b])) for name in SERIES for b in range(3)]
            writer.writerow([k, repr(k * Ts), *cells, int(dfd)])


class TestCsvArtifacts:
    def test_roundtrip(self, tmp_path, faulty_run):
        cfg, result = faulty_run
        path = tmp_path / "run.csv"
        write_csv(path, result.series, cfg.Ts)
        series = read_csv(path)
        for name in result.series:
            np.testing.assert_array_equal(series[name], result.series[name])

    @pytest.mark.parametrize(
        "run", ["healthy_run", "faulty_run", "tune_run", "last_period_fault_run"]
    )
    def test_report_recomputable_from_series(self, tmp_path, request, run):
        cfg, result = request.getfixturevalue(run)
        path = tmp_path / "run.csv"
        write_csv(path, result.series, cfg.Ts)
        live = result.report
        rebuilt = report_from_series(
            cfg,
            read_csv(path),
            gain_failures=live.gain_failures,
            rls_degenerate=live.rls_degenerate,
            switch_sample=live.switch_sample,
            switch_applied=live.switch_applied,
            converged_period=live.converged_period,
        )
        a, b = live.to_dict(), rebuilt.to_dict()
        assert a.keys() == b.keys()
        for key in a:
            assert json.dumps(b[key]) == json.dumps(a[key]), key

    @pytest.mark.parametrize(
        "edit",
        [
            lambda rows: rows[:2],
            lambda rows: rows[:-1] + [rows[-1][: len(rows[-1]) // 2]],
            lambda rows: rows[:-1] + [rows[-1].rsplit(",", 1)[0] + "\n"],
            lambda rows: rows[:-1] + [rows[-1][:-2]],
            lambda rows: _set_cell(rows, 1, 4, "abc"),
            lambda rows: rows[:3] + rows[4:],
            lambda rows: rows[:2] + rows[3:],
            lambda rows: _set_cell(rows, 1, -1, "7"),
            lambda rows: _set_cell(rows, 1, -1, "2.5"),
            lambda rows: ["# pitchftc-timeseries-v0\n"] + rows[1:],
            lambda rows: rows[:1] + [rows[1].replace("y1", "load1")] + rows[2:],
        ],
        ids=["empty_body", "truncated_last_row", "ragged_last_row", "empty_last_cell",
             "non_numeric_cell", "k_gap", "k_not_from_zero", "dfd_out_of_range",
             "dfd_fractional", "unknown_schema", "renamed_column"],
    )
    @pytest.mark.filterwarnings("ignore:loadtxt")  # numpy warns on an empty body first
    def test_malformed_file_rejected(self, tmp_path, edit):
        path = tmp_path / "run.csv"
        write_csv(path, _synthetic_series(np.ones((5, 27))), 0.01)
        read_csv(path)  # the unedited file is valid
        rows = path.read_text().splitlines(keepends=True)
        path.write_text("".join(edit(rows)))
        with pytest.raises(ValueError):
            read_csv(path)

    @given(arrays(np.float64, st.tuples(st.integers(1, 12), st.just(27)), elements=FLOATS))
    @example(np.resize(EXTREMES, (2, 27)))
    @settings(max_examples=60, deadline=None)
    def test_floats_roundtrip_bit_exactly(self, tmp_path_factory, values):
        path = tmp_path_factory.mktemp("csv") / "run.csv"
        written = _synthetic_series(values)
        write_csv(path, written, 0.01)
        series = read_csv(path)
        for name in SERIES:
            np.testing.assert_array_equal(series[name].view(np.int64), written[name].view(np.int64))
        np.testing.assert_array_equal(series["dfd"], written["dfd"])

    def test_reads_files_in_the_earlier_format(self, tmp_path):
        rng = np.random.default_rng(7)
        values = rng.normal(size=(6, 27)) * 10.0 ** rng.integers(-300, 300, size=(6, 27))
        written = _synthetic_series(np.vstack([values, np.resize(EXTREMES, (1, 27))]))
        path = tmp_path / "old.csv"
        _write_earlier_format(path, written, 0.01)
        assert b"\r\n" in path.read_bytes()
        series = read_csv(path)
        for name in SERIES:
            np.testing.assert_array_equal(series[name].view(np.int64), written[name].view(np.int64))
        np.testing.assert_array_equal(series["dfd"], written["dfd"])


class TestReportFromSeries:
    def test_decision_held_back_by_a_second_blade(self):
        # blade 3 completes its confirming run on a sample where blade 1 also
        # crosses, so isolation waits one more sample; k_d stays the start of
        # blade 3's run, not the decision sample minus n_confirm - 1
        cfg = short_cfg(mode="baseline", duration_s=10.0)
        n, start = cfg.n_samples, 500
        series = {name: np.zeros((n, 3)) for name in ("y", "sprc", "u_act", "r")}
        series["u_act"][:] = 19.0
        series["rbar"] = np.ones((n, 3))
        series["r"][start : start + cfg.n_confirm + 5, 2] = 2.0
        series["r"][start + cfg.n_confirm - 1, 0] = 2.0
        fuser = FuserOracle(cfg.n_confirm)
        for k in range(n):
            fuser.update(series["r"][k], series["rbar"][k], k)
        series["dfd"] = np.zeros(n, dtype=int)
        series["dfd"][fuser.confirmed_at :] = fuser.d_fd

        rep = report_from_series(cfg, series)
        assert fuser.confirmed_at == start + cfg.n_confirm
        assert (rep.d_fd, rep.decision_sample) == (3, fuser.confirmed_at)
        assert rep.k_d == fuser.k_d == start
        assert rep.ambiguous and fuser.ambiguous

    @pytest.mark.parametrize("seed", [0, 1])
    def test_decision_record_matches_fuser_on_noisy_runs(self, seed):
        # loud pitch noise under a tight threshold makes several blades cross;
        # on seed 1 a second blade holds the confirmation back
        cfg = short_cfg(
            mode="baseline", seed=seed, duration_s=400.0, fault_blade=3, fault_time_s=300.0,
            meas_noise_value=6.0, noise_multiplier=1.2,
        )
        result = run_simulation(cfg)
        fuser = FuserOracle(cfg.n_confirm)
        for k, (r, rbar) in enumerate(zip(result.series["r"], result.series["rbar"])):
            if fuser.update(r, rbar, k).d_fd:
                break
        rep = result.report
        assert rep.d_fd == fuser.d_fd == 3
        assert (rep.k_d, rep.decision_sample) == (fuser.k_d, fuser.confirmed_at)
        assert rep.ambiguous == fuser.ambiguous

    def test_saturation_counted_from_actuated_pitch(self):
        # blade 3 sticks below the physical pitch range for the second half
        cfg = short_cfg(
            mode="baseline", duration_s=20.0, fault_blade=3, fault_time_s=10.0, fault_angle=-30.0
        )
        rep = run_simulation(cfg).report
        assert rep.saturation_count == cfg.n_samples - cfg.fault_sample


class TestCompareModes:
    def test_mode_ordering_on_matched_seed(self, lc3_bank):
        cfg = RunConfig(
            mode="proposed",
            load_case="LC3",
            seed=11,
            duration_s=500.0,
            fault_blade=3,
            fault_time_s=250.0,
            comparison_window_s=150.0,
        )
        outcome = compare_modes(cfg, bank=lc3_bank)
        red = outcome["reduction"]
        # adaptive control beats the baseline decisively on healthy blades
        assert red["proposed"]["cumulative"] > 40.0
        assert red["sprc_only"]["cumulative"] > 40.0
        # the warm-switched run is at least as good as pure adaptation
        # (near-tie: both converge to the same waveform; allow noise slack)
        prop = outcome["results"]["proposed"]
        only = outcome["results"]["sprc_only"]
        lo, hi = outcome["results"]["baseline"].report.windows["comparison"]
        var_p = np.var(prop.series["y"][lo:hi, :2], axis=0).sum()
        var_s = np.var(only.series["y"][lo:hi, :2], axis=0).sum()
        assert var_p <= 1.05 * var_s

    def test_runs_identical_before_fault(self, lc3_bank):
        cfg = RunConfig(
            mode="proposed",
            load_case="LC3",
            seed=13,
            duration_s=120.0,
            fault_blade=3,
            fault_time_s=100.0,
        )
        prop = run_simulation(cfg, bank=lc3_bank)
        only = run_simulation(replace(cfg, mode="sprc_only"))
        k0 = cfg.fault_sample
        for name in ("u_ref", "u_act", "y", "r"):
            np.testing.assert_array_equal(
                prop.series[name][:k0], only.series[name][:k0]
            )
