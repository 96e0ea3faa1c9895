import csv
import json
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from oracles import FuserOracle, SequentialStepper, sequential_run
from pitchftc import fdi, harness, sprc, supervisor
from pitchftc.actuator import ActuatorBank
from pitchftc.fdi import design_fdie, residual_noise_std
from pitchftc.numerics import DareError, single_blas_thread
from pitchftc.harness import (
    CONVERGENCE_CONSECUTIVE,
    CONVERGENCE_EPS,
    CONVERGENCE_FLOOR,
    CSV_SCHEMA,
    START_PERIOD,
    RunConfig,
    RunReport,
    compare_modes,
    convergence_time,
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


#: the controller tallies of a run in which nothing happened, for hand-built series
NO_TALLIES = dict(
    gain_failures=0, rls_degenerate=False, switch_sample=None, switch_applied=False,
    converged_period=None,
)


class TestConfig:
    def test_defaults_follow_reference_protocol(self):
        cfg = RunConfig()
        assert cfg.Ts == 0.01
        assert cfg.duration_s == 1400.0
        assert cfg.fault_time_s == 900.0
        assert harness.MEAS_NOISE_VAR == 1.5
        assert cfg.period_samples == 625
        assert cfg.n_samples == 140_000
        # identification at 20 Hz over 1 s of history
        assert (harness.IDENT_DECIMATION, cfg.past_window) == (5, 20)

    def test_validation_failures(self):
        with pytest.raises(ValueError, match="mode"):
            RunConfig(mode="turbo")
        with pytest.raises(ValueError, match="load_case"):
            RunConfig(load_case="LC7")
        with pytest.raises(ValueError, match="integer"):
            RunConfig(Ts=0.03)
        with pytest.raises(ValueError, match="fault_time"):
            RunConfig(fault_time_s=2000.0)
        with pytest.raises(ValueError, match="offline_tune"):
            RunConfig(mode="offline_tune", fault_blade=0)
        with pytest.raises(ValueError, match="past_window"):
            RunConfig(past_window=0)

    @pytest.mark.parametrize(
        "bad",
        [
            {"past_window": 1.5},
            {"duration_s": float("inf")},
            {"seed": True},
            {"load_case": []},
            {"mode": 3},
            {"bank_path": 5},
            {"seed": -1},
            {"Ts": 5e-324},
            # knobs that are now fixed values: a config that still sets one is
            # refused as an unknown key, not silently run at the fixed value
            {"noise_multiplier": float("nan")},
            {"noise_multiplier": -1.0},
            {"lqr_r": float("nan")},
            {"comparison_window_s": -5.0},
            {"lqr_r": True},
            {"step_gain": False},
            {"lqr_r": 0},
            {"step_gain": -0.1},
            {"noise_multiplier": 0.0},
            {"meas_noise_var": 0.0},
            {"lqr_q": float("nan")},
            {"meas_noise_is_std": "false"},
            {"prbs_hold": 0},
            {"prbs_tau": 0.0},
            {"load_tau": 0.0},
            {"convergence_consecutive": 0},
            {"convergence_eps": -0.01},
            {"lqr_q": True},
            {"lqr_q": -1},
            {"reseed_confidence": 0},
            {"reseed_confidence": -1},
            {"hold_gain": 2},
            {"prbs_amplitude": -1},
            {"load_noise_std": -1},
            {"threshold_margin": 0.5},
            {"threshold_margin": -0.5},
            {"threshold_margin": 0},
            # 0.4 samples round to none: the run writes a CSV that read_csv refuses
            {"duration_s": 0.004, "fault_blade": 0},
            # rounds to sample 6000 = N: the fault would never act
            {"fault_time_s": 59.996},
            {"mode": "offline_tune", "fault_time_s": 10.0},
            # divided by Ts, past the float range: the sample count is infinite
            {"duration_s": 1.797693134862316e306, "fault_blade": 0},
            {"fault_time_s": 1.797693134862316e306},
            # 125 identified samples per period: the window must be shorter
            {"past_window": 125},
        ],
        ids=["fractional_window", "inf_duration", "bool_seed", "list_load_case", "int_mode",
             "int_bank_path", "negative_seed", "subnormal_Ts",
             "nan_multiplier", "negative_multiplier", "nan_lqr_r", "negative_comparison_window",
             "bool_lqr_r", "bool_step_gain", "zero_lqr_r", "negative_step_gain",
             "zero_multiplier", "zero_meas_noise",
             "nan_lqr_q", "string_bool_flag", "zero_prbs_hold", "zero_prbs_tau",
             "zero_load_tau", "zero_consecutive", "negative_eps", "bool_lqr_q",
             "negative_lqr_q", "zero_reseed_confidence", "negative_reseed_confidence",
             "hold_gain_above_one", "negative_prbs_amplitude", "negative_load_noise_std",
             "threshold_margin_past_unit_circle", "negative_threshold_margin",
             "zero_threshold_margin", "no_sample", "fault_on_sample_n", "late_tuning_fault",
             "overflowing_duration", "overflowing_fault_time", "window_of_a_period"],
    )
    def test_from_dict_rejects_bad_numbers(self, bad):
        data = {"mode": "baseline", "duration_s": 60, "fault_blade": 3, "fault_time_s": 30}
        with pytest.raises(ValueError):
            RunConfig.from_dict({**data, **bad})

    @pytest.mark.parametrize(
        "name, value",
        [("past_window", np.int64(100)), ("seed", np.int32(3)),
         ("Ts", np.float32(0.03125))],
        ids=["int64_window", "int32_seed", "float32_Ts"],
    )
    def test_numpy_scalars_become_python_scalars(self, tmp_path, name, value):
        cfg = short_cfg(**{name: value})
        plain = short_cfg(**{name: value.item()})
        assert json.dumps(cfg.dynamics()) == json.dumps(plain.dynamics())
        path = tmp_path / "cfg.json"
        cfg.to_json_file(path)
        assert RunConfig.from_json_file(path) == cfg == plain

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_from_dict_rejects_or_roundtrips(self, tmp_path_factory, data):
        # any value JSON or numpy can hand over: a config either refuses it
        # or survives the JSON round trip with the same dynamics
        wrong = st.one_of(
            st.text(max_size=5), st.booleans(), st.none(), st.lists(st.integers(), max_size=2),
            st.sampled_from([float("nan"), float("inf"), -float("inf")]),
        )
        by_type = {
            "int": st.one_of(st.integers(), st.integers(-(2**31), 2**31 - 1).map(np.int64)),
            "float": st.one_of(
                st.floats(allow_nan=False, allow_infinity=False),
                st.integers(-(10**400), 10**400),
                st.floats(-1e6, 1e6, width=32).map(np.float32),
                st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
            ),
            "str": st.one_of(st.sampled_from(["proposed", "sprc_only", "LC1", "LC3"]), st.text()),
        }
        kinds = {f.name: f.type.removesuffix(" | None") for f in fields(RunConfig)}
        names = data.draw(st.sets(st.sampled_from(sorted(kinds)), max_size=6))
        values = {
            name: data.draw(st.one_of(by_type[kinds[name]], wrong), label=name)
            for name in sorted(names)
        }
        try:
            cfg = RunConfig.from_dict(values)
        except ValueError:
            event("rejected")
            return
        event("accepted")
        path = tmp_path_factory.mktemp("fuzz") / "cfg.json"
        cfg.to_json_file(path)
        loaded = RunConfig.from_json_file(path)
        assert loaded == cfg
        assert json.dumps(loaded.dynamics()) == json.dumps(cfg.dynamics())

    def test_float_fields_have_one_spelling(self):
        cfg = RunConfig(fault_time_s=900, duration_s=1400)
        assert type(cfg.fault_time_s) is float and type(cfg.duration_s) is float
        assert cfg.to_dict() == RunConfig().to_dict()
        assert json.dumps(cfg.to_dict()) == json.dumps(RunConfig().to_dict())

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            RunConfig.from_dict({"mode": "baseline", "turbo": 1})
        # a config with keys of the earlier 40-key layout, whose fixed values
        # are not config keys any more: each is named
        stale = {"rotor_period_s": 6.25, "forgetting": 0.99999, "meas_noise_value": 1.5,
                 "load_noise_std": None,
                 # and of the 18-field layout, whose tunings are module constants
                 "lqr_r": 0.1, "step_gain": 0.3, "meas_noise_var": 1.5,
                 "noise_multiplier": 6.5, "comparison_window_s": 200.0, "load_gain": -30.0}
        with pytest.raises(ValueError, match="unknown config keys") as info:
            RunConfig.from_dict({**RunConfig().to_dict(), **stale})
        for name in stale:
            assert repr(name) in str(info.value)

    def test_shipped_configs_are_the_reference_protocol(self):
        # no tuning hides in a config file: each differs from the defaults
        # only in what a run's protocol sets
        defaults = RunConfig().to_dict()
        protocol = {"mode", "seed", "duration_s", "fault_time_s", "bank_path"}
        shipped = sorted((Path(__file__).parent.parent / "configs").glob("*.json"))
        assert len(shipped) >= 2
        for path in shipped:
            data = json.loads(path.read_text())
            assert data.keys() == defaults.keys(), path.name
            assert RunConfig.from_dict(data).to_dict() == data, path.name
            assert {k for k in data if data[k] != defaults[k]} <= protocol, path.name

    def test_a_config_cannot_change_under_a_run(self):
        cfg = short_cfg(mode="baseline", duration_s=10.0)
        with pytest.raises(FrozenInstanceError):
            cfg.seed = 5
        # a derived config is checked as a built one is
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            replace(cfg, seed=-1)
        result = run_simulation(cfg)
        assert result.config == short_cfg(mode="baseline", duration_s=10.0)
        assert result.report.seed == cfg.seed == 3

    def test_json_roundtrip(self, tmp_path):
        cfg = short_cfg(seed=9, pole_radius=0.95)
        path = tmp_path / "cfg.json"
        cfg.to_json_file(path)
        assert RunConfig.from_json_file(path) == cfg

    def test_noise_interpretation_flag(self):
        # MEAS_NOISE_VAR is a variance: the pitch noise's std is its root
        cfg = short_cfg(mode="baseline", duration_s=20.0)
        for var in (harness.MEAS_NOISE_VAR, 4.0):
            with mock.patch.object(harness, "MEAS_NOISE_VAR", var):
                series = run_simulation(cfg).series
            noise = series["u_meas"] - series["u_act"]
            assert noise.std() == pytest.approx(np.sqrt(var), rel=0.05)

    def test_dynamics_ignore_protocol_fields(self):
        a = RunConfig()
        b = replace(a, seed=99, duration_s=700.0, fault_time_s=300.0, mode="sprc_only")
        assert a.dynamics() == b.dynamics()
        # the injected scenario is ground truth the supervisor must not see
        stuck = a.effective_load_case().stuck_angle
        for scenario in (
            replace(a, fault_blade=2),
            replace(a, fault_angle=12.0),
            replace(a, fault_angle=stuck),
        ):
            assert scenario.dynamics() == a.dynamics()
        c = replace(a, load_case="LC1")
        assert a.dynamics() != c.dynamics()

    def test_proposed_with_fault_requires_bank(self):
        cfg = RunConfig(mode="proposed", duration_s=100.0, fault_time_s=50.0)
        with pytest.raises(ValueError, match="bank"):
            run_simulation(cfg)

    @pytest.mark.parametrize("mode", ["sprc_only", "baseline"])
    def test_bank_loaded_only_by_proposed_mode(self, tmp_path, mode):
        # a config written for the full architecture names a bank not tuned yet
        cfg = short_cfg(mode=mode, duration_s=10.0, bank_path=str(tmp_path / "untuned.json"))
        assert run_simulation(cfg).report.mode == mode
        with pytest.raises(FileNotFoundError):
            run_simulation(replace(cfg, mode="proposed"))


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
        # the switch acts at the first period boundary after the decision
        P = cfg.period_samples
        assert rep.switch_applied and rep.switch_sample == (rep.decision_sample // P + 1) * P
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
        rep, P = result.report, cfg.period_samples
        assert rep.d_fd == 3 and rep.switch_sample == (rep.decision_sample // P + 1) * P
        assert rep.switch_applied is False
        # isolation is trusted without a bank entry: the stuck blade's waveform
        # holds from the switch on
        s = rep.switch_sample
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
        assert rep.switch_sample < START_PERIOD * P  # before any adaptation
        # the warm start is the switch's period and the stuck blade never moves
        j = rep.switch_sample // P
        np.testing.assert_array_equal(history[j], lc3_bank.get(3).coeffs_array())
        assert (history[j:, 2] == history[j, 2]).all()

    def test_live_threshold_is_the_noise_bound(self, lc3_bank, monkeypatch):
        def no_scan(*args):
            raise AssertionError("a live run scanned for the transient bound")

        monkeypatch.setattr(fdi, "compute_alpha_delta", no_scan)
        cfg = RunConfig(
            mode="proposed", load_case="LC3", seed=5, duration_s=100.0, fault_blade=3,
            fault_time_s=50.0,
        )
        result = run_simulation(cfg, bank=lc3_bank)
        assert result.report.d_fd == 3 and result.report.switch_applied
        model = ActuatorBank(cfg.Ts).model
        gain = design_fdie(model, cfg.pole_radius).gain
        sigma = np.sqrt(harness.MEAS_NOISE_VAR)
        bound = fdi.NOISE_MULTIPLIER * residual_noise_std(model, gain, sigma)
        assert result.series["rbar"].shape == (cfg.n_samples,)
        np.testing.assert_array_equal(result.series["rbar"], bound)

    def test_fault_in_last_period(self, last_period_fault_run):
        cfg, result = last_period_fault_run
        rep = result.report
        assert rep.duration_s == cfg.duration_s
        assert cfg.fault_sample // cfg.period_samples == result.coeff_history.shape[0] - 1
        assert rep.windows["faulty"] is None and rep.variance_faulty is None
        # the decision leaves no period boundary to switch at
        assert rep.d_fd == 3 and rep.decision_sample is not None
        assert rep.switch_sample is None and not rep.switch_applied


class TestMetrics:
    def test_reduction_percentages(self):
        rng = np.random.default_rng(0)
        base = rng.normal(0, 2.0, size=(5000, 3))
        run = rng.normal(0, 1.0, size=(5000, 3))
        metrics = load_reduction_metrics(run, base, (0, 5000), faulty_blade=0)
        for b in (1, 2, 3):
            assert metrics[f"blade{b}"] == pytest.approx(75.0, abs=3.0)
        assert metrics["cumulative"] == pytest.approx(75.0, abs=3.0)
        assert all(type(value) is float for value in metrics.values())

    @pytest.mark.parametrize("run_rows, window", [(100, (0, 101)), (100, (-1, 50)), (50, (40, 60))])
    def test_window_past_a_series_rejected(self, run_rows, window):
        base = np.random.default_rng(3).normal(size=(100, 3))
        with pytest.raises(ValueError, match="runs past a series"):
            load_reduction_metrics(base[:run_rows], base, window, faulty_blade=0)

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
            load_reduction_metrics(np.ones((50, 3)), np.ones((50, 3)), (0, 50), faulty_blade=0)

    @staticmethod
    def _loud_then_quiet(loud, quiet):
        """Blade 1 moves by twice the quiet bound for periods 1..loud, then by 0.9 of it."""
        bound = CONVERGENCE_EPS * CONVERGENCE_FLOOR  # the coefficients stay near the floor
        steps = np.r_[np.full(loud, 2.0 * bound), np.full(quiet, 0.9 * bound)]
        history = np.zeros((1 + loud + quiet, 3, 2))
        history[1:, 0, 0] = np.cumsum(steps)
        return history

    def test_convergence_time_constant_series(self):
        assert convergence_time(np.ones((30, 3, 2)), 5) == 5
        # the streak starts at the first quiet period, wherever the scan starts before it
        history = self._loud_then_quiet(11, CONVERGENCE_CONSECUTIVE)
        assert convergence_time(history, 5) == convergence_time(history, 1) == 12

    def test_convergence_time_never(self):
        # one quiet period short of the streak
        assert convergence_time(self._loud_then_quiet(11, CONVERGENCE_CONSECUTIVE - 1), 1) is None

    def test_final_increment_is_the_last_period(self):
        # converged at period 15; the streak completes at period 24, whose
        # increment (0.192) is not the last period's (0.253)
        cfg = short_cfg(duration_s=400.0)
        result = run_simulation(cfg)
        rep, history = result.report, result.coeff_history
        assert rep.healthy_converged_period is not None
        last = np.linalg.norm(history[-1] - history[-2], axis=1).max()
        assert rep.final_coeff_increment == pytest.approx(last, rel=1e-9)
        assert rep.final_coeff_increment == pytest.approx(0.2529, abs=1e-4)

    def test_final_increment_when_fault_in_last_settle_periods(self):
        # the post-fault scan is empty, but the controller still moved
        cfg = short_cfg(duration_s=100.0, fault_blade=3, fault_time_s=95.0)
        result = run_simulation(cfg)
        history = result.coeff_history
        last = np.linalg.norm(history[-1] - history[-2], axis=1).max()
        assert last > 0.1
        assert result.report.final_coeff_increment == pytest.approx(last, rel=1e-9)


BLADE_SERIES = ("u_ref", "u_act", "u_meas", "y", "sprc", "prbs", "r", "ident_res")
SERIES = (*BLADE_SERIES, "rbar")
COLUMNS = ["k", "t", *(f"{name}{b}" for name in BLADE_SERIES for b in (1, 2, 3)), "rbar", "dfd"]
# signed zeros, the smallest and largest subnormals, and the edge of the range
EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, -1e-310, 1e308, -1e308]
FLOATS = st.one_of(st.sampled_from(EXTREMES), st.floats(allow_nan=False, allow_infinity=False))


def _synthetic_series(values):
    """Series dict from an (n, 25) block in CSV order: eight three-blade series, then rbar.

    dfd latches as the fuser writes it: 0 for the first half, then one blade.
    """
    n = values.shape[0]
    series = {name: values[:, 3 * i : 3 * i + 3] for i, name in enumerate(BLADE_SERIES)}
    series["rbar"] = values[:, 24]
    series["dfd"] = np.where(np.arange(n) < n // 2, 0, 1 + n % 3)
    return series


def _set_cell(rows, row, col, value):
    cells = rows[row + 2].rstrip("\n").split(",")
    cells[col] = value
    return rows[: row + 2] + [",".join(cells) + "\n"] + rows[row + 3 :]


def _set_column(rows, col, values):
    for row, value in enumerate(values):
        rows = _set_cell(rows, row, col, value)
    return rows


def _write_repr_csv(path, schema, columns, block, dfd, Ts):
    """The csv-module writer of earlier versions: repr floats, CRLF line ends."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([f"# {schema}"])
        writer.writerow(columns)
        for k, row in enumerate(block):
            writer.writerow([k, repr(k * Ts), *(repr(float(v)) for v in row), int(dfd[k])])


class TestCsvArtifacts:
    def test_roundtrip(self, tmp_path, faulty_run):
        cfg, result = faulty_run
        path = tmp_path / "run.csv"
        write_csv(path, result.series, cfg.Ts)
        assert path.read_text().splitlines()[:2] == [f"# {CSV_SCHEMA}", ",".join(COLUMNS)]
        assert len(COLUMNS) == 28
        series = read_csv(path)
        for name in result.series:
            np.testing.assert_array_equal(series[name], result.series[name])
        np.testing.assert_array_equal(series["t"], np.arange(cfg.n_samples) * cfg.Ts)

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

    def test_rebuilt_report_must_be_told_what_the_run_did(self, tmp_path, faulty_run):
        # the series does not hold the switch: a rebuild without the tallies
        # would report this switched run as never switched
        cfg, result = faulty_run
        assert result.report.switch_applied and result.report.switch_sample is not None
        path = tmp_path / "run.csv"
        write_csv(path, result.series, cfg.Ts)
        with pytest.raises(TypeError):
            report_from_series(cfg, read_csv(path))

    def test_tuning_report_is_strict_json(self, tune_run):
        # the fault is active from the first sample, so the healthy window is
        # empty: its variances are null, which JSON can spell, not NaN
        _, result = tune_run
        report = result.report
        assert report.variance_healthy is None
        text = json.dumps(report.to_dict(), allow_nan=False)
        assert RunReport(**json.loads(text)) == report

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
            lambda rows: _set_cell(rows, 1, COLUMNS.index("y1"), "nan"),
            lambda rows: _set_cell(rows, 3, COLUMNS.index("rbar"), "inf"),
            lambda rows: _set_cell(rows, 3, 1, "0.035"),
            lambda rows: _set_cell(rows, 0, 1, "0.01"),
            lambda rows: _set_column(rows, 1, ["0"] * 5),
            lambda rows: _set_column(rows, 1, ["0", "-0.01", "-0.02", "-0.03", "-0.04"]),
            lambda rows: _set_cell(rows[:3], 0, 1, "0.5"),
            lambda rows: _set_cell(rows, 4, -1, "1"),
            lambda rows: _set_cell(rows, 3, -1, "0"),
        ],
        ids=["empty_body", "truncated_last_row", "ragged_last_row", "empty_last_cell",
             "non_numeric_cell", "k_gap", "k_not_from_zero", "dfd_out_of_range",
             "dfd_fractional", "unknown_schema", "renamed_column", "nan_cell", "inf_cell",
             "t_off_the_grid", "t_not_from_zero", "t_zero_step", "t_negative_step",
             "one_row_t_not_zero", "dfd_changes_blade", "dfd_clears_mid_run"],
    )
    @pytest.mark.filterwarnings("ignore:loadtxt")  # numpy warns on an empty body first
    def test_malformed_file_rejected(self, tmp_path, edit):
        path = tmp_path / "run.csv"
        write_csv(path, _synthetic_series(np.ones((5, 25))), 0.01)
        read_csv(path)  # the unedited file is valid
        rows = path.read_text().splitlines(keepends=True)
        path.write_text("".join(edit(rows)))
        with pytest.raises(ValueError):
            read_csv(path)

    @given(arrays(np.float64, st.tuples(st.integers(1, 12), st.just(25)), elements=FLOATS))
    @example(np.resize(EXTREMES, (2, 25)))
    @settings(max_examples=60, deadline=None)
    def test_floats_roundtrip_bit_exactly(self, tmp_path_factory, values):
        path = tmp_path_factory.mktemp("csv") / "run.csv"
        written = _synthetic_series(values)
        write_csv(path, written, 0.01)
        series = read_csv(path)
        for name in SERIES:
            np.testing.assert_array_equal(series[name].view(np.int64), written[name].view(np.int64))
        np.testing.assert_array_equal(series["dfd"], written["dfd"])
        np.testing.assert_array_equal(series["t"], np.arange(values.shape[0]) * 0.01)

    def test_reads_files_in_the_earlier_format(self, tmp_path):
        rng = np.random.default_rng(7)
        values = rng.normal(size=(6, 25)) * 10.0 ** rng.integers(-300, 300, size=(6, 25))
        values = np.vstack([values, np.resize(EXTREMES, (1, 25))])
        written = _synthetic_series(values)
        path = tmp_path / "old.csv"
        _write_repr_csv(path, CSV_SCHEMA, COLUMNS, values, written["dfd"], 0.01)
        assert b"\r\n" in path.read_bytes()
        series = read_csv(path)
        for name in SERIES:
            np.testing.assert_array_equal(series[name].view(np.int64), written[name].view(np.int64))
        np.testing.assert_array_equal(series["dfd"], written["dfd"])

    def test_v1_file_refused(self, tmp_path):
        # v1 wrote the threshold three times, as rbar1..3 between r and ident_res
        values = np.ones((4, 25))
        v1_names = ("u_ref", "u_act", "u_meas", "y", "sprc", "prbs", "r", "rbar", "ident_res")
        columns = ["k", "t", *(f"{name}{b}" for name in v1_names for b in (1, 2, 3)), "dfd"]
        rbar = np.repeat(values[:, 24:], 3, axis=1)
        block = np.column_stack([values[:, :21], rbar, values[:, 21:24]])
        path = tmp_path / "v1.csv"
        _write_repr_csv(path, "pitchftc-timeseries-v1", columns, block, np.zeros(4), 0.01)
        with pytest.raises(ValueError, match="pitchftc-timeseries-v1"):
            read_csv(path)


class TestReportFromSeries:
    def test_decision_held_back_by_a_second_blade(self):
        # blade 3 completes its confirming run on a sample where blade 1 also
        # crosses, so isolation waits one more sample; k_d stays the start of
        # blade 3's run, not the decision sample minus n_confirm - 1
        cfg = short_cfg(mode="baseline", duration_s=10.0)
        n, start, n_confirm = cfg.n_samples, 500, fdi.N_CONFIRM
        series = {name: np.zeros((n, 3)) for name in ("y", "sprc", "u_act", "r")}
        series["u_act"][:] = 19.0
        series["rbar"] = np.ones(n)
        series["r"][start : start + n_confirm + 5, 2] = 2.0
        series["r"][start + n_confirm - 1, 0] = 2.0
        fuser = FuserOracle(n_confirm)
        for k in range(n):
            fuser.update(series["r"][k], series["rbar"][k], k)
        series["dfd"] = np.zeros(n, dtype=int)
        series["dfd"][fuser.confirmed_at :] = fuser.d_fd

        rep = report_from_series(cfg, series, **NO_TALLIES)
        assert fuser.confirmed_at == start + n_confirm
        assert (rep.d_fd, rep.decision_sample) == (3, fuser.confirmed_at)
        assert rep.k_d == fuser.k_d == start
        assert rep.ambiguous and fuser.ambiguous

    @pytest.mark.parametrize("seed", [0, 1])
    def test_decision_record_matches_fuser_on_noisy_runs(self, seed):
        # loud pitch noise under a tight threshold makes several blades cross;
        # on seed 1 a second blade holds the confirmation back
        cfg = short_cfg(
            mode="baseline", seed=seed, duration_s=400.0, fault_blade=3, fault_time_s=300.0
        )
        with mock.patch.object(harness, "MEAS_NOISE_VAR", 6.0), \
                mock.patch.object(fdi, "NOISE_MULTIPLIER", 1.2):
            result = run_simulation(cfg)
        fuser = FuserOracle(fdi.N_CONFIRM)
        for k, (r, rbar) in enumerate(zip(result.series["r"], result.series["rbar"])):
            if fuser.update(r, rbar, k).d_fd:
                break
        rep = result.report
        assert rep.d_fd == fuser.d_fd == 3
        assert (rep.k_d, rep.decision_sample) == (fuser.k_d, fuser.confirmed_at)
        assert rep.ambiguous == fuser.ambiguous

    @pytest.mark.parametrize(
        "rbar",
        [np.ones((1000, 3)), np.ones(999), np.zeros(1000), np.r_[np.ones(999), -1.0],
         np.r_[np.nan, np.ones(999)]],
        ids=["per_blade", "short", "zero", "negative", "nan"],
    )
    def test_threshold_must_be_one_positive_value_per_sample(self, rbar):
        cfg = short_cfg(mode="baseline", duration_s=10.0)
        series = {name: np.ones((cfg.n_samples, 3)) for name in ("y", "sprc", "u_act", "r")}
        series["dfd"] = np.zeros(cfg.n_samples, dtype=int)
        series["rbar"] = np.full(cfg.n_samples, 2.0)
        report_from_series(cfg, series, **NO_TALLIES)  # the valid series builds
        series["rbar"] = rbar
        with pytest.raises(ValueError, match="rbar"):
            report_from_series(cfg, series, **NO_TALLIES)

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
        )
        with mock.patch.object(harness, "COMPARISON_WINDOW_S", 150.0):
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

    @pytest.mark.parametrize(
        "modes",
        [(), ("baseline", "baseline"), ("sprc_only", "proposed", "sprc_only"), ("baseline", "offline_tune")],
    )
    def test_refuses_modes_it_cannot_compare(self, modes, monkeypatch):
        # an offline tuning stops where it converges, short of the baseline's window
        cfg = RunConfig(load_case="LC3", seed=100, duration_s=600.0, fault_time_s=0.0)
        for name in ("_Stepper", "run_simulation"):
            monkeypatch.setattr(harness, name, mock.Mock(side_effect=AssertionError("simulated")))
        with pytest.raises(ValueError, match="modes must be distinct modes among"):
            compare_modes(cfg, modes=modes)

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


def _assert_same_run(got, want):
    assert got.config == want.config
    assert got.series.keys() == want.series.keys()
    for name in want.series:
        assert got.series[name].dtype == want.series[name].dtype, name
        np.testing.assert_array_equal(got.series[name], want.series[name], err_msg=name)
    np.testing.assert_array_equal(got.coeff_history, want.coeff_history)
    for name in ("snapshot_coeffs", "snapshot_markov"):
        snapshot = getattr(want, name)
        assert (getattr(got, name) is None) if snapshot is None else (
            getattr(got, name).tobytes() == snapshot.tobytes()
        ), name
    assert json.dumps(got.report.to_dict()) == json.dumps(want.report.to_dict())


class TestFork:
    @given(
        fault_blade=st.integers(1, 3),
        fault_time_s=st.floats(0.0, 75.0),
        seed=st.integers(0, 2**16),
        tuned=st.booleans(),
        # any non-empty ordered subset of the compared modes
        modes=st.lists(
            st.sampled_from(("baseline", "sprc_only", "proposed")), min_size=1, max_size=3, unique=True
        ).map(tuple),
    )
    # the switch lands on the boundary at 7500, whose period the 80 s run cuts short
    @example(fault_blade=3, fault_time_s=72.0, seed=0, tuned=True, modes=("sprc_only", "proposed"))
    # the decision falls after the last boundary: proposed never switches
    @example(fault_blade=3, fault_time_s=75.0, seed=0, tuned=True, modes=("sprc_only", "proposed"))
    # no decision: the arms never part, and proposed forks off the finished run
    @example(fault_blade=0, fault_time_s=0.0, seed=1, tuned=True, modes=("sprc_only", "proposed"))
    # proposed without sprc_only still forks off an sprc_only trunk
    @example(fault_blade=3, fault_time_s=40.0, seed=0, tuned=True, modes=("baseline", "proposed"))
    @example(fault_blade=3, fault_time_s=40.0, seed=0, tuned=True, modes=("proposed",))
    @settings(max_examples=12, deadline=None)
    def test_forked_arms_equal_independent_runs(
        self, lc3_bank, fault_blade, fault_time_s, seed, tuned, modes
    ):
        # the blade 3 snapshot stands in for every blade; an empty bank has no
        # entry: the stuck blade freezes, but nothing is switched
        bank = supervisor.PretunedBank()
        if tuned and fault_blade:
            entry = lc3_bank.get(3)
            bank.add(replace(entry, config=replace(entry.config, fault_blade=fault_blade)))
        cfg = RunConfig(
            mode="proposed", load_case="LC3", seed=seed, duration_s=80.0,
            fault_blade=fault_blade, fault_time_s=fault_time_s,
        )
        with mock.patch.object(harness._Stepper, "fork", autospec=True,
                               side_effect=harness._Stepper.fork) as fork:
            forked = compare_modes(cfg, bank=bank, modes=modes)["results"]
        alone = {
            mode: run_simulation(replace(cfg, mode=mode), bank=bank)
            for mode in dict.fromkeys((*modes, "proposed"))
        }
        assert list(forked) == list(modes)
        assert fork.call_count == ("proposed" in modes)
        for mode in modes:
            _assert_same_run(forked[mode], alone[mode])
        # the law changes only at period boundaries: each whole period runs
        # the coefficients recorded for it, the switched period included
        proposed, P = alone["proposed"], cfg.period_samples
        decision = proposed.report.decision_sample
        basis = sprc.build_basis(P)
        for j, coeffs in enumerate(proposed.coeff_history):
            assert proposed.series["sprc"][j * P : (j + 1) * P].tobytes() == (basis @ coeffs.T).tobytes()
        # the switch comes at the first boundary after the decision, if the run gets there
        switch = proposed.report.switch_sample
        if decision is None or (decision // P + 1) * P >= cfg.n_samples:
            assert switch is None and not proposed.report.switch_applied
        else:
            assert switch == (decision // P + 1) * P
        event("no decision" if decision is None else "no boundary left" if switch is None else "switched")
        event(f"switch applied {proposed.report.switch_applied}")
        event(f"modes {modes}")

    def test_only_an_adaptive_run_forks_before_its_decision_acts(self, lc3_bank):
        cfg = short_cfg(duration_s=20.0, fault_blade=3, fault_time_s=5.0)
        run = harness._Stepper(replace(cfg, mode="baseline"), None)
        with pytest.raises(ValueError, match="forks"):
            run.fork("proposed", lc3_bank)
        run = harness._Stepper(cfg, None)
        with pytest.raises(ValueError, match="forks"):
            run.fork("baseline", None)
        # stopped at the end of the chunk that latches, the boundary where
        # proposed would switch, it forks
        run.advance(cfg.n_samples, until_decision=True)
        P, decision = cfg.period_samples, run.fuser.confirmed_at
        assert run.fuser.d_fd == 3 and run.k == (decision // P + 1) * P < cfg.n_samples
        run.fork("proposed", lc3_bank)
        # so does a run cut between the decision and that boundary
        cut = harness._Stepper(cfg, None)
        cut.advance(decision + 1)
        cut.fork("proposed", lc3_bank)
        # one sample past the boundary the decision has acted
        run.advance(run.k + 1)
        with pytest.raises(ValueError, match="forks"):
            run.fork("proposed", lc3_bank)
        run.advance(cfg.n_samples)
        with pytest.raises(ValueError, match="forks"):
            run.fork("proposed", lc3_bank)
        with pytest.raises(ValueError, match="bank"):
            harness._Stepper(cfg, None).fork("proposed", None)

    @staticmethod
    def _spans(cfg, bank, modes=("sprc_only", "proposed")):
        """The comparison of cfg, and the (mode, a, b) of every span it simulated."""
        spans = []

        def record(run, a, b):
            spans.append((run.cfg.mode, a, b))
            return simulate(run, a, b)

        simulate = harness._Stepper._simulate_span
        with mock.patch.object(harness._Stepper, "_simulate_span", autospec=True, side_effect=record):
            results = compare_modes(cfg, bank=bank, modes=modes)["results"]
        return results, spans

    @staticmethod
    def _coverage(spans, mode, n):
        covered = np.zeros(n, dtype=int)
        for _, a, b in (span for span in spans if span[0] == mode):
            covered[a:b] += 1
        return covered

    def test_the_trunk_simulates_each_sample_once(self, lc3_bank):
        cfg = RunConfig(
            mode="proposed", load_case="LC3", seed=0, duration_s=80.0, fault_blade=3, fault_time_s=40.0
        )
        results, spans = self._spans(cfg, lc3_bank)
        N, P = cfg.n_samples, cfg.period_samples
        switch = results["proposed"].report.switch_sample
        assert switch is not None and 0 < switch < N
        np.testing.assert_array_equal(self._coverage(spans, "sprc_only", N), 1)
        # the arm forks at the switch and simulates only the samples from there on, once
        arm = self._coverage(spans, "proposed", N)
        np.testing.assert_array_equal(arm[:switch], 0)
        np.testing.assert_array_equal(arm[switch:], 1)
        # without sprc_only the trunk stops at the fork: the adaptive run simulates N samples
        _, spans = self._spans(cfg, lc3_bank, ("baseline", "proposed"))
        trunk = self._coverage(spans, "sprc_only", N)
        np.testing.assert_array_equal(trunk[:switch], 1)
        np.testing.assert_array_equal(trunk[switch:], 0)
        np.testing.assert_array_equal(self._coverage(spans, "proposed", N)[switch:], 1)
        np.testing.assert_array_equal(self._coverage(spans, "baseline", N), 1)

    def test_a_pair_without_a_decision_simulates_one_run(self):
        cfg = short_cfg(duration_s=80.0)
        results, spans = self._spans(cfg, None)
        assert results["sprc_only"].report.decision_sample is None
        assert sum(b - a for _, a, b in spans) == cfg.n_samples
        np.testing.assert_array_equal(self._coverage(spans, "sprc_only", cfg.n_samples), 1)


class TestPipelinedBoundary:
    """The run against its sequential oracle, and what a period boundary commits."""

    @given(
        mode=st.sampled_from(("sprc_only", "proposed", "offline_tune")),
        fault_blade=st.integers(1, 3),
        fault_time_s=st.floats(0.0, 75.0),
        seed=st.integers(0, 2**16),
    )
    # the stuck blade's Riccati solves fail: periods with a DareError fallback blade
    @example(mode="offline_tune", fault_blade=2, fault_time_s=0.0, seed=0)
    @settings(max_examples=25, deadline=None)
    def test_equals_the_sequential_oracle(self, lc3_bank, mode, fault_blade, fault_time_s, seed):
        if mode == "offline_tune":
            fault_time_s = 0.0  # its fault acts from the first sample
        # the blade 3 snapshot stands in for every blade
        entry = lc3_bank.get(3)
        bank = supervisor.PretunedBank()
        bank.add(replace(entry, config=replace(entry.config, fault_blade=fault_blade)))
        cfg = RunConfig(
            mode=mode, load_case="LC3", seed=seed, duration_s=80.0,
            fault_blade=fault_blade, fault_time_s=fault_time_s,
        )
        result = run_simulation(cfg, bank=bank)
        _assert_same_run(result, sequential_run(cfg, bank))
        report = result.report
        event(f"gain fallbacks {report.gain_failures > 0}")
        event(f"switched {report.switch_sample is not None}")

    @staticmethod
    def _stepper_before_an_adapting_boundary():
        """A run stopped one chunk before a boundary whose update adapts, and that boundary."""
        cfg = short_cfg(duration_s=60.0)
        P = cfg.period_samples
        run = harness._Stepper(cfg, None)
        run.advance((START_PERIOD + 2) * P)
        return run, (START_PERIOD + 3) * P

    def test_a_gain_error_commits_nothing(self, monkeypatch):
        run, boundary = self._stepper_before_an_adapting_boundary()
        law = run.law
        before = (law.coeffs.copy(), law._dcoeffs.copy(), law._load_proj_prev.copy())
        gains, failures, rows = list(law._gains), law.gain_failures, run.identifier.rows()
        update_gain, designed = sprc.update_gain, []

        def failing_on_the_last_blade(*args, **kwargs):
            designed.append(True)
            if len(designed) == 3:
                raise RuntimeError("gain failed")
            return update_gain(*args, **kwargs)

        monkeypatch.setattr(sprc, "update_gain", failing_on_the_last_blade)
        with pytest.raises(RuntimeError, match="gain failed"):
            run.advance(boundary)
        # every blade absorbed the chunk, and the two gains designed first were not committed
        assert (run.identifier.rows() != rows).any(axis=1).all()
        for got, want in zip((law.coeffs, law._dcoeffs, law._load_proj_prev), before):
            np.testing.assert_array_equal(got, want)
        assert all(got is want for got, want in zip(law._gains, gains))
        assert law.gain_failures == failures

    def test_a_fallback_blade_keeps_its_gain_and_the_others_move(self, monkeypatch):
        run, boundary = self._stepper_before_an_adapting_boundary()
        twin = run.fork("sprc_only", None)
        twin.advance(boundary)
        previous = run.law._gains[0]
        failed = []
        solve = sprc.solve_dare

        def failing_once(*args):
            # blade 0 is designed first
            if not failed:
                failed.append(True)
                raise DareError("no stabilizing solution")
            return solve(*args)

        monkeypatch.setattr(sprc, "solve_dare", failing_once)
        run.advance(boundary)
        assert failed == [True]
        assert run.law.gain_failures == twin.law.gain_failures + 1
        assert not run.law._gains[0].ok
        assert run.law._gains[0].gain.tobytes() == previous.gain.tobytes()
        for blade in (1, 2):
            assert run.law._gains[blade].gain.tobytes() == twin.law._gains[blade].gain.tobytes()
            assert run.law.coeffs[blade].tobytes() == twin.law.coeffs[blade].tobytes()


def _cut_run(stepper, cfg, bank, cuts):
    """A run of cfg on the given stepper class, advanced to each cut and then to the end."""
    with single_blas_thread():
        run = stepper(cfg, harness._run_bank(cfg, bank))
        for cut in (*sorted(cuts), cfg.n_samples):
            run.advance(cut)
        return run.result()


class TestDecimatedIdentification:
    """Identification on every D-th sample, D = IDENT_DECIMATION, whatever the chunks."""

    @given(
        mode=st.sampled_from(("sprc_only", "proposed")),
        fault_time_s=st.floats(0.0, 75.0),
        seed=st.integers(0, 2**16),
        cuts=st.sets(st.integers(1, 7999), max_size=6),
    )
    # the decision falls on sample 2012 and the switch at 2500; cuts off the
    # grid fall inside the warm-up, between the decision and the switch, and
    # after the switch
    @example(mode="proposed", fault_time_s=20.0, seed=0, cuts={501, 1003, 2103, 2502})
    # a cut leaves the chunk 3121..3124 before an adapting boundary
    @example(mode="sprc_only", fault_time_s=0.0, seed=0, cuts={3121})
    @settings(max_examples=20, deadline=None)
    def test_runs_cut_off_the_grid_equal_the_oracle(self, lc3_bank, mode, fault_time_s, seed, cuts):
        cfg = RunConfig(
            mode=mode, load_case="LC3", seed=seed, duration_s=80.0,
            fault_blade=3, fault_time_s=fault_time_s,
        )
        D = harness.IDENT_DECIMATION
        got = _cut_run(harness._Stepper, cfg, lc3_bank, cuts)
        _assert_same_run(got, _cut_run(SequentialStepper, cfg, lc3_bank, cuts))
        off_grid = np.arange(cfg.n_samples) % D != 0
        assert (got.series["ident_res"][off_grid] == 0.0).all()
        event(f"a cut off the grid {any(c % D for c in cuts)}")

    def test_a_whole_run_equals_the_oracle_at_both_rates(self, monkeypatch):
        for D, p in ((5, 20), (1, 100)):
            monkeypatch.setattr(harness, "IDENT_DECIMATION", D)
            cfg = short_cfg(duration_s=80.0, fault_blade=3, fault_time_s=40.0, past_window=p)
            _assert_same_run(run_simulation(cfg), sequential_run(cfg))

    def test_ident_res_holds_the_identified_samples_only(self, healthy_run):
        cfg, result = healthy_run
        D, P, p = harness.IDENT_DECIMATION, cfg.period_samples, cfg.past_window
        res = result.series["ident_res"]
        grid = np.arange(res.shape[0]) % D == 0
        assert D > 1
        assert (res[~grid] == 0.0).all()
        # every identified sample past the warm-up of P/D + p identified samples has one
        identified = grid & (np.arange(res.shape[0]) >= P + D * p)
        assert (res[identified] != 0.0).all()
        assert (res[: P + D * p] == 0.0).all()

    def test_forgetting_keeps_its_memory_in_seconds(self, monkeypatch):
        lam = harness.FORGETTING_PER_SAMPLE
        for D in (1, 5):
            monkeypatch.setattr(harness, "IDENT_DECIMATION", D)
            run = harness._Stepper(short_cfg(), None)
            assert run.identifier.estimators[0].forgetting == lam**D
