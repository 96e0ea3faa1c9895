import json
import logging
from dataclasses import replace

import numpy as np
import pytest

from pitchftc import harness, supervisor
from pitchftc.plant import load_case_params
from pitchftc.sprc import MarkovIdentifier, RepetitiveLaw, build_basis
from pitchftc.supervisor import (
    BankEntry,
    PretunedBank,
    compose_pitch_command,
    on_detection,
)


def make_entry(p=4, blade=3, config_hash="abc"):
    rng = np.random.default_rng(0)
    return BankEntry(
        fault_blade=blade,
        load_case="LC3",
        coeffs=rng.normal(size=(3, 2)).tolist(),
        markov_rows=rng.normal(size=(3, 2 * p)).tolist(),
        forgetting=0.99999,
        period_samples=625,
        past_window=p,
        config_hash=config_hash,
        converged_period=12,
        seed=7,
    )


class TestBank:
    def test_roundtrip_preserves_floats_exactly(self, tmp_path):
        bank = PretunedBank({3: make_entry()})
        path = tmp_path / "bank.json"
        bank.save(path)
        loaded = PretunedBank.load(path)
        np.testing.assert_array_equal(
            loaded.get(3).coeffs_array(), bank.get(3).coeffs_array()
        )
        np.testing.assert_array_equal(
            loaded.get(3).markov_array(), bank.get(3).markov_array()
        )

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "bank.json"
        path.write_text(json.dumps({"schema": "other", "entries": {}}))
        with pytest.raises(ValueError, match="schema"):
            PretunedBank.load(path)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda e: e["markov_rows"][1].pop(),
            lambda e: e["markov_rows"].pop(),
            lambda e: e["coeffs"][0].append(0.0),
            lambda e: e["coeffs"][2].__setitem__(1, float("nan")),
            lambda e: e.__setitem__("fault_blade", 2),
        ],
        ids=["truncated_markov_row", "missing_markov_row", "long_coeff_row", "nan_coeff",
             "key_mismatch"],
    )
    def test_malformed_entry_rejected_at_load(self, tmp_path, corrupt):
        path = tmp_path / "bank.json"
        PretunedBank({3: make_entry()}).save(path)
        payload = json.loads(path.read_text())
        corrupt(payload["entries"]["3"])
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            PretunedBank.load(path)

    def test_missing_entry_is_none(self):
        assert PretunedBank().get(2) is None


class TestCompose:
    def test_zero_contributions_give_setpoint(self):
        lc = load_case_params("LC3")
        u = compose_pitch_command(lc, np.zeros(3), np.zeros(3))
        np.testing.assert_array_equal(u, lc.collective_setpoint)

    def test_additive_composition(self):
        lc = load_case_params("LC3")  # setpoint 19
        u = compose_pitch_command(lc, np.array([1.0, -1.0, 0.0]), np.zeros(3))
        np.testing.assert_allclose(u, [20.0, 18.0, 19.0])

    def test_amplitude_bound(self):
        lc = load_case_params("LC2")
        law = RepetitiveLaw(build_basis(625))
        rng = np.random.default_rng(1)
        law.set_coeffs(rng.normal(0, 5, size=(3, 2)))
        bound = np.linalg.norm(law.coeffs, axis=1) + 3.0
        from pitchftc.sprc import generate_prbs

        prbs = generate_prbs(625, rng, amplitude=3.0)
        for k in range(0, 625, 50):
            u = compose_pitch_command(lc, law.output_slice(k, 1)[0], prbs[k])
            assert np.all(np.abs(u - lc.collective_setpoint) <= bound + 1e-9)


class TestOnDetection:
    def setup_method(self):
        self.identifier = MarkovIdentifier(4)
        self.law = RepetitiveLaw(build_basis(625))
        self.entry = make_entry()
        self.bank = PretunedBank({3: self.entry})

    def test_healthy_decision_is_noop(self):
        applied = on_detection(0, self.bank, self.identifier, self.law)
        assert not applied
        assert not self.law.frozen.any()

    def test_switch_replaces_state_and_freezes_blade(self):
        applied = on_detection(3, self.bank, self.identifier, self.law)
        assert applied
        np.testing.assert_array_equal(self.law.coeffs, self.entry.coeffs_array())
        np.testing.assert_allclose(
            self.identifier.rows(), self.entry.markov_array(), rtol=1e-12
        )
        assert self.law.frozen[2] and self.identifier.frozen[2]
        assert not self.law.frozen[:2].any()

    def test_missing_entry_degrades_with_warning(self, caplog):
        before = self.law.coeffs.copy()
        with caplog.at_level(logging.WARNING):
            applied = on_detection(2, self.bank, self.identifier, self.law)
        assert not applied
        assert "no pre-tuned entry" in caplog.text
        np.testing.assert_array_equal(self.law.coeffs, before)
        # isolation itself is trusted: the stuck blade still freezes
        assert self.law.frozen[1]

    def test_configuration_mismatch_degrades(self, caplog):
        with caplog.at_level(logging.WARNING):
            applied = on_detection(3, self.bank, self.identifier, self.law, expected_hash="zzz")
        assert not applied
        assert "different configuration" in caplog.text


@pytest.fixture(scope="module")
def tune_cfg():
    return harness.RunConfig(
        mode="offline_tune",
        load_case="LC1",
        seed=42,
        duration_s=500.0,
        fault_blade=3,
        fault_time_s=0.0,
    )


class TestOfflineTune:
    def test_converged_snapshot_stored_for_faulty_blade(self, tune_cfg):
        entry, report = supervisor.offline_tune(tune_cfg)
        assert entry.fault_blade == 3
        assert entry.load_case == "LC1"
        assert report.converged_period == entry.converged_period
        assert entry.converged_period is not None
        # stuck blade has no authority: its waveform stays off
        np.testing.assert_array_equal(entry.coeffs_array()[2], 0.0)
        assert np.linalg.norm(entry.coeffs_array()[0]) > 0.5

    def test_identical_seed_reproduces_snapshot_bit_exactly(self, tune_cfg):
        entry_a, _ = supervisor.offline_tune(tune_cfg)
        entry_b, _ = supervisor.offline_tune(tune_cfg)
        np.testing.assert_array_equal(entry_a.coeffs_array(), entry_b.coeffs_array())
        np.testing.assert_array_equal(entry_a.markov_array(), entry_b.markov_array())
        assert entry_a.converged_period == entry_b.converged_period

    def test_warm_started_faulty_run_is_quiet_from_the_start(self, tune_cfg):
        entry, _ = supervisor.offline_tune(tune_cfg)
        bank = PretunedBank({3: entry})
        # fault from the start: isolation fires within the first period and
        # swaps in the snapshot, so no visible re-adaptation should occur
        cfg = replace(
            tune_cfg, mode="proposed", duration_s=150.0, fault_time_s=0.0
        )
        result = harness.run_simulation(cfg, bank=bank)
        assert result.report.switch_applied
        history = result.coeff_history
        start = cfg.start_period + 1
        eps, floor = cfg.convergence_eps, cfg.convergence_floor
        for j in range(start, history.shape[0]):
            inc = np.linalg.norm(history[j] - history[j - 1], axis=1).max()
            scale = max(np.linalg.norm(history[j], axis=1).max(), floor)
            assert inc < eps * scale

    def test_unconverged_tuning_raises(self, tune_cfg):
        short = replace(tune_cfg, duration_s=60.0)
        with pytest.raises(RuntimeError, match="did not converge"):
            supervisor.offline_tune(short)
