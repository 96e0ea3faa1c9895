import json
import logging
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from pitchftc import harness, supervisor
from pitchftc.plant import LOAD_CASES
from pitchftc.sprc import PRBS_AMPLITUDE, MarkovIdentifier, RepetitiveLaw, build_basis, generate_prbs
from pitchftc.supervisor import (
    BankEntry,
    PretunedBank,
    compose_pitch_command,
    on_detection,
)


def make_entry(p=4, blade=3):
    rng = np.random.default_rng(0)
    return BankEntry(
        config=harness.RunConfig(
            mode="offline_tune", seed=7, fault_blade=blade, fault_time_s=0.0, past_window=p
        ),
        coeffs=rng.normal(size=(3, 2)).tolist(),
        markov_rows=rng.normal(size=(3, 2 * p)).tolist(),
        converged_period=12,
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
        # v1, v2 and v4 store configs with keys that are fixed values now; a
        # v3 bank was tuned identifying on every sample, at 100 Hz
        old = ("pitchftc-bank-v1", "pitchftc-bank-v2", "pitchftc-bank-v3", "pitchftc-bank-v4")
        for schema in old:
            PretunedBank({3: make_entry()}).save(path)
            payload = json.loads(path.read_text())
            path.write_text(json.dumps({**payload, "schema": schema}))
            with pytest.raises(ValueError, match="unrecognized bank schema"):
                PretunedBank.load(path)

    @pytest.mark.parametrize(
        "corrupt, named",
        [
            (lambda e: e["3"]["markov_rows"][1].pop(), None),
            (lambda e: e["3"]["markov_rows"].pop(), None),
            (lambda e: e["3"]["coeffs"][0].append(0.0), None),
            (lambda e: e["3"]["coeffs"][2].__setitem__(1, float("nan")), None),
            (lambda e: e["3"]["config"].__setitem__("fault_blade", 2), None),
            (lambda e: e["3"]["coeffs"][0].__setitem__(0, True), None),
            # only the keys save writes: "03" is not another spelling of blade 3,
            # nor may it shadow the "3" beside it
            (lambda e: e.__setitem__("03", e.pop("3")), "03"),
            (lambda e: e.__setitem__("03", e["3"]), "03"),
            (lambda e: e.__setitem__("x", e.pop("3")), "x"),
            # an entry tuned without a fault is no entry for any blade
            (lambda e: e.__setitem__("0", asdict(make_entry(blade=3)) | {
                "config": harness.RunConfig(mode="baseline", fault_blade=0, past_window=4).to_dict()
            }), "0"),
            # json.dumps writes the int key 3 as "3" as well, so the file holds
            # blade 3 twice, and json alone would keep the second entry
            (lambda e: e.__setitem__(3, asdict(make_entry()) | {"converged_period": 5}), "3"),
        ],
        ids=["truncated_markov_row", "missing_markov_row", "long_coeff_row", "nan_coeff",
             "key_mismatch", "bool_in_coeff_row", "padded_key", "padded_twin_key",
             "non_numeric_key", "unfaulted_entry", "repeated_key"],
    )
    def test_malformed_entry_rejected_at_load(self, tmp_path, corrupt, named):
        path = tmp_path / "bank.json"
        PretunedBank({3: make_entry()}).save(path)
        payload = json.loads(path.read_text())
        corrupt(payload["entries"])
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError) as info:
            PretunedBank.load(path)
        if named is not None:
            assert str(path) in str(info.value) and repr(named) in str(info.value)

    def test_entry_filed_under_another_blade_refused(self):
        # filed under blade 3, blade 2's snapshot would be the warm start of
        # a blade-3 fault, and the switch would report itself applied
        with pytest.raises(ValueError, match="bank key 3 holds the entry for blade 2"):
            PretunedBank({3: make_entry(blade=2)})
        assert PretunedBank({2: make_entry(blade=2)}).get(2).fault_blade == 2

    def test_entry_without_a_fault_refused(self):
        entry = asdict(make_entry())
        entry["config"] = harness.RunConfig(mode="baseline", fault_blade=0, past_window=4)
        with pytest.raises(ValueError, match="fault_blade 0"):
            BankEntry(**entry)

    def test_missing_entry_is_none(self):
        assert PretunedBank().get(2) is None

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_load_rejects_or_roundtrips(self, tmp_path_factory, data):
        # any edit of a valid file: dropped or added keys at every level,
        # wrong types, ragged or NaN arrays, a key that differs from the
        # blade, a bad schema.  The bank refuses it or survives a round trip.
        payload = {
            "schema": supervisor.BANK_SCHEMA,
            "entries": {str(b): asdict(make_entry(blade=b)) for b in (2, 3)},
        }
        junk = st.one_of(
            st.none(), st.booleans(), st.sampled_from([0, 1, 2, 3, -1]), st.integers(),
            st.floats(), st.text(max_size=4),
            st.lists(st.one_of(st.floats(), st.integers()), max_size=3),
            st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
        )
        for _ in range(data.draw(st.integers(1, 3), label="edits")):
            path, node = data.draw(st.sampled_from(list(_containers(payload))), label="at")
            keys = list(node) if isinstance(node, dict) else list(range(len(node)))
            edit = data.draw(st.sampled_from(["drop", "add", "set"] if keys else ["add"]))
            if edit == "add" and isinstance(node, dict):
                node[data.draw(st.text(max_size=6), label=f"add to {path}")] = data.draw(junk)
            elif edit == "add":
                node.append(data.draw(junk, label=f"append to {path}"))
            elif edit == "drop":
                del node[data.draw(st.sampled_from(keys), label=f"drop from {path}")]
            else:
                node[data.draw(st.sampled_from(keys), label=f"set in {path}")] = data.draw(junk)
        file = tmp_path_factory.mktemp("fuzz") / "bank.json"
        file.write_text(json.dumps(payload))
        try:
            bank = PretunedBank.load(file)
        except ValueError:
            event("rejected")
            return
        event("accepted")
        bank.save(file)
        assert PretunedBank.load(file).entries == bank.entries


def _containers(node, path="payload"):
    """Every JSON object and array inside ``node``, with where it is."""
    yield path, node
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _containers(value, f"{path}[{key!r}]")


class TestCompose:
    def test_zero_contributions_give_setpoint(self):
        lc = LOAD_CASES["LC3"]
        u = compose_pitch_command(lc, np.zeros(3), np.zeros(3))
        np.testing.assert_array_equal(u, lc.collective_setpoint)

    def test_additive_composition(self):
        lc = LOAD_CASES["LC3"]  # setpoint 19
        u = compose_pitch_command(lc, np.array([1.0, -1.0, 0.0]), np.zeros(3))
        np.testing.assert_allclose(u, [20.0, 18.0, 19.0])

    def test_amplitude_bound(self):
        lc = LOAD_CASES["LC2"]
        law = RepetitiveLaw(build_basis(625))
        rng = np.random.default_rng(1)
        law.set_coeffs(rng.normal(0, 5, size=(3, 2)))
        bound = np.linalg.norm(law.coeffs, axis=1) + PRBS_AMPLITUDE
        prbs = generate_prbs(625, rng, 0.01)
        for k in range(0, 625, 50):
            u = compose_pitch_command(lc, law.output_slice(k, 1)[0], prbs[k])
            assert np.all(np.abs(u - lc.collective_setpoint) <= bound + 1e-9)


class TestOnDetection:
    def setup_method(self):
        self.identifier = MarkovIdentifier(4, forgetting=0.99999)
        self.law = RepetitiveLaw(build_basis(625))
        self.entry = make_entry()
        self.bank = PretunedBank({3: self.entry})

    def test_healthy_decision_is_noop(self):
        applied = on_detection(0, self.bank, self.identifier, self.law, self.entry.config)
        assert not applied
        assert not self.law.frozen.any()

    def test_switch_replaces_state_and_freezes_blade(self):
        applied = on_detection(3, self.bank, self.identifier, self.law, self.entry.config)
        assert applied
        np.testing.assert_array_equal(self.law.coeffs, self.entry.coeffs_array())
        np.testing.assert_allclose(
            self.identifier.rows(), self.entry.markov_array(), rtol=1e-12
        )
        assert self.law.frozen[2]
        assert not self.law.frozen[:2].any()
        # the law's mask is the identification's too: a flush leaves blade 3 alone
        rows = self.identifier.rows()
        rng = np.random.default_rng(1)
        self.identifier.update_block(rng.normal(size=(20, 8, 3)), rng.normal(size=(20, 3)), self.law.frozen)
        np.testing.assert_array_equal(self.identifier.rows()[2], rows[2])
        assert not np.array_equal(self.identifier.rows()[:2], rows[:2])

    def test_missing_entry_degrades_with_warning(self, caplog):
        before = self.law.coeffs.copy()
        with caplog.at_level(logging.WARNING):
            applied = on_detection(2, self.bank, self.identifier, self.law, self.entry.config)
        assert not applied
        assert "no pre-tuned entry" in caplog.text
        np.testing.assert_array_equal(self.law.coeffs, before)
        # isolation itself is trusted: the stuck blade still freezes
        assert self.law.frozen[1]

    def test_configuration_mismatch_degrades(self, caplog):
        live = replace(self.entry.config, Ts=0.0125)
        with caplog.at_level(logging.WARNING):
            applied = on_detection(3, self.bank, self.identifier, self.law, live)
        assert not applied
        assert "different configuration (['Ts'] differ)" in caplog.text


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
        assert entry.config.load_case == "LC1"
        # the stuck angle it was tuned at, resolved from the load case
        assert entry.config.fault_angle == LOAD_CASES["LC1"].stuck_angle
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
        start = harness.START_PERIOD + 1
        eps, floor = harness.CONVERGENCE_EPS, harness.CONVERGENCE_FLOOR
        for j in range(start, history.shape[0]):
            inc = np.linalg.norm(history[j] - history[j - 1], axis=1).max()
            scale = max(np.linalg.norm(history[j], axis=1).max(), floor)
            assert inc < eps * scale

    def test_tuning_a_late_fault_is_refused(self):
        # what `pitchftc tune --config configs/run_lc3_proposed.json` runs: its
        # fault starts at 900 s, so the run would converge healthy and store that
        cfg = harness.RunConfig.from_json_file(
            Path(__file__).resolve().parents[1] / "configs" / "run_lc3_proposed.json"
        )
        with pytest.raises(ValueError, match="offline_tune requires a configured fault from the first sample"):
            supervisor.offline_tune(cfg)

    def test_unconverged_tuning_raises(self, tune_cfg):
        short = replace(tune_cfg, duration_s=60.0)
        with pytest.raises(RuntimeError, match="did not converge"):
            supervisor.offline_tune(short)
