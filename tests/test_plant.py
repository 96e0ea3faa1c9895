import numpy as np
import pytest

from oracles import azimuth, periodic_disturbance
from pitchftc.numerics import psd_estimate
from pitchftc.harness import RunConfig
from pitchftc.plant import LOAD_CASES, LoadCase, Plant

TS = 0.01
P = 625


def quiet_case(amplitude=0.0, collective=10.0):
    return LoadCase("LC1", 12.0, amplitude, collective, 20.0, 0.0)


class TestLoadCases:
    def test_table_rows(self):
        assert LOAD_CASES["LC1"].u_hub == 12.0
        assert LOAD_CASES["LC1"].stuck_angle == 20.0
        assert LOAD_CASES["LC2"].u_hub == 16.0
        assert LOAD_CASES["LC2"].stuck_angle == 0.0
        assert LOAD_CASES["LC3"].u_hub == 20.0
        assert LOAD_CASES["LC3"].stuck_angle == 10.0

    def test_amplitudes_monotone_in_wind(self):
        amps = [LOAD_CASES[k].disturbance_amplitude for k in ("LC1", "LC2", "LC3")]
        assert amps == sorted(amps)

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError, match="load_case must be one of"):
            RunConfig(load_case="LC9")


class TestPeriodicDisturbance:
    # the oracle's azimuth formula; the plant's table is checked against it
    def test_zero_at_zero_azimuth_blade_one(self):
        lc = LOAD_CASES["LC3"]
        assert periodic_disturbance(0.0, 1, lc) == 0.0
        assert Plant(lc, TS, P, -30.0).disturbance_table[0, 0] == 0.0

    def test_blade_phases_offset_by_120_degrees(self):
        lc = LOAD_CASES["LC2"]
        az = 1.234
        d1 = periodic_disturbance(az, 1, lc)
        d2 = periodic_disturbance(az + 2 * np.pi / 3, 1, lc)
        assert periodic_disturbance(az, 2, lc) == pytest.approx(d2, abs=1e-12)

    def test_exactly_periodic_in_the_sample_grid(self):
        lc = LOAD_CASES["LC1"]
        plant = Plant(lc, TS, P, -30.0)
        table = plant.disturbance_table
        # periodic continuation: the table itself is one exact period
        idx = (np.arange(3 * P)) % P
        tiled = table[idx]
        np.testing.assert_array_equal(tiled[:P], tiled[P : 2 * P])
        expected = [
            [periodic_disturbance(azimuth(k, P), b, lc) for b in (1, 2, 3)] for k in range(P)
        ]
        np.testing.assert_allclose(table, expected, rtol=0, atol=1e-12)

    def test_zero_mean_over_one_period(self):
        lc = LOAD_CASES["LC3"]
        total = sum(
            periodic_disturbance(2 * np.pi * k / P, 2, lc) for k in range(P)
        )
        assert abs(total) < 1e-9 * lc.disturbance_amplitude
        table_sums = Plant(lc, TS, P, -30.0).disturbance_table.sum(axis=0)
        assert np.abs(table_sums).max() < 1e-9 * lc.disturbance_amplitude


class TestPlant:
    def test_collective_pitch_gives_pure_disturbance(self):
        lc = LOAD_CASES["LC2"]
        plant = Plant(lc, TS, P, -30.0)
        pitch = np.full((2 * P, 3), lc.collective_setpoint)
        y = plant.run_chunk(pitch, 0, np.zeros_like(pitch))
        idx = np.arange(2 * P) % P
        np.testing.assert_allclose(y, plant.disturbance_table[idx], atol=1e-12)

    def test_dc_gain_of_pitch_offset(self):
        lc = quiet_case()
        plant = Plant(lc, TS, P, -30.0)
        pitch = np.tile([lc.collective_setpoint + 2.0, lc.collective_setpoint, lc.collective_setpoint], (3000, 1))
        y = plant.run_chunk(pitch, 0, np.zeros_like(pitch))
        assert y[-1, 0] == pytest.approx(-30.0 * 2.0, rel=1e-3)
        np.testing.assert_allclose(y[-1, 1:], 0.0, atol=1e-9)

    def test_periodic_once_transients_decay(self):
        lc = LOAD_CASES["LC1"]
        plant = Plant(lc, TS, P, -30.0)
        rng = np.random.default_rng(0)
        # arbitrary periodic pitch pattern
        pattern = lc.collective_setpoint + rng.normal(0, 2, size=(P, 3))
        pitch = np.tile(pattern, (8, 1))
        y = plant.run_chunk(pitch, 0, np.zeros_like(pitch))
        late = y[5 * P :]
        np.testing.assert_allclose(late[:P], late[P : 2 * P], atol=1e-6)

    def test_saturated_pitch_is_clipped(self):
        lc = quiet_case(collective=0.0)
        plant = Plant(lc, TS, P, -30.0)
        pitch = np.full((500, 3), -30.0)
        y = plant.run_chunk(pitch, 0, np.zeros_like(pitch))
        # deviation is clipped at -5, not -30
        assert y[-1, 0] == pytest.approx(-30.0 * -5.0, rel=1e-2)

    def test_deterministic_under_identical_noise(self):
        lc = LOAD_CASES["LC3"]
        noise = np.random.default_rng(1).normal(0, lc.noise_std, size=(500, 3))
        pitch = np.full((500, 3), lc.collective_setpoint)
        y1 = Plant(lc, TS, P, -30.0).run_chunk(pitch, 0, noise)
        y2 = Plant(lc, TS, P, -30.0).run_chunk(pitch, 0, noise)
        np.testing.assert_array_equal(y1, y2)

    def test_step_matches_chunk(self):
        lc = LOAD_CASES["LC2"]
        rng = np.random.default_rng(2)
        pitch = lc.collective_setpoint + rng.normal(0, 1, size=(50, 3))
        chunk = Plant(lc, TS, P, -30.0).run_chunk(pitch, 0, np.zeros_like(pitch))
        stepper = Plant(lc, TS, P, -30.0)
        single = np.vstack([stepper.run_chunk(pitch[k : k + 1], k, np.zeros((1, 3))) for k in range(50)])
        np.testing.assert_allclose(single, chunk, atol=1e-12)

    def test_open_loop_psd_peak_at_rotor_frequency(self):
        lc = LOAD_CASES["LC3"]
        plant = Plant(lc, TS, P, -30.0)
        n = 40 * P
        noise = np.random.default_rng(3).normal(0, lc.noise_std, size=(n, 3))
        pitch = np.full((n, 3), lc.collective_setpoint)
        y = plant.run_chunk(pitch, 0, noise)
        freqs, power = psd_estimate(y[:, 0], 1.0 / TS, segment=4 * P)
        assert freqs[np.argmax(power)] == pytest.approx(0.16, abs=1e-9)
