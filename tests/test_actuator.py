import numpy as np
import pytest

from oracles import apply_pas_fault
from pitchftc.actuator import ActuatorBank, FaultDescriptor

TS = 0.01


def one_row(bank, u_ref, k):
    """Actuated pitch of one sample, through the chunked bank."""
    return bank.run_chunk(np.asarray(u_ref, dtype=float).reshape(1, 3), k)[0]


class TestApplyPasFault:
    # the oracle's stuck mask, and the chunked bank on one-row slices against
    # the mask applied to the healthy bank's output
    def test_inactive_before_start(self):
        fault = FaultDescriptor(3, 10.0, 50)
        u = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(apply_pas_fault(u, fault, 49), u)
        healthy = one_row(ActuatorBank(TS), u, 49)
        np.testing.assert_array_equal(one_row(ActuatorBank(TS, fault), u, 49), healthy)

    def test_no_change_when_command_equals_stuck_angle(self):
        fault = FaultDescriptor(3, 10.0, 0)
        u = np.array([1.0, 2.0, 10.0])
        np.testing.assert_array_equal(apply_pas_fault(u, fault, 5), u)
        bank = ActuatorBank(TS, fault)
        bank.init_steady(u)
        np.testing.assert_allclose(one_row(bank, u, 5), u, atol=1e-12)

    def test_substitution(self):
        fault = FaultDescriptor(3, 10.0, 0)
        np.testing.assert_array_equal(
            apply_pas_fault(np.array([0.0, 0.0, -3.0]), fault, 0), [0.0, 0.0, 10.0]
        )
        u = np.array([0.0, 0.0, -3.0])
        healthy = one_row(ActuatorBank(TS), u, 0)
        np.testing.assert_array_equal(
            one_row(ActuatorBank(TS, fault), u, 0), apply_pas_fault(healthy, fault, 0)
        )

    def test_none_fault_passthrough(self):
        u = np.array([4.0, 5.0, 6.0])
        np.testing.assert_array_equal(apply_pas_fault(u, None, 100), u)
        bank = ActuatorBank(TS)
        bank.init_steady(u)
        np.testing.assert_allclose(one_row(bank, u, 100), u, atol=1e-12)

    def test_invalid_blade_rejected(self):
        with pytest.raises(ValueError):
            FaultDescriptor(4, 0.0, 0)


class TestActuatorBank:
    def test_stuck_output_from_fault_sample(self):
        bank = ActuatorBank(TS, fault=FaultDescriptor(3, 10.0, 0))
        bank.init_steady(np.full(3, 5.0))
        u = bank.run_chunk(np.full((200, 3), 5.0), 0)
        np.testing.assert_allclose(u[:, :2], 5.0, atol=1e-9)
        np.testing.assert_array_equal(u[:, 2], 10.0)

    def test_tracks_constant_reference_with_unit_gain(self):
        bank = ActuatorBank(TS)
        u = bank.run_chunk(np.full((1000, 3), 7.0), 0)  # 10 s
        np.testing.assert_allclose(u[-1], 7.0, rtol=1e-3)

    def test_stuck_at_zero_jumps_and_holds(self):
        k0 = 100
        bank = ActuatorBank(TS, fault=FaultDescriptor(3, 0.0, k0))
        bank.init_steady(np.full(3, 14.0))
        u = bank.run_chunk(np.full((300, 3), 14.0), 0)
        np.testing.assert_allclose(u[:k0, 2], 14.0, atol=1e-9)
        np.testing.assert_array_equal(u[k0:, 2], 0.0)
        np.testing.assert_allclose(u[:, :2], 14.0, atol=1e-9)

    def test_stuck_blade_ignores_reference(self):
        bank = ActuatorBank(TS, fault=FaultDescriptor(2, 5.0, 0))
        ref = np.zeros((400, 3))
        ref[:, 1] = 30.0 * np.sin(np.arange(400) / 20.0)
        u = bank.run_chunk(ref, 0)
        np.testing.assert_array_equal(u[:, 1], 5.0)

    def test_removing_fault_reproduces_healthy_prefix_bit_exactly(self):
        rng = np.random.default_rng(7)
        ref = rng.normal(5.0, 2.0, size=(500, 3))
        k0 = 250
        healthy = ActuatorBank(TS)
        faulty = ActuatorBank(TS, fault=FaultDescriptor(1, -2.0, k0))
        u_h = healthy.run_chunk(ref, 0)
        u_f = faulty.run_chunk(ref, 0)
        np.testing.assert_array_equal(u_f[:k0], u_h[:k0])
        # output fault: healthy internal response continues underneath
        np.testing.assert_array_equal(u_f[k0:, 1:], u_h[k0:, 1:])

    def test_step_matches_chunk(self):
        rng = np.random.default_rng(8)
        ref = rng.normal(0.0, 3.0, size=(60, 3))
        chunk = ActuatorBank(TS).run_chunk(ref, 0)
        stepper = ActuatorBank(TS)
        single = np.vstack([one_row(stepper, ref[k], k) for k in range(60)])
        np.testing.assert_allclose(single, chunk, atol=1e-12)

    def test_step_response_overshoot_matches_closed_form(self):
        # the lead zero raises the overshoot of the bare second-order lag;
        # compare against the analytic response of the full transfer function
        omega, damping = 6.28, 0.7
        bank = ActuatorBank(TS)
        u = bank.run_chunk(np.ones((600, 3)), 0)
        overshoot = u[:, 0].max() - 1.0

        t = np.arange(600) * TS
        b = 2 * damping / omega
        wd = omega * np.sqrt(1 - damping**2)
        decay = np.exp(-damping * omega * t)
        y_std = 1 - decay * (np.cos(wd * t) + damping / np.sqrt(1 - damping**2) * np.sin(wd * t))
        y_dot = omega / np.sqrt(1 - damping**2) * decay * np.sin(wd * t)
        expected = (y_std + b * y_dot).max() - 1.0
        assert overshoot == pytest.approx(expected, abs=5e-3)
        assert expected == pytest.approx(0.21, abs=0.01)
