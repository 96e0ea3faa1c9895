import copy
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import PipelineSystem, scalar_markov_row
from oracles import DeltaBuffers, lifted_transition_maps
from pitchftc import numerics, sprc
from pitchftc.numerics import psd_estimate
from pitchftc.sprc import (
    PRBS_AMPLITUDE,
    PRBS_TAU,
    GainResult,
    MarkovIdentifier,
    RepetitiveLaw,
    build_basis,
    build_lifted,
    build_regressor_block,
    generate_prbs,
    project,
    update_gain,
)


def simulate_scalar(a, b, c, l, n, P, rng, noise_std=0.01, dist_amp=1.0, u=None):
    """Scalar innovations-form plant with an exactly P-periodic output disturbance."""
    if u is None:
        u = np.where(rng.random(n) > 0.5, 1.0, -1.0)
    e = rng.normal(0.0, noise_std, size=n)
    d = dist_amp * np.sin(2 * np.pi * np.arange(n) / P)
    x = 0.0
    y = np.empty(n)
    for k in range(n):
        y[k] = c * x + d[k] + e[k]
        x = a * x + b * u[k] + l * e[k]
    return u, y


class TestBasis:
    def test_quarter_period_rows(self):
        basis = build_basis(4)
        np.testing.assert_allclose(
            basis, [[0, 1], [1, 0], [0, -1], [-1, 0]], atol=1e-12
        )

    def test_orthogonality(self):
        basis = build_basis(4)
        np.testing.assert_allclose(basis.T @ basis, 2.0 * np.eye(2), atol=1e-12)
        basis = build_basis(625)
        np.testing.assert_allclose(basis.T @ basis, 312.5 * np.eye(2), atol=1e-9)

    def test_projection_is_identity_on_basis(self):
        basis = build_basis(625)
        np.testing.assert_allclose(project(basis, basis), np.eye(2), atol=1e-10)

    @given(
        st.integers(min_value=4, max_value=2000),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=4),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_project_recovers_coefficients_and_stacks(self, P, m, n, data):
        basis = build_basis(P)
        coeffs = data.draw(arrays(float, (2, m), elements=st.floats(-1e3, 1e3)))
        scale = max(1.0, np.abs(coeffs).max())
        recovered = project(basis, basis @ coeffs)
        np.testing.assert_allclose(recovered, coeffs, rtol=0, atol=1e-12 * scale)

        periods = np.random.default_rng(P * m + n).normal(size=(n, P, m)) * scale
        stacked = project(basis, periods)
        assert stacked.shape == (n, 2, m)
        one_by_one = np.stack([project(basis, period) for period in periods])
        np.testing.assert_allclose(stacked, one_by_one, rtol=0, atol=1e-14 * scale)

    def test_minimum_length(self):
        with pytest.raises(ValueError):
            build_basis(3)


class TestDeltaBuffers:
    def test_not_warm_before_full_history(self):
        buf = DeltaBuffers(period_samples=20, past_window=5)
        for k in range(25):
            assert buf.update(np.full(3, k), np.full(3, -k)) is None
        assert buf.update(np.full(3, 25.0), np.full(3, -25.0)) is not None

    def test_periodic_signals_annihilated(self):
        P, p = 20, 5
        buf = DeltaBuffers(P, p)
        rng = np.random.default_rng(0)
        pattern_u = rng.normal(size=(P, 3))
        pattern_y = rng.normal(size=(P, 3))
        out = None
        for k in range(6 * P):
            out = buf.update(pattern_u[k % P], pattern_y[k % P])
        regressors, targets = out
        np.testing.assert_array_equal(regressors, 0.0)
        np.testing.assert_array_equal(targets, 0.0)

    def test_stuck_channel_differences_vanish_one_period_after_fault(self):
        P, p = 20, 5
        k0 = 100
        buf = DeltaBuffers(P, p)
        rng = np.random.default_rng(1)
        for k in range(260):
            u = rng.normal(size=3)
            if k >= k0:
                u[2] = 7.5  # stuck actuator output
            out = buf.update(u, rng.normal(size=3))
            if k >= k0 + P + p:
                regressors, _ = out
                np.testing.assert_array_equal(regressors[2, :p], 0.0)

    @given(
        P=st.integers(4, 40),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_block_builder(self, P, data, seed):
        # the block builder copies shifted slices of the differenced series,
        # so it must reproduce the per-sample regressors bit for bit
        p = data.draw(st.integers(1, P - 1), label="past window")
        n = P + p + data.draw(st.integers(0, 3 * P), label="samples after warm-up")
        lo = data.draw(st.integers(P + p, n), label="lo")
        hi = data.draw(st.integers(lo, n), label="hi")
        rng = np.random.default_rng(seed)
        u = rng.normal(size=(n, 3))
        y = rng.normal(size=(n, 3))
        buf = DeltaBuffers(P, p)
        stepwise = [buf.update(u[k], y[k]) for k in range(hi)]

        regressors, targets = build_regressor_block(u, y, lo, hi, P, p)
        assert regressors.shape == (hi - lo, 2 * p, 3)
        assert targets.shape == (hi - lo, 3)
        for blade in range(3):
            assert regressors[:, :, blade].flags.f_contiguous
        for i, (reg, tgt) in enumerate(stepwise[lo:hi]):
            np.testing.assert_array_equal(regressors[i].T, reg)
            np.testing.assert_array_equal(targets[i], tgt)


class TestIdentification:
    def test_recovers_true_markov_row(self):
        # dominant entries within 5% after ten disturbance periods of data
        sys = PipelineSystem()
        p, P, n = 6, 20_000, 10 * 20_000
        u, y = sys.simulate(n, seed=0, period=P)
        u3 = np.tile(u[:, None], (1, 3))
        y3 = np.tile(y[:, None], (1, 3))

        ident = MarkovIdentifier(p, forgetting=0.99999)
        for lo in range(P + p, n, 100_000):
            hi = min(lo + 100_000, n)
            regressors, targets = build_regressor_block(u3, y3, lo, hi, P, p)
            ident.update_block(regressors, targets)
        row = ident.rows()[0]
        truth = sys.markov_row(p)
        dominant = np.abs(truth) >= 0.01 * np.abs(truth).max()
        assert dominant.sum() == 4
        rel = np.abs(row - truth)[dominant] / np.abs(truth)[dominant]
        assert rel.max() < 0.05

    def test_regression_residual_is_innovation_sized(self):
        # with the true row, the remaining target error is the differenced noise
        a, b, c, l = 0.6, 0.8, 1.2, 0.25
        P, p = 200, 14
        n = 12 * P
        rng = np.random.default_rng(4)
        noise_std = 0.05
        u, y = simulate_scalar(a, b, c, l, n, P, rng, noise_std=noise_std, dist_amp=3.0)
        u3 = np.tile(u[:, None], (1, 3))
        y3 = np.tile(y[:, None], (1, 3))
        regressors, targets = build_regressor_block(u3, y3, P + p, n, P, p)
        truth = scalar_markov_row(a, b, c, l, p)
        resid = targets[:, 0] - regressors[:, :, 0] @ truth
        assert np.std(resid) == pytest.approx(np.sqrt(2.0) * noise_std, rel=0.1)

    def test_zero_regressors_leave_estimate_unchanged(self):
        ident = MarkovIdentifier(6, forgetting=0.99999)
        before = ident.rows()
        ident.update_block(np.zeros((100, 12, 3)), np.zeros((100, 3)))
        np.testing.assert_array_equal(ident.rows(), before)

    def test_forgetting_close_to_unit_on_stationary_data(self):
        rng = np.random.default_rng(5)
        p = 4
        n = 10_000
        regs = rng.normal(size=(n, 2 * p, 3))
        w = rng.normal(size=2 * p)
        targets = np.stack([regs[:, :, b] @ w for b in range(3)], axis=1)
        a = MarkovIdentifier(p, forgetting=1.0)
        b_ = MarkovIdentifier(p, forgetting=0.99999)
        a.update_block(regs, targets)
        b_.update_block(regs, targets)
        diff = np.linalg.norm(a.rows() - b_.rows()) / np.linalg.norm(a.rows())
        assert diff < 0.01

    def test_frozen_blade_not_updated(self):
        ident = MarkovIdentifier(3, forgetting=0.99999)
        rng = np.random.default_rng(6)
        law = RepetitiveLaw(build_basis(16))
        law.freeze_blade(2)
        before = ident.rows()[1].copy()
        ident.update_block(rng.normal(size=(50, 6, 3)), rng.normal(size=(50, 3)), law.frozen)
        np.testing.assert_array_equal(ident.rows()[1], before)
        assert not np.array_equal(ident.rows()[0], before)


def _blade_blocks(rng, n, p):
    """Regressors (n, 2p, 3) laid out as build_regressor_block lays them, and targets (n, 3)."""
    return rng.normal(size=(3, 2 * p, n)).transpose(2, 1, 0), rng.normal(size=(n, 3))


class TestSideBySideBlades:
    """A block absorbed by the identifier against each blade's estimator updated alone."""

    @pytest.mark.parametrize("n", [0, 1, 625])
    @pytest.mark.parametrize(
        "frozen",
        list(itertools.product((False, True), repeat=3)),
        ids=lambda mask: "".join("F" if f else "-" for f in mask),
    )
    def test_bit_identical_to_blades_in_turn(self, frozen, n):
        rng = np.random.default_rng(11)
        p = 100
        ident = MarkovIdentifier(p, forgetting=0.99999)
        ident.update_block(*_blade_blocks(rng, 625, p))
        expected = copy.deepcopy(ident.estimators)
        regressors, targets = _blade_blocks(rng, n, p)
        rows = ident.rows()
        # every blade's a-priori residual, as the run computed it before the update
        want_residuals = np.column_stack(
            [targets[:, blade] - regressors[:, :, blade] @ rows[blade] for blade in range(3)]
        )

        got_residuals = ident.update_block(regressors, targets, frozen)
        for blade, est in enumerate(expected):
            if not frozen[blade]:
                est.update_block(regressors[:, :, blade], targets[:, blade])
        for got, want in zip(ident.estimators, expected):
            assert got._tri.tobytes() == want._tri.tobytes()
        assert ident.rows().tobytes() == np.vstack([est.estimate for est in expected]).tobytes()
        assert got_residuals.tobytes() == want_residuals.tobytes()


class TestBuildLifted:
    def test_zero_row_gives_pure_hold_pattern(self):
        P, p = 16, 4
        basis = build_basis(P)
        a_lift, b_lift = build_lifted(np.zeros(2 * p), P, p, basis)
        expected_a = np.zeros((6, 6))
        expected_a[:2, :2] = np.eye(2)
        np.testing.assert_array_equal(a_lift, expected_a)
        expected_b = np.zeros((6, 2))
        expected_b[2:4] = np.eye(2)
        np.testing.assert_array_equal(b_lift, expected_b)

    def test_middle_block_row_is_zero(self):
        rng = np.random.default_rng(7)
        P, p = 24, 6
        a_lift, _ = build_lifted(rng.normal(size=2 * p), P, p, build_basis(P))
        np.testing.assert_array_equal(a_lift[2:4, :], 0.0)

    def test_one_period_ahead_prediction(self):
        # exact impulse-response row for a known scalar plant: the projected
        # model must predict the next period's load projection
        a, b, c = 0.6, 0.9, 1.1
        P, p = 48, 15
        basis = build_basis(P)
        truth = scalar_markov_row(a, b, c, 0.0, p)
        a_lift, b_lift = build_lifted(truth, P, p, basis)

        rng = np.random.default_rng(8)
        n_periods = 12
        coeffs = np.cumsum(rng.normal(0, 0.3, size=(n_periods, 2)), axis=0)
        d = 2.0 * np.sin(2 * np.pi * np.arange(P) / P + 0.7)
        x = 0.0
        Y = np.empty((n_periods, P))
        for j in range(n_periods):
            u = basis @ coeffs[j]
            for k in range(P):
                Y[j, k] = c * x + d[k]
                x = a * x + b * u[k]
        proj = project(basis, Y.T).T  # (n_periods, 2)

        errs = []
        for j in range(3, n_periods - 1):
            state = np.concatenate(
                [proj[j], coeffs[j] - coeffs[j - 1], proj[j] - proj[j - 1]]
            )
            pred = a_lift @ state + b_lift @ (coeffs[j + 1] - coeffs[j])
            errs.append(np.linalg.norm(pred[:2] - proj[j + 1]) / np.linalg.norm(proj[j + 1]))
        assert max(errs) < 0.02

    @given(
        st.integers(min_value=4, max_value=700),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_transition_maps_match_shift_stack_oracle(self, P, window_frac, seed):
        p = 1 + int(window_frac * (P - 2))
        row = np.random.default_rng(seed).normal(size=2 * p)
        basis = build_basis(P)
        a_lift, _ = build_lifted(row, P, p, basis)
        s_u, s_y = lifted_transition_maps(row, P, p, basis)
        for got, want in ((a_lift[:2, 2:4], s_u), (a_lift[:2, 4:6], s_y)):
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        np.testing.assert_array_equal(a_lift[4:6], a_lift[:2] - np.eye(2, 6))


class TestUpdateGain:
    def test_zero_row_keeps_finite_fallback_gain(self):
        P, p = 16, 4
        basis = build_basis(P)
        a_lift, b_lift = build_lifted(np.zeros(2 * p), P, p, basis)
        result = update_gain(a_lift, b_lift, np.eye(6), 0.1 * np.eye(2))
        assert not result.ok
        assert np.all(np.isfinite(result.gain))
        np.testing.assert_array_equal(result.gain, 0.0)

    def test_failure_keeps_previous_gain(self):
        P, p = 16, 4
        basis = build_basis(P)
        a_lift, b_lift = build_lifted(np.zeros(2 * p), P, p, basis)
        prev = GainResult(np.full((2, 6), 1.5), True)
        result = update_gain(a_lift, b_lift, np.eye(6), 0.1 * np.eye(2), previous=prev)
        assert not result.ok
        np.testing.assert_array_equal(result.gain, prev.gain)

    def test_identified_row_gives_stabilizing_gain(self):
        a, b, c = 0.6, 0.9, 1.1
        P, p = 48, 15
        basis = build_basis(P)
        truth = scalar_markov_row(a, b, c, 0.0, p)
        a_lift, b_lift = build_lifted(truth, P, p, basis)
        result = update_gain(a_lift, b_lift, np.eye(6), 0.1 * np.eye(2))
        assert result.ok
        closed = a_lift - b_lift @ result.gain
        assert np.max(np.abs(np.linalg.eigvals(closed))) < 1.0

    def test_heavier_input_weight_shrinks_gain(self):
        a, b, c = 0.5, 1.0, 1.0
        P, p = 32, 10
        basis = build_basis(P)
        truth = scalar_markov_row(a, b, c, 0.0, p)
        a_lift, b_lift = build_lifted(truth, P, p, basis)
        norms = []
        for r in (0.1, 1.0, 10.0, 100.0, 1000.0):
            res = update_gain(a_lift, b_lift, np.eye(6), r * np.eye(2))
            assert res.ok
            norms.append(np.linalg.norm(res.gain))
        assert all(n2 < n1 for n1, n2 in zip(norms, norms[1:]))


class TestRepetitiveLaw:
    def test_zero_gain_holds_coefficients(self):
        law = RepetitiveLaw(build_basis(16))
        law.set_coeffs(np.ones((3, 2)))
        # gains start at zero and the zero markov rows keep them there
        load_proj = np.random.default_rng(0).normal(size=(3, 2))
        law.period_update(load_proj, np.zeros((3, 8)))
        np.testing.assert_array_equal(law.coeffs, np.ones((3, 2)))

    def test_output_quarter_period(self):
        law = RepetitiveLaw(build_basis(4))
        law.set_coeffs(np.array([[1.0, 0.0]] * 3))
        out = law.output_slice(0, 4)
        np.testing.assert_allclose(out[:, 0], [0.0, 1.0, 0.0, -1.0], atol=1e-12)

    def test_output_amplitude_is_coefficient_norm(self):
        law = RepetitiveLaw(build_basis(1000))
        law.set_coeffs(np.array([[3.0, 4.0], [0.0, 0.0], [1.0, 0.0]]))
        out = law.output_slice(0, 1000)
        assert np.abs(out[:, 0]).max() == pytest.approx(5.0, rel=1e-4)
        assert np.abs(out[:, 2]).max() == pytest.approx(1.0, rel=1e-4)

    def test_output_exactly_periodic_between_updates(self):
        law = RepetitiveLaw(build_basis(50))
        law.set_coeffs(np.random.default_rng(1).normal(size=(3, 2)))
        a = law.output_slice(0, 50)
        b = law.output_slice(50, 50)
        c = law.output_slice(1300, 50)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a, c)

    def test_frozen_blade_keeps_coefficients(self):
        P, p = 32, 8
        law = RepetitiveLaw(build_basis(P))
        rng = np.random.default_rng(2)
        rows = rng.normal(size=(3, 2 * p))
        law.set_coeffs(rng.normal(size=(3, 2)))
        law.freeze_blade(3)
        before = law.coeffs[2].copy()
        for _ in range(3):
            law.period_update(rng.normal(size=(3, 2)), rows)
        np.testing.assert_array_equal(law.coeffs[2], before)
        assert not np.array_equal(law.coeffs[0], before)

    @pytest.mark.parametrize(
        "frozen",
        list(itertools.product((False, True), repeat=3)),
        ids=lambda mask: "".join("F" if f else "-" for f in mask),
    )
    def test_each_live_blade_is_designed_from_its_own_row(self, monkeypatch, frozen):
        P, p = 48, 15
        law = RepetitiveLaw(build_basis(P))
        for blade in np.flatnonzero(frozen):
            law.freeze_blade(blade + 1)
        rows = np.stack([scalar_markov_row(0.6, 0.8 + 0.1 * b, 1.1, 0.0, p) for b in range(3)])
        built = []

        def spy(row, *args):
            built.append(row.tobytes())
            return build_lifted(row, *args)

        monkeypatch.setattr(sprc, "build_lifted", spy)
        law.period_update(np.ones((3, 2)), rows)
        live = [blade for blade in range(3) if not frozen[blade]]
        assert built == [rows[blade].tobytes() for blade in live]
        for blade in range(3):
            # a frozen blade keeps the zero gain it started with
            assert law._gains[blade].ok == (blade in live)

    def test_weights_are_checked_once_at_construction(self, monkeypatch):
        checked = []
        original = numerics._check_symmetric

        def counting(M, name, *args):
            checked.append(name)
            return original(M, name, *args)

        monkeypatch.setattr(numerics, "_check_symmetric", counting)
        P, p = 48, 15
        law = RepetitiveLaw(build_basis(P))
        assert checked == ["Q", "R"]
        checked.clear()
        rows = np.tile(scalar_markov_row(0.6, 0.9, 1.1, 0.0, p), (3, 1))
        law.period_update(np.ones((3, 2)), rows)
        # three blades solved their Riccati equation without checking the weights again
        assert law.gain_failures == 0 and checked == []

    def test_invalid_input_weight_refused_at_construction(self, monkeypatch):
        monkeypatch.setattr(sprc, "LQR_R", -0.1)
        with pytest.raises(ValueError, match="positive definite"):
            RepetitiveLaw(build_basis(16))


class TestPrbs:
    def test_amplitude_bound_holds_over_long_stream(self):
        rng = np.random.default_rng(10)
        out = generate_prbs(1_000_000, rng, 0.01)
        assert np.abs(out).max() <= PRBS_AMPLITUDE

    def test_channels_are_distinct(self):
        rng = np.random.default_rng(12)
        out = generate_prbs(5000, rng, 0.01)
        assert not np.array_equal(out[:, 0], out[:, 1])

    def test_spectrum_flat_up_to_shaping_cutoff(self):
        rng = np.random.default_rng(13)
        Ts, tau = 0.01, PRBS_TAU
        out = generate_prbs(400_000, rng, Ts=Ts)
        freqs, power = psd_estimate(out[:, 0], 1.0 / Ts, segment=8192)
        cutoff = 1.0 / (2 * np.pi * tau)
        band = (freqs > 0.05) & (freqs <= cutoff)
        ratio = power[band].max() / power[band].min()
        assert ratio < 10 ** (6 / 10)
