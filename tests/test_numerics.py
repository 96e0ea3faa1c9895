import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st
from scipy.linalg import lapack

from conftest import assert_stabilizing_riccati
from oracles import stacked_qr_update
from pitchftc.numerics import (
    TPQRT_BLOCK,
    DareError,
    _check_weights,
    _solve_dare,
    _stabilizing_solution,
    RlsEstimator,
    StateSpaceModel,
    discretize_second_order,
    psd_estimate,
    run_lengths,
    solve_dare,
)
from pitchftc.sprc import build_basis, build_lifted


class TestRlsEstimator:
    def test_noiseless_consistent_system_recovered_exactly(self):
        # exact up to the tiny startup regularization of the factor
        est = RlsEstimator(dim=1, forgetting=1.0)
        for x in (1.0, 2.0, 3.0):
            est.update_block(np.array([[x]]), np.array([2.0 * x]))
        assert est.estimate == pytest.approx([2.0], abs=1e-8)

    def test_matches_batch_least_squares(self):
        rng = np.random.default_rng(3)
        d, n = 6, 400
        phi = rng.normal(size=(n, d))
        w_true = rng.normal(size=d)
        y = phi @ w_true + 0.05 * rng.normal(size=n)

        est = RlsEstimator(dim=d, forgetting=1.0)
        for i in range(n):
            est.update_block(phi[i : i + 1], y[i : i + 1])
        w_batch = np.linalg.lstsq(phi, y, rcond=None)[0]
        assert np.linalg.norm(est.estimate - w_batch) <= 1e-9 * np.linalg.norm(w_batch)

    def test_block_update_equals_sequential(self):
        rng = np.random.default_rng(4)
        d, n = 5, 200
        phi = rng.normal(size=(n, d))
        y = rng.normal(size=n)
        seq = RlsEstimator(dim=d, forgetting=0.999)
        blk = RlsEstimator(dim=d, forgetting=0.999)
        for i in range(n):
            seq.update_block(phi[i : i + 1], y[i : i + 1])
        for lo in range(0, n, 37):
            blk.update_block(phi[lo : lo + 37], y[lo : lo + 37])
        np.testing.assert_allclose(blk.factor, seq.factor, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(blk.estimate, seq.estimate, rtol=1e-9, atol=1e-12)

    def test_forgetting_tracks_drift_better_than_unit(self):
        # slope switches value mid-stream; the long stream lets the
        # forgetting estimator shed the stale half
        rng = np.random.default_rng(5)
        n = 400_000
        x = rng.normal(size=n)
        slope = np.where(np.arange(n) < n // 2, 1.0, 2.0)
        y = slope * x

        errs = {}
        for lam in (1.0, 0.99999):
            est = RlsEstimator(dim=1, forgetting=lam)
            for lo in range(0, n, 10_000):
                est.update_block(x[lo : lo + 10_000, None], y[lo : lo + 10_000])
            errs[lam] = abs(est.estimate[0] - 2.0)
        assert errs[0.99999] < errs[1.0]

    def test_degenerate_factor_flagged(self):
        est = RlsEstimator(dim=3, forgetting=1.0)
        est.factor = 1e-16 * np.eye(3)
        est.update_block(np.array([[1e6, 0.0, 0.0]]), np.array([1.0]))
        assert est.degenerate

    def test_reseed_sets_estimate(self):
        est = RlsEstimator(dim=4, forgetting=1.0)
        target = np.array([1.0, -2.0, 0.5, 3.0])
        est.reseed(target)
        np.testing.assert_allclose(est.estimate, target, rtol=1e-12)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            RlsEstimator(dim=0, forgetting=1.0)
        with pytest.raises(ValueError):
            RlsEstimator(dim=2, forgetting=0.0)
        est = RlsEstimator(dim=2, forgetting=1.0)
        with pytest.raises(ValueError):
            est.update_block(np.array([[1.0, 2.0, 3.0]]), np.array([0.0]))


@given(
    d=st.integers(1, 40),
    data=st.data(),
    forgetting=st.sampled_from((1.0, 0.999, 0.99999)),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_block_update_matches_stacked_qr_oracle(d, data, forgetting, seed):
    # d + 1 crosses the QR block size (16) inside this range
    b = data.draw(st.integers(1, 3 * (d + 1)), label="block rows")
    rng = np.random.default_rng(seed)
    prior = np.triu(rng.normal(size=(d, d)))
    prior[np.diag_indices(d)] = 1.0 + np.abs(prior.diagonal())
    est = RlsEstimator(dim=d, forgetting=forgetting)
    est.factor, est.rhs = prior, rng.normal(size=d)
    phi, y = rng.normal(size=(b, d)), rng.normal(size=b)

    factor, rhs = stacked_qr_update(est.factor, est.rhs, phi, y, forgetting)
    est.update_block(phi, y)
    assert (np.diagonal(est.factor) > 0.0).all()
    assert np.abs(est.factor - factor).max() <= 1e-12 * np.abs(factor).max()
    assert np.abs(est.rhs - rhs).max() <= 1e-12 * np.abs(rhs).max()


@given(
    d=st.integers(1, 40),
    data=st.data(),
    forgetting=st.sampled_from((1.0, 0.999, 0.99999)),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_persistent_triangle_across_changing_blocks(d, data, forgetting, seed):
    # a rotor period, a short replayed block, a period again; the state is
    # reseeded before the short block and assigned before the last one
    short = data.draw(st.integers(1, 3 * (d + 1)), label="short block rows")
    rng = np.random.default_rng(seed)
    est = RlsEstimator(dim=d, forgetting=forgetting)
    for i, b in enumerate((625, short, 625)):
        if i == 1:
            est.reseed(rng.normal(size=d))
        elif i == 2:
            prior = np.triu(rng.normal(size=(d, d)))
            prior[np.diag_indices(d)] = 1.0 + np.abs(prior.diagonal())
            est.factor, est.rhs = prior, rng.normal(size=d)
        factor, rhs = est.factor, est.rhs
        kept = factor.copy(), rhs.copy()
        phi, y = rng.normal(size=(b, d)), rng.normal(size=b)

        expected = stacked_qr_update(factor, rhs, phi, y, forgetting)
        est.update_block(phi, y)
        # what was read before the update does not move under the caller
        np.testing.assert_array_equal(factor, kept[0])
        np.testing.assert_array_equal(rhs, kept[1])
        for got, want in zip((est.factor, est.rhs), expected):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert (np.diagonal(est.factor) > 0.0).all()


@given(
    d=st.integers(1, 60),
    data=st.data(),
    zeroed=st.sampled_from(("none", "some", "all")),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_tpqrt_is_scipys_dtpqrt_bit_for_bit(d, data, zeroed, seed):
    # At unit forgetting a block update is one dtpqrt of [R z] over [phi y]
    # at block size TPQRT_BLOCK, then the sign fix.  The block size changes
    # the bits, so this pins the factor every recorded run was computed with.
    n = d + 1
    b = data.draw(st.integers(1, 3 * n), label="rows")
    rng = np.random.default_rng(seed)
    prior, z = np.triu(rng.normal(size=(d, d))), rng.normal(size=d)
    phi, y = rng.normal(size=(b, d)), rng.normal(size=b)
    if zeroed == "all":
        phi[:], y[:] = 0.0, 0.0
    elif zeroed == "some":
        drop = rng.random(b) < 0.5
        phi[drop], y[drop] = 0.0, 0.0
    est = RlsEstimator(dim=d, forgetting=1.0)
    est.factor, est.rhs = prior, z

    tri = np.zeros((n, n), order="F")
    tri[:d, :d], tri[:d, d] = prior, z
    rows = np.asfortranarray(np.column_stack([phi, y]))
    *_, info = lapack.dtpqrt(0, min(TPQRT_BLOCK, n), tri, rows, overwrite_a=1, overwrite_b=1)
    assert info == 0
    tri[np.flatnonzero(np.diagonal(tri)[:d] < 0.0)] *= -1.0

    est.update_block(phi, y)
    assert est.factor.tobytes() == tri[:d, :d].copy(order="F").tobytes()
    assert est.rhs.tobytes() == tri[:d, d].copy().tobytes()


@pytest.mark.parametrize("spoil", ["copied", "rejected"])
def test_a_qr_not_done_in_place_raises(monkeypatch, spoil):
    dtpqrt = lapack.dtpqrt

    def spoiled(l, nb, a, b, **kwargs):
        if spoil == "copied":
            return dtpqrt(l, nb, a, b)  # without overwrite the wrapper works on copies
        *out, info = dtpqrt(l, nb, a, b, **kwargs)
        return (*out, -4)

    monkeypatch.setattr(lapack, "dtpqrt", spoiled)
    est = RlsEstimator(dim=3, forgetting=1.0)
    with pytest.raises(RuntimeError, match="in place"):
        est.update_block(np.ones((2, 3)), np.ones(2))


class TestSolveDare:
    def test_memoryless_plant_golden(self):
        P, K = solve_dare([[0.0]], [[1.0]], [[1.0]], [[1.0]])
        assert P[0, 0] == pytest.approx(1.0, abs=1e-9)
        assert K[0, 0] == pytest.approx(0.0, abs=1e-9)

    def test_scalar_golden_ratio(self):
        P, K = solve_dare([[1.0]], [[1.0]], [[1.0]], [[1.0]])
        assert P[0, 0] == pytest.approx((1 + np.sqrt(5)) / 2, abs=1e-9)
        assert K[0, 0] == pytest.approx((1 + np.sqrt(5)) / (3 + np.sqrt(5)), abs=1e-9)
        assert K[0, 0] == pytest.approx(0.6180, abs=1e-4)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_systems_satisfy_fixed_point_and_stability(self, seed):
        rng = np.random.default_rng(seed)
        n, m = rng.integers(2, 6), rng.integers(1, 3)
        A = rng.normal(size=(n, n))
        A *= 0.95 / max(np.abs(np.linalg.eigvals(A)).max(), 1e-6)
        B = rng.normal(size=(n, m))
        Q = np.eye(n)
        R = np.eye(m)
        P, K = solve_dare(A, B, Q, R)

        BtP = B.T @ P
        resid = Q + A.T @ P @ (A - B @ K) - P
        assert np.linalg.norm(resid, "fro") < 1e-9
        assert np.max(np.abs(P - P.T)) < 1e-10
        assert np.max(np.abs(np.linalg.eigvals(A - B @ K))) < 1.0

    def test_indefinite_r_rejected(self):
        with pytest.raises(ValueError, match="positive definite"):
            solve_dare([[0.5]], [[1.0]], [[1.0]], [[-1.0]])

    def test_asymmetric_q_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            solve_dare(np.eye(2) * 0.5, np.eye(2), [[1.0, 0.5], [0.0, 1.0]], np.eye(2))

    def test_uncontrollable_unit_mode_fails(self):
        # integrator completely decoupled from the input: cost diverges
        A = np.array([[1.0, 0.0], [0.0, 0.5]])
        B = np.array([[0.0], [1.0]])
        with pytest.raises(DareError):
            solve_dare(A, B, np.eye(2), [[1.0]])

    @given(
        st.integers(min_value=4, max_value=700),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=-3.0, max_value=1.0),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_lifted_models_solve_the_riccati_equation(self, P, window_frac, log_scale, seed):
        p = 1 + int(window_frac * (P - 2))
        row = 10.0**log_scale * np.random.default_rng(seed).normal(size=2 * p)
        A, B = build_lifted(row, P, p, build_basis(P))
        Q, R = np.eye(6), 0.1 * np.eye(2)
        assert_stabilizing_riccati(A, B, Q, R, *solve_dare(A, B, Q, R))

    @given(
        st.integers(min_value=4, max_value=700),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=-3.0, max_value=1.0),
        st.sampled_from((1.0, 0.0, 1e-8)),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    # scipy's balancing casts huge scalings to int for a permutation it never uses here
    @pytest.mark.filterwarnings("ignore:invalid value encountered in cast:RuntimeWarning")
    def test_lifted_models_match_scipy_solver(self, P, window_frac, log_scale, pitch, seed):
        # pitch terms scaled to zero or nearly zero give the early
        # identification state whose load integrator is (almost) uncontrollable
        p = 1 + int(window_frac * (P - 2))
        row = 10.0**log_scale * np.random.default_rng(seed).normal(size=2 * p)
        row[:p] *= pitch
        A, B = build_lifted(row, P, p, build_basis(P))
        Q, R = np.eye(6), 0.1 * np.eye(2)
        try:
            expected = sla.solve_discrete_are(A, B, Q, R)
        except (sla.LinAlgError, ValueError):
            # each of scipy's checks has its counterpart in the direct solve
            with pytest.raises(DareError):
                _stabilizing_solution(A, B, Q, R)
            with pytest.raises(DareError):
                solve_dare(A, B, Q, R)
            return
        np.testing.assert_array_equal(_stabilizing_solution(A, B, Q, R), expected)
        BtP = B.T @ expected
        K = np.linalg.solve(R + BtP @ B, BtP @ A)
        if np.max(np.abs(np.linalg.eigvals(A - B @ K))) >= 1.0:
            with pytest.raises(DareError):
                solve_dare(A, B, Q, R)
        else:
            P_, K_ = solve_dare(A, B, Q, R)
            np.testing.assert_array_equal(P_, expected)
            np.testing.assert_array_equal(K_, K)

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=3),
        st.sampled_from((0.5, 1.0, 1.5)),
        st.booleans(),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_checked_once_path_is_solve_dare(self, n, m, spread, rank_deficient_q, seed):
        # the repetitive law checks its weights once and reuses them on every
        # solve: over several models, that path gives solve_dare's bits
        rng = np.random.default_rng(seed)
        G = rng.normal(size=(n, n))
        if rank_deficient_q:
            G[:, 0] = 0.0
        Q = G @ G.T
        H = rng.normal(size=(m, m))
        R = H @ H.T + 0.1 * np.eye(m)
        weights = _check_weights(Q, R)
        for _ in range(3):
            A = spread * rng.normal(size=(n, n))
            B = rng.normal(size=(n, m))
            try:
                expected = solve_dare(A, B, Q, R)
            except DareError:
                with pytest.raises(DareError):
                    _solve_dare(A, B, *weights)
                continue
            for got, want in zip(_solve_dare(A, B, *weights), expected):
                np.testing.assert_array_equal(got, want)

    def test_zero_row_has_no_stabilizing_solution(self):
        # no pitch authority identified: the load integrator is uncontrollable
        A, B = build_lifted(np.zeros(8), 16, 4, build_basis(16))
        with pytest.raises(DareError):
            solve_dare(A, B, np.eye(6), 0.1 * np.eye(2))

    def test_nan_model_rejected(self):
        A = np.array([[0.5, np.nan], [0.0, 0.5]])
        with pytest.raises(ValueError, match="finite"):
            solve_dare(A, np.eye(2), np.eye(2), np.eye(2))


def dc_gain(model: StateSpaceModel) -> float:
    """Steady-state gain C (I - A)^-1 B + D of a single-input single-output model."""
    eye = np.eye(model.n_states)
    return (model.C @ np.linalg.solve(eye - model.A, model.B) + model.D)[0, 0]


class TestDiscretizeSecondOrder:
    def test_reference_actuator_dc_gain_is_unity(self):
        model = discretize_second_order(6.28, 0.7, 0.01)
        assert dc_gain(model) == pytest.approx(1.0, abs=1e-12)

    @given(
        st.floats(min_value=0.5, max_value=50.0),
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=1e-3, max_value=0.1),
    )
    @settings(max_examples=40, deadline=None)
    def test_dc_gain_unity_everywhere(self, omega, damping, Ts):
        model = discretize_second_order(omega, damping, Ts)
        assert dc_gain(model) == pytest.approx(1.0, abs=1e-12)

    def test_pole_magnitude(self):
        model = discretize_second_order(6.28, 0.7, 0.01)
        mags = np.abs(np.linalg.eigvals(model.A))
        expected = np.exp(-0.7 * 6.28 * 0.01)
        np.testing.assert_allclose(mags, expected, atol=1e-12)
        assert expected == pytest.approx(0.9570, abs=2e-4)

    def test_step_response_matches_continuous_solution(self):
        # closed-form step response of (b s + 1)/(a^2 s^2 + b s + 1): the
        # standard underdamped response plus b times its derivative
        omega, damping, Ts = 6.28, 0.7, 0.01
        model = discretize_second_order(omega, damping, Ts)
        n = 400
        x = np.zeros(2)
        y = np.empty(n)
        for k in range(n):
            y[k] = (model.C @ x)[0]
            x = model.A @ x + model.B[:, 0]

        t = np.arange(n) * Ts
        b = 2 * damping / omega
        wd = omega * np.sqrt(1 - damping**2)
        decay = np.exp(-damping * omega * t)
        y_std = 1 - decay * (np.cos(wd * t) + damping / np.sqrt(1 - damping**2) * np.sin(wd * t))
        y_dot = omega / np.sqrt(1 - damping**2) * decay * np.sin(wd * t)
        np.testing.assert_allclose(y, y_std + b * y_dot, atol=1e-3)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            discretize_second_order(-1.0, 0.7, 0.01)
        with pytest.raises(ValueError):
            discretize_second_order(6.28, 1.2, 0.01)
        with pytest.raises(ValueError):
            discretize_second_order(6.28, 0.7, 0.0)


class TestPsdEstimate:
    def test_sinusoid_peak_power(self):
        fs, f0, amp = 100.0, 5.0, 2.0
        t = np.arange(60_000) / fs
        x = amp * np.sin(2 * np.pi * f0 * t)
        freqs, power = psd_estimate(x, fs, segment=4000)
        peak = np.argmax(power)
        assert freqs[peak] == pytest.approx(f0, abs=fs / 4000)
        df = freqs[1] - freqs[0]
        around = slice(max(peak - 3, 0), peak + 4)
        assert np.sum(power[around]) * df == pytest.approx(amp**2 / 2, rel=0.02)

    def test_white_noise_integrates_to_variance(self):
        fs = 50.0
        errs = []
        for seed in range(20):
            x = np.random.default_rng(seed).normal(0.0, 1.5, size=30_000)
            freqs, power = psd_estimate(x, fs)
            df = freqs[1] - freqs[0]
            errs.append(np.sum(power) * df / np.var(x) - 1.0)
        assert np.max(np.abs(errs)) < 0.10

    def test_parseval_consistency_general_signal(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=40_000)
        x = np.convolve(x, np.ones(5) / 5, mode="same")  # colored
        freqs, power = psd_estimate(x, fs=100.0)
        df = freqs[1] - freqs[0]
        assert np.sum(power) * df == pytest.approx(np.var(x), rel=0.05)

    def test_blade_passing_peak_bin(self):
        # one rotor revolution = 625 samples at 100 Hz = 0.16 Hz
        P, fs = 625, 100.0
        k = np.arange(40 * P)
        x = np.sin(2 * np.pi * k / P) + 0.01 * np.random.default_rng(0).normal(size=k.size)
        freqs, power = psd_estimate(x, fs, segment=4 * P)
        assert freqs[np.argmax(power)] == pytest.approx(0.16, abs=1e-9)

    def test_too_short_signal_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            psd_estimate(np.zeros(100), fs=10.0, segment=90)


class TestStateSpaceModel:
    def test_dimension_checks(self):
        with pytest.raises(ValueError):
            StateSpaceModel(np.eye(2), np.ones((3, 1)), np.ones((1, 2)), [[0.0]], 0.01)
        with pytest.raises(ValueError):
            StateSpaceModel(np.eye(2), np.ones((2, 1)), np.ones((1, 2)), [[0.0]], -1.0)


class TestRunLengths:
    def test_counts_unbroken_runs(self):
        mask = np.array([1, 1, 0, 1, 1, 1, 0, 0, 1], dtype=bool)
        np.testing.assert_array_equal(run_lengths(mask), [1, 2, 0, 1, 2, 3, 0, 0, 1])

    def test_carry_extends_only_the_leading_run(self):
        mask = np.array([[1, 0], [1, 1], [0, 1]], dtype=bool)
        np.testing.assert_array_equal(run_lengths(mask, np.array([3, 5])), [[4, 0], [5, 1], [0, 2]])
