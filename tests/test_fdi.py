from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import DELTA_MARGIN, FdiBounds, FdieOracle, FuserOracle, compute_alpha_delta
from pitchftc.actuator import ActuatorBank
from pitchftc import fdi
from pitchftc.fdi import (
    DecisionFuser,
    Fdie,
    decision_record,
    design_fdie,
    place_observer_gain,
    residual_noise_std,
)
from pitchftc.numerics import StateSpaceModel

TS = 0.01


@pytest.fixture(scope="module")
def actuator_model():
    return ActuatorBank(TS).model


def observer_matrix(fdie):
    """The observer's transition matrix A - L C, as ``FdieOracle`` builds it."""
    return fdie.model.A - np.outer(fdie.gain, fdie.model.C[0])


class TestDesign:
    def test_dead_beat_is_nilpotent(self, actuator_model):
        A0 = observer_matrix(design_fdie(actuator_model, 0.0))
        np.testing.assert_allclose(A0 @ A0, 0.0, atol=1e-9)

    def test_pole_magnitudes_placed(self, actuator_model):
        fdie = design_fdie(actuator_model, 0.9)
        mags = np.abs(np.linalg.eigvals(observer_matrix(fdie)))
        np.testing.assert_allclose(mags, 0.9, atol=1e-9)

    @pytest.mark.parametrize("radius", [0.0, 0.3, 0.8, 0.95, 0.98])
    def test_observer_always_stable(self, actuator_model, radius):
        fdie = design_fdie(actuator_model, radius)
        assert np.max(np.abs(np.linalg.eigvals(observer_matrix(fdie)))) < 1.0

    def test_unobservable_pair_rejected(self):
        model = StateSpaceModel(np.eye(2) * 0.5, [[1.0], [1.0]], [[0.0, 0.0]], [[0.0]], TS)
        with pytest.raises(ValueError, match="observable"):
            place_observer_gain(model, [0.1, 0.2])


def observer_transient(fdie):
    """The (alpha, delta) of the paper's threshold for this observer, alpha at least 1."""
    alpha, delta = compute_alpha_delta(observer_matrix(fdie), fdie.model.C)
    return max(alpha, 1.0), delta


class TestAlphaDelta:
    def test_scalar_exact(self):
        alpha, delta = compute_alpha_delta([[0.9]], [[1.0]])
        assert (alpha, delta) == (pytest.approx(1.0), pytest.approx(0.9 + DELTA_MARGIN))

    def test_nilpotent_finite_scan(self):
        A0 = np.array([[0.0, 1.0], [0.0, 0.0]])
        C = np.array([[1.0, 0.0]])
        alpha, delta = compute_alpha_delta(A0, C)
        assert delta == pytest.approx(DELTA_MARGIN)
        assert alpha == pytest.approx(max(1.0, 1.0 / DELTA_MARGIN))

    def test_margin_halves_the_gap_near_the_unit_circle(self):
        _, delta = compute_alpha_delta([[0.99]], [[1.0]])
        assert delta == pytest.approx(0.995)

    @pytest.mark.parametrize("seed", range(6))
    def test_bound_holds_everywhere(self, seed):
        rng = np.random.default_rng(seed)
        A0 = rng.normal(size=(3, 3))
        A0 *= 0.85 / np.abs(np.linalg.eigvals(A0)).max()
        C = rng.normal(size=(1, 3))
        alpha, delta = compute_alpha_delta(A0, C)
        Ak = np.eye(3)
        for k in range(2000):
            assert np.linalg.norm(C @ Ak, 2) <= alpha * delta**k * (1 + 1e-12)
            Ak = Ak @ A0

    def test_unstable_rejected(self):
        with pytest.raises(ValueError, match="stable"):
            compute_alpha_delta([[1.01]], [[1.0]])


class TestFdieStep:
    def test_zero_residual_with_exact_model_and_matched_start(self, actuator_model):
        fdie = design_fdie(actuator_model, 0.9)
        fdie.init_steady(np.full(3, 8.0))
        plant = ActuatorBank(TS)
        plant.init_steady(np.full(3, 8.0))
        rng = np.random.default_rng(0)
        u_ref = 8.0 + rng.normal(0, 2, size=(300, 3))
        u = plant.run_chunk(u_ref, 0)
        for k in range(300):
            r = fdie.run_chunk(u_ref[k : k + 1], u[k : k + 1])
            assert np.abs(r).max() < 1e-9

    def test_chunk_equals_step(self, actuator_model):
        fdie = design_fdie(actuator_model, 0.9)
        fdie.init_steady(np.full(3, 5.0))
        rng = np.random.default_rng(1)
        u_ref = 5.0 + rng.normal(0, 1, size=(200, 3))
        u_meas = 5.0 + rng.normal(0, 1, size=(200, 3))
        r_chunk = fdie.run_chunk(u_ref, u_meas)
        for blade in range(3):
            oracle = FdieOracle(fdie.model, fdie.gain)
            oracle.init_steady(5.0)
            r_step = [oracle.step(u_ref[k, blade], u_meas[k, blade]) for k in range(200)]
            np.testing.assert_allclose(r_chunk[:, blade], r_step, atol=1e-9)

    def test_healthy_noise_stays_under_threshold(self, actuator_model):
        sigma = np.sqrt(1.5)
        fdie = design_fdie(actuator_model, 0.98)
        eta_y = 6.5 * residual_noise_std(actuator_model, fdie.gain, sigma)
        fdie.init_steady([10.0])
        plant = ActuatorBank(TS)
        plant.init_steady(10.0)
        rng = np.random.default_rng(2)
        u_ref = 10.0 + rng.normal(0, 2, size=(20_000, 3))
        u = plant.run_chunk(u_ref, 0)
        u_meas = u[:, 0] + rng.normal(0, sigma, size=20_000)
        r = fdie.run_chunk(u_ref[:, :1], u_meas[:, None])
        assert np.all(np.abs(r) < eta_y)

    def test_stuck_output_crosses_threshold(self, actuator_model):
        sigma = np.sqrt(1.5)
        fdie = design_fdie(actuator_model, 0.98)
        eta_y = 6.5 * residual_noise_std(actuator_model, fdie.gain, sigma)
        fdie.init_steady([19.0])
        u_ref = np.full((500, 1), 19.0)
        u_meas = np.full((500, 1), 5.0)  # stuck far from the command
        r = fdie.run_chunk(u_ref, u_meas)
        assert abs(r[0, 0]) > eta_y
        assert np.all(np.abs(r[-100:]) > eta_y)
        # residual settles toward the command/stuck gap
        assert abs(r[-1, 0]) == pytest.approx(abs(5.0 - 19.0), rel=0.7)


class TestThreshold:
    """The paper's adaptive threshold, a recursion kept as a test oracle."""

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_recursion_equals_direct_sum(self, seed):
        rng = np.random.default_rng(seed)
        alpha = float(rng.uniform(1.0, 3.0))
        delta = float(rng.uniform(0.3, 0.95))
        eps0 = float(rng.uniform(0.0, 2.0))
        model = StateSpaceModel([[0.5]], [[1.0]], [[1.0]], [[0.0]], TS)
        fdie = FdieOracle(model, [0.1], alpha, delta, FdiBounds(init_error=eps0))
        n = 400
        mism = rng.uniform(0.0, 2.0, size=n)
        eta_x = rng.uniform(0.0, 2.0, size=n)
        eta_y = rng.uniform(0.0, 2.0, size=n)
        rbar = np.array(
            [fdie.threshold_step(mism[k], eta_x[k], eta_y[k]) for k in range(n)]
        )
        drive = mism + eta_x
        for k in (0, 1, 5, n // 2, n - 1):
            direct = (
                alpha * np.sum(delta ** (k - 1 - np.arange(k)) * drive[:k])
                + alpha * delta**k * eps0
                + eta_y[k]
            )
            assert rbar[k] == pytest.approx(direct, rel=1e-12, abs=1e-12)

    def test_bounded_nonlinear_mismatch_keeps_residual_inside(self):
        # scalar system with a bounded unmodeled nonlinearity and bounded
        # noise; with the mismatch and noise bounds declared, the adaptive
        # threshold must dominate the library residual at every step
        a, L = 0.9, 0.4
        model = StateSpaceModel([[a]], [[1.0]], [[1.0]], [[0.0]], TS)
        nl = lambda x: 0.05 * np.sin(3.0 * x)
        noise_bound = 0.2
        bounds = FdiBounds(
            state_noise=abs(L) * noise_bound,
            meas_noise=noise_bound,
            init_error=0.0,
            model_mismatch=0.05,
        )
        oracle = FdieOracle(model, [L], *observer_transient(Fdie(model, [L])), bounds)
        rbar = np.array([oracle.threshold_step() for _ in range(3000)])
        for seed in range(5):
            fdie = Fdie(model, [L])
            rng = np.random.default_rng(seed)
            x = 0.0
            u = np.empty((3000, 1))
            y_meas = np.empty((3000, 1))
            for k in range(3000):
                u[k] = float(rng.uniform(-1, 1))
                noise = float(rng.uniform(-noise_bound, noise_bound))
                y_meas[k] = x + noise
                x = a * x + u[k, 0] + nl(x)
            r = fdie.run_chunk(u, y_meas)[:, 0]
            assert np.all(np.abs(r) <= rbar + 1e-12)


class Scan:
    """The library fuser plus the crossings it was fed from sample k_first on.

    Each scan runs with ``fdi.N_CONFIRM`` patched to ``n_confirm``.  The
    decision record (k_d, ambiguous) is read back from the crossings by
    :func:`decision_record`, the way the run report reads it.
    """

    def __init__(self, n_confirm):
        self.fuser = DecisionFuser()
        self.n_confirm = n_confirm
        self.crossing = np.zeros((0, 3), dtype=bool)
        self.k_first = None

    def scan_chunk(self, residuals, thresholds, k_start):
        if self.k_first is None:
            self.k_first = k_start
        self.crossing = np.vstack([self.crossing, np.abs(residuals) > thresholds[:, None]])
        with mock.patch.object(fdi, "N_CONFIRM", self.n_confirm):
            return self.fuser.scan_chunk(residuals, thresholds, k_start)

    @property
    def d_fd(self):
        return self.fuser.d_fd

    @property
    def confirmed_at(self):
        return self.fuser.confirmed_at

    def _record(self):
        dfd = np.zeros(len(self.crossing), dtype=int)
        if self.fuser.d_fd:
            dfd[self.fuser.confirmed_at - self.k_first :] = self.fuser.d_fd
        return decision_record(self.crossing, dfd)

    @property
    def k_d(self):
        k_d = self._record()[1]
        return None if k_d is None else self.k_first + k_d

    @property
    def ambiguous(self):
        return self._record()[3]


def feed(fuser, residuals, threshold, k):
    """One sample through the chunked fuser; the threshold is shared by the blades."""
    fuser.scan_chunk(np.atleast_2d(residuals), np.full(1, threshold), k)
    return fuser


class TestDecisionFuser:
    def test_all_below_stays_healthy(self):
        fuser = Scan(n_confirm=3)
        for k in range(50):
            dec = feed(fuser, [0.1, -0.2, 0.05], 1.0, k)
        assert dec.d_fd == 0 and dec.k_d is None and not dec.ambiguous

    def test_single_persistent_crossing_isolated_at_run_start(self):
        fuser = Scan(n_confirm=10)
        k = 89_990
        for _ in range(10):
            feed(fuser, [0.1, 0.2, 0.1], 1.0, k)
            k += 1
        for _ in range(10):
            dec = feed(fuser, [0.1, 0.2, 5.0], 1.0, k)
            k += 1
        assert dec.d_fd == 3
        assert dec.k_d == 90_000
        assert fuser.confirmed_at == 90_009

    def test_simultaneous_crossings_are_ambiguous(self):
        fuser = Scan(n_confirm=1)
        dec = feed(fuser, [5.0, 5.0, 0.0], 1.0, 7)
        assert dec.ambiguous and dec.d_fd == 0

    def test_ambiguity_does_not_block_later_isolation(self):
        fuser = Scan(n_confirm=2)
        feed(fuser, [5.0, 5.0, 0.0], 1.0, 0)
        feed(fuser, [0.0, 0.0, 0.0], 1.0, 1)
        feed(fuser, [0.0, 5.0, 0.0], 1.0, 2)
        dec = feed(fuser, [0.0, 5.0, 0.0], 1.0, 3)
        assert dec.d_fd == 2 and dec.k_d == 2 and dec.ambiguous

    def test_decision_latches(self):
        fuser = Scan(n_confirm=1)
        feed(fuser, [5.0, 0.0, 0.0], 1.0, 0)
        dec = feed(fuser, [0.0, 9.0, 0.0], 1.0, 1)
        assert dec.d_fd == 1 and dec.k_d == 0

    def test_interrupted_run_restarts(self):
        fuser = Scan(n_confirm=3)
        feed(fuser, [0, 0, 5.0], 1, 0)
        feed(fuser, [0, 0, 5.0], 1, 1)
        feed(fuser, [0, 0, 0.0], 1, 2)  # dip resets the counter
        feed(fuser, [0, 0, 5.0], 1, 3)
        feed(fuser, [0, 0, 5.0], 1, 4)
        dec = feed(fuser, [0, 0, 5.0], 1, 5)
        assert dec.d_fd == 3 and dec.k_d == 3

    def test_scan_chunk_matches_per_sample(self):
        rng = np.random.default_rng(12)
        r = rng.normal(0, 1, size=(400, 3))
        r[200:, 2] += 6.0
        th = np.full(400, 3.0)
        a = Scan(n_confirm=5)
        a.scan_chunk(r[:250], th[:250], 0)
        a.scan_chunk(r[250:], th[250:], 250)
        b = FuserOracle(n_confirm=5)
        for k in range(400):
            b.update(r[k], th[k], k)
        assert (a.d_fd, a.k_d, a.ambiguous, a.confirmed_at) == (
            b.d_fd, b.k_d, b.ambiguous, b.confirmed_at
        )

    def test_isolated_decision_requires_detection_sample(self):
        fuser = Scan(n_confirm=4)
        r = np.zeros((20, 3))
        r[6:, 1] = 5.0
        assert fuser.scan_chunk(r, np.ones(20), 0) == 2
        assert fuser.k_d == 6 and fuser.confirmed_at == 9

    @pytest.mark.parametrize(
        "residuals, thresholds",
        [(np.zeros((3, 3)), np.ones((3, 3))), (np.zeros((3, 3)), np.ones(2)),
         (np.zeros((3, 3)), np.ones(())), (np.zeros((3, 3)), np.ones((3, 1))),
         (np.zeros(3), np.ones(3)), (np.zeros((3, 2)), np.ones(3))],
        ids=["per_blade", "short", "scalar", "column", "one_dim_residuals", "two_blades"],
    )
    def test_threshold_shape_is_checked(self, residuals, thresholds):
        # a (3, 3) threshold block against a 3-row chunk would broadcast silently
        with pytest.raises(ValueError, match="thresholds"):
            DecisionFuser().scan_chunk(residuals, thresholds, 0)
