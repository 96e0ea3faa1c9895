"""Observer bank that detects and isolates a stuck pitch actuator.

One estimator per blade predicts the measured pitch angle from the pitch
reference; the prediction error is the residual.  A healthy residual stays
inside an adaptive threshold built from an exponential bound on the observer
transition matrix and declared noise bounds, so a persistent crossing is
evidence of a fault.  Isolation requires the crossing blade to be the only
one above its threshold, and the resulting decision latches for the rest of
the run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy import signal

from .numerics import StateSpaceModel

__all__ = [
    "FdiBounds",
    "Fdie",
    "FdDecision",
    "DecisionFuser",
    "design_fdie",
    "compute_alpha_delta",
    "place_observer_gain",
    "residual_noise_std",
]


@dataclass
class FdiBounds:
    """Nonnegative bounds feeding the adaptive residual threshold."""

    state_noise: float = 0.0      # per-step bound on state disturbance
    meas_noise: float = 0.0       # bound on measurement noise
    init_error: float = 0.0       # bound on the initial state-estimate error
    model_mismatch: float = 0.0   # per-step bound on unmodeled dynamics

    def __post_init__(self):
        for name in ("state_noise", "meas_noise", "init_error", "model_mismatch"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")


def place_observer_gain(model: StateSpaceModel, poles: np.ndarray) -> np.ndarray:
    """Observer gain putting the eigenvalues of A - L C at the given poles.

    Ackermann's formula on the observability matrix; the pole list must be
    closed under conjugation.  Raises if (A, C) is not observable.
    """
    A, C = model.A, model.C
    n = A.shape[0]
    if C.shape[0] != 1:
        raise ValueError("single-output models only")
    obs = np.vstack([C @ np.linalg.matrix_power(A, i) for i in range(n)])
    if np.linalg.matrix_rank(obs, tol=1e-10 * max(1.0, np.abs(obs).max())) < n:
        raise ValueError("model is not observable")
    coeffs = np.atleast_1d(np.real_if_close(np.poly(np.asarray(poles, dtype=complex))))
    if np.iscomplexobj(coeffs):
        raise ValueError("poles must be closed under conjugation")
    qA = np.zeros_like(A)
    for c in coeffs:
        qA = qA @ A + c * np.eye(n)
    e_last = np.zeros(n)
    e_last[-1] = 1.0
    return qA @ np.linalg.solve(obs, e_last)


def compute_alpha_delta(
    A0: np.ndarray, C: np.ndarray, margin: float | None = None, max_scan: int = 100_000
) -> tuple[float, float]:
    """Constants (alpha, delta) with ||C A0^k|| <= alpha * delta^k for all k.

    delta is the spectral radius of A0 plus a margin keeping it below one.
    alpha is the maximum of ||C A0^k|| / delta^k over a scanned prefix; the
    scan runs until ||A0^K|| <= delta^K, after which submultiplicativity
    bounds every later term by the prefix maximum.
    """
    A0 = np.atleast_2d(np.asarray(A0, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    rho = float(np.max(np.abs(np.linalg.eigvals(A0))))
    if rho >= 1.0:
        raise ValueError(f"A0 must be stable, spectral radius {rho:.6f}")
    if margin is None:
        margin = min(0.02, 0.5 * (1.0 - rho))
    delta = rho + margin
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta = rho + margin = {delta} must lie in (0, 1)")

    alpha = float(np.linalg.norm(C, 2))
    Ak = np.eye(A0.shape[0])
    scale = 1.0
    for _ in range(1, max_scan + 1):
        Ak = Ak @ A0
        scale *= delta
        alpha = max(alpha, float(np.linalg.norm(C @ Ak, 2)) / scale)
        if np.linalg.norm(Ak, 2) <= scale:
            return alpha, delta
    raise RuntimeError("transient bound scan did not terminate")


def residual_noise_std(model: StateSpaceModel, gain: np.ndarray, meas_std: float) -> float:
    """Stationary residual standard deviation under white measurement noise.

    The estimate error obeys e+ = (A - LC) e - L n, and the residual is
    C e + n, so its variance follows from the discrete Lyapunov equation.
    """
    L = np.asarray(gain, dtype=float).reshape(-1, 1)
    A0 = model.A - L @ model.C
    cov = sla.solve_discrete_lyapunov(A0, meas_std**2 * (L @ L.T))
    var = (model.C @ cov @ model.C.T).item() + meas_std**2
    return float(np.sqrt(var))


class Fdie:
    """Single-blade fault detection and isolation estimator.

    Predicts the measured pitch from the reference through a copy of the
    actuator model, corrected by the gain on the prediction error, and runs
    the threshold recursion alongside.  Use either the per-sample interface
    (:meth:`step` / :meth:`threshold_step`) or the vectorized
    :meth:`run_chunk`, not both on the same instance.
    """

    def __init__(
        self,
        model: StateSpaceModel,
        gain: np.ndarray,
        alpha: float,
        delta: float,
        bounds: FdiBounds,
    ):
        if not 0.0 < delta < 1.0:
            raise ValueError("delta must be in (0, 1)")
        if alpha < 1.0:
            raise ValueError("alpha must be at least 1")
        self.model = model
        self.gain = np.asarray(gain, dtype=float).reshape(-1)
        if self.gain.shape[0] != model.n_states:
            raise ValueError("gain length must match the model order")
        A0 = model.A - np.outer(self.gain, model.C[0])
        rho = np.max(np.abs(np.linalg.eigvals(A0)))
        if rho >= 1.0:
            raise ValueError(f"observer not stable, spectral radius {rho:.6f}")
        self.A0 = A0
        self.alpha = float(alpha)
        self.delta = float(delta)
        self.bounds = bounds

        self.xhat = np.zeros(model.n_states)
        self.threshold_state = self.alpha * bounds.init_error

        # transfer-function form for chunked execution: uhat = F_ref u_ref + F_meas u_meas
        B2 = np.column_stack([model.B, self.gain])
        D2 = np.zeros((1, 2))
        num_ref, den = signal.ss2tf(A0, B2, model.C, D2, input=0)
        num_meas, _ = signal.ss2tf(A0, B2, model.C, D2, input=1)
        self._den = den
        self._num_ref = num_ref[0]
        self._num_meas = num_meas[0]
        self._zi_ref = np.zeros(model.n_states)
        self._zi_meas = np.zeros(model.n_states)

    def init_steady(self, u0: float) -> None:
        """Start the estimator settled at a constant angle (zero residual)."""
        self.xhat = np.linalg.solve(
            np.eye(self.model.n_states) - self.A0,
            (self.model.B[:, 0] + self.gain) * u0,
        )
        self._zi_ref = signal.lfilter_zi(self._num_ref, self._den) * u0
        self._zi_meas = signal.lfilter_zi(self._num_meas, self._den) * u0

    def step(self, u_ref: float, u_meas: float) -> float:
        """Advance one sample; returns the residual u_meas - uhat."""
        uhat = float(self.model.C[0] @ self.xhat + self.model.D[0, 0] * u_ref)
        r = u_meas - uhat
        self.xhat = self.model.A @ self.xhat + self.model.B[:, 0] * u_ref + self.gain * r
        return r

    def threshold_step(
        self,
        model_mismatch: float | None = None,
        state_noise: float | None = None,
        meas_noise: float | None = None,
    ) -> float:
        """Advance the threshold recursion one sample; returns the current bound.

        Per-call overrides support time-varying bound schedules; by default
        the constant bounds from construction apply.
        """
        b = self.bounds
        mismatch = b.model_mismatch if model_mismatch is None else model_mismatch
        state = b.state_noise if state_noise is None else state_noise
        meas = b.meas_noise if meas_noise is None else meas_noise
        rbar = self.threshold_state + meas
        self.threshold_state = self.delta * self.threshold_state + self.alpha * (mismatch + state)
        return rbar

    def get_state(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        return self.xhat.copy(), self._zi_ref.copy(), self._zi_meas.copy(), self.threshold_state

    def set_state(self, state) -> None:
        self.xhat = state[0].copy()
        self._zi_ref = state[1].copy()
        self._zi_meas = state[2].copy()
        self.threshold_state = state[3]

    def run_chunk(self, u_ref: np.ndarray, u_meas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized residuals and thresholds over aligned input arrays."""
        u_ref = np.asarray(u_ref, dtype=float).reshape(-1)
        u_meas = np.asarray(u_meas, dtype=float).reshape(-1)
        if u_ref.shape != u_meas.shape:
            raise ValueError("u_ref and u_meas must have equal length")
        part_ref, self._zi_ref = signal.lfilter(self._num_ref, self._den, u_ref, zi=self._zi_ref)
        part_meas, self._zi_meas = signal.lfilter(self._num_meas, self._den, u_meas, zi=self._zi_meas)
        r = u_meas - (part_ref + part_meas)

        n = u_ref.shape[0]
        drive = np.full(n, self.bounds.model_mismatch + self.bounds.state_noise)
        z_series, zf = signal.lfilter(
            [0.0, self.alpha], [1.0, -self.delta], drive, zi=np.array([self.threshold_state])
        )
        self.threshold_state = float(zf[0])
        rbar = z_series + self.bounds.meas_noise
        return r, rbar


def design_fdie(
    model: StateSpaceModel,
    pole_radius: float,
    bounds: FdiBounds | None = None,
    margin: float | None = None,
) -> Fdie:
    """Build an estimator with observer poles placed at the given radius.

    The open-loop pole angles are kept and their magnitudes scaled to
    pole_radius; radius zero yields the dead-beat observer.
    """
    if not 0.0 <= pole_radius < 1.0:
        raise ValueError("pole_radius must be in [0, 1)")
    open_poles = np.linalg.eigvals(model.A)
    mags = np.abs(open_poles)
    unit = np.where(mags > 0, open_poles / np.where(mags > 0, mags, 1.0), 1.0)
    gain = place_observer_gain(model, pole_radius * unit)
    A0 = model.A - np.outer(gain, model.C[0])
    alpha, delta = compute_alpha_delta(A0, model.C, margin=margin)
    return Fdie(model, gain, max(alpha, 1.0), delta, bounds or FdiBounds())


@dataclass
class FdDecision:
    """Fused fault decision: 0 means healthy, 1-3 names the isolated blade."""

    d_fd: int = 0
    k_d: int | None = None
    ambiguous: bool = False

    def __post_init__(self):
        if self.d_fd != 0 and self.k_d is None:
            raise ValueError("an isolated fault must carry its detection sample")


class DecisionFuser:
    """Turns per-blade threshold crossings into one latched fault decision.

    A blade is isolated when its residual has exceeded its threshold for
    n_confirm consecutive samples while no other blade is crossing; the
    detection sample is the first of that run.  Simultaneous multi-blade
    crossings are reported as ambiguous and never isolate.  Once latched the
    decision is immutable.
    """

    def __init__(self, n_confirm: int = 10):
        if n_confirm < 1:
            raise ValueError("n_confirm must be at least 1")
        self.n_confirm = int(n_confirm)
        self.decision = FdDecision()
        #: sample at which the decision latched; later than k_d + n_confirm - 1
        #: when another blade's crossing held the confirmation back
        self.confirmed_at: int | None = None
        self._count = np.zeros(3, dtype=int)
        self._run_start = np.full(3, -1, dtype=int)

    def update(self, residuals: np.ndarray, thresholds: np.ndarray, k: int) -> FdDecision:
        crossing = np.abs(np.asarray(residuals)) > np.asarray(thresholds)
        return self._absorb(crossing, k)

    def _absorb(self, crossing: np.ndarray, k: int) -> FdDecision:
        if self.decision.d_fd != 0:
            return self.decision
        if crossing.sum() > 1:
            self.decision.ambiguous = True
        for blade in range(3):
            if crossing[blade]:
                if self._count[blade] == 0:
                    self._run_start[blade] = k
                self._count[blade] += 1
            else:
                self._count[blade] = 0
        confirmed = np.flatnonzero(self._count >= self.n_confirm)
        if confirmed.size == 0:
            return self.decision
        if confirmed.size > 1 or crossing.sum() > 1:
            return self.decision
        blade = int(confirmed[0])
        self.decision = FdDecision(
            d_fd=blade + 1,
            k_d=int(self._run_start[blade]),
            ambiguous=self.decision.ambiguous,
        )
        self.confirmed_at = k
        return self.decision

    def scan_chunk(self, residuals: np.ndarray, thresholds: np.ndarray, k_start: int) -> FdDecision:
        """Process aligned (n, 3) residual/threshold blocks; stops once latched."""
        if self.decision.d_fd != 0:
            return self.decision
        crossing = np.abs(residuals) > thresholds
        if not crossing.any() and self._count.max() == 0:
            return self.decision
        for i in range(crossing.shape[0]):
            self._absorb(crossing[i], k_start + i)
            if self.decision.d_fd != 0:
                break
        return self.decision
