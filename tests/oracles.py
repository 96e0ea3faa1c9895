"""Per-sample reference implementations that the chunked library is tested against.

The library advances every block over whole chunks of samples.  These
references follow the defining recursions one sample at a time, so tests
can pin the chunked code to them at arbitrary chunk boundaries.  The RLS
block update has a dense reference here too: one QR of the whole stacked
system, which the library's structured QR must reproduce.  The closed loop
has a reference for its identification flush: each chunk's identified
samples are picked by hand, as the multiples of the decimation whose
regressor has its full history, their residuals computed against the rows
held before the chunk, and the live blades updated in turn.  The observer
has the paper's adaptive threshold, whose transient term the library drops
because a live run's observer is exact and starts settled.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from pitchftc import harness
from pitchftc.numerics import single_blas_thread
from pitchftc.sprc import build_regressor_block


class DeltaBuffers:
    """Per-sample ring buffers producing period-differenced regressors.

    Holds the last P + p + 1 samples of pitch and load per blade.  Once warm,
    every new sample k yields, per blade, the stacked regressor
    [du(k-p) ... du(k-1), dy(k-p) ... dy(k-1)] and the target dy(k), where
    d is the difference across one rotor period.
    """

    def __init__(self, period_samples, past_window):
        self.P = int(period_samples)
        self.p = int(past_window)
        self._cap = self.P + self.p + 1
        self._u = np.zeros((self._cap, 3))
        self._y = np.zeros((self._cap, 3))
        self._count = 0

    def update(self, u, y):
        """Push one sample; returns (regressors (3, 2p), targets (3,)) when warm."""
        slot = self._count % self._cap
        self._u[slot] = u
        self._y[slot] = y
        self._count += 1
        if self._count < self._cap:
            return None
        # unroll the ring into chronological order ending at the newest sample
        order = (np.arange(self._cap) + self._count) % self._cap
        u_seq = self._u[order]
        y_seq = self._y[order]
        du = u_seq[self.P :] - u_seq[: self.p + 1]
        dy = y_seq[self.P :] - y_seq[: self.p + 1]
        regressors = np.concatenate([du[:-1], dy[:-1]], axis=0).T.copy()
        return regressors, dy[-1].copy()


def stacked_qr_update(factor, rhs, regressors, observations, forgetting):
    """Square-root RLS block update by one dense QR of the stacked system.

    Stacks the forgotten prior ``[R z]`` over the weighted new rows
    ``[phi y]`` (row i of a block of B weighted by forgetting**((B-1-i)/2)),
    takes the R factor of the whole stack and flips row signs so the
    diagonal is positive.  Returns the new (factor, rhs).
    """
    d = factor.shape[0]
    b = regressors.shape[0]
    stacked = np.empty((d + b, d + 1))
    prior_scale = forgetting ** (0.5 * b)
    stacked[:d, :d] = prior_scale * factor
    stacked[:d, d] = prior_scale * rhs
    w = forgetting ** (0.5 * (b - 1 - np.arange(b)))
    stacked[d:, :d] = w[:, None] * regressors
    stacked[d:, d] = w * observations
    r = sla.qr(stacked, mode="r")[0]
    flip = np.where(np.diagonal(r)[:d] < 0.0, -1.0, 1.0)
    return flip[:, None] * r[:d, :d], flip * r[:d, d]


def apply_pas_fault(u, fault, k):
    """Output stuck mask: the faulty blade reads its stuck angle once the fault is active."""
    u = np.asarray(u, dtype=float).copy()
    if fault is not None and k >= fault.start_sample:
        u[fault.blade - 1] = fault.stuck_angle
    return u


def azimuth(k, period_samples):
    """Rotor azimuth in [0, 2pi) at sample k."""
    return 2.0 * np.pi * (k % period_samples) / period_samples


def periodic_disturbance(azimuth, blade, lc):
    """1P load disturbance on one blade (1-3) at a given rotor azimuth (radians)."""
    return lc.disturbance_amplitude * np.sin(azimuth + 2.0 * np.pi * (blade - 1) / 3.0)


#: largest gap between the transient bound's decay rate delta and the observer's spectral radius
DELTA_MARGIN = 0.02
#: most powers of A0 the transient bound's scan takes before it gives up
MAX_SCAN = 100_000


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


def compute_alpha_delta(A0, C):
    """Constants (alpha, delta) with ||C A0^k|| <= alpha * delta^k for all k.

    delta is the spectral radius rho of A0 plus DELTA_MARGIN, or halfway
    from rho to one when rho is closer to one than that.
    alpha is the maximum of ||C A0^k|| / delta^k over a scanned prefix; the
    scan runs until ||A0^K|| <= delta^K, after which submultiplicativity
    bounds every later term by the prefix maximum.
    """
    A0 = np.atleast_2d(np.asarray(A0, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    rho = float(np.max(np.abs(np.linalg.eigvals(A0))))
    if rho >= 1.0:
        raise ValueError(f"A0 must be stable, spectral radius {rho:.6f}")
    delta = rho + min(DELTA_MARGIN, 0.5 * (1.0 - rho))

    alpha = float(np.linalg.norm(C, 2))
    Ak = np.eye(A0.shape[0])
    scale = 1.0
    for _ in range(1, MAX_SCAN + 1):
        Ak = Ak @ A0
        scale *= delta
        alpha = max(alpha, float(np.linalg.norm(C @ Ak, 2)) / scale)
        if np.linalg.norm(Ak, 2) <= scale:
            return alpha, delta
    raise RuntimeError("transient bound scan did not terminate")


class FdieOracle:
    """Single-blade state-space observer and threshold recursion, one sample per call.

    The threshold is rbar[k] = meas_noise + z[k] with z[0] = alpha * init_error
    and z[k+1] = delta * z[k] + alpha * (model_mismatch + state_noise), where
    ||C A0^k|| <= alpha * delta^k bounds the observer's transient
    (:func:`compute_alpha_delta`).  Without bounds the threshold is zero, for
    a caller that checks the residuals alone.
    """

    def __init__(self, model, gain, alpha=1.0, delta=0.0, bounds=None):
        self.model = model
        self.gain = np.asarray(gain, dtype=float).reshape(-1)
        self.A0 = model.A - np.outer(self.gain, model.C[0])
        self.alpha = float(alpha)
        self.delta = float(delta)
        self.bounds = FdiBounds() if bounds is None else bounds
        self.xhat = np.zeros(model.n_states)
        self.threshold_state = self.alpha * self.bounds.init_error

    def init_steady(self, u0):
        """Start settled at a constant angle (zero residual)."""
        self.xhat = np.linalg.solve(
            np.eye(self.model.n_states) - self.A0, (self.model.B[:, 0] + self.gain) * u0
        )

    def step(self, u_ref, u_meas):
        """Advance one sample; returns the residual u_meas - uhat."""
        uhat = float(self.model.C[0] @ self.xhat + self.model.D[0, 0] * u_ref)
        r = u_meas - uhat
        self.xhat = self.model.A @ self.xhat + self.model.B[:, 0] * u_ref + self.gain * r
        return r

    def threshold_step(self, model_mismatch=None, state_noise=None, meas_noise=None):
        """Advance the threshold one sample; per-call bounds override the constant ones."""
        b = self.bounds
        mismatch = b.model_mismatch if model_mismatch is None else model_mismatch
        state = b.state_noise if state_noise is None else state_noise
        meas = b.meas_noise if meas_noise is None else meas_noise
        rbar = self.threshold_state + meas
        self.threshold_state = self.delta * self.threshold_state + self.alpha * (mismatch + state)
        return rbar


class FuserOracle:
    """Per-sample latched isolation with run start and ambiguity."""

    def __init__(self, n_confirm):
        self.n_confirm = n_confirm
        self.d_fd, self.k_d, self.ambiguous, self.confirmed_at = 0, None, False, None
        self._count = np.zeros(3, dtype=int)
        self._run_start = np.full(3, -1)

    def update(self, residuals, thresholds, k):
        """Absorb one sample of (3,) residuals and thresholds; returns self."""
        if self.d_fd != 0:
            return self
        crossing = np.abs(np.asarray(residuals)) > np.asarray(thresholds)
        if crossing.sum() > 1:
            self.ambiguous = True
        for blade in range(3):
            if crossing[blade]:
                if self._count[blade] == 0:
                    self._run_start[blade] = k
                self._count[blade] += 1
            else:
                self._count[blade] = 0
        confirmed = np.flatnonzero(self._count >= self.n_confirm)
        if confirmed.size == 1 and crossing.sum() <= 1:
            self.d_fd = int(confirmed[0]) + 1
            self.k_d = int(self._run_start[confirmed[0]])
            self.confirmed_at = k
        return self


def lifted_transition_maps(markov_row, period_samples, past_window, basis):
    """Projected period-to-period maps (s_u, s_y) of ``build_lifted`` by explicit shift-stacking.

    Row i of each P x p transition matrix holds the impulse terms with
    exponents i+p-1 .. i (zero where the exponent reaches the past window);
    each matrix is applied to the last p basis samples and projected.
    """
    P, p = period_samples, past_window
    row = np.asarray(markov_row, dtype=float)
    exponents = np.arange(P)[:, None] + (p - 1 - np.arange(p))[None, :]
    tail = basis[P - p :, :]
    maps = []
    for terms in (row[:p][::-1], row[p:][::-1]):
        trans = np.concatenate([terms, np.zeros(P)])[exponents]
        maps.append((2.0 / P) * (basis.T @ (trans @ tail)))
    return maps


class SequentialStepper(harness._Stepper):
    """The chunked run with its identification flush written out by hand.

    Per chunk: the identified samples k of the chunk, k = 0 (mod D) and at
    least D * (P/D + p), then the residuals of every blade on them against
    the rows held before the chunk, then the live blades' block updates in
    turn, on the every-D-th-sample series ``u_act[::D]`` and ``y[::D]``.
    The library picks its samples and computes its residuals its own way;
    it must give the same bits.
    """

    def _flush_identification(self, a, b):
        cfg, series = self.cfg, self.series
        D, p = harness.IDENT_DECIMATION, cfg.past_window
        P = cfg.period_samples // D
        k = np.arange(a, b)
        k = k[(k % D == 0) & (k >= D * (P + p))]
        if cfg.mode == "baseline" or k.size == 0:
            return
        u, y = series["u_act"][::D], series["y"][::D]
        regressors, targets = build_regressor_block(u, y, k[0] // D, k[-1] // D + 1, P, p)
        rows = self.identifier.rows()
        for blade in range(3):
            series["ident_res"][k, blade] = targets[:, blade] - regressors[:, :, blade] @ rows[blade]
        for blade, est in enumerate(self.identifier.estimators):
            if not self.law.frozen[blade]:
                est.update_block(regressors[:, :, blade], targets[:, blade])


def sequential_run(cfg, bank=None):
    """``run_simulation`` on :class:`SequentialStepper`: the run's RunResult, without telemetry."""
    with single_blas_thread():
        run = SequentialStepper(cfg, harness._run_bank(cfg, bank))
        run.advance(cfg.n_samples)
        return run.result()
