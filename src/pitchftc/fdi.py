"""Observer bank that detects and isolates a stuck pitch actuator.

One estimator per blade predicts the measured pitch angle from the pitch
reference (the three identical blades run as one column block); the
prediction error is the residual.  A healthy residual stays inside an
adaptive threshold: a measurement-noise bound plus a transient term built
from an exponential bound on the observer transition matrix and declared
state-noise, initial-error and model-mismatch bounds (:meth:`Fdie.threshold`).
A persistent crossing is evidence of a fault.  Isolation requires the
crossing blade to be the only one above its threshold, and the resulting
decision latches for the rest of the run.

The threshold depends only on the bounds and the sample index, so a run
computes it once, as one (n,) series: the blades share model and gain, so
one threshold per sample serves all three.  The surrogate's observer model
is the actuator model and starts settled, so a live run declares only the
measurement bound ``NOISE_MULTIPLIER * residual_noise_std``; the transient
term is then exactly zero and is not computed.  The transient bounds serve the
threshold's tests, which pin it to the per-sample recursion of
``tests/oracles.FdieOracle`` that acceptance check A3 verifies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy import signal

from .numerics import StateSpaceModel, run_lengths

__all__ = [
    "FdiBounds",
    "Fdie",
    "DecisionFuser",
    "decision_record",
    "design_fdie",
    "compute_alpha_delta",
    "place_observer_gain",
    "residual_noise_std",
]

#: largest gap between the transient bound's decay rate delta and the observer's spectral radius
DELTA_MARGIN = 0.02
#: most powers of A0 the transient bound's scan takes before it gives up
MAX_SCAN = 100_000
#: samples a lone blade's unbroken crossing run needs before it is isolated
N_CONFIRM = 10
#: a live run's threshold is NOISE_MULTIPLIER times the residual's noise std
NOISE_MULTIPLIER = 6.5


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


def compute_alpha_delta(A0: np.ndarray, C: np.ndarray) -> tuple[float, float]:
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
    """Residual generator for a block of identical blades.

    Predicts each column of the measured pitch from the same column of the
    reference through a copy of the actuator model, corrected by the gain on
    the prediction error; the residual is that prediction error.  The blades
    share model and gain, so one threshold (:meth:`threshold`) serves them
    all; the column count follows the data.
    """

    def __init__(self, model: StateSpaceModel, gain: np.ndarray):
        self.model = model
        self.gain = np.asarray(gain, dtype=float).reshape(-1)
        if self.gain.shape[0] != model.n_states:
            raise ValueError("gain length must match the model order")
        A0 = model.A - np.outer(self.gain, model.C[0])
        rho = np.max(np.abs(np.linalg.eigvals(A0)))
        if rho >= 1.0:
            raise ValueError(f"observer not stable, spectral radius {rho:.6f}")
        self.A0 = A0

        # transfer-function form: uhat = F_ref u_ref + F_meas u_meas
        B2 = np.column_stack([model.B, self.gain])
        D2 = np.zeros((1, 2))
        num_ref, den = signal.ss2tf(A0, B2, model.C, D2, input=0)
        num_meas, _ = signal.ss2tf(A0, B2, model.C, D2, input=1)
        self._den = den
        self._num_ref = num_ref[0]
        self._num_meas = num_meas[0]
        #: filter states (order, columns); sized by init_steady or the first chunk
        self._zi_ref = self._zi_meas = None

    def init_steady(self, u0: np.ndarray) -> None:
        """Start each column settled at its constant angle u0[(m,)] (zero residual)."""
        self._zi_ref = np.outer(signal.lfilter_zi(self._num_ref, self._den), u0)
        self._zi_meas = np.outer(signal.lfilter_zi(self._num_meas, self._den), u0)

    def run_chunk(self, u_ref: np.ndarray, u_meas: np.ndarray) -> np.ndarray:
        """Residuals (n, m) over aligned (n, m) input blocks."""
        u_ref = np.asarray(u_ref, dtype=float)
        u_meas = np.asarray(u_meas, dtype=float)
        if u_ref.ndim != 2 or u_ref.shape != u_meas.shape:
            raise ValueError("u_ref and u_meas must be (n, m) blocks of equal shape")
        if self._zi_ref is None:
            self.init_steady(np.zeros(u_ref.shape[1]))
        part_ref, self._zi_ref = signal.lfilter(
            self._num_ref, self._den, u_ref, axis=0, zi=self._zi_ref
        )
        part_meas, self._zi_meas = signal.lfilter(
            self._num_meas, self._den, u_meas, axis=0, zi=self._zi_meas
        )
        return u_meas - (part_ref + part_meas)

    def threshold(self, bounds: FdiBounds, n: int) -> np.ndarray:
        """The adaptive threshold (n,) over the first n samples of a run.

        rbar[k] = meas_noise + z[k] with z[0] = alpha * init_error and
        z[k+1] = delta * z[k] + alpha * (model_mismatch + state_noise), where
        ||C A0^k|| <= alpha * delta^k bounds the observer's transient
        (:func:`compute_alpha_delta`, alpha at least 1).  With the three
        transient bounds zero, z is zero for any alpha and delta, so the
        scan is skipped and the threshold is the measurement bound.
        """
        rbar = np.full(n, float(bounds.meas_noise))
        drive = bounds.model_mismatch + bounds.state_noise
        if drive == 0.0 and bounds.init_error == 0.0:
            return rbar
        alpha, delta = compute_alpha_delta(self.A0, self.model.C)
        alpha = max(alpha, 1.0)
        z, _ = signal.lfilter(
            [0.0, alpha], [1.0, -delta], np.full(n, drive), zi=[alpha * bounds.init_error]
        )
        return z + rbar


def design_fdie(model: StateSpaceModel, pole_radius: float) -> Fdie:
    """Build an estimator with observer poles placed at the given radius.

    The open-loop pole angles are kept and their magnitudes scaled to
    pole_radius; radius zero yields the dead-beat observer.
    """
    if not 0.0 <= pole_radius < 1.0:
        raise ValueError("pole_radius must be in [0, 1)")
    open_poles = np.linalg.eigvals(model.A)
    mags = np.abs(open_poles)
    unit = np.where(mags > 0, open_poles / np.where(mags > 0, mags, 1.0), 1.0)
    return Fdie(model, place_observer_gain(model, pole_radius * unit))


class DecisionFuser:
    """Turns per-blade threshold crossings into one latched fault decision.

    A blade is isolated on the first sample where it is the only blade
    crossing and its unbroken crossing run has reached ``N_CONFIRM`` samples,
    read when each chunk is scanned.  Once latched the decision (d_fd: 0
    healthy, 1-3 the isolated blade) is immutable; :func:`decision_record`
    reads the run start and the ambiguity flag back from the crossings.
    """

    def __init__(self):
        self.d_fd = 0
        #: sample at which the decision latched
        self.confirmed_at: int | None = None
        self._runs = np.zeros(3, dtype=int)  # crossing runs carried into the next chunk

    def scan_chunk(self, residuals: np.ndarray, thresholds: np.ndarray, k_start: int) -> int:
        """Process an (n, 3) residual block against its (n,) thresholds; stops once latched.

        The threshold of a sample is shared by the three blades.  Any other
        shape raises ValueError: a per-blade (3,) or (n, 3) threshold would
        otherwise broadcast silently against a 3-row chunk.  Returns the
        decision d_fd.
        """
        rows = residuals.shape[:1]
        if residuals.shape != rows + (3,) or thresholds.shape != rows:
            raise ValueError("scan_chunk takes (n, 3) residuals and (n,) thresholds")
        if self.d_fd != 0:
            return self.d_fd
        crossing = np.abs(residuals) > thresholds[:, None]
        if not crossing.any() and not self._runs.any():
            return self.d_fd
        runs = run_lengths(crossing, self._runs)
        hits = np.flatnonzero((crossing.sum(axis=1) == 1) & (runs >= N_CONFIRM).any(axis=1))
        if hits.size:
            i = int(hits[0])
            self.d_fd = int(np.argmax(crossing[i])) + 1
            self.confirmed_at = k_start + i
        self._runs = runs[-1]
        return self.d_fd


def decision_record(crossing: np.ndarray, dfd: np.ndarray) -> tuple[int, int | None, int | None, bool]:
    """The fuser's decision read back from its (n, 3) crossings and dfd column.

    Returns (d_fd, k_d, decision_sample, ambiguous): the isolated blade, the
    first sample of its crossing run ending at the decision sample (the
    first nonzero dfd), that sample, and whether any scanned sample had two
    or more blades crossing.  Without a decision every sample was scanned.
    """
    nonzero = np.flatnonzero(dfd)
    scanned = int(nonzero[0]) + 1 if nonzero.size else len(dfd)
    ambiguous = bool((np.count_nonzero(crossing[:scanned], axis=1) > 1).any())
    if not nonzero.size:
        return 0, None, None, ambiguous
    d_fd = int(dfd[scanned - 1])
    k_d = scanned - int(run_lengths(crossing[:scanned, d_fd - 1])[-1])
    return d_fd, k_d, scanned - 1, ambiguous
