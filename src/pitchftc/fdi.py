"""Observer bank that detects and isolates a stuck pitch actuator.

One estimator per blade predicts the measured pitch angle from the pitch
reference (the three identical blades run as one column block); the
prediction error is the residual.  A healthy residual stays inside a
threshold, and a persistent crossing is evidence of a fault.  Isolation
requires the crossing blade to be the only one above the threshold, and the
resulting decision latches for the rest of the run.

The paper's threshold adds to a measurement-noise bound a transient term
driven by state-noise, initial-error and model-mismatch bounds.  The
surrogate's observer model is the actuator model and starts settled, so
that term is zero and the threshold is the measurement bound alone,
``NOISE_MULTIPLIER * residual_noise_std``: one constant that the three
blades share.  The transient recursion is a test oracle
(``tests/oracles.FdieOracle``), checked against its closed-form sum by
acceptance check A3.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
from scipy import signal

from .numerics import StateSpaceModel, run_lengths

__all__ = [
    "Fdie",
    "DecisionFuser",
    "decision_record",
    "design_fdie",
    "place_observer_gain",
    "residual_noise_std",
]

#: samples a lone blade's unbroken crossing run needs before it is isolated
N_CONFIRM = 10
#: a live run's threshold is NOISE_MULTIPLIER times the residual's noise std
NOISE_MULTIPLIER = 6.5


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
    share model and gain, so one threshold serves them all; the column count
    follows the data.
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
