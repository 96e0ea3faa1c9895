"""Adaptive repetitive control on top of periodic-difference identification.

The rotor turns at fixed speed, so the dominant blade-load disturbance
repeats every P samples.  Differencing all signals across one period removes
it exactly, and what remains is an ordinary linear regression from windows
of differenced pitch and load onto the next differenced load: its
coefficient row holds the impulse-response (Markov) terms of each blade's
pitch-to-load channel.  Stacking those terms over one rotor period and
projecting onto a sine/cosine pair at the rotor frequency yields a tiny
six-state model per blade whose input is the per-period change of the
control waveform coefficients, and a discrete LQR on that model drives the
periodic load content to zero.

Per-blade decoupling runs through the whole pipeline: three independent
regressions per identified sample and three independent six-state designs
per period.  The blades' regressions are absorbed in turn, and at a period
boundary the law designs every live blade's gain from the identified rows
before it commits any of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import signal

from .numerics import DareError, RlsEstimator, _check_weights
# the unchecked solve: the law checks its constant weights once, at construction
from .numerics import _solve_dare as solve_dare

PRBS_AMPLITUDE = 3.0    # deg, excitation level
PRBS_HOLD = 10          # samples each random level is held
PRBS_TAU = 0.08         # s, time constant of the shaping low-pass

__all__ = [
    "build_basis",
    "project",
    "build_regressor_block",
    "MarkovIdentifier",
    "build_lifted",
    "update_gain",
    "GainResult",
    "RepetitiveLaw",
    "generate_prbs",
]


def build_basis(period_samples: int) -> np.ndarray:
    """Quadrature basis at the rotor frequency: columns sin and cos, P rows.

    The columns are orthogonal with squared norm P/2, so the projection of a
    period of samples onto the basis is (2/P) * basis.T @ samples.
    """
    if period_samples < 4:
        raise ValueError("need at least 4 samples per period")
    k = np.arange(period_samples)
    angle = 2.0 * np.pi * k / period_samples
    return np.column_stack([np.sin(angle), np.cos(angle)])


def project(basis: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """Basis coefficients of periods of samples: (P, m) -> (2, m).

    Stacked periods (n, P, m) give (n, 2, m).  The basis columns are
    orthogonal with squared norm P/2, so the least-squares projection is the
    scaled transpose.
    """
    return (2.0 / basis.shape[0]) * (basis.T @ samples)


def build_regressor_block(
    u_series: np.ndarray,
    y_series: np.ndarray,
    lo: int,
    hi: int,
    period_samples: int,
    past_window: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Period-differenced regressors and targets for samples lo..hi-1.

    Per blade, the regressor of sample k stacks
    [du(k-p) ... du(k-1), dy(k-p) ... dy(k-1)] and the target is dy(k),
    where d is the difference across one rotor period.  Returns
    (regressors (n, 2p, 3), targets (n, 3)); requires
    lo >= period_samples + past_window.  The regressors are stored blade by
    blade in column-major order, so ``regressors[:, :, b]`` is a
    Fortran-contiguous (n, 2p) block whose column j is one shifted slice of
    blade b's differenced series.
    """
    P, p = period_samples, past_window
    if lo < P + p:
        raise ValueError("window start precedes buffer warm-up")
    if hi <= lo:
        return np.zeros((0, 2 * p, 3)), np.zeros((0, 3))
    n = hi - lo
    blocks = np.empty((3, 2 * p, n))
    for half, series in enumerate((u_series, y_series)):
        # (3, n + p - 1): each blade's differenced series, contiguous in time
        diff = np.ascontiguousarray((series[lo - p : hi - 1] - series[lo - p - P : hi - 1 - P]).T)
        blocks[:, half * p : (half + 1) * p, :] = np.lib.stride_tricks.sliding_window_view(
            diff, n, axis=1
        )
    targets = y_series[lo:hi] - y_series[lo - P : hi - P]
    return blocks.transpose(2, 1, 0), targets


class MarkovIdentifier:
    """Three decoupled recursive estimators of per-blade Markov rows.

    Each row has length 2p: pitch-channel terms first, load-channel terms
    second, both oldest-sample-first to match the regressor layout.
    ``forgetting`` is the factor per absorbed row, so per identified sample.
    A run passes its law's frozen mask, so after fault isolation the degenerate
    zero-information stream from a stuck actuator stops touching its estimate.
    """

    def __init__(self, past_window: int, forgetting: float):
        dim = 2 * int(past_window)
        self.estimators = [RlsEstimator(dim, forgetting=forgetting) for _ in range(3)]

    def update_block(
        self, regressors: np.ndarray, targets: np.ndarray, frozen=(False,) * 3
    ) -> np.ndarray:
        """Absorb a chronological block, blade by blade; returns the (n, 3) a-priori residuals.

        regressors (n, 2p, 3) and targets (n, 3) are the block.  The blades
        marked in the (3,) mask ``frozen`` are left untouched; their
        residuals are taken against the rows they hold.
        """
        residuals = np.empty(np.shape(targets))
        for blade, est in enumerate(self.estimators):
            block = regressors[:, :, blade], targets[:, blade]
            residuals[:, blade] = est.residual(*block) if frozen[blade] else est.update_block(*block)
        return residuals

    def rows(self) -> np.ndarray:
        """Current Markov row estimates, shape (3, 2p)."""
        return np.vstack([est.estimate for est in self.estimators])

    def reseed(self, rows: np.ndarray) -> None:
        for blade in range(3):
            self.estimators[blade].reseed(rows[blade])

    @property
    def degenerate(self) -> bool:
        return any(est.degenerate for est in self.estimators)


def build_lifted(
    markov_row: np.ndarray,
    period_samples: int,
    past_window: int,
    basis: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Projected one-period-ahead model for a single blade.

    The state stacks [projected load; coefficient change; projected load
    change], each a sine/cosine pair, and the input is the next coefficient
    change.  The period-to-period maps convolve the identified
    impulse-response terms with the last p samples of each basis column
    (terms whose exponent reaches the past window are zero by the
    finite-memory truncation) and compress the result through the basis.
    """
    P, p = period_samples, past_window
    row = np.asarray(markov_row, dtype=float).reshape(-1)
    if row.shape[0] != 2 * p:
        raise ValueError("markov_row must have length 2 * past_window")

    # impulse terms by ascending step count (row stores oldest-first)
    mu = row[:p][::-1]
    my = row[p:][::-1]

    # period-transition maps: sample i of the next period sees the last p
    # inputs of this one through the terms of step counts i+p-1 .. i, so only
    # its first p samples are nonzero and each map is a short convolution
    tail = basis[P - p :, :]
    s_u, s_y = (
        (2.0 / P) * basis[:p].T
        @ np.column_stack([np.convolve(terms, tail[:, j])[p - 1 :] for j in range(2)])
        for terms in (mu, my)
    )

    # within-period response: strictly causal convolution of the impulse terms
    conv = np.empty((P, 2))
    for j in range(2):
        full = np.convolve(basis[:, j], mu)
        conv[1:, j] = full[: P - 1]
    conv[0, :] = 0.0
    s_h = project(basis, conv)

    a_lift = np.zeros((6, 6))
    a_lift[0, 0] = a_lift[1, 1] = 1.0
    a_lift[0:2, 2:4] = a_lift[4:6, 2:4] = s_u
    a_lift[0:2, 4:6] = a_lift[4:6, 4:6] = s_y
    b_lift = np.empty((6, 2))
    b_lift[0:2] = b_lift[4:6] = s_h
    b_lift[2:4] = np.eye(2)
    return a_lift, b_lift


@dataclass
class GainResult:
    gain: np.ndarray
    ok: bool


def update_gain(
    a_lift: np.ndarray,
    b_lift: np.ndarray,
    Q: np.ndarray,
    R: np.ndarray,
    previous: GainResult | None = None,
) -> GainResult:
    """LQR gain for the lifted model, falling back to the previous gain.

    Q and R are weights that have passed ``numerics``' checks once, as
    :class:`RepetitiveLaw` checks its own at construction; the Riccati solve
    does not check them again.  An early identification state can make the
    projected-load integrator uncontrollable (no pitch authority identified
    yet); the Riccati solve then has no stabilizing solution and the last
    usable gain is kept.
    """
    try:
        return GainResult(solve_dare(a_lift, b_lift, Q, R)[1], True)
    except DareError:
        if previous is not None:
            return GainResult(previous.gain, False)
        return GainResult(np.zeros((b_lift.shape[1], a_lift.shape[0])), False)


class RepetitiveLaw:
    """Per-blade periodic control waveform with once-per-period adaptation.

    The waveform is basis @ coeffs per blade, exactly periodic while the
    coefficients hold.  At each period boundary the coefficients move along
    the LQR feedback direction, scaled by step_gain:

        coeffs_next = coeffs - step_gain * K @ [load_proj, dcoeffs, dload]

    K weighs the six states by the identity and the input by lqr_r; scaling
    both weights together leaves K unchanged, so lqr_r is the only knob.
    The weights are constant, so they are checked once, here.  The waveform
    and the load projection use ``basis``; the lifted model is built on
    ``ident_basis``, the basis at the rate the Markov rows were identified
    at (``basis`` by default).
    """

    def __init__(
        self, basis: np.ndarray, step_gain: float = 0.3, lqr_r: float = 0.1, ident_basis=None
    ):
        self.basis = basis
        self.P = basis.shape[0]
        self.ident_basis = basis if ident_basis is None else ident_basis
        self.step_gain = float(step_gain)
        self.Q, self.R = _check_weights(np.eye(6), lqr_r * np.eye(2))
        self.coeffs = np.zeros((3, 2))
        self.frozen = np.zeros(3, dtype=bool)
        self._dcoeffs = np.zeros((3, 2))
        self._load_proj_prev: np.ndarray | None = None
        self._gains = [GainResult(np.zeros((2, 6)), False) for _ in range(3)]
        self.gain_failures = 0

    def project(self, period_block: np.ndarray) -> np.ndarray:
        """Project one period of per-blade samples (P, 3) onto the basis -> (3, 2)."""
        return project(self.basis, period_block).T

    def output_slice(self, k_start: int, n: int) -> np.ndarray:
        """Control waveform samples k_start .. k_start+n-1, shape (n, 3)."""
        idx = (k_start + np.arange(n)) % self.P
        return self.basis[idx] @ self.coeffs.T

    def freeze_blade(self, blade: int) -> None:
        self.frozen[blade - 1] = True

    def set_coeffs(self, coeffs: np.ndarray) -> None:
        """Replace the waveform coefficients (warm start); change memory resets."""
        self.coeffs = np.asarray(coeffs, dtype=float).reshape(3, 2).copy()
        self._dcoeffs = np.zeros((3, 2))

    def period_update(self, load_proj: np.ndarray, rows: np.ndarray) -> None:
        """One adaptation step from the just-completed period.

        load_proj is the measured per-blade load projection (3, 2) of that
        period and rows (3, 2p) the identified Markov rows, such as
        :meth:`MarkovIdentifier.rows`.  Each live blade's LQR gain is
        designed on its lifted model, built on ``ident_basis``; a failed
        Riccati solve falls back to that blade's previous gain.  Frozen
        blades are skipped.  Once every gain is designed the coefficients,
        their change, the load memory, the gains and the fallback count are
        committed together, so a design that raises commits nothing.
        """
        load_proj = np.asarray(load_proj, dtype=float).reshape(3, 2)
        basis = self.ident_basis
        gains = {}
        for blade in np.flatnonzero(~self.frozen):
            row = rows[blade]
            a_lift, b_lift = build_lifted(row, basis.shape[0], len(row) // 2, basis)
            gains[blade] = update_gain(a_lift, b_lift, self.Q, self.R, previous=self._gains[blade])

        if self._load_proj_prev is None:
            dload = np.zeros((3, 2))
        else:
            dload = load_proj - self._load_proj_prev
        new_coeffs = self.coeffs.copy()
        for blade, result in gains.items():
            state = np.concatenate([load_proj[blade], self._dcoeffs[blade], dload[blade]])
            new_coeffs[blade] = self.coeffs[blade] - self.step_gain * (result.gain @ state)
            self._gains[blade] = result
            if not result.ok:
                self.gain_failures += 1
        self._dcoeffs = new_coeffs - self.coeffs
        self.coeffs = new_coeffs
        self._load_proj_prev = load_proj


def generate_prbs(n: int, rng: np.random.Generator, Ts: float) -> np.ndarray:
    """Filtered binary excitation, one independent channel per blade (n, 3).

    A random two-level sequence held for PRBS_HOLD samples is passed through
    a unit-DC first-order low-pass with time constant PRBS_TAU; the output
    magnitude therefore never exceeds PRBS_AMPLITUDE.
    """
    n_holds = -(-n // PRBS_HOLD)
    levels = rng.integers(0, 2, size=(n_holds, 3)) * 2.0 - 1.0
    binary = np.repeat(levels, PRBS_HOLD, axis=0)[:n]
    pole = float(np.exp(-Ts / PRBS_TAU))
    out = signal.lfilter([1.0 - pole], [1.0, -pole], binary, axis=0)
    return PRBS_AMPLITUDE * out
