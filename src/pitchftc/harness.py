"""Run configuration, closed-loop orchestration, metrics and artifacts.

A run wires the blocks together per sample: compose the pitch command
(collective + repetitive waveform + excitation), drive the actuators with
fault injection, drive the plant, feed the diagnosis bank, absorb every
``IDENT_DECIMATION``-th sample into the identification, and at every
rotor-period boundary refresh the LQR gain and the waveform coefficients.
In the full architecture a latched fault isolation additionally triggers
the pre-tuned parameter switch at the next period boundary.

The loop is executed in rotor-period chunks: inside a chunk nothing feeds
back across samples except through linear filters, so each block advances
with vectorized filtering, equivalent to per-sample stepping.  The law
changes only at period boundaries, the switch included, so nothing in a
run acts mid-chunk and nothing rewinds.  A comparison runs its adaptive
modes as one sprc_only run until the chunk in which the diagnosis latches,
and forks the others at its end; without a decision it forks them at the
end of the run.

Controller modes:

- ``baseline``: fixed collective pitch only (no excitation, no adaptation),
- ``sprc_only``: adaptive repetitive control without fault accommodation,
- ``proposed``: adaptive control plus diagnosis-triggered warm start,
- ``offline_tune``: fault active from the first sample; the run stops once
  the coefficients converge and snapshots the controller state.
"""

from __future__ import annotations

import copy
import json
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .actuator import ActuatorBank, FaultDescriptor
from .fdi import DecisionFuser, FdiBounds, decision_record, design_fdie, residual_noise_std
from .numerics import run_lengths, single_blas_thread
from .plant import LOAD_CASES, PITCH_MAX_DEG, PITCH_MIN_DEG, LoadCase, Plant
from .sprc import (
    MarkovIdentifier,
    RepetitiveLaw,
    build_basis,
    build_regressor_block,
    generate_prbs,
    project,
)
from . import supervisor as _supervisor

__all__ = [
    "RunConfig",
    "RunReport",
    "RunResult",
    "run_simulation",
    "load_reduction_metrics",
    "convergence_time",
    "compare_modes",
    "write_csv",
    "read_csv",
    "CSV_SCHEMA",
]

MODES = ("baseline", "sprc_only", "proposed", "offline_tune")

CSV_SCHEMA = "pitchftc-timeseries-v2"
#: the (N, 3) series, one column per blade; the threshold rbar is one (N,) series
_BLADE_SERIES = ("u_ref", "u_act", "u_meas", "y", "sprc", "prbs", "r", "ident_res")
_CSV_COLUMNS = ["k", "t", *(f"{n}{b}" for n in _BLADE_SERIES for b in (1, 2, 3)), "rbar", "dfd"]
_CSV_ROW = ",".join(["%d"] + ["%.17g"] * (len(_CSV_COLUMNS) - 2) + ["%d"]) + "\n"
_CSV_CHUNK_ROWS = 4096


#: one revolution at the fixed 9.6 rpm rotor speed
ROTOR_PERIOD_S = 6.25
#: the identification absorbs every IDENT_DECIMATION-th sample (20 Hz at the
#: reference Ts); the law's waveform and the load projection run on every sample
IDENT_DECIMATION = 5
#: the identifier forgets by this per sample, so by its IDENT_DECIMATION-th
#: power per identified sample: the memory in seconds does not depend on the rate
FORGETTING_PER_SAMPLE = 0.99999
#: first rotor period with coefficient updates
START_PERIOD = 4
# the coefficients are quiet once the per-blade increment stays below
# CONVERGENCE_EPS * max(norm, CONVERGENCE_FLOOR) for CONVERGENCE_CONSECUTIVE periods
CONVERGENCE_EPS = 0.04
CONVERGENCE_FLOOR = 12.0            # deg
CONVERGENCE_CONSECUTIVE = 10


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs, checked once when built; defaults reproduce the reference protocol."""

    mode: str = "proposed"
    load_case: str = "LC3"
    seed: int = 0

    Ts: float = 0.01                    # s, sample time
    duration_s: float = 1400.0          # s, simulated time

    fault_blade: int = 3                # 0 disables the fault
    fault_time_s: float = 900.0         # s, fault onset
    fault_angle: float | None = None    # deg; None takes the load-case angle

    # identification and repetitive control
    past_window: int = 20               # identified samples of differenced history per channel
    lqr_r: float = 0.1                  # input weight against a unit state weight
    step_gain: float = 0.3

    meas_noise_var: float = 1.5         # deg^2, pitch measurement noise variance

    # diagnosis
    pole_radius: float = 0.98
    noise_multiplier: float = 6.5       # threshold = multiplier * residual std

    # report windows
    settle_periods: int = 2
    comparison_window_s: float = 200.0

    load_gain: float = -30.0            # kN*m/deg, pitch-to-load gain

    bank_path: str | None = None

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, np.generic):
                # the Python scalar, which JSON can encode
                value = value.item()
                object.__setattr__(self, f.name, value)
            kind = f.type.removesuffix(" | None")
            if value is None and kind != f.type:
                continue
            if kind == "int" and type(value) is not int:
                raise ValueError(f"{f.name} must be an integer")
            if kind == "float":
                if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
                    raise ValueError(f"{f.name} must be a finite number")
                object.__setattr__(self, f.name, float(value))  # one spelling: -30 is -30.0
            if kind == "str" and not isinstance(value, str):
                raise ValueError(f"{f.name} must be a string")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.load_case not in LOAD_CASES:
            raise ValueError(f"load_case must be one of {sorted(LOAD_CASES)}")
        if self.Ts <= 0 or self.duration_s <= 0:
            raise ValueError("Ts and duration_s must be positive")
        ratio = ROTOR_PERIOD_S / self.Ts  # overflows for a subnormal Ts
        if ratio > sys.float_info.max or abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 4:
            raise ValueError("Ts must divide the rotor period into an integer (>= 4) of samples")
        for name in ("duration_s", "fault_time_s"):
            # a sample count past the float range is infinite, and int(round(inf)) overflows
            if not getattr(self, name) / self.Ts <= sys.float_info.max:
                raise ValueError(f"{name} must be a finite number of samples")
        if self.n_samples < 1:
            raise ValueError("duration_s must hold at least one sample")
        if self.fault_blade not in (0, 1, 2, 3):
            raise ValueError("fault_blade must be 0 (none) or 1..3")
        if self.fault_blade and not (0.0 <= self.fault_time_s and self.fault_sample < self.n_samples):
            raise ValueError("fault_time_s must lie inside the run, on a sample before its last")
        if self.mode == "offline_tune" and (self.fault_blade == 0 or self.fault_time_s != 0.0):
            raise ValueError("offline_tune requires a configured fault from the first sample")
        D = IDENT_DECIMATION
        if self.period_samples % D or self.period_samples // D < 4:
            raise ValueError(f"Ts must divide the rotor period into at least 4 steps of {D} samples")
        if self.past_window < 1 or self.past_window >= self.period_samples // D:
            raise ValueError(f"past_window must be in [1, period_samples // {D})")
        if not 0.0 <= self.pole_radius < 1.0:
            raise ValueError("pole_radius must be in [0, 1)")
        if min(self.settle_periods, self.seed) < 0:
            raise ValueError("settle_periods and seed must be nonnegative")
        # a zero noise variance or multiplier is a zero threshold that every residual crosses
        positive = ("lqr_r", "meas_noise_var", "noise_multiplier", "comparison_window_s")
        if min(getattr(self, name) for name in positive) <= 0:
            raise ValueError(f"{', '.join(positive)} must be positive")
        if not 0.0 <= self.step_gain <= 1.0:
            raise ValueError("step_gain must lie in [0, 1]")

    # derived quantities ---------------------------------------------------

    @property
    def period_samples(self) -> int:
        return int(round(ROTOR_PERIOD_S / self.Ts))

    @property
    def n_samples(self) -> int:
        return int(round(self.duration_s / self.Ts))

    @property
    def fault_sample(self) -> int | None:
        if self.fault_blade == 0:
            return None
        return int(round(self.fault_time_s / self.Ts))

    @property
    def meas_noise_std(self) -> float:
        return float(np.sqrt(self.meas_noise_var))

    def effective_load_case(self) -> LoadCase:
        base = LOAD_CASES[self.load_case]
        return base if self.fault_angle is None else replace(base, stuck_angle=self.fault_angle)

    # serialization ---------------------------------------------------------

    def dynamics(self) -> dict:
        """Plant and controller tuning fields; a bank entry fits a run when they are equal.

        Mode, seed, run length and the injected fault (blade, angle, timing)
        are left out: an offline-tuned entry stays valid for any online
        protocol, and the supervisor must not see the ground truth.
        """
        return {name: getattr(self, name) for name in _DYNAMICS_FIELDS}

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ValueError("a config must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_json_file(cls, path: str | Path) -> "RunConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def to_json_file(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=1))


_DYNAMICS_FIELDS = (
    "load_case", "Ts", "past_window", "lqr_r", "step_gain", "meas_noise_var", "load_gain"
)


@dataclass
class RunReport:
    """Summary of a run, built by :func:`report_from_series` from its time series.

    A live run's report is that rebuild of its own series, so a report
    rebuilt from the CSV is equal field by field.  Only five fields are
    controller tallies supplied by the run: ``gain_failures``,
    ``rls_degenerate``, ``switch_sample``, ``switch_applied`` and
    ``converged_period``.  ``switch_sample`` is the first period boundary
    after ``decision_sample``, where proposed switches; None if the run
    ended first.
    """

    schema: str
    mode: str
    load_case: str
    seed: int
    duration_s: float
    fault_blade: int
    fault_sample: int | None

    d_fd: int
    k_d: int | None
    decision_sample: int | None
    ambiguous: bool
    switch_sample: int | None
    switch_applied: bool

    variance_healthy: list | None         # None: window shorter than two samples
    variance_faulty: list | None
    variance_comparison: list | None
    psd_peak_1p: list | None              # None: comparison window under six periods

    healthy_converged_period: int | None
    postfault_converged_periods: int | None
    final_coeff_increment: float
    converged_period: int | None          # offline tuning convergence (absolute)
    frozen_updates: bool                  # step_gain == 0: convergence is vacuous

    threshold_crossings: list
    max_residual_ratio: float
    saturation_count: int
    gain_failures: int
    rls_degenerate: bool
    windows: dict

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class RunResult:
    config: RunConfig
    series: dict
    report: RunReport
    #: waveform coefficients applied during each rotor period (n_periods, 3, 2)
    coeff_history: np.ndarray
    snapshot_coeffs: np.ndarray | None = None
    snapshot_markov: np.ndarray | None = None
    #: the environment the run computed in (the BLAS pin); never part of the report
    telemetry: dict = field(default_factory=dict)


def _run_bank(cfg: RunConfig, bank):
    """The bank a run of cfg switches with; only proposed mode uses one.

    That is the given bank, else the one at ``cfg.bank_path``.  A proposed
    run with a configured fault and no bank raises ValueError.
    """
    if cfg.mode != "proposed":
        return None
    if bank is None and cfg.bank_path is not None:
        bank = _supervisor.PretunedBank.load(cfg.bank_path)
    if cfg.fault_blade != 0 and bank is None:
        raise ValueError("proposed mode with a configured fault needs a pre-tuned bank")
    return bank


def run_simulation(cfg: RunConfig, bank: "_supervisor.PretunedBank | None" = None) -> RunResult:
    """Execute one closed-loop run; deterministic in (config, seed).

    BLAS runs on one thread for the length of the run, so the bits do not
    depend on the thread count the process was started with.
    """
    bank = _run_bank(cfg, bank)
    with single_blas_thread() as pin:
        run = _Stepper(cfg, bank)
        run.advance(cfg.n_samples)
        result = run.result()
    result.telemetry = pin
    return result


class _Stepper:
    """One closed-loop run, advanced over rotor-period chunks.

    It owns the blocks (actuators, plant, observer, fuser, law and
    identifier), the series it writes, the applied-coefficient history and
    the controller tallies.  :meth:`fork` copies that state, so the
    adaptive arms of a comparison compute their common prefix once.
    """

    def __init__(self, cfg: RunConfig, bank) -> None:
        self.cfg, self.bank = cfg, bank
        P, N = cfg.period_samples, cfg.n_samples
        lc = self.lc = cfg.effective_load_case()
        fault = None
        if cfg.fault_blade:
            fault = FaultDescriptor(cfg.fault_blade, lc.stuck_angle, cfg.fault_sample)

        D = IDENT_DECIMATION
        self.law = RepetitiveLaw(
            build_basis(P), step_gain=cfg.step_gain, lqr_r=cfg.lqr_r,
            ident_basis=build_basis(P // D),
        )
        self.identifier = MarkovIdentifier(cfg.past_window, forgetting=FORGETTING_PER_SAMPLE**D)
        self.actuator = ActuatorBank(cfg.Ts, fault=fault)
        self.plant = Plant(lc, cfg.Ts, P, cfg.load_gain)
        # one observer for the three blades: they share model and gain
        self.fdie = design_fdie(self.actuator.model, cfg.pole_radius)
        self.fuser = DecisionFuser()

        start = np.full(3, lc.collective_setpoint)
        self.actuator.init_steady(start)
        self.fdie.init_steady(start)

        sigma = cfg.meas_noise_std
        seeds = np.random.SeedSequence(cfg.seed).spawn(3)
        rng_plant, rng_meas, rng_prbs = (np.random.default_rng(c) for c in seeds)
        self.load_noise = rng_plant.normal(0.0, lc.noise_std, size=(N, 3))
        self.meas_noise = rng_meas.normal(0.0, sigma, size=(N, 3))
        adaptive = cfg.mode != "baseline"
        self.prbs = generate_prbs(N, rng_prbs, cfg.Ts) if adaptive else np.zeros((N, 3))
        # a fork shares these inputs with its parent, so neither may write them
        for inputs in (self.load_noise, self.meas_noise, self.prbs):
            inputs.setflags(write=False)

        series = {name: self.prbs if name == "prbs" else np.zeros((N, 3)) for name in _BLADE_SERIES}
        # the observer model is exact and starts settled, so the threshold is the
        # measurement bound alone: the residual noise, which depends on the gain, scaled
        meas_bound = cfg.noise_multiplier * residual_noise_std(self.actuator.model, self.fdie.gain, sigma)
        series["rbar"] = self.fdie.threshold(FdiBounds(meas_noise=meas_bound), N)
        self.series = series
        self.coeff_history = np.zeros((N // P, 3, 2))

        self.k = 0
        self.end = N  # an offline tuning ends at the period it converges in
        self.switch_sample = None
        self.switch_applied = False
        self.converged_period = None
        self.snapshot_coeffs = self.snapshot_markov = None

    def advance(self, to_sample: int, until_decision: bool = False) -> None:
        """Run chunks until sample to_sample, or the end of an offline tuning.

        A chunk ends at the next period boundary or at to_sample, whichever
        comes first.  With ``until_decision`` the run stops after the chunk
        in which the fuser latches: up to there sprc_only and proposed run
        the same code, since a proposed run switches only at the first
        period boundary after the decision.
        """
        while self.k < min(to_sample, self.end):
            if self._step(min(to_sample, self.end)) and until_decision:
                return

    def fork(self, mode: str, bank=None) -> "_Stepper":
        """A copy of this adaptive run that carries on in adaptive ``mode``.

        It forks before its decision acts: anywhere up to the first period
        boundary after the decision, or anywhere without a decision.  The
        filters, fuser, law, identifier, series and tallies are copied; the
        read-only noise and excitation arrays are shared.  From here the
        copy runs exactly the code an independent run of ``mode`` runs.
        """
        adaptive = ("sprc_only", "proposed")
        switch = self._switch_boundary()
        acted = switch is not None and self.k > switch
        if self.cfg.mode not in adaptive or mode not in adaptive or acted:
            raise ValueError("only an sprc_only or proposed run forks, before its decision acts")
        shared = (self.load_noise, self.meas_noise, self.prbs, self.bank)
        twin = copy.deepcopy(self, {id(x): x for x in shared})
        twin.cfg = replace(self.cfg, mode=mode)
        twin.bank = _run_bank(twin.cfg, bank)
        return twin

    def result(self) -> RunResult:
        """The finished run: its series and history up to the end, the report and the tallies."""
        end, fuser = self.end, self.fuser
        series = {name: values[:end] for name, values in self.series.items()}
        series["dfd"] = np.zeros(end, dtype=int)
        if fuser.d_fd != 0:
            series["dfd"][fuser.confirmed_at :] = fuser.d_fd
        report = report_from_series(
            self.cfg,
            series,
            gain_failures=self.law.gain_failures,
            rls_degenerate=self.identifier.degenerate,
            switch_sample=self.switch_sample,
            switch_applied=self.switch_applied,
            converged_period=self.converged_period,
        )
        return RunResult(
            config=self.cfg,
            series=series,
            report=report,
            coeff_history=self.coeff_history[: end // self.cfg.period_samples],
            snapshot_coeffs=self.snapshot_coeffs,
            snapshot_markov=self.snapshot_markov,
        )

    def _switch_boundary(self) -> int | None:
        """The first period boundary after the decision, where proposed switches; None without one."""
        P = self.cfg.period_samples
        return None if self.fuser.d_fd == 0 else (self.fuser.confirmed_at // P + 1) * P

    def _step(self, to_sample: int) -> bool:
        """One chunk, to the next period boundary or to_sample; True if the fuser latches in it.

        A switch due at its first sample comes first and sets that period's
        coefficients; then simulate, scan, flush and, on a boundary, update.
        """
        cfg, fuser, series, k = self.cfg, self.fuser, self.series, self.k
        P = cfg.period_samples
        if cfg.mode == "proposed" and k == self._switch_boundary():
            self.switch_sample = k
            self.switch_applied = _supervisor.on_detection(
                fuser.d_fd, self.bank, self.identifier, self.law, config=cfg
            )
            if k // P < self.coeff_history.shape[0]:
                self.coeff_history[k // P] = self.law.coeffs
        b = min((k // P + 1) * P, to_sample)
        self._simulate_span(k, b)
        # the fuser latches once, so a switch happens at most once per run
        latched = fuser.d_fd == 0 and fuser.scan_chunk(series["r"][k:b], series["rbar"][k:b], k) != 0
        self._flush_identification(k, b)
        self.k = b
        if b % P == 0:
            self._boundary_update(b)
        return latched

    def _simulate_span(self, a: int, b: int) -> None:
        n, series = b - a, self.series
        adaptive = self.cfg.mode != "baseline"
        sprc_out = self.law.output_slice(a, n) if adaptive else np.zeros((n, 3))
        u_ref = _supervisor.compose_pitch_command(self.lc, sprc_out, self.prbs[a:b])
        u_act = self.actuator.run_chunk(u_ref, a)
        y = self.plant.run_chunk(u_act, a, self.load_noise[a:b])
        u_meas = u_act + self.meas_noise[a:b]
        series["sprc"][a:b] = sprc_out
        series["u_ref"][a:b] = u_ref
        series["u_act"][a:b] = u_act
        series["u_meas"][a:b] = u_meas
        series["y"][a:b] = y
        series["r"][a:b] = self.fdie.run_chunk(u_ref, u_meas)

    def _flush_identification(self, a: int, b: int) -> None:
        """Absorb the identified samples in a..b-1 into the live blades' estimators.

        The identified samples are k = 0 (mod D), D = ``IDENT_DECIMATION``,
        wherever the chunk starts or ends, so which samples a run absorbs
        does not depend on its chunks.  The regression runs on the
        every-D-th-sample series, whose period is P/D samples.  Their
        a-priori residuals land in ``ident_res``, 0.0 on the samples between.
        """
        cfg, series = self.cfg, self.series
        if cfg.mode == "baseline":
            return
        D, p = IDENT_DECIMATION, cfg.past_window
        P = cfg.period_samples // D
        # the identified samples are j*D for j in [lo, hi); -(-a // D) is ceil(a / D)
        lo, hi = max(-(-a // D), P + p), -(-b // D)
        if lo >= hi:
            return
        regressors, targets = build_regressor_block(
            series["u_act"][::D], series["y"][::D], lo, hi, P, p
        )
        series["ident_res"][lo * D : hi * D : D] = self.identifier.update_block(
            regressors, targets, self.law.frozen
        )

    def _adapts(self, k: int) -> bool:
        """Whether the boundary after sample k-1 steps the law."""
        return self.cfg.mode != "baseline" and k // self.cfg.period_samples > START_PERIOD

    def _boundary_update(self, k: int) -> None:
        """Per-period controller refresh after sample k-1.

        Once the law adapts, its period update designs the gains from the
        identifier's rows.  The refreshed coefficients take effect on the
        upcoming period, so they land at slot k // P of the
        applied-coefficient history.  An offline tuning ends here once the
        last c increments, all of them after START_PERIOD, are quiet.
        """
        cfg, law, history = self.cfg, self.law, self.coeff_history
        P = cfg.period_samples
        j = k // P  # period the refreshed coefficients apply to
        if self._adapts(k):
            law.period_update(law.project(self.series["y"][k - P : k]), self.identifier.rows())
        if j < history.shape[0]:
            history[j] = law.coeffs
        c = CONVERGENCE_CONSECUTIVE
        if cfg.mode == "offline_tune" and START_PERIOD + c <= j < history.shape[0]:
            if convergence_time(history[j - c : j + 1], 1) is not None:
                self.converged_period = j - c + 1
                self.snapshot_coeffs = law.coeffs.copy()
                self.snapshot_markov = self.identifier.rows()
                self.end = k


def _coeff_increment(now: np.ndarray, before: np.ndarray) -> np.ndarray:
    """Largest per-blade coefficient change (deg) of each (..., 3, 2) period.

    The per-blade maximum keeps the measure scale-consistent: a runaway on
    one blade is not diluted by two quiet blades the way a pooled norm
    would dilute it.
    """
    return np.linalg.norm(now - before, axis=-1).max(axis=-1)


def convergence_time(coeff_history: np.ndarray, start_period: int) -> int | None:
    """First period index, from start_period on, from which the coefficients stay quiet.

    Quiet means the per-blade increment stays below CONVERGENCE_EPS *
    max(norm, CONVERGENCE_FLOOR) for CONVERGENCE_CONSECUTIVE successive
    periods; the returned index is the first period of that streak.
    """
    lo, c = max(start_period, 1), CONVERGENCE_CONSECUTIVE
    now, before = coeff_history[lo:], coeff_history[lo - 1 : -1]
    scale = np.maximum(np.linalg.norm(now, axis=-1).max(axis=-1), CONVERGENCE_FLOOR)
    quiet = _coeff_increment(now, before) < CONVERGENCE_EPS * scale
    done = np.flatnonzero(run_lengths(quiet) >= c)
    return int(lo + done[0] - c + 1) if done.size else None


def _psd_peak_1p(y: np.ndarray, cfg: RunConfig) -> float:
    from .numerics import psd_estimate

    fs = 1.0 / cfg.Ts
    segment = 4 * cfg.period_samples
    freqs, power = psd_estimate(y, fs, segment=segment)
    f1p = 1.0 / ROTOR_PERIOD_S
    return float(power[np.argmin(np.abs(freqs - f1p))])


def report_from_series(
    cfg: RunConfig,
    series: dict,
    gain_failures: int = 0,
    rls_degenerate: bool = False,
    switch_sample: int | None = None,
    switch_applied: bool = False,
    converged_period: int | None = None,
) -> RunReport:
    """Build the run report from the emitted time series.

    This is the only report builder: a live run calls it on its own series,
    so rebuilding the report from the CSV gives the live report exactly.
    The applied waveform coefficients come back from projecting the control
    column onto the basis, the decision record from the dfd column and
    the residual crossings, saturation from the actuated pitch.  Only the
    controller tallies (gain failures, factor degeneracy, the switch record
    and the offline-tuning convergence period) are not in the series; they
    are supplied by the caller and default to "nothing happened".  The
    threshold ``rbar`` is one (N,) series shared by the blades; anything
    but a positive value per sample raises ValueError.
    """
    P = cfg.period_samples
    end = series["y"].shape[0]
    k0 = cfg.fault_sample
    settle = cfg.settle_periods * P
    rbar = series["rbar"]
    if rbar.shape != (end,) or not (rbar > 0).all():
        raise ValueError("rbar must hold one positive threshold per sample")

    n_periods = end // P
    periods = series["sprc"][: n_periods * P].reshape(n_periods, P, 3)
    coeff_history = project(build_basis(P), periods).transpose(0, 2, 1)

    crossing = np.abs(series["r"]) > rbar[:, None]
    d_fd, k_d, decision_sample, ambiguous = decision_record(crossing, series["dfd"])

    u_act = series["u_act"]
    saturation = int(np.count_nonzero((u_act < PITCH_MIN_DEG) | (u_act > PITCH_MAX_DEG)))

    healthy_hi = min(k0, end) if k0 is not None else end
    healthy_window = (min(settle, healthy_hi), healthy_hi)
    var_healthy = _window_var(series["y"], healthy_window)

    variance_faulty = None
    faulty_window = None
    if k0 is not None and k0 + settle < end:
        faulty_window = (k0 + settle, end)
        variance_faulty = _window_var(series["y"], faulty_window)

    comp_lo = max(0, end - int(round(cfg.comparison_window_s / cfg.Ts)))
    comp_window = (comp_lo, end)
    var_comparison = _window_var(series["y"], comp_window)
    psd_peaks = None
    if end - comp_lo >= 6 * P:
        psd_peaks = [_psd_peak_1p(series["y"][comp_lo:end, b], cfg) for b in range(3)]

    ratio = np.abs(series["r"][:healthy_hi]) / rbar[:healthy_hi, None]
    max_ratio = float(ratio.max(initial=0.0))

    scan_start = START_PERIOD + 1
    healthy_conv = convergence_time(coeff_history[: healthy_hi // P], scan_start)
    postfault_conv = None
    if k0 is not None and n_periods > k0 // P:
        first_eligible = k0 // P + cfg.settle_periods
        j_star = convergence_time(coeff_history, first_eligible)  # never before first_eligible
        if j_star is not None:
            postfault_conv = j_star - first_eligible + 1
    # both scans end at the last applied period, whose increment is the final
    # one; a fault in the last settle periods leaves the post-fault scan empty
    final_inc = 0.0
    if n_periods > scan_start:
        final_inc = float(_coeff_increment(coeff_history[-1], coeff_history[-2]))

    return RunReport(
        schema="pitchftc-report-v1",
        mode=cfg.mode,
        load_case=cfg.load_case,
        seed=cfg.seed,
        duration_s=end * cfg.Ts,
        fault_blade=cfg.fault_blade,
        fault_sample=k0,
        d_fd=d_fd,
        k_d=k_d,
        decision_sample=decision_sample,
        ambiguous=ambiguous,
        switch_sample=switch_sample,
        switch_applied=switch_applied,
        variance_healthy=var_healthy,
        variance_faulty=variance_faulty,
        variance_comparison=var_comparison,
        psd_peak_1p=psd_peaks,
        healthy_converged_period=healthy_conv,
        postfault_converged_periods=postfault_conv,
        final_coeff_increment=final_inc,
        converged_period=converged_period,
        frozen_updates=cfg.step_gain == 0.0,
        threshold_crossings=[int(c) for c in crossing.sum(axis=0)],
        max_residual_ratio=max_ratio,
        saturation_count=saturation,
        gain_failures=int(gain_failures),
        rls_degenerate=bool(rls_degenerate),
        windows={
            "healthy": list(healthy_window),
            "faulty": list(faulty_window) if faulty_window else None,
            "comparison": list(comp_window),
        },
    )


def _window_var(y: np.ndarray, window: tuple[int, int]) -> list | None:
    lo, hi = window
    if hi - lo < 2:
        return None
    return [float(v) for v in np.var(y[lo:hi], axis=0)]


def load_reduction_metrics(
    y_run: np.ndarray,
    y_baseline: np.ndarray,
    window: tuple[int, int],
    faulty_blade: int = 0,
) -> dict:
    """Variance reduction versus a baseline run over a shared window, in percent.

    The faulty blade (if any) is excluded: its load is not controllable.  The
    cumulative figure pools the other blades.  The window must lie in both series.
    """
    lo, hi = window
    if hi <= lo:
        raise ValueError("empty comparison window")
    if lo < 0 or hi > min(y_run.shape[0], y_baseline.shape[0]):
        raise ValueError(f"comparison window {window} runs past a series")
    blades = [b for b in range(3) if b + 1 != faulty_blade]
    var_run = np.var(y_run[lo:hi], axis=0)
    var_base = np.var(y_baseline[lo:hi], axis=0)
    if np.any(var_base[blades] <= 0.0):
        raise ValueError("baseline variance is zero; reduction undefined")
    per_blade = {
        f"blade{b + 1}": float(100.0 * (1.0 - var_run[b] / var_base[b])) for b in blades
    }
    cumulative = 100.0 * (1.0 - var_run[blades].sum() / var_base[blades].sum())
    return {**per_blade, "cumulative": float(cumulative)}


def compare_modes(
    cfg: RunConfig,
    bank: "_supervisor.PretunedBank | None" = None,
    modes: tuple[str, ...] = ("baseline", "sprc_only", "proposed"),
) -> dict:
    """Run the given distinct modes on one seed and summarize load reduction.

    Returns {"results": {mode: RunResult}, "reduction": {mode: metrics}} with
    reductions measured against the baseline run over its comparison window.
    The adaptive modes run the same code until proposed switches, at the
    first period boundary after the decision.  So one sprc_only trunk runs to
    the end of the chunk in which the fuser latches, or to the end without a
    decision; every other adaptive mode forks off it there, and the trunk
    itself is the sprc_only run.  Each arm is bit-identical to an independent
    run.  The baseline runs on its own, after the adaptive modes.
    """
    if not modes or len(set(modes)) < len(modes) or not set(modes) <= set(MODES[:3]):
        raise ValueError(f"modes must be distinct modes among {MODES[:3]}, not {modes}")
    if "proposed" in modes:
        # resolved first, so a missing bank fails before anything is simulated
        bank = _run_bank(replace(cfg, mode="proposed"), bank)
    adaptive = [mode for mode in modes if mode in ("sprc_only", "proposed")]
    results = {}
    if adaptive:
        N = cfg.n_samples
        with single_blas_thread() as pin:
            trunk = _Stepper(replace(cfg, mode="sprc_only"), None)
            trunk.advance(N, until_decision=True)
            arms = {
                mode: trunk if mode == "sprc_only" else trunk.fork(mode, bank) for mode in adaptive
            }
            for mode, run in arms.items():
                run.advance(N)
                results[mode] = run.result()
                results[mode].telemetry = pin
        # the steppers hold the noise inputs: free them before the other modes run
        del trunk, arms, run
    for mode in modes:
        if mode not in results:
            results[mode] = run_simulation(replace(cfg, mode=mode), bank=bank)
    results = {mode: results[mode] for mode in modes}
    reduction = {}
    if "baseline" in results:
        base = results["baseline"]
        lo, hi = base.report.windows["comparison"]
        for mode, res in results.items():
            if mode == "baseline":
                continue
            reduction[mode] = load_reduction_metrics(
                res.series["y"], base.series["y"], (lo, hi), cfg.fault_blade
            )
    return {"results": results, "reduction": reduction}


def write_csv(path: str | Path, series: dict, Ts: float) -> None:
    """Emit the per-sample time series with the fixed, versioned column set.

    The columns are ``k, t``, one triple per blade series, the threshold
    ``rbar`` (one per sample, shared by the blades) and ``dfd``.  Every row
    has one format: k and dfd as integers, the other columns as ``%.17g``,
    which reads back to the same float64 bit for bit.
    """
    n = series["y"].shape[0]
    columns = [*(series[name] for name in _BLADE_SERIES), series["rbar"], series["dfd"]]
    with open(path, "w", newline="\n") as handle:
        handle.write(f"# {CSV_SCHEMA}\n" + ",".join(_CSV_COLUMNS) + "\n")
        # stacked and formatted slice by slice, so only one slice at a time is
        # a block or Python floats: a whole-run block was 34 MB more at the peak
        for lo in range(0, n, _CSV_CHUNK_ROWS):
            k = np.arange(lo, min(lo + _CSV_CHUNK_ROWS, n))
            rows = np.column_stack([k, k * Ts, *(c[lo : lo + _CSV_CHUNK_ROWS] for c in columns)])
            handle.writelines(_CSV_ROW % tuple(row) for row in rows.tolist())


def read_csv(path: str | Path) -> dict:
    """Read a time-series CSV back into the in-memory series layout, plus ``t``.

    The blade series come back as (n, 3) arrays, the threshold ``rbar``
    (shared by the blades), ``dfd`` and the sample times ``t`` as (n,); all
    but ``dfd`` are views into the one array the file was loaded into.
    Raises ValueError unless the file holds the schema line, the fixed
    header and at least one row, every cell a finite number, ``k`` counting
    the rows from 0, ``t`` equal to ``k * t[1]`` with ``t[1] > 0`` (``t[0]
    == 0`` for one row) and ``dfd`` latched: 0 up to some sample, then one
    blade 1-3 to the end, as the fuser writes it.  Files with CRLF
    line ends or shortest-repr floats read back exactly too.
    """
    with open(path) as handle:
        schema = handle.readline().rstrip("\n").lstrip("# ")
        if schema != CSV_SCHEMA:
            raise ValueError(f"unrecognized CSV schema {schema!r}")
        if handle.readline().rstrip("\n").split(",") != _CSV_COLUMNS:
            raise ValueError("CSV columns do not match the fixed schema")
        data = np.loadtxt(handle, delimiter=",", ndmin=2)
    n = data.shape[0]
    if n == 0 or data.shape[1] != len(_CSV_COLUMNS):
        raise ValueError(f"CSV body must hold rows of {len(_CSV_COLUMNS)} numbers")
    if not np.isfinite(data).all():
        raise ValueError("CSV cells must be finite numbers")
    if not np.array_equal(data[:, 0], np.arange(n)):
        raise ValueError("CSV column k must count the rows 0..n-1")
    t = data[:, 1]
    step = t[1] if n > 1 else 1.0
    if not step > 0 or not np.array_equal(t, np.arange(n) * step):
        raise ValueError("CSV column t must be k times a positive sample time")
    dfd = data[:, -1]
    if not np.isin(dfd, (0, 1, 2, 3)).all():
        raise ValueError("CSV column dfd must hold blade numbers 0-3")
    # latched: 0 up to some sample, then one blade, so the column never falls
    # and, bisected as the sorted column it then is, its first nonzero value
    # is its last.  One boolean mask is the only temporary: larger ones grew
    # the heap of a process that reads 1400 s files repeatedly
    first = np.searchsorted(dfd, 0.0, side="right")
    if (dfd[1:] < dfd[:-1]).any() or (first < n and dfd[first] != dfd[-1]):
        raise ValueError("CSV column dfd must latch: 0, then one blade to the end")
    # views into the loaded block: copies would hold the file twice at the peak
    series = {name: data[:, 2 + 3 * i : 5 + 3 * i] for i, name in enumerate(_BLADE_SERIES)}
    series["rbar"] = data[:, -2]
    series["dfd"] = dfd.astype(int)
    series["t"] = t
    return series
