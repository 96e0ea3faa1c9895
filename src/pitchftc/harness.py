"""Run configuration, closed-loop orchestration, metrics and artifacts.

A run wires the blocks together per sample: compose the pitch command
(collective + repetitive waveform + excitation), drive the actuators with
fault injection, drive the plant, feed the diagnosis bank, absorb the sample
into the identification, and at every rotor-period boundary refresh the LQR
gain and the waveform coefficients.  In the full architecture a latched
fault isolation additionally triggers the pre-tuned parameter switch.

The loop is executed in rotor-period chunks: inside a chunk nothing feeds
back across samples except through linear filters, so each block advances
with vectorized filtering, equivalent to per-sample stepping.  The only
mid-chunk event, the controller switch, is handled by replaying the chunk
prefix from a state snapshot.

Controller modes:

- ``baseline``: fixed collective pitch only (no excitation, no adaptation),
- ``sprc_only``: adaptive repetitive control without fault accommodation,
- ``proposed``: adaptive control plus diagnosis-triggered warm start,
- ``offline_tune``: fault active from the first sample; the run stops once
  the coefficients converge and snapshots the controller state.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .actuator import ActuatorBank, FaultDescriptor
from .fdi import DecisionFuser, FdiBounds, decision_record, design_fdie, residual_noise_std
from .numerics import pseudo_inverse, run_lengths
from .plant import LOAD_CASES, PITCH_MAX_DEG, PITCH_MIN_DEG, LoadCase, Plant, load_case_params
from .sprc import (
    MarkovIdentifier,
    RepetitiveLaw,
    build_basis,
    build_regressor_block,
    generate_prbs,
)
from . import supervisor as _supervisor

__all__ = [
    "RunConfig",
    "RunReport",
    "RunResult",
    "dynamics_fingerprint",
    "run_simulation",
    "load_reduction_metrics",
    "convergence_time",
    "compare_modes",
    "write_csv",
    "read_csv",
    "CSV_SCHEMA",
]

MODES = ("baseline", "sprc_only", "proposed", "offline_tune")

CSV_SCHEMA = "pitchftc-timeseries-v1"
_SERIES = ("u_ref", "u_act", "u_meas", "y", "sprc", "prbs", "r", "rbar", "ident_res")
_CSV_COLUMNS = ["k", "t", *(f"{name}{b}" for name in _SERIES for b in (1, 2, 3)), "dfd"]
_CSV_ROW = ",".join(["%d"] + ["%.17g"] * (len(_CSV_COLUMNS) - 2) + ["%d"]) + "\n"
_CSV_CHUNK_ROWS = 4096


@dataclass
class RunConfig:
    """Everything a run needs; defaults reproduce the reference protocol."""

    mode: str = "proposed"
    load_case: str = "LC3"
    seed: int = 0

    Ts: float = 0.01                    # s, sample time
    duration_s: float = 1400.0          # s, simulated time
    rotor_period_s: float = 6.25        # s, one revolution (9.6 rpm)

    fault_blade: int = 3                # 0 disables the fault
    fault_time_s: float = 900.0         # s, fault onset
    fault_angle: float | None = None    # deg; None takes the load-case angle

    # identification and repetitive control
    forgetting: float = 0.99999
    past_window: int = 100              # samples of differenced history per channel
    lqr_q: float = 1.0
    lqr_r: float = 0.1
    hold_gain: float = 1.0
    step_gain: float = 0.3
    start_period: int = 4               # first rotor period with coefficient updates
    reseed_confidence: float = 1e-2

    # excitation
    prbs_amplitude: float = 3.0         # deg, hard output bound
    prbs_hold: int = 10                 # samples per binary level
    prbs_tau: float = 0.08              # s, excitation shaping filter

    # measurement noise on pitch angles: value is a variance unless
    # meas_noise_is_std is set
    meas_noise_value: float = 1.5
    meas_noise_is_std: bool = False

    # diagnosis
    pole_radius: float = 0.98
    threshold_margin: float | None = None
    noise_multiplier: float = 6.5       # threshold bound = multiplier * residual std
    state_noise_bound: float = 0.0
    model_mismatch_bound: float = 0.0
    init_error_bound: float = 0.0
    n_confirm: int = 10

    # convergence bookkeeping
    convergence_eps: float = 0.04
    convergence_floor: float = 12.0     # deg, scale floor in the relative test
    convergence_consecutive: int = 10
    settle_periods: int = 2
    comparison_window_s: float = 200.0

    # plant surrogate overrides (None keeps the load-case table value)
    load_gain: float = -30.0
    load_tau: float = 0.5
    disturbance_amplitude: float | None = None
    collective_setpoint: float | None = None
    load_noise_std: float | None = None

    bank_path: str | None = None

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and type(value) is not int and not isinstance(value, np.integer):
                raise ValueError(f"{f.name} must be an integer")
            if f.type.startswith("float") and value is not None and not (
                isinstance(value, (int, float, np.number)) and np.isfinite(value)
            ):
                raise ValueError(f"{f.name} must be a finite number")
            if f.type == "bool" and type(value) is not bool:
                raise ValueError(f"{f.name} must be true or false")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.load_case not in LOAD_CASES:
            raise ValueError(f"load_case must be one of {sorted(LOAD_CASES)}")
        if self.Ts <= 0 or self.duration_s <= 0 or self.rotor_period_s <= 0:
            raise ValueError("Ts, duration_s and rotor_period_s must be positive")
        ratio = self.rotor_period_s / self.Ts
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 4:
            raise ValueError("rotor_period_s must be an integer (>= 4) multiple of Ts")
        if self.fault_blade not in (0, 1, 2, 3):
            raise ValueError("fault_blade must be 0 (none) or 1..3")
        if self.fault_blade and not 0.0 <= self.fault_time_s < self.duration_s:
            raise ValueError("fault_time_s must lie inside the run")
        if self.mode == "offline_tune" and self.fault_blade == 0:
            raise ValueError("offline_tune requires a configured fault")
        if not 0.0 < self.forgetting <= 1.0:
            raise ValueError("forgetting must be in (0, 1]")
        if self.past_window < 1 or self.past_window >= self.period_samples:
            raise ValueError("past_window must be in [1, period_samples)")
        if not 0.0 <= self.pole_radius < 1.0:
            raise ValueError("pole_radius must be in [0, 1)")
        if self.meas_noise_value < 0 or self.noise_multiplier < 0:
            raise ValueError("meas_noise_value and noise_multiplier must be nonnegative")
        if min(self.n_confirm, self.start_period, self.prbs_hold, self.convergence_consecutive) < 1:
            raise ValueError("n_confirm, start_period, prbs_hold, convergence_consecutive must be >= 1")
        if self.settle_periods < 0:
            raise ValueError("settle_periods must be nonnegative")
        if min(self.prbs_tau, self.load_tau, self.comparison_window_s, self.convergence_eps) <= 0:
            raise ValueError("prbs_tau, load_tau, comparison_window_s, convergence_eps must be positive")

    # derived quantities ---------------------------------------------------

    @property
    def period_samples(self) -> int:
        return int(round(self.rotor_period_s / self.Ts))

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
        if self.meas_noise_is_std:
            return self.meas_noise_value
        return float(np.sqrt(self.meas_noise_value))

    def effective_load_case(self) -> LoadCase:
        base = load_case_params(self.load_case)
        return LoadCase(
            id=base.id,
            u_hub=base.u_hub,
            disturbance_amplitude=(
                base.disturbance_amplitude
                if self.disturbance_amplitude is None
                else self.disturbance_amplitude
            ),
            collective_setpoint=(
                base.collective_setpoint
                if self.collective_setpoint is None
                else self.collective_setpoint
            ),
            stuck_angle=base.stuck_angle if self.fault_angle is None else self.fault_angle,
            noise_std=base.noise_std if self.load_noise_std is None else self.load_noise_std,
        )

    # serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
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
    "load_case",
    "Ts",
    "rotor_period_s",
    "forgetting",
    "past_window",
    "lqr_q",
    "lqr_r",
    "hold_gain",
    "step_gain",
    "start_period",
    "prbs_amplitude",
    "prbs_hold",
    "prbs_tau",
    "meas_noise_value",
    "meas_noise_is_std",
    "load_gain",
    "load_tau",
    "disturbance_amplitude",
    "collective_setpoint",
    "load_noise_std",
)


def dynamics_fingerprint(cfg: RunConfig) -> str:
    """Hash of the fields that define the plant and controller tuning.

    Mode, seed, run length and the injected fault (blade, angle, timing) are
    excluded on purpose: a bank entry tuned offline stays valid for any
    online protocol on the same physics and tuning, and the supervisor does
    not see the ground truth the diagnosis is meant to find.
    """
    payload = {name: getattr(cfg, name) for name in _DYNAMICS_FIELDS}
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class RunReport:
    """Summary of a run, built by :func:`report_from_series` from its time series.

    A live run's report is that rebuild of its own series, so a report
    rebuilt from the CSV is equal field by field.  Only five fields are
    controller tallies supplied by the run: ``gain_failures``,
    ``rls_degenerate``, ``switch_sample``, ``switch_applied`` and
    ``converged_period``.
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

    variance_healthy: list
    variance_faulty: list | None
    variance_comparison: list
    psd_peak_1p: list

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


def run_simulation(cfg: RunConfig, bank: "_supervisor.PretunedBank | None" = None) -> RunResult:
    """Execute one closed-loop run; deterministic in (config, seed)."""
    cfg.validate()
    if bank is None and cfg.bank_path is not None:
        bank = _supervisor.PretunedBank.load(cfg.bank_path)
    if cfg.mode == "proposed" and cfg.fault_blade != 0 and bank is None:
        raise ValueError("proposed mode with a configured fault needs a pre-tuned bank")

    return _simulate(cfg, bank)


def _simulate(cfg: RunConfig, bank) -> RunResult:
    P = cfg.period_samples
    p = cfg.past_window
    N = cfg.n_samples
    k0 = cfg.fault_sample
    lc = cfg.effective_load_case()
    sprc_active = cfg.mode != "baseline"
    switching = cfg.mode == "proposed"

    fault = None
    if cfg.fault_blade:
        fault = FaultDescriptor(cfg.fault_blade, lc.stuck_angle, k0)

    basis = build_basis(P)
    law = RepetitiveLaw(
        basis,
        hold_gain=cfg.hold_gain,
        step_gain=cfg.step_gain,
        lqr_q=cfg.lqr_q,
        lqr_r=cfg.lqr_r,
    )
    identifier = MarkovIdentifier(p, forgetting=cfg.forgetting)
    actuator = ActuatorBank(cfg.Ts, fault=fault)
    plant = Plant(lc, cfg.Ts, P, load_gain=cfg.load_gain, load_tau=cfg.load_tau)

    sigma = cfg.meas_noise_std
    # one observer for the three blades: they share model, gain and transient bound
    bounds = FdiBounds(
        state_noise=cfg.state_noise_bound,
        init_error=cfg.init_error_bound,
        model_mismatch=cfg.model_mismatch_bound,
    )
    fdie = design_fdie(actuator.model, cfg.pole_radius, bounds, margin=cfg.threshold_margin)
    # the measurement bound scales the residual noise, which depends on the gain
    meas_bound = cfg.noise_multiplier * residual_noise_std(actuator.model, fdie.gain, sigma)
    fdie.bounds = replace(bounds, meas_noise=meas_bound)
    fuser = DecisionFuser(n_confirm=cfg.n_confirm)

    start = np.full(3, lc.collective_setpoint)
    actuator.init_steady(start)
    fdie.init_steady(start)

    seeds = np.random.SeedSequence(cfg.seed).spawn(3)
    rng_plant, rng_meas, rng_prbs = (np.random.default_rng(c) for c in seeds)
    load_noise = rng_plant.normal(0.0, lc.noise_std, size=(N, 3))
    meas_noise = rng_meas.normal(0.0, sigma, size=(N, 3))
    prbs_amp = cfg.prbs_amplitude if sprc_active else 0.0
    prbs = generate_prbs(
        N, rng_prbs, amplitude=prbs_amp, hold_samples=cfg.prbs_hold,
        filter_tau=cfg.prbs_tau, Ts=cfg.Ts,
    )

    series = {name: prbs if name == "prbs" else np.zeros((N, 3)) for name in _SERIES}
    n_periods = N // P
    coeff_history = np.zeros((n_periods, 3, 2))

    def snapshot():
        return actuator.get_state(), plant.get_state(), fdie.get_state()

    def restore(state):
        actuator.set_state(state[0])
        plant.set_state(state[1])
        fdie.set_state(state[2])

    def simulate_span(a: int, b: int) -> None:
        n = b - a
        sprc_out = law.output_slice(a, n) if sprc_active else np.zeros((n, 3))
        u_ref = _supervisor.compose_pitch_command(lc, sprc_out, prbs[a:b])
        u_act = actuator.run_chunk(u_ref, a)
        y = plant.run_chunk(u_act, a, load_noise[a:b])
        u_meas = u_act + meas_noise[a:b]
        series["sprc"][a:b] = sprc_out
        series["u_ref"][a:b] = u_ref
        series["u_act"][a:b] = u_act
        series["u_meas"][a:b] = u_meas
        series["y"][a:b] = y
        series["r"][a:b], series["rbar"][a:b] = fdie.run_chunk(u_ref, u_meas)

    def flush_identification(a: int, b: int) -> None:
        if not sprc_active:
            return
        lo = max(a, P + p)
        if lo >= b:
            return
        regressors, targets = build_regressor_block(
            series["u_act"], series["y"], lo, b, P, p
        )
        rows = identifier.rows()
        for blade in range(3):
            series["ident_res"][lo:b, blade] = (
                targets[:, blade] - regressors[:, :, blade] @ rows[blade]
            )
        identifier.update_block(regressors, targets)

    switch_applied = False
    switch_sample = None
    converged_period = None
    snapshot_coeffs = snapshot_markov = None
    c = cfg.convergence_consecutive
    end = N

    k = 0
    while k < N:
        b = min((k // P + 1) * P, N)
        pre_state = snapshot()
        simulate_span(k, b)

        # the fuser latches once, so a switch happens at most once per run
        switch_now = False
        if fuser.d_fd == 0:
            d_fd = fuser.scan_chunk(series["r"][k:b], series["rbar"][k:b], k)
            switch_now = switching and d_fd != 0
            if switch_now and fuser.confirmed_at + 1 < b:
                # the switch acts on the sample after confirmation: replay up to it
                restore(pre_state)
                b = fuser.confirmed_at + 1
                simulate_span(k, b)

        flush_identification(k, b)
        if switch_now:
            switch_sample = b
            switch_applied = _supervisor.on_detection(
                fuser.d_fd,
                bank,
                identifier,
                law,
                reseed_confidence=cfg.reseed_confidence,
                expected_hash=dynamics_fingerprint(cfg),
            )
        k = b
        if k % P == 0:
            _boundary_update(cfg, law, identifier, series, k, coeff_history)
            jj = k // P  # period the freshly updated coefficients apply to
            # offline tuning stops once the last c increments, all of them
            # after start_period, are quiet
            if cfg.mode == "offline_tune" and cfg.start_period + c <= jj < coeff_history.shape[0]:
                quiet = convergence_time(
                    coeff_history[jj - c : jj + 1], 1, cfg.convergence_eps, cfg.convergence_floor, c
                )
                if quiet is not None:
                    converged_period = jj - c + 1
                    snapshot_coeffs = law.coeffs.copy()
                    snapshot_markov = identifier.rows()
                    end = k
                    break

    if end < N:
        for name in series:
            series[name] = series[name][:end]
        coeff_history = coeff_history[: end // P]

    series["dfd"] = np.zeros(end, dtype=int)
    if fuser.d_fd != 0:
        series["dfd"][fuser.confirmed_at :] = fuser.d_fd

    report = report_from_series(
        cfg,
        series,
        gain_failures=law.gain_failures,
        rls_degenerate=identifier.degenerate,
        switch_sample=switch_sample,
        switch_applied=switch_applied,
        converged_period=converged_period,
    )
    return RunResult(
        config=cfg,
        series=series,
        report=report,
        coeff_history=coeff_history,
        snapshot_coeffs=snapshot_coeffs,
        snapshot_markov=snapshot_markov,
    )


def _boundary_update(cfg, law, identifier, series, k, coeff_history) -> None:
    """Per-period controller refresh after sample k-1.

    The refreshed coefficients take effect on the upcoming period, so they
    land at slot k // P of the applied-coefficient history.
    """
    P = cfg.period_samples
    j = k // P - 1  # just-completed period
    if cfg.mode != "baseline" and j >= cfg.start_period:
        load_proj = law.project(series["y"][k - P : k])
        law.period_update(load_proj, identifier.rows(), cfg.past_window)
    if j + 1 < coeff_history.shape[0]:
        coeff_history[j + 1] = law.coeffs


def _coeff_increment(now: np.ndarray, before: np.ndarray) -> np.ndarray:
    """Largest per-blade coefficient change (deg) of each (..., 3, 2) period.

    The per-blade maximum keeps the measure scale-consistent: a runaway on
    one blade is not diluted by two quiet blades the way a pooled norm
    would dilute it.
    """
    return np.linalg.norm(now - before, axis=-1).max(axis=-1)


def convergence_time(
    coeff_history: np.ndarray,
    start_period: int,
    eps: float,
    floor: float,
    consecutive: int,
) -> int | None:
    """First period index from which the coefficients stay quiet.

    Quiet means the per-blade increment stays below eps * max(norm, floor)
    for `consecutive` successive periods; the returned index is the first
    period of that streak.
    """
    lo = max(start_period, 1)
    now, before = coeff_history[lo:], coeff_history[lo - 1 : -1]
    scale = np.maximum(np.linalg.norm(now, axis=-1).max(axis=-1), floor)
    quiet = _coeff_increment(now, before) < eps * scale
    done = np.flatnonzero(run_lengths(quiet) >= consecutive)
    return int(lo + done[0] - consecutive + 1) if done.size else None


def _psd_peak_1p(y: np.ndarray, cfg: RunConfig) -> float:
    from .numerics import psd_estimate

    fs = 1.0 / cfg.Ts
    segment = 4 * cfg.period_samples
    freqs, power = psd_estimate(y, fs, segment=segment)
    f1p = 1.0 / cfg.rotor_period_s
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
    column period by period, the decision record from the dfd column and
    the residual crossings, saturation from the actuated pitch.  Only the
    controller tallies (gain failures, factor degeneracy, the switch record
    and the offline-tuning convergence period) are not in the series; they
    are supplied by the caller and default to "nothing happened".
    """
    P = cfg.period_samples
    end = series["y"].shape[0]
    k0 = cfg.fault_sample
    settle = cfg.settle_periods * P

    binv = pseudo_inverse(build_basis(P))
    n_periods = end // P
    coeff_history = np.zeros((n_periods, 3, 2))
    for j in range(n_periods):
        coeff_history[j] = (binv @ series["sprc"][j * P : (j + 1) * P]).T

    crossing = np.abs(series["r"]) > series["rbar"]
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
    seg_need = 4 * P + 2 * P
    psd_peaks = [
        _psd_peak_1p(series["y"][comp_lo:end, b], cfg) if end - comp_lo >= seg_need else float("nan")
        for b in range(3)
    ]

    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.abs(series["r"][:healthy_hi]) / series["rbar"][:healthy_hi]
    max_ratio = float(np.nanmax(ratio)) if ratio.size else 0.0

    def quiet_from(history, start):
        eps, floor, c = cfg.convergence_eps, cfg.convergence_floor, cfg.convergence_consecutive
        return convergence_time(history, start, eps, floor, c)

    scan_start = cfg.start_period + 1
    healthy_conv = quiet_from(coeff_history[: healthy_hi // P], scan_start)
    postfault_conv = None
    if k0 is not None and n_periods > k0 // P:
        first_eligible = k0 // P + cfg.settle_periods
        j_star = quiet_from(coeff_history, first_eligible)  # never before first_eligible
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


def _window_var(y: np.ndarray, window: tuple[int, int]) -> list:
    lo, hi = window
    if hi - lo < 2:
        return [float("nan")] * y.shape[1]
    return [float(v) for v in np.var(y[lo:hi], axis=0)]


def load_reduction_metrics(
    y_run: np.ndarray,
    y_baseline: np.ndarray,
    window: tuple[int, int],
    faulty_blade: int = 0,
) -> dict:
    """Variance reduction versus a baseline run over a shared window, in percent.

    The faulty blade (if any) is excluded: its load is not controllable.  The
    cumulative figure pools the remaining blades' variances.
    """
    lo, hi = window
    if hi <= lo:
        raise ValueError("empty comparison window")
    blades = [b for b in range(3) if b + 1 != faulty_blade]
    var_run = np.var(y_run[lo:hi], axis=0)
    var_base = np.var(y_baseline[lo:hi], axis=0)
    if np.any(var_base[blades] <= 0.0):
        raise ValueError("baseline variance is zero; reduction undefined")
    per_blade = {
        f"blade{b + 1}": 100.0 * (1.0 - var_run[b] / var_base[b]) for b in blades
    }
    cumulative = 100.0 * (1.0 - var_run[blades].sum() / var_base[blades].sum())
    return {**per_blade, "cumulative": float(cumulative)}


def compare_modes(
    cfg: RunConfig,
    bank: "_supervisor.PretunedBank | None" = None,
    modes: tuple[str, ...] = ("baseline", "sprc_only", "proposed"),
) -> dict:
    """Run the given modes on one seed and summarize load reduction.

    Returns {"results": {mode: RunResult}, "reduction": {mode: metrics}} with
    reductions measured against the baseline run over its comparison window.
    """
    results = {}
    for mode in modes:
        mode_bank = bank if mode == "proposed" else None
        results[mode] = run_simulation(replace(cfg, mode=mode), bank=mode_bank)
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

    Every row has one format: k and dfd as integers, the other columns as
    ``%.17g``, which reads back to the same float64 bit for bit.
    """
    n = series["y"].shape[0]
    k = np.arange(n)
    block = np.column_stack([k, k * Ts, *(series[name] for name in _SERIES), series["dfd"]])
    with open(path, "w", newline="\n") as handle:
        handle.write(f"# {CSV_SCHEMA}\n" + ",".join(_CSV_COLUMNS) + "\n")
        # formatted slice by slice, so only one slice at a time is Python floats
        for lo in range(0, n, _CSV_CHUNK_ROWS):
            rows = block[lo : lo + _CSV_CHUNK_ROWS].tolist()
            handle.writelines(_CSV_ROW % tuple(row) for row in rows)


def read_csv(path: str | Path) -> dict:
    """Read a time-series CSV back into the in-memory series layout.

    Raises ValueError unless the file holds the schema line, the fixed
    header and at least one row, every row a number in each column, ``k``
    counting the rows from 0 and ``dfd`` a blade number 0-3.  Files with
    CRLF line ends or shortest-repr floats read back exactly too.
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
    if not np.array_equal(data[:, 0], np.arange(n)):
        raise ValueError("CSV column k must count the rows 0..n-1")
    if not np.isin(data[:, -1], (0, 1, 2, 3)).all():
        raise ValueError("CSV column dfd must hold blade numbers 0-3")
    series = {name: data[:, 2 + 3 * i : 5 + 3 * i].copy() for i, name in enumerate(_SERIES)}
    series["dfd"] = data[:, -1].astype(int)
    return series
