"""Sweep actuator model mismatch: the diagnosis against the A1 and A2 protocols on LC1-LC3.

    PYTHONPATH=src python tests/sweep_model_mismatch.py [--seeds N]

Each row scales the simulated actuators' natural frequency by w and their
damping by z, while ``ActuatorBank.model``, and with it the observer and
its threshold, stays nominal.  The sweep does this by rebinding
``harness.ActuatorBank`` to a subclass for the row; nothing in the library
changes.  Per load case a row runs:

- A1's healthy protocol: ``proposed``, 900 s, no fault, seeds 1000..1000+N-1;
- A2's fault protocol: the blade 3 bank tuned under the same mismatch
  (seed 100, 600 s, fault from the first sample), then ``proposed``,
  400 s, blade 3 stuck at 300 s, seeds 0..N-1.

It prints one markdown row per (w, z), over the three load cases:

- the healthy runs with any threshold crossing (false alarms, which A1
  refuses);
- the worst residual/threshold ratio of those healthy runs;
- the fault runs isolated as blade 3, and the detection latency k_d minus
  the fault sample, median and maximum over them, in samples;
- the fault runs that pass every check of A2: blade 3 isolated without
  ambiguity, no crossing on blades 1-2, latency within five observer time
  constants;
- the load cases whose tune did not converge (their fault runs use an
  empty bank, which does not change a decision: the switch comes after it);
- the wall time of the row.

pytest does not collect this file.
"""

import argparse
import sys
import time

import numpy as np
from scipy import signal

from pitchftc import harness, supervisor
from pitchftc.actuator import ACTUATOR_DAMPING, ACTUATOR_OMEGA, ActuatorBank
from pitchftc.numerics import discretize_second_order

GRID = (
    (1.0, 1.0),
    *((w, 1.0) for w in (0.6, 0.7, 0.8, 0.9, 1.1, 1.2, 1.3, 1.5)),
    *((1.0, z) for z in (0.5, 0.8, 1.2)),
    *((w, z) for w in (0.8, 1.2) for z in (0.8, 1.2)),
)
LOAD_CASES = ("LC1", "LC2", "LC3")
FAULT_TIME_S = 300.0
FAULT_SAMPLE = 30_000
#: A2's latency budget: five observer time constants, in samples
BUDGET = int(np.ceil(-5.0 / np.log(harness.RunConfig().pole_radius)))


def mismatched_bank(omega_scale: float, damping_scale: float) -> type:
    """An ActuatorBank that simulates the scaled actuator but keeps the nominal model."""

    class MismatchedBank(ActuatorBank):
        def __init__(self, Ts, fault=None):
            super().__init__(Ts, fault)
            true = discretize_second_order(
                ACTUATOR_OMEGA * omega_scale, ACTUATOR_DAMPING * damping_scale, Ts
            )
            num, den = signal.ss2tf(true.A, true.B, true.C, true.D)
            self._num, self._den = num[0], den
            self._zi_unit = signal.lfilter_zi(self._num, self._den)
            self._zi = np.zeros((self._zi_unit.shape[0], 3))

    return MismatchedBank


def sweep_row(omega_scale: float, damping_scale: float, n_seeds: int) -> dict:
    t0 = time.perf_counter()
    harness.ActuatorBank = mismatched_bank(omega_scale, damping_scale)
    alarms, worst, latencies, a2_held, untuned = 0, 0.0, [], 0, []
    try:
        for lc in LOAD_CASES:
            for seed in range(1000, 1000 + n_seeds):
                cfg = harness.RunConfig(
                    mode="proposed", load_case=lc, seed=seed, duration_s=900.0,
                    fault_blade=0, fault_time_s=0.0,
                )
                report = harness.run_simulation(cfg).report
                alarms += report.threshold_crossings != [0, 0, 0]
                worst = max(worst, report.max_residual_ratio)

            tune_cfg = harness.RunConfig(
                mode="offline_tune", load_case=lc, seed=100, duration_s=600.0,
                fault_blade=3, fault_time_s=0.0,
            )
            try:
                bank = supervisor.PretunedBank({3: supervisor.offline_tune(tune_cfg)[0]})
            except RuntimeError:
                bank = supervisor.PretunedBank()
                untuned.append(lc)
            for seed in range(n_seeds):
                cfg = harness.RunConfig(
                    mode="proposed", load_case=lc, seed=seed, duration_s=400.0,
                    fault_blade=3, fault_time_s=FAULT_TIME_S,
                )
                report = harness.run_simulation(cfg, bank=bank).report
                if report.d_fd == 3:
                    latency = report.k_d - FAULT_SAMPLE
                    latencies.append(latency)
                    a2_held += (
                        not report.ambiguous
                        and report.threshold_crossings[:2] == [0, 0]
                        and 0 <= latency <= BUDGET
                    )
    finally:
        harness.ActuatorBank = ActuatorBank
    return {
        "alarms": alarms,
        "worst": worst,
        "isolated": len(latencies),
        "a2_held": a2_held,
        "latency": (int(np.median(latencies)), max(latencies)) if latencies else None,
        "untuned": untuned,
        "wall": time.perf_counter() - t0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=20, help="seeds per load case and protocol")
    args = parser.parse_args(argv)

    runs = len(LOAD_CASES) * args.seeds
    print(
        "| w scale, z scale | healthy runs with a crossing | worst ratio | faults isolated "
        "| latency median / max (samples) | A2 held | tune did not converge | wall |"
    )
    print("|---|---|---|---|---|---|---|---|")
    for w, z in GRID:
        row = sweep_row(w, z, args.seeds)
        latency = "%d / %d" % row["latency"] if row["latency"] else "-"
        print(
            f"| {w:g}, {z:g} | {row['alarms']} / {runs} | {row['worst']:.3f} "
            f"| {row['isolated']} / {runs} | {latency} | {row['a2_held']} / {runs} "
            f"| {', '.join(row['untuned']) or '-'} "
            f"| {row['wall']:.1f} s |",
            flush=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
