"""Sweep the identification rate: (D, p) against the A6 and A7 gates on LC1-LC3.

    PYTHONPATH=src python tests/sweep_ident_rate.py [--seeds N]

D is ``harness.IDENT_DECIMATION`` (identify on every D-th sample), which
the sweep sets per setting, and p is ``past_window`` (identified samples of
history per channel).  For each
setting and load case it tunes the blade 3 bank (seed 100, 600 s, fault
from the first sample), runs the A6 comparison (seed 7, 1400 s, baseline
against proposed) and the A7 protocol on seeds 0..N-1 (550 s, fault on
blade 3 at 300 s, warm ``proposed`` against cold ``sprc_only``).  It prints
one markdown row per setting and load case:

- the period the tuning converges in;
- the A6 cumulative variance reduction and healthy-blade 1P peak ratio;
- the worst A7 warm/cold ratio, with the ranges of warm and cold
  post-fault convergence periods;
- the gain fallbacks summed over every run of the row;
- whether every gate held: the A6 gate and, on every pair, the A7 gate,
  both as ``tests/test_acceptance.py`` checks them;
- the wall time of the row.

The last line names the setting adopted by the rule: (5, 20) if every gate
holds on every pair with a worst A7 ratio of at most 0.4, else the smallest
p of (5, 30) and (5, 40) that does, else (1, 100).  pytest does not collect
this file.
"""

import argparse
import sys
import time

from pitchftc import harness, supervisor
from test_acceptance import a6_gate, a7_gate

SETTINGS = ((1, 100), (5, 20), (5, 30), (5, 40))
LOAD_CASES = ("LC1", "LC2", "LC3")
FAULT_TIME_S = 300.0
ADOPT_MAX_RATIO = 0.4


def sweep_row(lc: str, D: int, p: int, n_seeds: int) -> dict:
    t0 = time.perf_counter()
    harness.IDENT_DECIMATION = D
    tune_cfg = harness.RunConfig(
        mode="offline_tune", load_case=lc, seed=100, duration_s=600.0,
        fault_blade=3, fault_time_s=0.0, past_window=p,
    )
    entry, tune_report = supervisor.offline_tune(tune_cfg)
    bank = supervisor.PretunedBank({3: entry})
    failures = []

    a6 = harness.compare_modes(
        harness.RunConfig(mode="proposed", load_case=lc, seed=7, past_window=p),
        bank=bank, modes=("baseline", "proposed"),
    )
    peak_ratio, reduction, failed = a6_gate(a6)
    if failed:
        failures.append("A6")
    fallbacks = a6["results"]["proposed"].report.gain_failures

    ratios, warms, colds = [], [], []
    for seed in range(n_seeds):
        cfg = harness.RunConfig(
            mode="proposed", load_case=lc, seed=seed, duration_s=550.0,
            fault_blade=3, fault_time_s=FAULT_TIME_S, past_window=p,
        )
        pair = harness.compare_modes(cfg, bank=bank, modes=("sprc_only", "proposed"))["results"]
        warm_report, cold_report = pair["proposed"].report, pair["sprc_only"].report
        fallbacks += warm_report.gain_failures + cold_report.gain_failures
        warm, cold, ratio, failed = a7_gate(cfg, warm_report, cold_report)
        colds.append(cold)
        if failed:
            failures.append(f"A7 seed {seed}")
        if warm is not None:
            warms.append(warm)
            ratios.append(ratio)

    def span(values):
        return f"{min(values)}-{max(values)}" if values else "-"

    return {
        "lc": lc, "D": D, "p": p,
        "tune": tune_report.converged_period,
        "reduction": reduction,
        "peak_ratio": peak_ratio,
        "worst": max(ratios) if ratios else float("nan"),
        "warm": span(warms),
        "cold": span(colds),
        "fallbacks": fallbacks,
        "failures": failures,
        "wall": time.perf_counter() - t0,
    }


def adopted(rows: list[dict]) -> tuple[int, int]:
    """The setting the adoption rule picks from the swept rows."""
    for D, p in ((5, 20), (5, 30), (5, 40)):
        mine = [r for r in rows if (r["D"], r["p"]) == (D, p)]
        if mine and all(not r["failures"] and r["worst"] <= ADOPT_MAX_RATIO for r in mine):
            return D, p
    return 1, 100


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=20, help="A7 seeds per load case")
    args = parser.parse_args(argv)

    print(
        "| D, p | load case | tune converges at period | A6 reduction | A6 peak ratio "
        "| A7 worst ratio | warm periods | cold periods | gain fallbacks | gates | wall |"
    )
    print("|---|---|---|---|---|---|---|---|---|---|---|")
    rows = []
    for D, p in SETTINGS:
        for lc in LOAD_CASES:
            row = sweep_row(lc, D, p, args.seeds)
            rows.append(row)
            gates = "all held" if not row["failures"] else "failed: " + ", ".join(row["failures"])
            print(
                f"| {D}, {p} | {lc} | {row['tune']} | {row['reduction']:.1f} % "
                f"| {100 * row['peak_ratio']:.2f} % | {row['worst']:.2f} | {row['warm']} "
                f"| {row['cold']} | {row['fallbacks']} | {gates} | {row['wall']:.1f} s |",
                flush=True,
            )
    for D, p in SETTINGS:
        wall = sum(r["wall"] for r in rows if (r["D"], r["p"]) == (D, p))
        print(f"wall time D={D}, p={p}: {wall:.1f} s")
    D, p = adopted(rows)
    print(f"adopted: D={D}, p={p}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
