"""The three benchmark workloads: set-up, one op, and the checks on its output.

Each workload is a closed loop of one client: the runner calls ``op`` back
to back, timing only that call, then hands the result to ``check``, which
returns a :class:`Checked`.

Why these three:

- ``reference_lc3`` is the paper's user chain (tune, then compare the three
  modes on the 1400 s LC3 stuck-blade run).  Identification (RLS) and the
  lifted LQR do almost all the work here.
- ``diagnosis_sweep`` runs controller-free 400 s runs over every load case,
  healthy and faulted.  RLS and LQR are skipped, so only the actuator,
  plant, FDI and harness layers work; an RLS change must not move it.
- ``artifact_roundtrip`` writes, reads and post-processes the CSV of one
  1400 s run with no simulation in the op: it isolates harness I/O.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from pathlib import Path
from time import perf_counter

import numpy as np

from pitchftc import harness, numerics, supervisor

LOAD_CASES = ("LC1", "LC2", "LC3")
FAULT_BLADE = 3


@dataclasses.dataclass
class Checked:
    """What one op produced, judged."""

    failures: list        # failed output checks, empty when the op is correct
    sim: dict             # simulated metrics: exact for given inputs
    sim_s: float          # simulated seconds of closed-loop runs in the op
    signature: str        # every simulated value, to compare ops on equal inputs
    host: dict = dataclasses.field(default_factory=dict)  # host times inside the op


def detection_budget(cfg) -> int:
    """Detection latency budget in samples: five observer time constants."""
    return int(math.ceil(5.0 * -1.0 / math.log(cfg.pole_radius)))


def _signature(*reports) -> str:
    return json.dumps([r.to_dict() for r in reports], sort_keys=True)


def _diagnosis_failures(tag: str, cfg, report) -> list[str]:
    """A healthy run never crosses; a faulted one isolates its blade in budget."""
    if cfg.fault_blade == 0:
        if report.d_fd != 0 or any(report.threshold_crossings):
            return [f"{tag}: false alarm {report.threshold_crossings}"]
        return []
    out = []
    if report.d_fd != cfg.fault_blade or report.ambiguous:
        out.append(f"{tag}: isolated {report.d_fd} ambiguous={report.ambiguous}")
    healthy = [c for b, c in enumerate(report.threshold_crossings) if b + 1 != cfg.fault_blade]
    if any(healthy):
        out.append(f"{tag}: healthy blades crossed {report.threshold_crossings}")
    if report.k_d is None or not 0 <= report.k_d - cfg.fault_sample <= detection_budget(cfg):
        out.append(f"{tag}: detection sample {report.k_d} outside budget")
    return out


class ReferenceLc3:
    """Tune the bank on ``tune_lc3.json``, then compare the three modes."""

    name = "reference_lc3"
    cycle_length = 1  # every op runs the same inputs
    MIN_REDUCTION_PCT = 40.0

    def __init__(self, root: Path, seed: int):
        self.root, self.seed = Path(root), seed

    def setup(self) -> None:
        configs = self.root / "configs"
        tune = harness.RunConfig.from_json_file(configs / "tune_lc3.json")
        run = harness.RunConfig.from_json_file(configs / "run_lc3_proposed.json")
        # Seed 0 reproduces the shipped configs; the bank is passed in memory.
        self.tune_cfg = dataclasses.replace(tune, seed=tune.seed + self.seed)
        self.run_cfg = dataclasses.replace(run, seed=run.seed + self.seed, bank_path=None)

    def close(self) -> None:
        pass

    def op(self, i: int):
        t0 = perf_counter()
        entry, tune_report = supervisor.offline_tune(self.tune_cfg)
        tune_wall = perf_counter() - t0
        bank = supervisor.PretunedBank({entry.fault_blade: entry})
        return tune_report, tune_wall, harness.compare_modes(self.run_cfg, bank=bank)

    def check(self, i: int, result):
        tune_report, tune_wall, outcome = result
        runs = outcome["results"]
        failures = []
        for mode, res in runs.items():
            failures += _diagnosis_failures(mode, res.config, res.report)
        reduction = outcome["reduction"]["proposed"]["cumulative"]
        proposed = runs["proposed"].report
        if reduction < self.MIN_REDUCTION_PCT or not proposed.switch_applied:
            failures.append(f"proposed: reduction {reduction:.1f}% switch={proposed.switch_applied}")
        warm = proposed.postfault_converged_periods
        cold = runs["sprc_only"].report.postfault_converged_periods
        cfg = self.run_cfg
        if cold is None:  # never converged: count the whole post-fault stretch
            cold = cfg.n_samples // cfg.period_samples - (
                cfg.fault_sample // cfg.period_samples + cfg.settle_periods
            )
        if warm is None or warm >= cold:
            failures.append(f"accommodation warm {warm} not faster than cold {cold}")
        sim = {
            "load_reduction_pct": reduction,
            "accommodation_periods": warm if warm is not None else -1,
            "accommodation_periods_cold": cold,
        }
        return Checked(
            failures,
            sim,
            tune_report.duration_s + sum(r.report.duration_s for r in runs.values()),
            _signature(tune_report, *(r.report for r in runs.values())),
            {"tune_wall_s": tune_wall},
        )


class DiagnosisSweep:
    """Controller-free 400 s runs over load cases, healthy and faulted, and seeds."""

    name = "diagnosis_sweep"
    RUN_SEEDS = 10  # simulation seeds per benchmark seed
    #: ops run during set-up: the first second or so of a fresh process runs
    #: these short ops up to twice as slowly, which would set the tail
    WARMUP_OPS = 15

    def __init__(self, root: Path, seed: int):
        self.root, self.seed = Path(root), seed

    def setup(self) -> None:
        self.cycle = [
            harness.RunConfig(
                mode="baseline",
                load_case=lc,
                seed=self.seed * self.RUN_SEEDS + j,
                duration_s=400.0,
                fault_blade=fault,
                fault_time_s=300.0,
            )
            for j in range(self.RUN_SEEDS)
            for lc in LOAD_CASES
            for fault in (0, FAULT_BLADE)
        ]
        self.cycle_length = len(self.cycle)
        for i in range(self.WARMUP_OPS):
            self.op(i)

    def close(self) -> None:
        pass

    def op(self, i: int):
        return harness.run_simulation(self.cycle[i % len(self.cycle)])

    def check(self, i: int, result):
        cfg, report = result.config, result.report
        tag = f"{cfg.load_case} seed {cfg.seed} fault {cfg.fault_blade}"
        sim = {}
        if cfg.fault_blade and report.k_d is not None:
            sim["detection_latency_samples"] = report.k_d - cfg.fault_sample
        failures = _diagnosis_failures(tag, cfg, report)
        return Checked(failures, sim, report.duration_s, _signature(report))


class ArtifactRoundtrip:
    """CSV write, read-back, report rebuild and PSD of one simulated 1400 s run."""

    name = "artifact_roundtrip"
    cycle_length = 1
    #: relative tolerance on float report fields rebuilt from the series: the
    #: coefficient history comes back through a projection, exact to rounding
    REPORT_RTOL = 1e-9

    def __init__(self, root: Path, seed: int, workdir: Path, overrides: dict | None = None):
        self.root, self.seed, self.workdir = Path(root), seed, Path(workdir)
        self.overrides = overrides or {}  # shorter runs for the benchmark's own tests

    def setup(self) -> None:
        run = harness.RunConfig.from_json_file(self.root / "configs" / "run_lc3_proposed.json")
        self.cfg = dataclasses.replace(
            run, mode="sprc_only", seed=run.seed + self.seed, bank_path=None, **self.overrides
        )
        t0 = perf_counter()
        self.live = harness.run_simulation(self.cfg)
        self.sim_wall_s = perf_counter() - t0
        self.sim_s = self.live.report.duration_s
        self.live_psd = numerics.psd_estimate(self.live.series["y"][:, 0], 1.0 / self.cfg.Ts)
        self.path = self.workdir / f"artifact-{os.getpid()}.csv"

    def close(self) -> None:
        self.path.unlink(missing_ok=True)

    def op(self, i: int):
        rep = self.live.report
        harness.write_csv(self.path, self.live.series, self.cfg.Ts)
        series = harness.read_csv(self.path)
        rebuilt = harness.report_from_series(
            self.cfg,
            series,
            gain_failures=rep.gain_failures,
            rls_degenerate=rep.rls_degenerate,
            switch_sample=rep.switch_sample,
            switch_applied=rep.switch_applied,
            converged_period=rep.converged_period,
        )
        psd = numerics.psd_estimate(series["y"][:, 0], 1.0 / self.cfg.Ts)
        return series, rebuilt, psd

    def check(self, i: int, result):
        series, rebuilt, psd = result
        self.path.unlink(missing_ok=True)
        live = self.live.series
        failures = [
            f"csv column {name} not bit-equal"
            for name in live
            if name not in series or not np.array_equal(series[name], live[name])
        ]
        a, b = self.live.report.to_dict(), rebuilt.to_dict()
        del a["ambiguous"], b["ambiguous"]  # transient decision flag, not in the series
        failures += [f"report field {k} differs" for k in a if not self._same(a[k], b[k])]
        if not all(np.array_equal(x, y) for x, y in zip(psd, self.live_psd)):
            failures.append("psd of the read-back column differs")
        return Checked(failures, {}, 0.0, _signature(rebuilt) + psd[1].tobytes().hex())

    @classmethod
    def _same(cls, a, b) -> bool:
        if isinstance(a, float) or (isinstance(a, list) and a and isinstance(a[0], float)):
            return bool(np.allclose(b, a, rtol=cls.REPORT_RTOL, atol=0.0, equal_nan=True))
        return a == b


def summarize_sim(checked: list[Checked]) -> dict:
    """Simulated metrics of a run; zero where the workload has no such run."""
    def values(key):
        return [c.sim[key] for c in checked if key in c.sim]

    def median(key):
        vals = values(key)
        return float(np.median(vals)) if vals else 0.0

    latencies = values("detection_latency_samples")
    return {
        "sim.load_reduction_pct": (median("load_reduction_pct"), "%"),
        "sim.accommodation_periods": (median("accommodation_periods"), "periods"),
        "sim.accommodation_periods_cold": (median("accommodation_periods_cold"), "periods"),
        "sim.detection_latency_max_samples": (float(max(latencies, default=0)), "samples"),
    }


def make(name: str, root: Path, seed: int, workdir: Path):
    if name == ReferenceLc3.name:
        return ReferenceLc3(root, seed)
    if name == DiagnosisSweep.name:
        return DiagnosisSweep(root, seed)
    if name == ArtifactRoundtrip.name:
        return ArtifactRoundtrip(root, seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
