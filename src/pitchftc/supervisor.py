"""Pre-tuned parameter bank and fault-time controller switching.

For every anticipated stuck-actuator scenario an offline run adapts the
repetitive controller with the fault present from the start and snapshots
the converged waveform coefficients and Markov rows.  When the online
diagnosis isolates that fault, the snapshot replaces the live controller
state at the next rotor-period boundary, the stuck blade's adaptation
freezes, and the healthy blades carry on from an already-good operating
point instead of re-learning under the fault.
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .plant import LoadCase
from .sprc import MarkovIdentifier, RepetitiveLaw

if TYPE_CHECKING:
    from .harness import RunConfig

__all__ = [
    "BankEntry",
    "PretunedBank",
    "compose_pitch_command",
    "on_detection",
    "offline_tune",
]

log = logging.getLogger(__name__)

BANK_SCHEMA = "pitchftc-bank-v5"


@dataclass
class BankEntry:
    """Converged controller snapshot for one fault scenario."""

    config: RunConfig       # the tuning run's, with its stuck angle in fault_angle
    coeffs: list            # (3, 2) waveform coefficients
    markov_rows: list       # (3, 2p) identification rows
    converged_period: int

    def __post_init__(self):
        if self.config.fault_blade == 0:
            raise ValueError("a bank entry must be tuned under a fault, not fault_blade 0")
        for name, shape in (("coeffs", (3, 2)), ("markov_rows", (3, 2 * self.config.past_window))):
            values = np.asarray(getattr(self, name))  # ragged rows raise ValueError here
            if values.shape != shape or values.dtype.kind not in "iuf" or not np.isfinite(values).all():
                raise ValueError(f"{name} must be a finite {shape[0]}x{shape[1]} array of numbers")
            # asarray turns a bool beside floats into a float, so check the elements
            elements = np.asarray(getattr(self, name), dtype=object).flat
            if any(isinstance(x, (bool, np.bool_)) for x in elements):
                raise ValueError(f"{name} must hold numbers, not true/false")
        if type(self.converged_period) is not int or self.converged_period < 0:
            raise ValueError("converged_period must be a nonnegative integer")

    @property
    def fault_blade(self) -> int:
        return self.config.fault_blade

    def coeffs_array(self) -> np.ndarray:
        return np.asarray(self.coeffs, dtype=float)

    def markov_array(self) -> np.ndarray:
        return np.asarray(self.markov_rows, dtype=float)


class PretunedBank:
    """Map from fault blade index to its offline-learned snapshot, each filed under its own blade."""

    def __init__(self, entries: dict[int, BankEntry] | None = None):
        self.entries: dict[int, BankEntry] = dict(entries or {})
        for key, entry in self.entries.items():
            if key != entry.fault_blade:
                raise ValueError(f"bank key {key} holds the entry for blade {entry.fault_blade}")

    def add(self, entry: BankEntry) -> None:
        self.entries[entry.fault_blade] = entry

    def get(self, fault_blade: int) -> BankEntry | None:
        return self.entries.get(fault_blade)

    def save(self, path: str | Path) -> None:
        payload = {
            "schema": BANK_SCHEMA,
            "entries": {str(k): asdict(v) for k, v in sorted(self.entries.items())},
        }
        Path(path).write_text(json.dumps(payload, indent=1))

    @classmethod
    def load(cls, path: str | Path) -> "PretunedBank":
        from .harness import RunConfig, _read_json  # local import; harness imports this module

        payload = _read_json(path)
        schema = payload.get("schema") if isinstance(payload, dict) else None
        if schema != BANK_SCHEMA:
            raise ValueError(f"unrecognized bank schema in {path}")
        if set(payload) != {"schema", "entries"} or not isinstance(payload["entries"], dict):
            raise ValueError(f"bank {path} must hold exactly a schema and an entries object")
        keys = {f.name for f in fields(BankEntry)}
        entries = {}
        for key, data in payload["entries"].items():
            # the keys save writes, so "03" or "x" cannot stand for, or shadow, a blade
            if key not in ("1", "2", "3"):
                raise ValueError(f"bank {path} files an entry under {key!r}, not a blade 1-3")
            if not isinstance(data, dict) or set(data) != keys:
                raise ValueError(f"bank entry {key} must have exactly the keys {sorted(keys)}")
            entries[int(key)] = BankEntry(**{**data, "config": RunConfig.from_dict(data["config"])})
        return cls(entries)


def compose_pitch_command(
    lc: LoadCase, sprc_out: np.ndarray, prbs: np.ndarray
) -> np.ndarray:
    """Pitch reference: collective setpoint plus control waveform plus excitation."""
    return lc.collective_setpoint + np.asarray(sprc_out, dtype=float) + np.asarray(prbs, dtype=float)


def on_detection(
    d_fd: int,
    bank: PretunedBank | None,
    identifier: MarkovIdentifier,
    law: RepetitiveLaw,
    config: RunConfig,
) -> bool:
    """Switch the controller to the pre-tuned state for the isolated fault.

    d_fd is the isolated blade (0: healthy).  Returns True when the switch
    was applied.  A healthy decision is a no-op; a missing bank entry, or
    one tuned under other ``RunConfig.dynamics()`` than the live ``config``,
    leaves the controller running unswitched (degraded adaptive-only
    operation) with a logged warning, but the stuck blade is still frozen
    since isolation itself is trusted.  ``law.frozen`` is the one record of
    the frozen blade: the run's identification skips the blades it marks.
    """
    if d_fd == 0:
        return False
    law.freeze_blade(d_fd)
    entry = bank.get(d_fd) if bank is not None else None
    if entry is None:
        log.warning("no pre-tuned entry for blade %d; continuing without warm start", d_fd)
        return False
    tuned, live = entry.config.dynamics(), config.dynamics()
    if tuned != live:
        log.warning(
            "bank entry for blade %d was tuned under a different configuration "
            "(%s differ); continuing without warm start",
            d_fd,
            [name for name in tuned if tuned[name] != live[name]],
        )
        return False

    law.set_coeffs(entry.coeffs_array())
    identifier.reseed(entry.markov_array())
    log.info("switched to pre-tuned parameters for blade %d", d_fd)
    return True


def offline_tune(cfg):
    """Run the fault-from-start adaptation and snapshot the converged state.

    cfg's fault must act from the first sample: a later one would snapshot
    the healthy controller, and ``RunConfig`` refuses it.  Returns
    (entry, report).  Raises RuntimeError when the run ends without
    meeting the convergence criterion; its message states the run length
    and the final coefficient increment for diagnosis.
    """
    from . import harness  # local import; harness orchestrates the run

    # record the stuck angle the entry is tuned at, not the load-case default
    tune_cfg = replace(cfg, mode="offline_tune", fault_angle=cfg.effective_load_case().stuck_angle)
    result = harness.run_simulation(tune_cfg)
    report = result.report
    if report.converged_period is None:
        raise RuntimeError(
            "offline tuning did not converge within "
            f"{tune_cfg.duration_s:.0f}s (final increment {report.final_coeff_increment:.3g})"
        )
    entry = BankEntry(
        config=tune_cfg,
        coeffs=result.snapshot_coeffs.tolist(),
        markov_rows=result.snapshot_markov.tolist(),
        converged_period=report.converged_period,
    )
    return entry, report
