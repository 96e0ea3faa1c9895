"""Per-blade pitch actuators with stuck-fault injection.

Each actuator tracks its reference through a second-order lag with a lead
zero and unit DC gain.  A stuck fault pins the measured output of one blade
at a fixed angle from the fault sample onward; the fault acts purely at the
output, so the internal healthy dynamics keep evolving and the healthy
trajectory is recovered exactly by removing the fault.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import signal

from .numerics import StateSpaceModel, discretize_second_order

__all__ = [
    "ACTUATOR_OMEGA",
    "ACTUATOR_DAMPING",
    "FaultDescriptor",
    "ActuatorBank",
]

ACTUATOR_OMEGA = 6.28     # rad/s, actuator natural frequency
ACTUATOR_DAMPING = 0.7    # actuator damping ratio


@dataclass(frozen=True)
class FaultDescriptor:
    """One stuck pitch actuator: which blade, at what angle, from which sample."""

    blade: int            # 1, 2 or 3
    stuck_angle: float    # deg
    start_sample: int

    def __post_init__(self):
        if self.blade not in (1, 2, 3):
            raise ValueError("blade must be 1, 2 or 3")
        if self.start_sample < 0:
            raise ValueError("start_sample must be nonnegative")


class ActuatorBank:
    """Three identical pitch actuators plus at most one stuck fault."""

    def __init__(self, Ts: float, fault: FaultDescriptor | None = None):
        self.model: StateSpaceModel = discretize_second_order(ACTUATOR_OMEGA, ACTUATOR_DAMPING, Ts)
        num, den = signal.ss2tf(self.model.A, self.model.B, self.model.C, self.model.D)
        self._num = num[0]
        self._den = den
        self._zi_unit = signal.lfilter_zi(self._num, self._den)
        self.fault = fault
        self._zi = np.zeros((self._zi_unit.shape[0], 3))

    def init_steady(self, u0: np.ndarray) -> None:
        """Start each actuator settled at its constant pitch angle u0[(3,)]."""
        self._zi = np.outer(self._zi_unit, u0)

    def run_chunk(self, u_ref: np.ndarray, k_start: int) -> np.ndarray:
        """Advance all blades over u_ref[(n, 3)]; returns the physical pitch angles."""
        u_ref = np.asarray(u_ref, dtype=float)
        if u_ref.ndim != 2 or u_ref.shape[1] != 3:
            raise ValueError("u_ref must be (n, 3)")
        u, self._zi = signal.lfilter(self._num, self._den, u_ref, axis=0, zi=self._zi)
        if self.fault is not None:
            mask = k_start + np.arange(u_ref.shape[0]) >= self.fault.start_sample
            u[mask, self.fault.blade - 1] = self.fault.stuck_angle
        return u
