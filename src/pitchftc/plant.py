"""Turbine surrogate: three pitch angles in, three blade-root loads out.

Each blade sees a first-order pitch-to-load response with negative gain
(pitching further into the wind unloads the blade), a once-per-revolution
sinusoidal disturbance with the blades phased 120 degrees apart, and white
measurement-like noise on the load.  Rotor speed is held constant, so the
disturbance is exactly periodic in the sample index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import signal

__all__ = [
    "LoadCase",
    "LOAD_CASES",
    "Plant",
]

PITCH_MIN_DEG = -5.0
PITCH_MAX_DEG = 90.0
LOAD_TAU = 0.5          # s, time constant of the pitch-to-load lag


@dataclass(frozen=True)
class LoadCase:
    """Operating point: wind speed, disturbance level, pitch schedule, fault angle."""

    id: str
    u_hub: float                 # m/s, mean hub-height wind speed
    disturbance_amplitude: float  # kN*m, 1P blade load amplitude
    collective_setpoint: float   # deg, held collective pitch demand
    stuck_angle: float           # deg, angle the faulty actuator freezes at
    noise_std: float             # kN*m, aperiodic load noise (std)


# Disturbance amplitudes, collective setpoints and load noise are surrogate
# calibration values (monotone in wind speed); wind speeds and stuck angles
# define the fault scenarios.  LC1's stuck angle lies above the whole healthy
# command range, LC2's and LC3's lie inside it.
LOAD_CASES: dict[str, LoadCase] = {
    "LC1": LoadCase("LC1", 12.0, 80.0, 4.0, 20.0, 1.6),
    "LC2": LoadCase("LC2", 16.0, 400.0, 14.0, 0.0, 8.0),
    "LC3": LoadCase("LC3", 20.0, 450.0, 19.0, 10.0, 9.0),
}


class Plant:
    """Stateful blade-load surrogate stepped at a fixed rate.

    The pitch-to-load path is a discrete first-order lag (zero-order hold of
    gain/(LOAD_TAU s + 1)) applied to the deviation of each blade's pitch from the
    collective setpoint.  Pitch outside the physical range is saturated.
    Noise is injected by the caller so that runs stay reproducible.
    """

    def __init__(self, lc: LoadCase, Ts: float, period_samples: int, load_gain: float):
        if Ts <= 0 or period_samples < 4:
            raise ValueError("need Ts > 0 and at least 4 samples per period")
        self.lc = lc
        self.period_samples = int(period_samples)
        pole = float(np.exp(-Ts / LOAD_TAU))
        self._num = np.array([0.0, load_gain * (1.0 - pole)])
        self._den = np.array([1.0, -pole])
        # exactly periodic disturbance table, one rotor revolution
        k = np.arange(self.period_samples)
        phase = 2.0 * np.pi * np.arange(3) / 3.0
        self.disturbance_table = lc.disturbance_amplitude * np.sin(
            2.0 * np.pi * k[:, None] / self.period_samples + phase[None, :]
        )
        self._zi = np.zeros((1, 3))

    def run_chunk(self, pitch: np.ndarray, k_start: int, noise: np.ndarray) -> np.ndarray:
        """Advance the plant over pitch[(n, 3)] from sample index k_start, adding noise[(n, 3)]."""
        pitch = np.asarray(pitch, dtype=float)
        if pitch.ndim != 2 or pitch.shape[1] != 3:
            raise ValueError("pitch must be (n, 3)")
        dev = np.clip(pitch, PITCH_MIN_DEG, PITCH_MAX_DEG) - self.lc.collective_setpoint
        y, self._zi = signal.lfilter(self._num, self._den, dev, axis=0, zi=self._zi)
        idx = (k_start + np.arange(pitch.shape[0])) % self.period_samples
        y += self.disturbance_table[idx]
        y += noise
        return y
