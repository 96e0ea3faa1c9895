"""Shared synthetic systems and fixtures for the test suite."""

import numpy as np
from scipy import signal


class PipelineSystem:
    """Known LTI plant in innovations form for identification oracles.

    The predictor transition matrix (A - L C) is nilpotent, so the true
    regression row has exactly two nonzero impulse terms per channel and the
    finite-history truncation is exact.  All four nonzero terms are large
    enough relative to the leading one to sit in the dominant set.
    """

    def __init__(self):
        self.At = np.array([[-0.2, 1.0], [-0.04, 0.2]])
        self.L = np.array([0.6, 0.35])
        self.C = np.array([1.0, 0.0])
        self.A = self.At + np.outer(self.L, self.C)
        self.B = np.array([1.0, 0.5])

    def markov_row(self, past_window: int) -> np.ndarray:
        """True regression row, oldest-first layout matching the buffers."""
        powers = [np.linalg.matrix_power(self.At, j) for j in range(past_window)]
        mu = np.array([self.C @ Pj @ self.B for Pj in powers])[::-1]
        my = np.array([self.C @ Pj @ self.L for Pj in powers])[::-1]
        return np.concatenate([mu, my])

    def simulate(self, n, seed, period, noise_std=0.1, dist_amp=2.0):
        """Binary excitation, periodic output disturbance, innovation noise."""
        rng = np.random.default_rng(seed)
        u = np.where(rng.random(n) > 0.5, 1.0, -1.0)
        e = rng.normal(0.0, noise_std, size=n)
        d = dist_amp * np.sin(2.0 * np.pi * np.arange(n) / period)
        num_u, den = signal.ss2tf(self.A, self.B[:, None], self.C[None, :], [[0.0]])
        num_e, _ = signal.ss2tf(self.A, self.L[:, None], self.C[None, :], [[0.0]])
        y = (
            signal.lfilter(num_u[0], den, u)
            + signal.lfilter(num_e[0], den, e)
            + d
            + e
        )
        return u, y


def scalar_markov_row(a, b, c, l, past_window):
    """True regression row for a scalar plant with predictor pole a - l*c."""
    at = a - l * c
    mu = np.array([c * at**j * b for j in range(past_window)])[::-1]
    my = np.array([c * at**j * l for j in range(past_window)])[::-1]
    return np.concatenate([mu, my])


def assert_stabilizing_riccati(A, B, Q, R, P, K):
    """P solves the Riccati equation to 1e-9 relative and A - BK is stable."""
    resid = Q + A.T @ P @ (A - B @ K) - P
    assert np.linalg.norm(resid) <= 1e-9 * np.linalg.norm(P)
    assert np.max(np.abs(np.linalg.eigvals(A - B @ K))) < 1.0
