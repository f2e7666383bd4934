"""First-order exponential low-pass filtering with unit DC gain."""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError


class Lowpass:
    """Stateful per-lane filter for simulation loops.

    Each step is y' = y*a + x*(1 - a), a = exp(-dt/tau): unit DC gain, so a
    constant input passes through unchanged once settled. `taus` holds one
    time constant per lane, along the leading axis of `shape`. Each decay
    is math.exp(-dt / tau), so a lane filters exactly as it would alone.
    `decay` and `gain` are stored at the state's full shape, each lane's
    coefficient repeated along its row, so a step broadcasts nothing.
    """

    def __init__(self, taus, dt: float, shape: int | tuple):
        shape = (shape,) if np.ndim(shape) == 0 else tuple(shape)
        if np.ndim(taus) != 1 or not shape or len(taus) != shape[0]:
            raise ConfigError(f"expected one time constant per lane for shape {shape}, got {taus}")
        if not (np.all(np.asarray(taus) > 0) and dt > 0):
            raise ConfigError(f"tau and dt must be positive, got tau={taus}, dt={dt}")
        decays = np.array([math.exp(-dt / t) for t in taus])
        column = decays.reshape((-1,) + (1,) * (len(shape) - 1))
        self.decay = np.broadcast_to(column, shape).copy()
        self.gain = 1.0 - self.decay
        self.y = np.zeros(shape)

    def step(self, x):
        """Advance one step in place; returns the state array `y` itself."""
        self.y *= self.decay
        self.y += x * self.gain
        return self.y
