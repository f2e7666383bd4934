"""First-order exponential low-pass filtering with unit DC gain."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass
class SynapseState:
    """Time constant plus the current filtered value."""

    tau_syn: float
    y: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.tau_syn) and self.tau_syn > 0):
            raise ConfigError(f"tau_syn must be positive, got {self.tau_syn}")


def synapse_step(s: SynapseState, x: float, dt: float) -> tuple[SynapseState, float]:
    """One filter update: y' = y*a + x*(1 - a), a = exp(-dt/tau_syn).

    Unit DC gain: a constant input passes through unchanged once settled,
    which keeps absolute signal levels comparable across series.
    """
    if not (math.isfinite(x) and math.isfinite(dt) and dt > 0):
        raise ValueError(f"invalid filter inputs: x={x}, dt={dt}")
    a = math.exp(-dt / s.tau_syn)
    y = s.y * a + x * (1.0 - a)
    return SynapseState(tau_syn=s.tau_syn, y=y), y


class Lowpass:
    """Stateful vector form of synapse_step for simulation loops.

    `tau` is one time constant, or a sequence of them with one per lane
    along the leading axis of `shape`. Each decay is math.exp(-dt / tau),
    as in synapse_step, so a lane filters exactly as it would alone.
    """

    def __init__(self, tau, dt: float, shape: int | tuple = ()):
        shape = (shape,) if np.ndim(shape) == 0 else tuple(shape)
        taus = np.ravel(tau)
        if np.ndim(tau) > 1 or (np.ndim(tau) == 1 and (not shape or taus.size != shape[0])):
            raise ConfigError(f"expected one time constant per lane for shape {shape}, got {tau}")
        if not (np.all(taus > 0) and dt > 0):
            raise ConfigError(f"tau and dt must be positive, got tau={tau}, dt={dt}")
        if np.ndim(tau) == 0:
            self.decay = math.exp(-dt / tau)
        else:
            decays = np.array([math.exp(-dt / t) for t in taus])
            self.decay = decays.reshape((-1,) + (1,) * (len(shape) - 1))
        self.gain = 1.0 - self.decay
        self.y = np.zeros(shape)

    def step(self, x):
        """Advance one step in place; returns the state array `y` itself."""
        self.y *= self.decay
        self.y += x * self.gain
        return self.y
