"""First-order exponential low-pass filtering with unit DC gain."""

from __future__ import annotations

import math
from itertools import accumulate

import numpy as np

from .errors import ConfigError


def _decay(tau, dt) -> float:
    """The per-step decay exp(-dt / tau) of one time constant, validated.
    The quotient is taken in Python floats, the doubles numpy gives, so a
    subnormal tau makes it -inf and the decay 0.0 without a numpy warning."""
    if not (math.isfinite(tau) and tau > 0 and math.isfinite(dt) and dt > 0):
        raise ConfigError(f"tau and dt must be positive and finite, got tau={tau}, dt={dt}")
    return math.exp(-float(dt) / float(tau))


def lowpass_series(xs, tau: float, dt: float, y0: float = 0.0, current: float = 1.0):
    """Filter one series from the state `y0`: (the state after each step
    (steps,), the end state).

    Every synaptic link of the package runs here. Each input x carries the
    link's spike current: 1 for the input link, 1/dt for a link that
    filters decoded spikes. The values are scaled by the gain
    (1 - a) * current in numpy, and y = x + y * a runs on Python floats:
    the doubles a `Lowpass` of this time constant gives at unit current,
    without two numpy calls per step. The end state carries a link from
    one block of a run into the next, as if it ran over the whole series.
    """
    a = _decay(tau, dt)
    scaled = (np.asarray(xs, dtype=float) * ((1.0 - a) * current)).tolist()
    states = accumulate(scaled, lambda y, x: x + y * a, initial=y0)
    ys = np.fromiter(states, dtype=float, count=len(scaled) + 1)
    return ys[1:], float(ys[-1])


class Lowpass:
    """Stateful per-element filter, one step per call.

    Each step is y' = y*a + x*(1 - a), a = exp(-dt/tau): unit DC gain, so a
    constant input passes through unchanged once settled. `taus` holds one
    time constant per element of the state, which has its shape. Each
    distinct decay is math.exp(-dt / tau), so an element filters exactly as
    it would alone. Nothing in the package runs it: every link filters one
    value per lane and step (see `lowpass_series`). It is kept for the
    benchmark harness, which wraps `step`, and for the tests.
    """

    def __init__(self, taus, dt: float):
        taus = np.asarray(taus, dtype=float)
        values, index = np.unique(taus, return_inverse=True)
        self.decay = np.array([_decay(t, dt) for t in values.tolist()])[index].reshape(taus.shape)
        self.gain = 1.0 - self.decay
        self.y = np.zeros(taus.shape)

    def step(self, x):
        """Advance one step in place; returns the state array `y` itself."""
        self.y *= self.decay
        self.y += x * self.gain
        return self.y
