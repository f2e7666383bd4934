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


def lowpass_series(xs, tau: float, dt: float) -> np.ndarray:
    """Filter one series from rest: the state after each step, (steps,).

    The recurrence runs on Python floats, one lane at a time, as
    y = x*gain + y*decay: the operations `Lowpass.run` applies to a row, in
    the same order, so the doubles are the ones a `Lowpass` of this time
    constant gives, without two numpy calls per step.
    """
    a = _decay(tau, dt)
    scaled = (np.asarray(xs, dtype=float) * (1.0 - a)).tolist()
    states = accumulate(scaled, lambda y, x: x + y * a, initial=0.0)
    return np.fromiter(states, dtype=float, count=len(scaled) + 1)[1:]


class Lowpass:
    """Stateful per-lane filter for simulation loops.

    Each step is y' = y*a + x*(1 - a), a = exp(-dt/tau): unit DC gain, so a
    constant input passes through unchanged once settled. `taus` holds the
    time constants over the leading axes of `shape`: one per lane, or a
    (lanes, n) grid with one per element of a lane's row. Each distinct
    decay is math.exp(-dt / tau), so an element filters exactly as it
    would alone. `decay` and `gain` are stored at the state's full shape,
    each time constant's coefficient repeated along the trailing axes, so a
    step broadcasts nothing.
    """

    def __init__(self, taus, dt: float, shape: int | tuple):
        shape = (shape,) if np.ndim(shape) == 0 else tuple(shape)
        taus = np.asarray(taus, dtype=float)
        if taus.ndim == 0 or taus.shape != shape[: taus.ndim]:
            raise ConfigError(f"time constants must span the leading axes of {shape}, got {taus.tolist()}")
        values, index = np.unique(taus, return_inverse=True)
        decays = np.array([_decay(t, dt) for t in values.tolist()])[index]
        column = decays.reshape(taus.shape + (1,) * (len(shape) - taus.ndim))
        self.decay = np.broadcast_to(column, shape).copy()
        self.gain = 1.0 - self.decay
        self.y = np.zeros(shape)

    def step(self, x):
        """Advance one step in place; returns the state array `y` itself.

        The simulator filters whole blocks with `run` and does not call
        this. It stays as the per-step form that `run` is tested against
        bit for bit, and perfbench's tracer wraps it (`synapses.lowpass`).
        """
        self.y *= self.decay
        self.y += x * self.gain
        return self.y

    def run(self, rows):
        """Advance one step per row, in place, continuing from `y`.

        `rows` is (steps,) + the state's shape, and row k holds step k's
        input already multiplied by `gain`. Each row becomes the state after
        its step and `y` is left holding the last one. row[k] += row[k-1] *
        decay is step's y*decay + x*gain with the two addends swapped, and
        IEEE addition commutes, so every value is the double `step` gives.
        Returns `rows`.
        """
        prev, scaled = self.y, np.empty_like(self.y)
        for row in rows:
            row += np.multiply(prev, self.decay, out=scaled)
            prev = row
        self.y[...] = prev
        return rows
