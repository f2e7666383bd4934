"""Closed-form ground truth that the package's fast paths are tested against.

Nothing in the package calls these: the exact scalar synapse step, the
steady-state tuning curves of a population, and the validated
cross-entropy of a probability table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from snndetect.classifier import _mean_nll, _warn_on_zero
from snndetect.ensembles import Ensemble, _rates
from snndetect.errors import ConfigError, DataError


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


def tuning_curves(e: Ensemble, xs) -> np.ndarray:
    """Steady-state rates (neurons x points) at the given raw input values."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if not np.all(np.isfinite(xs)):
        raise ValueError("evaluation points must be finite")
    return _rates(e.gains * e.encoders, e.biases, xs / e.radius)


def _validate_probs_labels(probs: np.ndarray, labels: np.ndarray) -> None:
    if probs.ndim != 2 or probs.shape != labels.shape:
        raise DataError(f"probs and labels must be matching 2-D arrays, got {probs.shape} vs {labels.shape}")
    if np.any(probs < 0) or np.any(probs > 1 + 1e-9):
        raise DataError("probabilities must lie in [0, 1]")
    row_sums = probs.sum(axis=1)
    if np.any(np.abs(row_sums - 1.0) > 1e-6):
        raise DataError("probability rows must sum to 1 within 1e-6")
    if not (np.all((labels == 0) | (labels == 1)) and np.all(labels.sum(axis=1) == 1)):
        raise DataError("labels must be one-hot rows")


def cross_entropy(probs, labels) -> float:
    """Mean negative log-probability of the true classes.

    Zero exactly when every true class gets probability 1; a zero
    probability on a true class is clamped at 1e-12 with a warning rather
    than returning infinity.
    """
    p = np.asarray(probs, dtype=float)
    y = np.asarray(labels, dtype=float)
    _validate_probs_labels(p, y)
    true_p = (p * y).sum(axis=1)
    _warn_on_zero(true_p)
    return float(_mean_nll(true_p))
