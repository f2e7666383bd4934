"""Closed-form ground truth that the package's fast paths are tested against.

Nothing in the package calls these: the exact scalar synapse step, the
LIF rate formula evaluated at every point, the out-of-place LIF step and a
one-lane cascade loop built on it, the same cascade with each population
replaced by its steady-state rates, the mean of its rates over a step
window, the steady-state tuning curves of a population, a population's
decoders solved from its whole tuning table at once, and the validated
cross-entropy of a probability table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from snndetect.classifier import _mean_nll, _warn_on_zero
from snndetect.ensembles import DECODE_POINTS, DECODE_REG, INTERCEPT_RANGE, MAX_RATE_RANGE, Ensemble
from snndetect.errors import ConfigError, DataError
from snndetect.neurons import TAU_RC, TAU_REF, drive_for_rate, lif_rate
from snndetect.synapses import lowpass_series


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


def reference_rate(j):
    """Steady-state LIF rate (Hz) at every drive in `j`, the closed form
    evaluated at all points and then zeroed at or below threshold."""
    j = np.asarray(j, dtype=float)
    with np.errstate(all="ignore"):
        isi = TAU_REF + TAU_RC * np.log1p(1.0 / (j - 1.0))
        return np.where(j > 1.0, 1.0 / isi, 0.0)


def reference_step(v, refr, j, dt):
    """One LIF update out of place, the form lif_step_arrays computes in
    place; returns the next (v, refr, spiked)."""
    delta = np.minimum(np.maximum(dt - refr, 0.0), dt)
    v_next = j + (v - j) * np.exp(-delta / TAU_RC)
    v_next = np.maximum(v_next, 0.0)
    refr_next = np.maximum(refr - dt, 0.0)
    spiked = v_next > 1.0
    if spiked.any():
        overshoot = (v_next[spiked] - 1.0) / (j[spiked] - 1.0)
        t_after = -TAU_RC * np.log1p(-overshoot)
        refr_next[spiked] = np.maximum(TAU_REF - t_after, 0.0)
        v_next[spiked] = 0.0
    return v_next, refr_next, spiked


def reference_cascade(ensembles, signal, dt, taus):
    """One lane of simulate_cascade, the straightforward way.

    Each step filters the input, and each stage clips its input at its
    radius, drives its neurons through reference_step, filters their spike
    trains (1/dt per spike) and decodes. `signal` is the lane's input and
    `taus` its row of time constants, one per link. Returns the decoded
    values (steps,), the spike masks of all stages side by side (steps,
    neurons) and the last stage's filtered rates (steps, its neurons).
    """
    sizes = [e.n_neurons for e in ensembles]
    decays = [math.exp(-dt / tau) for tau in taus]
    y_in = 0.0
    v = [np.zeros(n) for n in sizes]
    refr = [np.zeros(n) for n in sizes]
    r = [np.zeros(n) for n in sizes]
    decoded, spikes, rates = [], [], []
    for value in signal:
        y_in = y_in * decays[0] + value * (1.0 - decays[0])
        x, masks = y_in, []
        for s, e in enumerate(ensembles):
            drive = e.gains * e.encoders * min(max(x / e.radius, -1.0), 1.0) + e.biases
            v[s], refr[s], spiked = reference_step(v[s], refr[s], drive, dt)
            a = decays[s + 1]
            r[s] = r[s] * a + spiked * (1.0 / dt) * (1.0 - a)
            x = e.decoders @ r[s]
            masks.append(spiked)
        decoded.append(x)
        spikes.append(np.concatenate(masks))
        rates.append(r[-1])
    steps = len(decoded)
    return (np.array(decoded).reshape(steps), np.array(spikes, dtype=bool).reshape(steps, sum(sizes)),
            np.array(rates).reshape(steps, sizes[-1]))


def window_mean(rates, window):
    """The mean of the rows of `rates` (steps, neurons) in the step window
    (start, stop): added one row after another, then divided once."""
    start, stop = window
    total = np.zeros(rates.shape[1])
    for row in rates[start:stop]:
        total = total + row
    return total / (stop - start)


def rate_twin(ensembles, signal, dt, taus, block=1000):
    """The cascade of populations with each one replaced by its
    steady-state rates: no spikes, the same clip, links and decoders.

    The input is filtered at taus[0]; then each stage's rates lif_rate(gain
    * encoder * clip(y / radius) + bias), decoded, are filtered at that
    stage's tau. lif_rate runs on `block` steps at a time. Returns the last
    stage's filtered output (steps,).
    """
    y = lowpass_series(signal, taus[0], dt)
    for e, tau in zip(ensembles, taus[1:]):
        decoded = np.concatenate([_table(e.gains * e.encoders, e.biases, y[i:i + block] / e.radius).T
                                  @ e.decoders for i in range(0, len(y), block)])
        y = lowpass_series(decoded, tau, dt)
    return y


def _table(gain_enc, biases, x_norm):
    """Steady-state rates (neurons x points) at normalized inputs clipped to
    [-1, 1], through one lif_rate call over the whole table."""
    x_norm = np.clip(x_norm, -1.0, 1.0)
    return lif_rate(gain_enc[:, None] * x_norm[None, :] + biases[:, None])


def tuning_curves(e: Ensemble, xs) -> np.ndarray:
    """Steady-state rates (neurons x points) at the given raw input values."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if not np.all(np.isfinite(xs)):
        raise ValueError("evaluation points must be finite")
    return _table(e.gains * e.encoders, e.biases, xs / e.radius)


def reference_decoders(n, radius, seed):
    """A population's decoders, built the direct way: the tunings sampled
    as build_ensemble samples them, the whole (points x neurons) table
    through lif_rate at once, the ridge term added as n_eval * sigma^2 *
    eye(n), then np.linalg.solve."""
    rng = np.random.default_rng(seed)
    encoders = rng.choice(np.array([-1.0, 1.0]), size=n)
    intercepts = rng.uniform(*INTERCEPT_RANGE, size=n)
    max_rates = rng.uniform(*MAX_RATE_RANGE, size=n)
    gains = (drive_for_rate(max_rates) - 1.0) / (1.0 - intercepts)
    biases = 1.0 - gains * intercepts
    xs = np.linspace(-radius, radius, DECODE_POINTS)
    a = _table(gains * encoders, biases, xs / radius).T
    sigma = DECODE_REG * a.max()
    gram = a.T @ a + len(xs) * sigma**2 * np.eye(n)
    return np.linalg.solve(gram, a.T @ xs)


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
