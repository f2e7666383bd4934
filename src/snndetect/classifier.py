"""Softmax readout over time-averaged spiking-filter activity.

Each sample series is pushed through the spiking filter and every
neuron's output-filtered rate is averaged over the configured layer
window, giving one fixed-length feature vector per sample. A linear
softmax layer on top is trained by full-batch gradient descent on the
multi-class cross-entropy; the spiking population itself is never
trained. Features are standardized internally (rates span hundreds of
Hz) and the scaling is stored in the model so prediction sees the same
transform.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError, NumericError, check_real
from .pipeline import FilterConfig, SignalSeries, run_filter

PROB_EPS = 1e-12


@dataclass(frozen=True)
class SampleFeature:
    sample_id: str
    feature: np.ndarray  # per-neuron mean filtered rate (Hz)
    label: int

    def __post_init__(self) -> None:
        feature = np.asarray(self.feature, dtype=float)
        object.__setattr__(self, "feature", feature)
        if feature.ndim != 1:
            raise DataError("feature must be a 1-D vector")
        if np.any(feature < 0) or not np.all(np.isfinite(feature)):
            raise DataError("features are rates and must be finite and >= 0")


@dataclass
class ClassifierModel:
    weights: np.ndarray        # classes x features
    biases: np.ndarray         # classes
    feature_mean: np.ndarray
    feature_scale: np.ndarray
    training_history: list[float]

    @property
    def n_classes(self) -> int:
        return self.weights.shape[0]


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Shift-invariant softmax (stable for large logits)."""
    z = np.asarray(logits, dtype=float)
    z = z - z.max(axis=axis, keepdims=True)
    ez = np.exp(z)
    return ez / ez.sum(axis=axis, keepdims=True)


def window_steps(series: SignalSeries, cfg: FilterConfig,
                 window: tuple[int, int] | None = None) -> slice:
    """The presentation steps of an inclusive layer window of a series.

    The window must be covered by the series; it defaults to the whole
    series.
    """
    if window is None:
        window = (int(series.layers[0]), int(series.layers[-1]))
    lo, hi = window
    if lo > hi or lo < series.layers[0] or hi > series.layers[-1]:
        raise DataError(
            f"window {window} is not covered by series layers "
            f"{series.layers[0]}..{series.layers[-1]}"
        )
    m = cfg.presentation_steps
    return slice(series.layer_index(lo) * m, (series.layer_index(hi) + 1) * m)


def encode_sample(
    series: SignalSeries | Sequence[SignalSeries],
    cfg: FilterConfig,
    window: tuple[int, int] | None = None,
    label: int | Sequence[int] = 0,
    sample_id: str | Sequence[str] = "",
) -> SampleFeature | list[SampleFeature]:
    """Per-neuron mean output-filtered rate over a layer window.

    `series` is one SignalSeries or a sequence of them; a sequence runs as
    the lanes of one filter run (see run_filter) and takes one label and
    sample id for all series or one per series. The network is the one
    `cfg` describes, so a cascade is read at the rates of its last stage.
    Each feature averages the rates across the window's presentation steps
    (see window_steps).
    """
    single = isinstance(series, SignalSeries)
    lanes = [series] if single else list(series)
    labels = [label] * len(lanes) if isinstance(label, numbers.Integral) else list(label)
    ids = [sample_id] * len(lanes) if isinstance(sample_id, str) else list(sample_id)
    if not len(labels) == len(ids) == len(lanes):
        raise ConfigError(f"need one label and sample id per series, got {len(labels)} "
                          f"and {len(ids)} for {len(lanes)}")
    steps = [window_steps(s, cfg, window) for s in lanes]
    runs = run_filter(lanes, cfg, record_rates=True)
    features = [
        SampleFeature(sample_id=i, feature=sim.rates[st].mean(axis=0), label=l)
        for (_, sim), st, l, i in zip(runs, steps, labels, ids)
    ]
    return features[0] if single else features


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
    return _mean_nll((p * y).sum(axis=1))


def _mean_nll(true_p: np.ndarray) -> float:
    """The cross-entropy of already valid true-class probabilities."""
    if np.any(true_p <= 0):
        warnings.warn("zero probability on a true class; clamping at 1e-12", stacklevel=3)
    return float(-np.mean(np.log(np.maximum(true_p, PROB_EPS))))


def one_hot(labels: Sequence[int], n_classes: int) -> np.ndarray:
    y = np.zeros((len(labels), n_classes))
    y[np.arange(len(labels)), list(labels)] = 1.0
    return y


def train_classifier(
    samples: Sequence[SampleFeature],
    epochs: int = 1000,
    lr: float = 0.05,
) -> ClassifierModel:
    """Full-batch gradient descent on the cross-entropy of a softmax readout.

    Weights start at zero (the problem is convex), so the first recorded
    loss is exactly ln(n_classes). Training aborts if the loss exceeds ten
    times its initial value, which indicates a runaway learning rate.
    """
    if len(samples) < 2:
        raise ConfigError("need at least two samples to train")
    labels = [s.label for s in samples]
    n_classes = max(labels) + 1
    if min(labels) < 0:
        raise ConfigError("labels must be non-negative class indices")
    if len(set(labels)) < 2:
        raise ConfigError("need at least two distinct classes")
    dims = {s.feature.size for s in samples}
    if len(dims) != 1:
        raise ConfigError(f"inconsistent feature lengths: {sorted(dims)}")
    if epochs < 1:
        raise ConfigError(f"epochs must be >= 1, got {epochs}")
    check_real("lr", lr)
    if lr < 0:
        raise ConfigError(f"lr must be >= 0, got {lr}")

    x = np.stack([s.feature for s in samples])
    y = one_hot(labels, n_classes)
    mean = x.mean(axis=0)
    scale = x.std(axis=0)
    scale[scale == 0] = 1.0
    xs = (x - mean) / scale

    n, d = xs.shape
    w = np.zeros((n_classes, d))
    b = np.zeros(n_classes)
    history: list[float] = []
    # softmax rows and one-hot labels are valid by construction, so each
    # epoch reads the true-class probabilities without re-validating them
    true_class = (np.arange(n), np.asarray(labels))
    for epoch in range(epochs):
        probs = softmax(xs @ w.T + b, axis=1)
        loss = _mean_nll(probs[true_class])
        history.append(loss)
        if loss > 10.0 * history[0]:
            raise NumericError(
                f"training diverged at epoch {epoch}: loss {loss:.4g} vs "
                f"initial {history[0]:.4g} (lr={lr})"
            )
        grad = (probs - y) / n
        w -= lr * (grad.T @ xs)
        b -= lr * grad.sum(axis=0)

    return ClassifierModel(
        weights=w, biases=b, feature_mean=mean, feature_scale=scale,
        training_history=history,
    )


def predict(model: ClassifierModel, feature) -> np.ndarray:
    """Class probabilities for one feature vector (sums to 1)."""
    f = np.asarray(feature, dtype=float)
    if f.shape != model.feature_mean.shape:
        raise DataError(
            f"feature length {f.shape} does not match model {model.feature_mean.shape}"
        )
    z = (f - model.feature_mean) / model.feature_scale
    return softmax(model.weights @ z + model.biases)
