"""Softmax readout over the spike rates of the spiking filter.

The sample series run through the spiking filter as the lanes of one
run. Each last-stage neuron's spike count over a layer window, divided by
the window's length in seconds, gives a (samples, neurons) feature matrix
of spike rates in Hz, one row per sample. A linear softmax layer on top is trained on that matrix, with one class
label per row beside it, by full-batch gradient descent on the
multi-class cross-entropy; the spiking population itself is never
trained. Features are standardized internally (rates span hundreds of
Hz) and the scaling is stored in the model so prediction sees the same
transform.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import MAX_INT, ConfigError, DataError, NumericError, check_int, check_real
from .pipeline import FilterConfig, SignalSeries, run_filter

PROB_EPS = 1e-12


@dataclass(eq=False)
class ClassifierModel:
    weights: np.ndarray        # classes x features
    biases: np.ndarray         # classes
    feature_mean: np.ndarray
    feature_scale: np.ndarray
    training_history: list[float]


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Shift-invariant softmax (stable for large logits)."""
    z = np.asarray(logits, dtype=float)
    z = z - z.max(axis=axis, keepdims=True)
    ez = np.exp(z)
    return ez / ez.sum(axis=axis, keepdims=True)


def encode_sample(
    series: Sequence[SignalSeries],
    cfg: FilterConfig,
    window: tuple[int, int] | None,
) -> np.ndarray:
    """Per-neuron spike rate (Hz) over a layer window, one float64 row per
    series: (series, neurons).

    The series run as the lanes of one filter run (see run_filter), each
    counted over the presentation steps of the inclusive layer window, or
    of its own first to last layer when `window` is None, and divided by
    their length in seconds. The network is the one `cfg` describes, so a
    cascade is read at the spikes of its last stage. The run counts the
    spikes as it goes, so its memory grows with lanes x neurons, not with
    the length of the series. It decodes nothing and filters no neuron, so
    a one-stage network never solves its decoders.
    """
    windows = [(int(s.layers[0]), int(s.layers[-1])) if window is None else window for s in series]
    _, runs = run_filter(series, cfg, windows, decode=False)
    return np.stack([run.rates for run in runs])


def one_hot(labels: Sequence[int], n_classes: int) -> np.ndarray:
    y = np.zeros((len(labels), n_classes))
    y[np.arange(len(labels)), list(labels)] = 1.0
    return y


def check_training(epochs: int, lr: float, samples: int) -> None:
    """Raise ConfigError unless `epochs` is an integer >= 1, epochs x
    `samples` is at most MAX_INT, and `lr` is finite and >= 0: the checks of
    train_classifier's parameters, which the CLI runs before it encodes."""
    check_int("epochs", epochs, 1)
    if int(epochs) * samples > MAX_INT:
        raise ConfigError(
            f"epochs x samples must be at most {MAX_INT} (2**53 - 1), got {epochs} x {samples}"
        )
    check_real("lr", lr)
    if lr < 0:
        raise ConfigError(f"lr must be >= 0, got {lr}")


def train_classifier(
    features,
    labels: Sequence[int],
    epochs: int,
    lr: float,
) -> ClassifierModel:
    """Full-batch gradient descent on the cross-entropy of a softmax readout.

    `features` is a (samples, features) array of rates, finite and >= 0,
    and `labels` holds one class index per row.

    Weights start at zero (the problem is convex), so the first recorded
    loss is exactly ln(n_classes). Training fails if a loss is not within
    ten times its initial value (a runaway learning rate, or NaN); the
    epochs run to the end and the losses are scored after the loop.
    """
    try:
        x = np.asarray(features, dtype=float)
    except ValueError as err:
        raise ConfigError(f"features must be equal-length rows of numbers: {err}") from err
    if x.ndim != 2:
        raise ConfigError(f"features must be a (samples, features) array, got shape {x.shape}")
    if not np.all(np.isfinite(x) & (x >= 0)):
        raise DataError("features are rates and must be finite and >= 0")
    if len(x) < 2:
        raise ConfigError("need at least two samples to train")
    labels = list(labels)
    if len(labels) != len(x):
        raise ConfigError(f"need one label per sample, got {len(labels)} for {len(x)}")
    n_classes = max(labels) + 1
    if min(labels) < 0:
        raise ConfigError("labels must be non-negative class indices")
    if len(set(labels)) < 2:
        raise ConfigError("need at least two distinct classes")
    check_training(epochs, lr, len(x))

    y = one_hot(labels, n_classes)
    mean = x.mean(axis=0)
    scale = x.std(axis=0)
    scale[scale == 0] = 1.0
    xs = (x - mean) / scale

    n, d = xs.shape
    w = np.zeros((n_classes, d))
    b = np.zeros(n_classes)
    # softmax rows and one-hot labels are valid by construction, so each
    # epoch keeps its true-class probabilities and one pass after the loop
    # scores them all. The loop is bound by numpy's per-call cost, so every
    # buffer it writes, the epochs x samples table of those probabilities
    # included, is allocated here once, and each epoch is 16 calls that
    # write through `out`, passed positionally where a ufunc takes it so
    # (numpy parses that faster): the same operations on the same operands
    # as softmax and the plain-expression step, so the same doubles
    true_p = np.empty((epochs, n))
    true_index = np.arange(n) * n_classes + np.asarray(labels)  # into the flat probabilities
    z = np.empty((n, n_classes))         # logits, then the probabilities, then the gradient
    z_row = np.empty((n, 1))             # each row's max, then its sum
    grad_w = np.empty_like(w)
    grad_b = np.empty_like(b)
    w_t, z_t = w.T, z.T                  # views, so they follow the in-place updates
    step = np.asarray(lr, dtype=float)   # 0-d: spares each ufunc call a conversion
    count = np.asarray(n, dtype=float)
    # a runaway step overflows to inf and NaN; the check after the loop
    # reports it, so numpy's warnings are not printed on the way
    with np.errstate(all="ignore"):
        for row in true_p:
            np.matmul(xs, w_t, z)
            np.add(z, b, z)
            np.maximum.reduce(z, axis=1, keepdims=True, out=z_row)
            np.subtract(z, z_row, z)
            np.exp(z, z)
            np.add.reduce(z, axis=1, keepdims=True, out=z_row)
            np.divide(z, z_row, z)
            # the indices are valid, so "clip" never clips; it spares the
            # copy that the default "raise" makes of `out`
            z.take(true_index, out=row, mode="clip")
            np.subtract(z, y, z)
            np.divide(z, count, z)
            np.matmul(z_t, xs, grad_w)
            np.multiply(step, grad_w, grad_w)
            np.subtract(w, grad_w, w)
            np.add.reduce(z, axis=0, out=grad_b)
            np.multiply(step, grad_b, grad_b)
            np.subtract(b, grad_b, b)

    losses = -np.mean(np.log(np.maximum(true_p, PROB_EPS)), axis=-1)
    bad = np.flatnonzero(~(losses <= 10.0 * losses[0]))  # NaN is never <=
    last = int(bad[0]) if bad.size else epochs - 1
    if np.any(true_p[: last + 1] <= 0):
        warnings.warn("zero probability on a true class; clamping at 1e-12", stacklevel=2)
    if bad.size:
        raise NumericError(
            f"training diverged at epoch {last}: loss {losses[last]:.4g} vs "
            f"initial {losses[0]:.4g} (lr={lr})"
        )
    history = losses.tolist()

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
