import math
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import cross_entropy

from snndetect import classifier, simulator
from snndetect.classifier import (
    ClassifierModel,
    encode_sample,
    one_hot,
    predict,
    softmax,
    train_classifier,
)
from snndetect.datagen import DefectSpec, GenParams, gen_defective, gen_healthy
from snndetect.ensembles import build_ensemble
from snndetect.errors import MAX_INT, ConfigError, DataError, NumericError
from snndetect.pipeline import FilterConfig, run_filter
from snndetect.simulator import simulate_cascade


# ------------------------------------------------------------ cross entropy

def test_perfect_prediction_gives_zero_loss():
    y = one_hot([0, 1, 2], 3)
    assert cross_entropy(y, y) == 0.0


def test_uniform_predictor_loss_is_log_c():
    n, c = 5, 14
    probs = np.full((n, c), 1.0 / c)
    y = one_hot(list(range(5)), c)
    assert cross_entropy(probs, y) == pytest.approx(math.log(14), abs=1e-9)


def test_hand_computed_loss():
    # true-class probabilities 0.5 and 0.25 -> (ln 2 + ln 4) / 2 = 1.5 ln 2
    probs = np.array([[0.5, 0.5], [0.25, 0.75]])
    y = one_hot([0, 0], 2)
    assert cross_entropy(probs, y) == pytest.approx(1.5 * math.log(2), abs=1e-12)


def test_zero_probability_clamps_with_warning():
    probs = np.array([[0.0, 1.0]])
    y = one_hot([0], 2)
    with pytest.warns(UserWarning):
        loss = cross_entropy(probs, y)
    assert math.isfinite(loss)
    assert loss == pytest.approx(-math.log(1e-12))


def test_cross_entropy_validation():
    y = one_hot([0], 2)
    with pytest.raises(DataError):
        cross_entropy(np.array([[0.5, 0.6]]), y)  # rows must sum to 1
    with pytest.raises(DataError):
        cross_entropy(np.array([[1.5, -0.5]]), y)  # entries outside [0, 1]
    with pytest.raises(DataError):
        cross_entropy(np.array([[0.5, 0.5]]), np.array([[0.5, 0.5]]))  # not one-hot


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(12)
    n, c = 4, 3
    z = rng.normal(0, 2, (n, c))
    y = one_hot(rng.integers(0, c, n), c)
    analytic = (softmax(z, axis=1) - y) / n
    h = 1e-5
    for i in range(n):
        for j in range(c):
            zp, zm = z.copy(), z.copy()
            zp[i, j] += h
            zm[i, j] -= h
            num = (cross_entropy(softmax(zp, axis=1), y) - cross_entropy(softmax(zm, axis=1), y)) / (2 * h)
            assert num == pytest.approx(analytic[i, j], rel=1e-5, abs=1e-8)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-30, max_value=30), min_size=2, max_size=8),
       st.floats(min_value=-50, max_value=50))
def test_softmax_shift_invariance(logits, shift):
    z = np.array(logits)
    np.testing.assert_allclose(softmax(z), softmax(z + shift), atol=1e-12)


# ------------------------------------------------------------ training

def separable_samples(rng, n_per_class=5, n_classes=3, dim=8):
    """(features, labels): n_per_class rows per class, each near its own axis."""
    rows, labels = [], []
    for label in range(n_classes):
        center = np.zeros(dim)
        center[label] = 100.0
        for k in range(n_per_class):
            rows.append(np.abs(center + rng.normal(0, 1, dim)))
            labels.append(label)
    return np.stack(rows), labels


def test_separable_classes_reach_perfect_accuracy():
    rng = np.random.default_rng(0)
    x, labels = separable_samples(rng)
    model = train_classifier(x, labels, epochs=500, lr=0.05)
    correct = sum(int(np.argmax(predict(model, f)) == l) for f, l in zip(x, labels))
    assert correct == len(labels)
    assert model.training_history[0] == pytest.approx(math.log(3), abs=1e-9)


def test_fourteen_singleton_classes_reduce_loss():
    rng = np.random.default_rng(1)
    x = np.stack([np.abs(rng.normal(100, 30, 40)) for _ in range(14)])
    model = train_classifier(x, list(range(14)), epochs=300, lr=0.05)
    assert model.training_history[0] == pytest.approx(math.log(14), abs=1e-9)
    assert model.training_history[-1] < model.training_history[0]


def test_loss_non_increasing_over_ten_epoch_windows():
    rng = np.random.default_rng(2)
    model = train_classifier(*separable_samples(rng), epochs=400, lr=0.05)
    h = np.array(model.training_history)
    assert np.all(h[10:] <= h[:-10] + 1e-12)


def test_zero_learning_rate_keeps_model_flat():
    rng = np.random.default_rng(3)
    model = train_classifier(*separable_samples(rng), epochs=50, lr=0.0)
    np.testing.assert_array_equal(model.weights, 0.0)
    assert all(l == model.training_history[0] for l in model.training_history)


# conflicting labels on near-identical features make a huge step rate
# oscillate instead of converging
DIVERGING = (np.array([[1.0, 0.0], [1.001, 0.0], [0.0, 1.0]]), [0, 1, 1])


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_divergent_learning_rate_aborts():
    with pytest.raises(NumericError):
        train_classifier(*DIVERGING, epochs=200, lr=1e3)


def reference_training(x, labels, epochs, lr):
    """The epoch loop with every loss taken through the validating
    cross_entropy; returns (history, weights, biases)."""
    y = one_hot(labels, max(labels) + 1)
    scale = x.std(axis=0)
    scale[scale == 0] = 1.0
    xs = (x - x.mean(axis=0)) / scale
    w = np.zeros((y.shape[1], xs.shape[1]))
    b = np.zeros(y.shape[1])
    history = []
    for epoch in range(epochs):
        probs = softmax(xs @ w.T + b, axis=1)
        loss = cross_entropy(probs, y)
        history.append(loss)
        if loss > 10.0 * history[0]:
            raise NumericError(f"training diverged at epoch {epoch}")
        grad = (probs - y) / len(labels)
        w -= lr * (grad.T @ xs)
        b -= lr * grad.sum(axis=0)
    return history, w, b


def conflicting_samples(n=8):
    # one sample labelled against n near-copies: a large step puts exactly
    # zero probability on its true class without diverging
    rows = [[1.0 + 0.01 * i, 0.0] for i in range(n)] + [[0.0, 1.0 + 0.01 * i] for i in range(n)]
    return np.array(rows + [[1.0, 0.0]]), [0] * n + [1] * n + [1]


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("case", ["separable", "lr-0", "zero-probability", "fourteen-singletons",
                                  "one-epoch"])
def test_training_equals_the_cross_entropy_loop(case):
    # tolerance 0: history, weights and biases are bit-equal
    if case == "zero-probability":
        (x, labels), epochs, lr = conflicting_samples(), 10, 1e3
    elif case == "fourteen-singletons":
        x = np.stack([np.abs(np.random.default_rng(1).normal(100, 30, 40)) for _ in range(14)])
        labels, epochs, lr = list(range(14)), 300, 0.05
    elif case == "one-epoch":
        x, labels = separable_samples(np.random.default_rng(4))
        epochs, lr = 1, 0.05
    else:
        x, labels = separable_samples(np.random.default_rng(4))
        epochs, lr = 300, 0.0 if case == "lr-0" else 0.05
    model = train_classifier(x, labels, epochs=epochs, lr=lr)
    history, w, b = reference_training(x, labels, epochs, lr)
    assert model.training_history == history
    np.testing.assert_array_equal(model.weights, w)
    np.testing.assert_array_equal(model.biases, b)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_training_diverges_at_the_cross_entropy_loop_epoch():
    with pytest.raises(NumericError) as ref:
        reference_training(*DIVERGING, 200, 1e3)
    with pytest.raises(NumericError) as got:
        train_classifier(*DIVERGING, epochs=200, lr=1e3)
    assert str(got.value).startswith(f"{ref.value}:")


def test_nan_loss_counts_as_divergence():
    # a finite but huge step overflows the logits of 50 features to a NaN
    # loss, which never compares greater than the bound
    x = np.stack([np.random.default_rng(i).uniform(0, 100, 50) for i in range(4)])
    with pytest.raises(NumericError, match=r"diverged at epoch 1: loss nan"):
        train_classifier(x, [0, 1, 0, 1], epochs=3, lr=1e308)


def test_zero_probability_warns_during_training():
    with pytest.warns(UserWarning, match="zero probability on a true class"):
        model = train_classifier(*conflicting_samples(), epochs=10, lr=1e3)
    assert all(math.isfinite(l) for l in model.training_history)


def test_training_validation():
    f = np.ones(4)
    with pytest.raises(ConfigError):
        train_classifier([f], [0], epochs=10, lr=0.05)
    with pytest.raises(ConfigError):
        train_classifier([f, np.ones(4)], [0, 0], epochs=10, lr=0.05)
    with pytest.raises(ConfigError):
        train_classifier([f, np.ones(5)], [0, 1], epochs=10, lr=0.05)


TWO = np.array([[1.0, 2.0], [3.0, 4.0]])


@pytest.mark.parametrize("features, labels, error, match", [
    (np.ones(4), [0, 1], ConfigError, "shape"),                             # 1-D
    ([np.ones(4), np.ones(5)], [0, 1], ConfigError, "equal-length"),        # ragged rows
    ([[1.0, 2.0], [3.0]], [0, 1], ConfigError, "equal-length"),
    (TWO, [0, 1, 1], ConfigError, "one label per sample"),
    (TWO, [0], ConfigError, "one label per sample"),
    (np.array([[1.0, np.nan], [3.0, 4.0]]), [0, 1], DataError, "finite"),
    (np.array([[1.0, np.inf], [3.0, 4.0]]), [0, 1], DataError, "finite"),
    (np.array([[1.0, -0.5], [3.0, 4.0]]), [0, 1], DataError, ">= 0"),
    (TWO, [0, -1], ConfigError, "non-negative"),
    (TWO, [1, 1], ConfigError, "two distinct classes"),
], ids=["1-d", "ragged", "ragged-lists", "more-labels", "fewer-labels", "nan", "inf",
        "negative-rate", "negative-label", "one-class"])
def test_training_rejects_a_bad_matrix_or_labels(features, labels, error, match):
    with pytest.raises(error, match=match):
        train_classifier(features, labels, epochs=10, lr=0.05)


@pytest.mark.parametrize("epochs, lr", [(0, 0.05), (2.5, 0.05), (True, 0.05), (10, -0.1),
                                       (10, float("nan")), (10, True)])
def test_training_rejects_bad_epochs_or_lr(epochs, lr):
    with pytest.raises(ConfigError):
        train_classifier(TWO, [0, 1], epochs=epochs, lr=lr)


@pytest.mark.parametrize("epochs, samples", [
    (MAX_INT, 2),
    (MAX_INT // 2 + 1, 2),
    # as a numpy integer, epochs x samples wraps past int64 to a negative
    (np.int64(2**52), 2**11),
], ids=["max-int", "just-past", "int64-wrap"])
def test_training_rejects_an_epochs_by_samples_table_past_the_integer_bound(epochs, samples):
    # the table of true-class probabilities is allocated before the loop,
    # so its size is checked first, with no allocation attempted
    x = np.tile([[1.0], [2.0]], (samples // 2, 1))
    with pytest.raises(ConfigError, match="epochs x samples"):
        train_classifier(x, [0, 1] * (samples // 2), epochs=epochs, lr=0.05)


# ------------------------------------------------------------ predict

def test_zero_model_predicts_uniform():
    model = ClassifierModel(
        weights=np.zeros((5, 3)), biases=np.zeros(5),
        feature_mean=np.zeros(3), feature_scale=np.ones(3), training_history=[],
    )
    np.testing.assert_allclose(predict(model, np.array([1.0, 2.0, 3.0])), 0.2, atol=1e-12)


def test_probabilities_sum_to_one():
    rng = np.random.default_rng(5)
    model = ClassifierModel(
        weights=rng.normal(0, 1, (4, 6)), biases=rng.normal(0, 1, 4),
        feature_mean=np.zeros(6), feature_scale=np.ones(6), training_history=[],
    )
    probs = predict(model, rng.uniform(0, 10, 6))
    assert abs(probs.sum() - 1.0) < 1e-9


def test_predict_dimension_mismatch():
    model = ClassifierModel(
        weights=np.zeros((2, 3)), biases=np.zeros(2),
        feature_mean=np.zeros(3), feature_scale=np.ones(3), training_history=[],
    )
    with pytest.raises(DataError):
        predict(model, np.ones(4))


# ------------------------------------------------------------ encoding

CFG = FilterConfig(neurons=150, tau_in=0.004, tau_out=0.004, seed=7)


def test_encoding_is_deterministic():
    p = GenParams(seed=31)
    s = gen_healthy(p)
    a = encode_sample([s], CFG, (600, 640))
    b = encode_sample([s], CFG, (600, 640))
    np.testing.assert_array_equal(a, b)
    assert a.shape == (1, 150) and a.dtype == np.float64


def test_batched_rates_give_the_encoded_features():
    # the classify command encodes every sample in one lane-batched run
    samples = [gen_healthy(GenParams(seed=31)),
               gen_defective(GenParams(seed=32, layer_range=(580, 650)), DefectSpec())]
    batched = encode_sample(samples, CFG, (600, 640))
    assert batched.shape == (2, 150)
    for s, f in zip(samples, batched):
        np.testing.assert_array_equal(f, encode_sample([s], CFG, (600, 640))[0])


def test_no_window_averages_each_series_over_its_own_layers():
    samples = [gen_healthy(GenParams(seed=31)),
               gen_defective(GenParams(seed=32, layer_range=(580, 650)), DefectSpec())]
    whole = encode_sample(samples, CFG, None)
    for s, f in zip(samples, whole):
        np.testing.assert_array_equal(
            f, encode_sample([s], CFG, (int(s.layers[0]), int(s.layers[-1])))[0])


@pytest.mark.parametrize("workers", [1, 2] if hasattr(os, "fork") else [1])
@pytest.mark.parametrize("window", [(600, 640), None], ids=["window", "whole"])
def test_features_are_window_spike_counts_over_seconds(window, workers, monkeypatch):
    # each feature is a last-stage neuron's spike count inside its sample's
    # window, counted here off the same run's spike events, over the
    # window's length in seconds: tolerance 0, with the three lanes split
    # over two processes and unsplit. The samples cover different layers,
    # so without a window each lane counts over steps of its own
    cfg = FilterConfig(neurons=150, stages=2, tau_in=0.004, tau_out=0.004, seed=7)
    samples = [gen_healthy(GenParams(seed=31)),
               gen_defective(GenParams(seed=32, layer_range=(580, 650)), DefectSpec()),
               gen_healthy(GenParams(seed=33, layer_range=(590, 700)))]
    runs = []

    def recorded(*args, **kwargs):
        filtered, lane_runs = run_filter(*args, **kwargs)
        runs.extend(lane_runs)
        return filtered, lane_runs

    monkeypatch.setattr(classifier, "run_filter", recorded)
    monkeypatch.setattr(os, "sched_getaffinity", lambda _: set(range(workers)), raising=False)
    monkeypatch.setattr(simulator, "FORK_MIN_NEURON_STEPS", 1)
    features = encode_sample(samples, cfg, window)
    m, last = cfg.presentation_steps, cfg.stage_sizes()[-1]
    assert len(runs) == len(samples)
    for s, run, row in zip(samples, runs, features):
        first, final = window or (s.layers[0], s.layers[-1])
        start, stop = s.layer_index(first) * m, (s.layer_index(final) + 1) * m
        k, ids = run.spike_events()
        inside = (k >= start) & (k < stop) & (ids >= run.n_neurons - last)
        counts = np.bincount(ids[inside] - (run.n_neurons - last), minlength=last)
        assert counts.sum() > 100
        np.testing.assert_array_equal(row, counts / ((stop - start) * cfg.dt))


def test_encoding_memory_tracks_the_window_not_the_series():
    # two 1,500-layer series, 15,000 steps each at 500 neurons: recording
    # the last stage's rates at every step would take lanes x steps x
    # neurons x 8 B = 120 MB. numpy reports its buffers to tracemalloc,
    # which sees the loop's buffers and the window counts; the run's result
    # arrays view mappings of their own and are not traced. The window
    # counts need a small fraction of the bound
    cfg = FilterConfig(seed=7)
    samples = [gen_healthy(GenParams(seed=41, layer_range=(0, 1499))),
               gen_defective(GenParams(seed=42, layer_range=(0, 1499)),
                             DefectSpec(start_layer=700, n_layers=7))]
    lanes, steps = len(samples), 1500 * cfg.presentation_steps
    bound = lanes * steps * cfg.neurons * 8 // 4
    tracemalloc.start()
    try:
        features = encode_sample(samples, cfg, (600, 800))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert features.shape == (2, cfg.neurons)
    assert peak < bound, f"encode_sample peaked at {peak} B, bound {bound} B"


def test_encoding_window_mismatch():
    s = gen_healthy(GenParams(seed=31))
    with pytest.raises(DataError):
        encode_sample([s], CFG, (560, 640))


def test_encoding_reads_the_last_cascade_stage():
    s = gen_healthy(GenParams(seed=31))
    feat = encode_sample([s], FilterConfig(neurons=150, stages=2, seed=7), (600, 640))
    assert feat.shape == (1, 75)


def test_input_between_intercepts_gives_silent_features():
    # every intercept is well away from zero, so a zero input drives nothing;
    # the default tunings are moved there, each keeping its max rate
    base = build_ensemble(60, 1100.0, 3)
    intercepts = np.random.default_rng(3).uniform(0.5, 0.9, size=60)
    gains = (base.gains + base.biases - 1.0) / (1.0 - intercepts)
    ens = replace(base, intercepts=intercepts, gains=gains, biases=1.0 - gains * intercepts)
    s = gen_healthy(GenParams(noise_std=0.0, junction_spike_amplitude=0.0,
                              baseline_level=1e-6, seed=1))
    inputs = np.repeat(s.values, CFG.presentation_steps)[None]
    res = simulate_cascade([ens], inputs, CFG.dt, [[CFG.tau_in, CFG.tau_out]],
                           [(0, inputs.shape[1])])
    np.testing.assert_allclose(res.rates[0], 0.0, atol=1e-9)


def test_dip_sample_feature_differs_from_healthy():
    p = GenParams(seed=31)
    d = DefectSpec(start_layer=613, n_layers=7, power_reduction_percent=66.0)
    window = (613, 621)
    healthy = encode_sample([gen_healthy(p)], CFG, window)[0]
    dipped = encode_sample([gen_defective(p, d)], CFG, window)[0]
    scale = np.maximum(healthy, 1.0)
    rel = np.abs(dipped - healthy) / scale
    assert np.mean(rel > 0.10) >= 0.01
