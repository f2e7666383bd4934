import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from snndetect.classifier import (
    ClassifierModel,
    SampleFeature,
    cross_entropy,
    encode_sample,
    one_hot,
    predict,
    softmax,
    train_classifier,
)
from snndetect.datagen import DefectSpec, GenParams, gen_defective, gen_healthy
from snndetect.ensembles import build_ensemble
from snndetect.errors import ConfigError, DataError, NumericError
from snndetect.pipeline import FilterConfig
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
    out = []
    for label in range(n_classes):
        center = np.zeros(dim)
        center[label] = 100.0
        for k in range(n_per_class):
            feature = np.abs(center + rng.normal(0, 1, dim))
            out.append(SampleFeature(f"s{label}-{k}", feature, label))
    return out


def test_separable_classes_reach_perfect_accuracy():
    rng = np.random.default_rng(0)
    samples = separable_samples(rng)
    model = train_classifier(samples, epochs=500, lr=0.05)
    correct = sum(int(np.argmax(predict(model, s.feature)) == s.label) for s in samples)
    assert correct == len(samples)
    assert model.training_history[0] == pytest.approx(math.log(3), abs=1e-9)


def test_fourteen_singleton_classes_reduce_loss():
    rng = np.random.default_rng(1)
    samples = [
        SampleFeature(f"s{i}", np.abs(rng.normal(100, 30, 40)), i) for i in range(14)
    ]
    model = train_classifier(samples, epochs=300, lr=0.05)
    assert model.training_history[0] == pytest.approx(math.log(14), abs=1e-9)
    assert model.training_history[-1] < model.training_history[0]


def test_loss_non_increasing_over_ten_epoch_windows():
    rng = np.random.default_rng(2)
    model = train_classifier(separable_samples(rng), epochs=400, lr=0.05)
    h = np.array(model.training_history)
    assert np.all(h[10:] <= h[:-10] + 1e-12)


def test_zero_learning_rate_keeps_model_flat():
    rng = np.random.default_rng(3)
    model = train_classifier(separable_samples(rng), epochs=50, lr=0.0)
    np.testing.assert_array_equal(model.weights, 0.0)
    assert all(l == model.training_history[0] for l in model.training_history)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_divergent_learning_rate_aborts():
    # conflicting labels on near-identical features make a huge step rate
    # oscillate instead of converging
    samples = [
        SampleFeature("a", np.array([1.0, 0.0]), 0),
        SampleFeature("b", np.array([1.001, 0.0]), 1),
        SampleFeature("c", np.array([0.0, 1.0]), 1),
    ]
    with pytest.raises(NumericError):
        train_classifier(samples, epochs=200, lr=1e3)


def reference_training(samples, epochs, lr):
    """The epoch loop with every loss taken through the validating
    cross_entropy; returns (history, weights, biases)."""
    labels = [s.label for s in samples]
    x = np.stack([s.feature for s in samples])
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
        grad = (probs - y) / len(samples)
        w -= lr * (grad.T @ xs)
        b -= lr * grad.sum(axis=0)
    return history, w, b


def conflicting_samples(n=8):
    # one sample labelled against n near-copies: a large step puts exactly
    # zero probability on its true class without diverging
    samples = [SampleFeature(f"a{i}", np.array([1.0 + 0.01 * i, 0.0]), 0) for i in range(n)]
    samples += [SampleFeature(f"b{i}", np.array([0.0, 1.0 + 0.01 * i]), 1) for i in range(n)]
    return samples + [SampleFeature("odd", np.array([1.0, 0.0]), 1)]


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("case", ["separable", "lr-0", "zero-probability"])
def test_training_equals_the_cross_entropy_loop(case):
    # tolerance 0: history, weights and biases are bit-equal
    if case == "zero-probability":
        samples, epochs, lr = conflicting_samples(), 10, 1e3
    else:
        samples = separable_samples(np.random.default_rng(4))
        epochs, lr = 300, 0.0 if case == "lr-0" else 0.05
    model = train_classifier(samples, epochs=epochs, lr=lr)
    history, w, b = reference_training(samples, epochs, lr)
    assert model.training_history == history
    np.testing.assert_array_equal(model.weights, w)
    np.testing.assert_array_equal(model.biases, b)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_training_diverges_at_the_cross_entropy_loop_epoch():
    samples = [
        SampleFeature("a", np.array([1.0, 0.0]), 0),
        SampleFeature("b", np.array([1.001, 0.0]), 1),
        SampleFeature("c", np.array([0.0, 1.0]), 1),
    ]
    with pytest.raises(NumericError) as ref:
        reference_training(samples, 200, 1e3)
    with pytest.raises(NumericError) as got:
        train_classifier(samples, epochs=200, lr=1e3)
    assert str(got.value).startswith(f"{ref.value}:")


def test_zero_probability_warns_during_training():
    with pytest.warns(UserWarning, match="zero probability on a true class"):
        model = train_classifier(conflicting_samples(), epochs=10, lr=1e3)
    assert all(math.isfinite(l) for l in model.training_history)


def test_training_validation():
    f = SampleFeature("a", np.ones(4), 0)
    with pytest.raises(ConfigError):
        train_classifier([f], epochs=10)
    with pytest.raises(ConfigError):
        train_classifier([f, SampleFeature("b", np.ones(4), 0)], epochs=10)
    with pytest.raises(ConfigError):
        train_classifier([f, SampleFeature("b", np.ones(5), 1)], epochs=10)


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
    a = encode_sample(s, CFG, window=(600, 640))
    b = encode_sample(s, CFG, window=(600, 640))
    np.testing.assert_array_equal(a.feature, b.feature)
    assert a.feature.size == 150


def test_batched_rates_give_the_encoded_features():
    # the classify command encodes every sample in one lane-batched run
    samples = [gen_healthy(GenParams(seed=31)),
               gen_defective(GenParams(seed=32, layer_range=(580, 650)), DefectSpec())]
    batched = encode_sample(samples, CFG, (600, 640), label=[0, 1], sample_id=["a", "b"])
    for s, f, label, sample_id in zip(samples, batched, (0, 1), ("a", "b")):
        np.testing.assert_array_equal(f.feature, encode_sample(s, CFG, (600, 640)).feature)
        assert (f.label, f.sample_id) == (label, sample_id)


def test_encoding_window_mismatch():
    s = gen_healthy(GenParams(seed=31))
    with pytest.raises(DataError):
        encode_sample(s, CFG, window=(560, 640))


def test_encoding_reads_the_last_cascade_stage():
    s = gen_healthy(GenParams(seed=31))
    feat = encode_sample(s, FilterConfig(neurons=150, stages=2, seed=7), window=(600, 640))
    assert feat.feature.size == 75


def test_input_between_intercepts_gives_silent_features():
    # every intercept is well away from zero, so a zero input drives nothing;
    # the default tunings are moved there, each keeping its max rate
    base = build_ensemble(60, 1100.0, 3)
    intercepts = np.random.default_rng(3).uniform(0.5, 0.9, size=60)
    gains = (base.gains + base.biases - 1.0) / (1.0 - intercepts)
    ens = replace(base, intercepts=intercepts, gains=gains, biases=1.0 - gains * intercepts)
    s = gen_healthy(GenParams(noise_std=0.0, junction_spike_amplitude=0.0,
                              baseline_level=1e-6, seed=1))
    inputs = np.repeat(s.values, CFG.presentation_steps)
    res = simulate_cascade([ens], inputs, CFG.dt, [CFG.tau_in, CFG.tau_out], record_rates=True)
    np.testing.assert_allclose(res.rates.mean(axis=0), 0.0, atol=1e-9)


def test_dip_sample_feature_differs_from_healthy():
    p = GenParams(seed=31)
    d = DefectSpec(start_layer=613, n_layers=7, power_reduction_percent=66.0)
    window = (613, 621)
    healthy = encode_sample(gen_healthy(p), CFG, window=window)
    dipped = encode_sample(gen_defective(p, d), CFG, window=window)
    scale = np.maximum(healthy.feature, 1.0)
    rel = np.abs(dipped.feature - healthy.feature) / scale
    assert np.mean(rel > 0.10) >= 0.01
