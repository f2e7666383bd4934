import importlib.util
from dataclasses import replace

import numpy as np
import pytest

from snndetect.baselines import (
    KINDS,
    BaselineFilterSpec,
    _butter,
    apply_baseline_filter,
    default_specs,
)
from snndetect.errors import ConfigError, DataError, NumericError
from snndetect.pipeline import SignalSeries


def series(values, start=600):
    values = np.asarray(values, float)
    return SignalSeries(layers=np.arange(start, start + values.size), values=values)


SPECS = {
    "savitzky_golay": BaselineFilterSpec(kind="savitzky_golay", window=5, polyorder=2),
    "butterworth": BaselineFilterSpec(kind="butterworth", cutoff=0.5, order=2),
    "moving_average": BaselineFilterSpec(kind="moving_average", window=3),
    "gaussian": BaselineFilterSpec(kind="gaussian", sigma=1.0),
}


@pytest.mark.parametrize("kind", KINDS)
def test_dc_gain_is_one(kind):
    s = series([123.456] * 41)
    out = apply_baseline_filter(s, SPECS[kind])
    np.testing.assert_allclose(out.values, 123.456, rtol=1e-9)


def test_moving_average_hand_value():
    out = apply_baseline_filter(series([0, 0, 3, 0, 0]), SPECS["moving_average"])
    assert out.values[2] == pytest.approx(1.0)


def test_savgol_reproduces_quadratic_on_interior():
    layers = np.arange(0, 31)
    quad = 3.0 + 0.5 * layers + 0.25 * layers**2
    out = apply_baseline_filter(series(quad, start=0), SPECS["savitzky_golay"])
    half = SPECS["savitzky_golay"].window // 2
    np.testing.assert_allclose(out.values[half:-half], quad[half:-half], rtol=1e-10)


def test_butterworth_zero_phase_on_symmetric_pulse():
    n = 41
    pulse = np.zeros(n)
    pulse[17:24] = 1.0
    out = apply_baseline_filter(series(pulse), SPECS["butterworth"])
    np.testing.assert_allclose(out.values, out.values[::-1], atol=1e-9)


@pytest.mark.parametrize("kind", KINDS)
def test_linearity(kind):
    rng = np.random.default_rng(4)
    x = rng.uniform(0, 10, 31)
    z = rng.uniform(0, 10, 31)
    a, b = 1.7, -0.6
    fx = apply_baseline_filter(series(x), SPECS[kind]).values
    fz = apply_baseline_filter(series(z), SPECS[kind]).values
    fc = apply_baseline_filter(series(a * x + b * z), SPECS[kind]).values
    np.testing.assert_allclose(fc, a * fx + b * fz, atol=1e-9)


def test_default_specs_cover_all_kinds():
    assert sorted(s.kind for s in default_specs()) == sorted(KINDS)


def test_spec_validation():
    with pytest.raises(ConfigError):
        BaselineFilterSpec(kind="median", window=3)
    with pytest.raises(ConfigError):
        BaselineFilterSpec(kind="moving_average", window=4)
    with pytest.raises(ConfigError):
        BaselineFilterSpec(kind="moving_average", window=1)
    with pytest.raises(ConfigError):
        BaselineFilterSpec(kind="savitzky_golay", window=5, polyorder=5)
    with pytest.raises(ConfigError):
        BaselineFilterSpec(kind="butterworth", cutoff=1.5)
    with pytest.raises(ConfigError):
        BaselineFilterSpec(kind="butterworth", cutoff=0.0)
    with pytest.raises(ConfigError):
        BaselineFilterSpec(kind="gaussian", sigma=0.0)
    for bad in (
        dict(kind="moving_average", window=5.0),
        dict(kind="savitzky_golay", window=5, polyorder=2.5),
        dict(kind="butterworth", cutoff=0.5, order=2.5),
        dict(kind="butterworth", cutoff=0.5, order=True),
        dict(kind="butterworth", cutoff=float("nan")),
        dict(kind="gaussian", sigma=True),
        dict(kind="gaussian", sigma=1e308),  # its half-width 4*sigma overflows
    ):
        with pytest.raises(ConfigError):
            BaselineFilterSpec(**bad)


def test_series_shorter_than_window_errors():
    with pytest.raises(DataError):
        apply_baseline_filter(series([1.0, 2.0]), SPECS["moving_average"])
    for sigma in (1e300, 10.0):  # a gaussian's half-width 4*sigma must be < the length
        with pytest.raises(DataError):
            apply_baseline_filter(series(np.ones(40)), BaselineFilterSpec(kind="gaussian", sigma=sigma))
    apply_baseline_filter(series(np.ones(40)), BaselineFilterSpec(kind="gaussian", sigma=9.75))


def test_layers_preserved():
    s = series(np.linspace(10, 20, 31))
    out = apply_baseline_filter(s, SPECS["gaussian"])
    np.testing.assert_array_equal(out.layers, s.layers)


# scipy.signal is the oracle for the numpy Savitzky-Golay and Butterworth
# filters; numpy and scipy may order their sums differently, so values agree
# to ORACLE_RTOL rather than bit for bit
ORACLE_RTOL = 1e-12
ORACLE_LENGTHS = range(1, 201)


def scipy_filter(s, spec):
    from scipy import signal as sps
    x = s.values
    if spec.kind == "savitzky_golay":
        y = sps.savgol_filter(x, spec.window, spec.polyorder, mode="mirror")
    elif spec.kind == "butterworth":
        b, a = sps.butter(spec.order, spec.cutoff, btype="low")
        y = sps.filtfilt(b, a, x, padtype="even", padlen=min(3 * (spec.order + 1), x.size - 1))
    else:
        return apply_baseline_filter(s, spec)
    return SignalSeries(layers=s.layers, values=y)


@pytest.mark.parametrize("window,polyorder", [(3, 0), (5, 2), (5, 4), (7, 3), (9, 2)])
def test_savgol_matches_scipy(window, polyorder):
    pytest.importorskip("scipy.signal")
    spec = BaselineFilterSpec(kind="savitzky_golay", window=window, polyorder=polyorder)
    rng = np.random.default_rng(window * 10 + polyorder)
    for n in ORACLE_LENGTHS:
        s = series(rng.uniform(500.0, 1500.0, n))
        if n < window:
            with pytest.raises(DataError):
                apply_baseline_filter(s, spec)
            continue
        np.testing.assert_allclose(apply_baseline_filter(s, spec).values,
                                   scipy_filter(s, spec).values, rtol=ORACLE_RTOL, atol=0)


@pytest.mark.parametrize("order", range(1, 9))
def test_butterworth_matches_scipy(order):
    pytest.importorskip("scipy.signal")
    rng = np.random.default_rng(order)
    for cutoff in (0.05, 0.2, 0.5, 0.9):
        spec = BaselineFilterSpec(kind="butterworth", cutoff=cutoff, order=order)
        for n in ORACLE_LENGTHS:
            s = series(rng.uniform(500.0, 1500.0, n))
            np.testing.assert_allclose(apply_baseline_filter(s, spec).values,
                                       scipy_filter(s, spec).values, rtol=ORACLE_RTOL, atol=0)


@pytest.mark.parametrize("order", [16, 20, 40])
def test_unstable_butterworth_is_rejected(order):
    # at cutoff 0.05 the rounded denominators of these orders have a root
    # outside the unit circle (|z| about 1.08, 1.23, 2.05)
    with pytest.raises(NumericError, match=f"order {order} at cutoff 0.05 is unstable"):
        BaselineFilterSpec(kind="butterworth", cutoff=0.05, order=order)


def test_a_butterworth_design_is_shared_and_read_only():
    # each (order, cutoff) is designed once per process, so callers share it
    b, a = _butter(2, 0.5)
    assert _butter(2, 0.5)[0] is b
    with pytest.raises(ValueError):
        a[0] = 2.0


def test_order_twelve_butterworth_stays_within_the_series():
    # the highest order below 16 that these tests pin at cutoff 0.05 (|z| about 0.98)
    from snndetect.datagen import GenParams, gen_healthy

    s = gen_healthy(GenParams(seed=42))
    spec = BaselineFilterSpec(kind="butterworth", cutoff=0.05, order=12)
    y = apply_baseline_filter(s, spec).values
    assert s.values.min() < y.min() and y.max() < s.values.max()
    if importlib.util.find_spec("scipy") is not None:
        np.testing.assert_allclose(y, scipy_filter(s, spec).values, rtol=ORACLE_RTOL, atol=0)


def test_compare_rows_match_scipy(monkeypatch):
    # the C4 acceptance case (66% drop over 7 layers, sensor noise 20) under cpu-pd1-66
    pytest.importorskip("scipy.signal")
    from snndetect import evaluation
    from snndetect.datagen import DefectSpec, GenParams, gen_defective, gen_healthy
    from snndetect.presets import get_preset

    window = (570, 650)
    defect = DefectSpec(start_layer=613, n_layers=7, power_reduction_percent=66.0)
    defective = gen_defective(GenParams(layer_range=window, noise_std=20.0, junction_period=8,
                                        seed=42), defect)
    healthy = gen_healthy(GenParams(layer_range=window, noise_std=20.0, junction_period=8, seed=43))
    truth = evaluation.GroundTruth(defect_layers=frozenset(defect.layers), window=window)
    cfg = replace(get_preset("cpu-pd1-66"), seed=7)

    policy = truth.default_policy()
    rows = evaluation.compare_filters(defective, healthy, default_specs(), cfg, truth, policy)
    monkeypatch.setattr(evaluation, "apply_baseline_filter", scipy_filter)
    oracle = evaluation.compare_filters(defective, healthy, default_specs(), cfg, truth, policy)
    assert [(r.key, r.precision, r.recall, r.f1) for r in rows] == \
        [(r.key, r.precision, r.recall, r.f1) for r in oracle]
    assert all(r.error is None for r in rows)
