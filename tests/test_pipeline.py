import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dataclasses import replace

from snndetect.datagen import DefectSpec, GenParams, gen_defective, gen_healthy
from snndetect.errors import ConfigError, DataError, NumericError
from snndetect.evaluation import evaluate
from snndetect.pipeline import (
    AdaptivePolicy,
    DetectionMetrics,
    DeviationSeries,
    FilterConfig,
    FixedPolicy,
    SignalSeries,
    build_filter_ensembles,
    flag_anomalies,
    load_layer_series,
    percent_deviation,
    run_filter,
)
from snndetect.presets import TAU_TABLE, get_preset, preset_names
from snndetect.simulator import simulate_cascade


def series(layers, values):
    return SignalSeries(layers=np.asarray(layers), values=np.asarray(values, float))


# ---------------------------------------------------------------- ingestion

def test_load_direct_parse(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("layer,value\n570,1010\n571,1005\n")
    s = load_layer_series(path)
    assert s.layers.tolist() == [570, 571]
    assert s.values.tolist() == [1010.0, 1005.0]


def test_load_duplicate_layer_names_row(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("layer,value\n570,1010\n570,990\n")
    with pytest.raises(DataError, match="row 3"):
        load_layer_series(path)


def test_load_window_size(tmp_path):
    path = tmp_path / "s.csv"
    lines = ["layer,value"] + [f"{l},{1000 + l}" for l in range(570, 651)]
    path.write_text("\n".join(lines) + "\n")
    assert load_layer_series(path).layers.size == 81


def test_load_missing_column(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("layer,intensity\n570,1010\n")
    with pytest.raises(DataError, match="value"):
        load_layer_series(path)


def test_load_non_numeric_value(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("layer,value\n570,1010\n571,oops\n")
    with pytest.raises(DataError, match="row 3"):
        load_layer_series(path)


def test_load_sorts_rows_and_skips_comments(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("# seed=1 preset=x version=0\nlayer,value\n572,3\n570,1\n571,2\n")
    s = load_layer_series(path)
    assert s.layers.tolist() == [570, 571, 572]
    assert s.values.tolist() == [1.0, 2.0, 3.0]


def test_load_missing_file():
    with pytest.raises(DataError, match="does not exist"):
        load_layer_series("/nonexistent/file.csv")


def test_load_rejects_negative_values(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("layer,value\n570,-4\n")
    with pytest.raises(DataError, match="row 2"):
        load_layer_series(path)


def test_series_validation():
    with pytest.raises(DataError):
        series([570, 570], [1.0, 2.0])
    with pytest.raises(DataError):
        series([571, 570], [1.0, 2.0])
    with pytest.raises(DataError):
        series([570], [np.inf])


# ---------------------------------------------------------------- config

def test_config_presentation_must_be_multiple_of_dt():
    with pytest.raises(ConfigError):
        FilterConfig(presentation_time=0.0105)
    assert FilterConfig(presentation_time=0.01).presentation_steps == 10


def test_config_refuses_a_dt_whose_spike_current_overflows():
    with pytest.raises(ConfigError, match="1/dt"):
        FilterConfig(dt=5e-324, presentation_time=5e-324)
    assert FilterConfig(dt=1e-300, presentation_time=1e-300).presentation_steps == 1


def test_config_json_round_trip_and_strict_keys():
    cfg = FilterConfig(tau_in=0.004, tau_out=0.004, seed=3, stages=2)
    again = FilterConfig.from_dict(cfg.to_dict())
    assert again == cfg
    with pytest.raises(ConfigError):
        FilterConfig.from_dict({"neurons": 10, "bogus": 1})


@pytest.mark.parametrize("field, value", [
    ("neurons", "500"), ("neurons", 2.5), ("neurons", True), ("stages", True),
    ("seed", -1), ("seed", 1.0), ("radius", "1100"), ("radius", float("nan")),
    ("dt", True), ("presentation_time", float("inf")), ("tau_in", None),
])
def test_config_rejects_fields_by_type(field, value):
    with pytest.raises(ConfigError, match=field):
        FilterConfig(**{field: value})


def test_config_accepts_integer_kinds():
    assert FilterConfig(neurons=np.int64(200), radius=1100, seed=np.uint8(3)).neurons == 200


def test_config_stage_sizes():
    assert FilterConfig(neurons=500, stages=2).stage_sizes() == [250, 250]
    assert FilterConfig(neurons=501, stages=2).stage_sizes() == [251, 250]
    with pytest.raises(ConfigError):
        FilterConfig(neurons=2, stages=3)


def test_preset_table_values():
    # every preset carries the shared simulation scale
    base = get_preset("cpu-pd1-33")
    assert (base.neurons, base.radius, base.dt, base.presentation_time) == (500, 1100.0, 0.001, 0.01)
    # spot checks of the shipped per-hardware time constants
    assert get_preset("cpu-pd1-33").tau_in == 0.003
    assert get_preset("cpu-pd1-66").tau_out == 0.002
    assert get_preset("cpu-bd-100").tau_in == 0.005
    assert get_preset("fpga-pd2-33").tau_in == 0.008
    assert get_preset("loihi-bd-33").tau_in == 0.02
    assert get_preset("loihi-pd2-66").tau_in == 0.008
    assert get_preset("fpga-pd1-66").stages == 2
    assert get_preset("cpu-pd1-66").stages == 1
    assert len(preset_names()) == 27
    assert all(tau > 0 for hw in TAU_TABLE.values() for s in hw.values() for tau in s.values())
    with pytest.raises(ConfigError):
        get_preset("cpu-pd1-50")
    with pytest.raises(ConfigError):
        get_preset("gpu-pd1-66")


# ---------------------------------------------------------------- filtering

@pytest.fixture(scope="module")
def cfg():
    return FilterConfig(tau_in=0.002, tau_out=0.002, seed=7)


def test_constant_series_filters_to_constant():
    # tau large enough that the per-window snapshot averages over spikes;
    # the first few layers are the synapse warm-up and are excluded
    cfg8 = FilterConfig(tau_in=0.008, tau_out=0.008, seed=7)
    s = series(range(600, 640), [550.0] * 40)
    out = run_filter(s, cfg8)[0]
    np.testing.assert_allclose(out.values[5:], 550.0, rtol=0.05)
    assert out.layers.tolist() == s.layers.tolist()


def test_lone_spike_is_clipped(cfg):
    values = [770.0] * 30
    values[15] = 3 * 1100.0
    s = series(range(600, 630), values)
    out = run_filter(s, cfg)[0]
    assert out.values.max() <= 1.1 * 1100.0


def test_cascade_single_stage_equals_run_filter(cfg):
    s = series(range(600, 620), np.linspace(300, 900, 20))
    np.testing.assert_array_equal(run_filter(s, replace(cfg, stages=1))[0].values,
                                  run_filter(s, cfg)[0].values)


def test_cascade_constant_matches_single_stage():
    cfg8 = FilterConfig(tau_in=0.008, tau_out=0.008, seed=7)
    s = series(range(600, 660), [550.0] * 60)
    one = run_filter(s, replace(cfg8, stages=1))[0].values[-10:].mean()
    two = run_filter(s, replace(cfg8, stages=2))[0].values[-10:].mean()
    assert two == pytest.approx(one, rel=0.05)


def test_cascade_smooths_white_noise_harder():
    cfg8 = FilterConfig(tau_in=0.008, tau_out=0.008, seed=7)
    rng = np.random.default_rng(3)
    vals = np.clip(550 + 80 * rng.standard_normal(1000), 0, None)
    s = series(range(1000), vals)
    var1 = run_filter(s, replace(cfg8, stages=1))[0].values[50:].var()
    var2 = run_filter(s, replace(cfg8, stages=2))[0].values[50:].var()
    assert var2 <= var1


# ---------------------------------------------------------- lane batching

def lane_series():
    """Three builds with unequal, partly disjoint layer sets."""
    return [
        gen_defective(GenParams(seed=21, noise_std=60.0), DefectSpec()),
        gen_healthy(GenParams(seed=22, layer_range=(575, 640))),
        gen_healthy(GenParams(seed=23, layer_range=(560, 600))),
    ]


def assert_same_filter_run(batched, single):
    (fb, rb), (fs, rs) = batched, single
    np.testing.assert_array_equal(fb.layers, fs.layers)
    np.testing.assert_array_equal(fb.values, fs.values)
    np.testing.assert_array_equal(rb.decoded, rs.decoded)
    np.testing.assert_array_equal(rb.raster.neuron_ids, rs.raster.neuron_ids)
    np.testing.assert_array_equal(rb.raster.times, rs.raster.times)
    assert rb.raster.duration == rs.raster.duration
    np.testing.assert_array_equal(rb.rates, rs.rates)


@pytest.mark.parametrize("per_lane_taus", [False, True])
@pytest.mark.parametrize("stages", [1, 2])
def test_run_filter_lanes_equal_single_runs(stages, per_lane_taus):
    base = FilterConfig(neurons=120, tau_in=0.002, tau_out=0.003, seed=7, stages=stages)
    lanes = lane_series()
    cfgs = [replace(base, tau_in=t, tau_out=2 * t) for t in (0.001, 0.004, 0.008)]
    # each lane averages its rates over a window of its own layers; the
    # shortest lane (41 layers, 410 steps) is padded to the longest
    windows = [(571, 650), (578, 634), (600, 600)]
    filtered, runs = run_filter(lanes, cfgs if per_lane_taus else base, windows)
    assert len(filtered) == len(runs) == len(lanes)
    for s, c, w, f, r in zip(lanes, cfgs if per_lane_taus else [base] * 3, windows, filtered, runs):
        assert r.rates.shape == (base.stage_sizes()[-1],)
        assert_same_filter_run((f, r), run_filter(s, c, [w]))


@pytest.mark.parametrize("stages", [1, 2])
def test_run_filter_without_decode_gives_the_spikes_of_a_decoded_run(stages):
    cfg = FilterConfig(neurons=120, seed=7, stages=stages)
    lanes = lane_series()
    filtered, runs = run_filter(lanes, cfg, decode=False)
    assert filtered is None
    for r, (_, full) in zip(runs, (run_filter(s, cfg) for s in lanes)):
        assert r.decoded is None
        np.testing.assert_array_equal(r.spikes, full.spikes)
        assert len(r.spikes) == len(full.decoded)
    assert run_filter(lanes[0], cfg, decode=False)[0] is None
    with pytest.raises(ConfigError):
        run_filter(lanes[0], cfg, [(570, 571)], decode=False)


def test_run_filter_windows_are_layer_windows():
    # a window of layers (first, last) averages the steps those layers are
    # held for, so it equals the simulator's mean over that step range
    cfg = FilterConfig(neurons=60, seed=7)
    s = series([10, 11, 12, 15, 16], [900.0, 1000.0, 1100.0, 950.0, 1050.0])
    m = cfg.presentation_steps
    _, run = run_filter(s, cfg, [(11, 15)])
    inputs = np.repeat(s.values, m)[None]
    taus = [[cfg.tau_in, cfg.tau_out]]
    ref = simulate_cascade(build_filter_ensembles(cfg), inputs, cfg.dt, taus, [(m, 4 * m)])
    np.testing.assert_array_equal(run.rates, ref.rates[0])


@pytest.mark.parametrize("windows, error, match", [
    ([(10, 16), (10, 16)], ConfigError, "one layer window per series"),
    ([], ConfigError, "one layer window per series"),
    ([(9, 12)], DataError, "not covered"),
    ([(12, 17)], DataError, "not covered"),
    ([(12, 11)], DataError, "not covered"),
    ([(10, 12.0)], ConfigError, "must be an integer"),
    ([(True, 12)], ConfigError, "must be an integer"),
    ([(10, 12, 14)], ConfigError, "first, last"),
    ([10, 12], ConfigError, "pairs"),
    (5, ConfigError, "pairs"),
    ([(13, 15)], DataError, "layer 13 is not in the series"),
    ([(11, 14)], DataError, "layer 14 is not in the series"),
], ids=["count", "none", "before", "after", "reversed", "float-bound", "bool-bound",
        "not-a-pair", "flat-pair", "not-a-list", "gap-first", "gap-last"])
def test_run_filter_rejects_a_bad_layer_window(windows, error, match):
    s = series([10, 11, 12, 15, 16], [900.0, 1000.0, 1100.0, 950.0, 1050.0])
    with pytest.raises(error, match=match):
        run_filter(s, FilterConfig(neurons=20, seed=7), windows)


def test_run_filter_lane_configs_may_differ_only_in_taus():
    lanes = lane_series()[:2]
    cfg = FilterConfig(neurons=50, seed=7)
    for other in (replace(cfg, seed=8), replace(cfg, stages=2), replace(cfg, radius=900.0)):
        with pytest.raises(ConfigError):
            run_filter(lanes, [cfg, other])
    with pytest.raises(ConfigError):
        run_filter(lanes, [cfg])  # one config per lane
    with pytest.raises(ConfigError):
        run_filter([], cfg)


@pytest.mark.parametrize("stages", [1, 2])
def test_detect_pair_with_mismatched_layers_equals_separate_runs(stages):
    cfg = FilterConfig(neurons=120, seed=7, stages=stages)
    defective, healthy, _ = lane_series()
    report = evaluate(run_filter([defective, healthy], cfg)[0], FixedPolicy(threshold_pct=20.0))
    dev = percent_deviation(run_filter(defective, cfg)[0], run_filter(healthy, cfg)[0])
    np.testing.assert_array_equal(report.deviations.layers, dev.layers)
    np.testing.assert_array_equal(report.deviations.values, dev.values)
    assert report.flagged_layers == flag_anomalies(dev, FixedPolicy(threshold_pct=20.0)).flagged_layers


# ---------------------------------------------------------------- deviation

def test_deviation_identity_is_zero():
    s = series(range(570, 580), np.linspace(900, 1100, 10))
    dev = percent_deviation(s, s)
    np.testing.assert_array_equal(dev.values, 0.0)


def test_deviation_hand_value():
    h = series([570], [1000.0])
    d = series([570], [900.0])
    dev = percent_deviation(d, h)
    assert dev.values[0] == pytest.approx(-10.0)


def test_deviation_seven_layer_dip():
    layers = list(range(570, 651))
    h = series(layers, [1000.0] * 81)
    dvals = [1000.0] * 81
    for l in range(613, 620):
        dvals[l - 570] = 400.0
    d = series(layers, dvals)
    dev = percent_deviation(d, h)
    m = dict(zip(dev.layers.tolist(), dev.values.tolist()))
    for l in range(613, 620):
        assert m[l] == pytest.approx(-60.0)
    assert sum(1 for v in m.values() if v != 0.0) == 7


def test_deviation_domain_is_intersection():
    h = series(range(570, 600), [1000.0] * 30)
    d = series(range(590, 620), [900.0] * 30)
    dev = percent_deviation(d, h)
    assert dev.layers.tolist() == list(range(590, 600))


def test_deviation_near_zero_healthy_is_undefined():
    h = series([570, 571, 572], [1000.0, 0.0, 1000.0])
    d = series([570, 571, 572], [900.0, 5.0, 900.0])
    dev = percent_deviation(d, h)
    assert dev.undefined == (571,)
    assert dev.layers.tolist() == [570, 572]


def test_deviation_of_an_all_zero_healthy_series_is_a_data_error():
    h = series([570, 571], [0.0, 0.0])
    d = series([570, 571], [900.0, 5.0])
    with pytest.raises(DataError, match="no deviation is defined"):
        percent_deviation(d, h)


@pytest.mark.parametrize("healthy, defective", [
    (1e-307, 1000.0),  # a defined healthy value, but 1000 beside it is 1e312 %
    (1e308, 1e306),  # the difference times 100 is -9.9e309
])
def test_overflowing_deviation_is_a_numeric_error(healthy, defective):
    h = series([570, 571, 572], [healthy] * 3)
    d = series([570, 571, 572], [healthy, defective, healthy])
    with pytest.raises(NumericError, match="overflows the float range"):
        percent_deviation(d, h)


def test_deviation_of_a_healthy_series_near_the_float_maximum():
    # the sum of the two middle values overflows, so their median is the
    # sum of their halves, and every layer is defined
    h = series([570, 571, 572, 573], [1.5e308, 1.6e308, 1.7e308, 1.75e308])
    dev = percent_deviation(h, h)
    assert dev.values.tolist() == [0.0] * 4 and dev.undefined == ()


def test_deviation_series_is_a_checked_signal_series():
    dev = DeviationSeries(layers=[570, 571], values=[-1, 2], undefined=(572,))
    assert isinstance(dev, SignalSeries)
    assert dev.layers.dtype == np.int64 and dev.values.dtype == float
    assert dev.layer_index(571) == 1
    for layers, values in (([570, 571], [0.0]), ([571, 570], [0.0, 0.0]), ([570], [np.inf])):
        with pytest.raises(DataError):
            DeviationSeries(layers=layers, values=values)


def test_deviation_requires_overlap():
    h = series([570], [1000.0])
    d = series([571], [900.0])
    with pytest.raises(DataError):
        percent_deviation(d, h)


# ---------------------------------------------------------------- flagging

def dev_series(mapping):
    layers = sorted(mapping)
    return DeviationSeries(layers=np.array(layers), values=np.array([mapping[l] for l in layers]))


def test_fixed_policy_no_flags_on_zero_deviation():
    dev = dev_series({l: 0.0 for l in range(570, 651)})
    report = flag_anomalies(dev, FixedPolicy(threshold_pct=5.0))
    assert report.flagged_layers == ()


def test_fixed_policy_flags_single_dip():
    mapping = {l: 0.0 for l in range(570, 651)}
    mapping[615] = -30.0
    report = flag_anomalies(dev_series(mapping), FixedPolicy(threshold_pct=5.0))
    assert report.flagged_layers == (615,)


def test_adaptive_policy_mad_threshold():
    rng = np.random.default_rng(9)
    mapping = {l: float(rng.uniform(-1.0, 1.0)) for l in range(570, 613)}
    for l in range(613, 622):
        mapping[l] = -20.0
    for l in range(622, 651):
        mapping[l] = float(rng.uniform(-1.0, 1.0))
    dev = dev_series(mapping)
    policy = AdaptivePolicy(k=6.0, calibration=(570, 608))
    report = flag_anomalies(dev, policy)
    # oracle: recompute the MAD of the calibration draw by hand
    cal = np.array([mapping[l] for l in range(570, 609)])
    mad = np.median(np.abs(cal - np.median(cal)))
    assert report.threshold_used == pytest.approx(6.0 * mad)
    assert report.flagged_layers == tuple(range(613, 622))
    assert not report.fallback_used


def test_adaptive_policy_zero_mad_falls_back():
    mapping = {l: 0.0 for l in range(570, 651)}
    mapping[615] = -30.0
    policy = AdaptivePolicy(k=6.0, calibration=(570, 608))
    report = flag_anomalies(dev_series(mapping), policy)
    assert report.fallback_used
    assert report.threshold_used == 5.0
    assert report.flagged_layers == (615,)


def test_adaptive_policy_empty_calibration_errors():
    dev = dev_series({l: 0.0 for l in range(570, 580)})
    with pytest.raises(ConfigError):
        flag_anomalies(dev, AdaptivePolicy(calibration=(100, 200)))


@settings(max_examples=50, deadline=None)
@given(
    devs=st.lists(st.floats(min_value=-100, max_value=100), min_size=3, max_size=40),
    theta_lo=st.floats(min_value=0.5, max_value=50),
    delta=st.floats(min_value=0.1, max_value=40),
)
def test_lowering_fixed_threshold_never_removes_flags(devs, theta_lo, delta):
    dev = dev_series({i: v for i, v in enumerate(devs)})
    low = flag_anomalies(dev, FixedPolicy(threshold_pct=theta_lo))
    high = flag_anomalies(dev, FixedPolicy(threshold_pct=theta_lo + delta))
    assert set(high.flagged_layers) <= set(low.flagged_layers)


def test_flagged_layers_exist_in_both_series(cfg):
    p = GenParams(seed=21)
    healthy = gen_healthy(p)
    defective = gen_healthy(GenParams(seed=22))
    dev = percent_deviation(run_filter(defective, cfg)[0], run_filter(healthy, cfg)[0])
    report = flag_anomalies(dev, FixedPolicy(threshold_pct=1.0))
    both = set(healthy.layers.tolist()) & set(defective.layers.tolist())
    assert set(report.flagged_layers) <= both


def test_report_serializes(cfg):
    mapping = {l: 0.0 for l in range(570, 600)}
    mapping[580] = -50.0
    report = flag_anomalies(dev_series(mapping), FixedPolicy(threshold_pct=5.0))
    doc = json.dumps(report.to_dict())
    assert "580" in doc


def test_report_dict_holds_the_deviations_and_metrics():
    dev = DeviationSeries(layers=[570, 571], values=[-50.0, 0.25], undefined=(572,))
    report = replace(flag_anomalies(dev, FixedPolicy(threshold_pct=5.0)),
                     metrics=DetectionMetrics(precision=1.0, recall=0.5, f1=2 / 3))
    doc = report.to_dict()
    assert doc["deviations"] == {"570": -50.0, "571": 0.25}
    assert [type(v) for v in doc["deviations"].values()] == [float, float]
    assert doc["undefined_layers"] == [572]
    assert doc["metrics"] == {"precision": 1.0, "recall": 0.5, "f1": 2 / 3}
