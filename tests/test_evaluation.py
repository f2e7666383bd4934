import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import snndetect.evaluation as evaluation
from snndetect.baselines import default_specs
from snndetect.datagen import DefectSpec, GenParams, gen_defective, gen_healthy
from snndetect.errors import ConfigError, DataError, SnnDetectError
from snndetect.evaluation import (
    GroundTruth, compare_filters, evaluate, f1_score, sweep_tau, window_flags,
)
from snndetect.pipeline import DetectionMetrics, FilterConfig, FixedPolicy, run_filter

WINDOW = (570, 650)


def noiseless_case(n_layers=7, reduction=66.0):
    p = GenParams(noise_std=0.0, junction_period=10, seed=5)
    d = DefectSpec(start_layer=613, n_layers=n_layers, power_reduction_percent=reduction)
    truth = GroundTruth(defect_layers=frozenset(d.layers), window=WINDOW)
    return gen_defective(p, d), gen_healthy(p), truth


def test_f1_perfect():
    truth = GroundTruth(defect_layers=frozenset(range(613, 620)), window=WINDOW)
    assert f1_score(set(range(613, 620)), truth) == (1.0, 1.0, 1.0)


def test_f1_empty_flags():
    truth = GroundTruth(defect_layers=frozenset(range(613, 620)), window=WINDOW)
    assert f1_score(set(), truth) == (0.0, 0.0, 0.0)


def test_f1_returns_the_report_metrics():
    truth = GroundTruth(defect_layers=frozenset(range(613, 620)), window=WINDOW)
    m = f1_score(set(range(613, 622)), truth)
    assert isinstance(m, DetectionMetrics)
    assert (m.precision, m.recall, m.f1) == tuple(m)
    defective, healthy, truth = noiseless_case()
    report = evaluate([defective, healthy], FixedPolicy(threshold_pct=30.0), truth)
    assert report.metrics == f1_score(window_flags(report, truth), truth) == (1.0, 1.0, 1.0)
    assert type(report.metrics) is DetectionMetrics


def test_f1_hand_computed():
    truth = GroundTruth(defect_layers=frozenset(range(613, 620)), window=WINDOW)
    p, r, f1 = f1_score(set(range(613, 622)), truth)
    assert p == pytest.approx(7 / 9)
    assert r == 1.0
    assert f1 == pytest.approx(0.875)


def test_f1_rejects_out_of_window_flags():
    truth = GroundTruth(defect_layers=frozenset({613}), window=WINDOW)
    with pytest.raises(DataError):
        f1_score({700}, truth)


@settings(max_examples=100, deadline=None)
@given(
    flags=st.sets(st.integers(min_value=570, max_value=650), max_size=30),
    defects=st.sets(st.integers(min_value=570, max_value=650), min_size=1, max_size=30),
)
def test_f1_bounds_and_perfection(flags, defects):
    truth = GroundTruth(defect_layers=frozenset(defects), window=WINDOW)
    p, r, f1 = f1_score(flags, truth)
    assert 0.0 <= f1 <= 1.0
    assert (f1 == 1.0) == (flags == defects)


@settings(max_examples=50, deadline=None)
@given(
    flags=st.sets(st.integers(min_value=570, max_value=650), max_size=20),
    defects=st.sets(st.integers(min_value=570, max_value=650), min_size=1, max_size=20),
)
def test_adding_correct_flag_never_decreases_recall(flags, defects):
    truth = GroundTruth(defect_layers=frozenset(defects), window=WINDOW)
    missing = defects - flags
    if not missing:
        return
    _, r0, _ = f1_score(flags, truth)
    _, r1, _ = f1_score(flags | {next(iter(missing))}, truth)
    assert r1 >= r0


def test_ground_truth_validation_and_json():
    with pytest.raises(DataError):
        GroundTruth(defect_layers=frozenset({700}), window=WINDOW)
    truth = GroundTruth.from_dict(json.loads('{"defect_layers": [613, 614], "window": [570, 650]}'))
    assert truth.defect_layers == frozenset({613, 614})
    assert truth.default_policy().calibration == (570, 608)
    # a missing truth file is the CLI's to report: see test_cli's missing-file cases
    with pytest.raises(DataError):
        GroundTruth.from_dict({"defect_layers": [1, 2]})
    with pytest.raises(DataError):
        GroundTruth.from_dict([613, 614])


def test_sweep_validates_taus():
    defective, healthy, truth = noiseless_case()
    cfg = FilterConfig(seed=7)
    with pytest.raises(ConfigError):
        sweep_tau(defective, healthy, [0.002, 0.001], cfg, truth, truth.default_policy())
    with pytest.raises(ConfigError):
        sweep_tau(defective, healthy, [-0.001, 0.002], cfg, truth, truth.default_policy())
    with pytest.raises(ConfigError):
        sweep_tau(defective, healthy, [], cfg, truth, truth.default_policy())


def test_sweep_noiseless_perfect_across_small_taus():
    # in the clean regime every small time constant detects perfectly
    defective, healthy, truth = noiseless_case()
    cfg = FilterConfig(seed=7)
    result = sweep_tau(
        defective, healthy, [0.001, 0.002, 0.004, 0.005], cfg, truth,
        policy=FixedPolicy(threshold_pct=30.0),
    )
    assert all(pt.f1 == 1.0 for pt in result.points)
    # tie on F1 resolves to the smallest (least lag) time constant
    assert result.best_tau == 0.001


def test_sweep_records_row_errors(monkeypatch):
    # the sweep filters every point in one batched run, so the per-point
    # failure is injected where each point's filtered pair is scored; the
    # points are scored in order, so the second call is the 0.002 point
    defective, healthy, truth = noiseless_case()
    cfg = FilterConfig(seed=7)
    real = evaluation.percent_deviation
    calls = []

    def flaky(filtered_def, filtered_heal):
        calls.append(filtered_def)
        if len(calls) == 2:
            raise SnnDetectError("injected failure")
        return real(filtered_def, filtered_heal)

    monkeypatch.setattr(evaluation, "percent_deviation", flaky)
    result = sweep_tau(
        defective, healthy, [0.001, 0.002], cfg, truth,
        policy=FixedPolicy(threshold_pct=30.0),
    )
    assert result.points[1].error == "injected failure"
    assert np.isnan(result.points[1].f1)
    assert result.points[0].error is None
    assert result.best_tau == 0.001
    assert len(calls) == 2


def test_sweep_all_rows_failing_raises(monkeypatch):
    defective, healthy, truth = noiseless_case()

    def broken(series, cfg_t):
        raise SnnDetectError("boom")

    monkeypatch.setattr(evaluation, "run_filter", broken)
    with pytest.raises(DataError):
        sweep_tau(defective, healthy, [0.001], FilterConfig(seed=7), truth,
                  policy=FixedPolicy(threshold_pct=30.0))


def test_sweep_points_equal_single_tau_detection():
    # the batched sweep scores each point exactly as a detect run at that tau
    p = GenParams(noise_std=20.0, seed=5)
    defective = gen_defective(p, DefectSpec())
    healthy = gen_healthy(GenParams(noise_std=20.0, seed=6))
    truth = GroundTruth(defect_layers=frozenset(DefectSpec().layers), window=WINDOW)
    cfg = FilterConfig(neurons=120, seed=7, stages=2)
    taus = [0.001, 0.003, 0.008]
    result = sweep_tau(defective, healthy, taus, cfg, truth, truth.default_policy())
    for tau, pt in zip(taus, result.points):
        filtered, _ = run_filter([defective, healthy], replace(cfg, tau_in=tau, tau_out=tau))
        report = evaluate(filtered, truth.default_policy())
        flags = window_flags(report, truth)
        assert (pt.precision, pt.recall, pt.f1, pt.flagged) == (
            *f1_score(flags, truth), len(flags))


def test_default_policy_calibrates_before_the_defect():
    truth = GroundTruth(defect_layers=frozenset(range(613, 620)), window=WINDOW)
    assert truth.default_policy().calibration == (570, 608)
    edge = GroundTruth(defect_layers=frozenset(range(575, 580)), window=WINDOW)
    assert edge.default_policy().calibration == (570, 570)


def test_default_policy_rejects_defect_within_margin_of_window_start():
    truth = GroundTruth(defect_layers=frozenset(range(573, 580)), window=WINDOW)
    with pytest.raises(ConfigError) as info:
        truth.default_policy()
    message = str(info.value)
    assert "573" in message and "(570, 650)" in message and "5-layer margin" in message


def test_sweep_deterministic():
    defective, healthy, truth = noiseless_case()
    cfg = FilterConfig(seed=7)
    a = sweep_tau(defective, healthy, [0.001, 0.004], cfg, truth, truth.default_policy())
    b = sweep_tau(defective, healthy, [0.001, 0.004], cfg, truth, truth.default_policy())
    assert a == b


def test_compare_noiseless_all_perfect():
    defective, healthy, truth = noiseless_case()
    cfg = FilterConfig(tau_in=0.002, tau_out=0.002, seed=7)
    rows = compare_filters(defective, healthy, default_specs(), cfg, truth,
                           policy=FixedPolicy(threshold_pct=30.0))
    assert len(rows) == len(default_specs()) + 1
    assert [r.key for r in rows][-1] == "snn"
    for row in rows:
        assert row.f1 == 1.0, row


def test_compare_snn_row_matches_direct_pipeline():
    from snndetect.evaluation import window_flags
    from snndetect.pipeline import flag_anomalies, percent_deviation

    defective, healthy, truth = noiseless_case()
    cfg = FilterConfig(tau_in=0.002, tau_out=0.002, seed=7)
    policy = FixedPolicy(threshold_pct=30.0)
    rows = compare_filters(defective, healthy, default_specs(), cfg, truth, policy)
    dev = percent_deviation(run_filter(defective, cfg)[0], run_filter(healthy, cfg)[0])
    report = flag_anomalies(dev, policy)
    p, r, f1 = f1_score(window_flags(report, truth), truth)
    snn_row = rows[-1]
    assert (snn_row.precision, snn_row.recall, snn_row.f1) == (p, r, f1)
