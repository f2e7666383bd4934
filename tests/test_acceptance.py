"""Acceptance suite: one test per release criterion, at stated tolerances.

Run with `pytest tests/test_acceptance.py -v` for a pass/fail line per
criterion (add -s to see the [acceptance] summary prints).
"""

import hashlib
import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from oracles import SynapseState, cross_entropy, synapse_step

from snndetect.baselines import BaselineFilterSpec, apply_baseline_filter, default_specs
from snndetect.classifier import (
    encode_sample,
    one_hot,
    predict,
    softmax,
    train_classifier,
)
from snndetect.cli import main
from snndetect.datagen import DefectSpec, GenParams, gen_defective, gen_healthy
from snndetect.energy import (
    HARDWARE_ORDER,
    count_ops,
    estimate_energy,
    reference_profiles,
)
from snndetect.ensembles import build_ensemble
from snndetect.evaluation import GroundTruth, compare_filters, evaluate, sweep_tau
from snndetect.neurons import lif_rate, lif_step_arrays
from snndetect.pipeline import (
    FilterConfig,
    build_filter_ensembles,
    run_filter,
)
from snndetect.presets import get_preset
from snndetect.simulator import simulate_cascade

WINDOW = (570, 650)
SWEEP_TAUS = [1e-4, 0.001, 0.002, 0.004, 0.008, 0.016, 0.032, 0.1]


def build_case(sensor_noise, reduction, n_layers, junction_period=8, seed=42):
    """Defective build plus an independent healthy reference build."""
    p_def = GenParams(layer_range=WINDOW, noise_std=sensor_noise,
                      junction_period=junction_period, seed=seed)
    p_heal = GenParams(layer_range=WINDOW, noise_std=sensor_noise,
                       junction_period=junction_period, seed=seed + 1)
    spec = DefectSpec(start_layer=613, n_layers=n_layers, power_reduction_percent=reduction)
    truth = GroundTruth(defect_layers=frozenset(spec.layers), window=WINDOW)
    return gen_defective(p_def, spec), gen_healthy(p_heal), truth


@pytest.fixture(scope="module")
def big_ensemble():
    return build_ensemble(500, 1100.0, 42)


@pytest.fixture(scope="module")
def case_pd1_66():
    return build_case(sensor_noise=20.0, reduction=66.0, n_layers=7)


@pytest.fixture(scope="module")
def noisy_sweep():
    defective, healthy, truth = build_case(sensor_noise=60.0, reduction=33.0, n_layers=7)
    cfg = FilterConfig(seed=7)
    return sweep_tau(defective, healthy, SWEEP_TAUS, cfg, truth, truth.default_policy())


def test_c01_lif_rate_curve_oracle():
    # 20 random drives in (1, 10]; spike counting over 5 s at the production
    # timestep must match the closed form within 2% wherever rates >= 20 Hz
    start = time.monotonic()
    rng = np.random.default_rng(1)
    js = rng.uniform(1.0, 10.0, 20)
    expected = np.array([lif_rate(j) for j in js])
    keep = expected >= 20.0
    assert keep.sum() >= 15  # nearly all draws fire fast enough to score

    dt, duration = 0.001, 5.0
    v = np.zeros(js.size)
    refr = np.zeros(js.size)
    counts = np.zeros(js.size)
    for _ in range(int(duration / dt)):
        v, refr, spiked = lif_step_arrays(v, refr, js, dt)
        counts += spiked
    empirical = counts / duration
    rel = np.abs(empirical[keep] - expected[keep]) / expected[keep]
    elapsed = time.monotonic() - start
    assert rel.max() < 0.02
    assert elapsed < 10.0
    print(f"\n[acceptance] C1 lif-rate oracle: PASS (max err {rel.max():.3%}, {elapsed:.1f}s)")


def test_c02_decode_accuracy_and_saturation(big_ensemble):
    start = time.monotonic()
    e = big_ensemble
    dt, tau = 0.001, 0.005

    def settled(x):
        res = simulate_cascade([e], np.full((1, 400), float(x)), dt, [[tau, tau]])
        return res.decoded[0, -150:].mean()

    inner = np.linspace(-880.0, 880.0, 13)
    decoded_inner = np.array([settled(x) for x in inner])
    rmse = np.sqrt(np.mean((decoded_inner - inner) ** 2))
    assert rmse <= 0.05 * e.radius

    outer = np.array([-2200.0, -1760.0, -1320.0, -1100.0, 1100.0, 1320.0, 1760.0, 2200.0])
    decoded_outer = np.array([settled(x) for x in outer])
    xs = np.concatenate([outer[:4], inner, outer[4:]])
    decoded = np.concatenate([decoded_outer[:4], decoded_inner, decoded_outer[4:]])
    order = np.argsort(xs)
    assert np.all(np.diff(decoded[order]) >= -0.01 * e.radius)  # monotone up to readout noise

    interior_slope = (decoded_inner[-1] - decoded_inner[0]) / (inner[-1] - inner[0])
    outer_slope = abs(decoded_outer[-1] - decoded_outer[-4]) / (2200.0 - 1100.0)
    elapsed = time.monotonic() - start
    assert outer_slope <= 0.10 * interior_slope
    assert elapsed < 30.0
    print(f"\n[acceptance] C2 decode accuracy: PASS (rmse {rmse:.1f}, "
          f"slope ratio {outer_slope / interior_slope:.3f}, {elapsed:.1f}s)")


def test_c03_synapse_exactness():
    tau, dt = 0.002, 0.001
    a = math.exp(-dt / tau)
    s = SynapseState(tau_syn=tau)
    ys = []
    for x in [1.0] + [0.0] * 40:
        s, y = synapse_step(s, x, dt)
        ys.append(y)
    expected = (1 - a) * a ** np.arange(41)
    impulse_err = np.max(np.abs(np.array(ys) - expected))
    assert impulse_err < 1e-12

    s = SynapseState(tau_syn=tau)
    steps = int(10 * tau / dt)
    for _ in range(steps):
        s, y = synapse_step(s, 7.25, dt)
    dc_err = abs(y - 7.25) / 7.25
    assert dc_err < 1e-3
    print(f"\n[acceptance] C3 synapse exactness: PASS (impulse {impulse_err:.1e}, dc {dc_err:.2e})")


def test_c04_end_to_end_detection(case_pd1_66, noisy_sweep):
    start = time.monotonic()
    defective, healthy, truth = case_pd1_66
    cfg = replace(get_preset("cpu-pd1-66"), seed=7)
    filtered = [run_filter(defective, cfg)[0], run_filter(healthy, cfg)[0]]
    report = evaluate(filtered, truth.default_policy(), truth)
    assert report.metrics.f1 == 1.0

    best_f1 = max(pt.f1 for pt in noisy_sweep.points if pt.error is None)
    elapsed = time.monotonic() - start
    assert best_f1 >= 0.7
    assert elapsed < 120.0
    print(f"\n[acceptance] C4 end-to-end detection: PASS (66% f1=1.0, "
          f"33% best f1 {best_f1:.3f}, {elapsed:.1f}s)")


def test_c05_tau_sweep_shape(noisy_sweep):
    by_tau = {pt.key: pt.f1 for pt in noisy_sweep.points}
    best_f1 = max(pt.f1 for pt in noisy_sweep.points if pt.error is None)
    assert by_tau[1e-4] < best_f1
    assert by_tau[0.1] < best_f1

    defective, healthy, truth = build_case(sensor_noise=20.0, reduction=66.0, n_layers=1)
    one_layer = sweep_tau(defective, healthy, SWEEP_TAUS, FilterConfig(seed=7), truth,
                          truth.default_policy())
    one_best = max(pt.f1 for pt in one_layer.points if pt.error is None)
    one_by_tau = {pt.key: pt.f1 for pt in one_layer.points}
    assert one_by_tau[0.1] < one_best
    print(f"\n[acceptance] C5 sweep shape: PASS (noisy: {by_tau[1e-4]:.2f}/{by_tau[0.1]:.2f} "
          f"< {best_f1:.2f}; 1-layer: {one_by_tau[0.1]:.2f} < {one_best:.2f})")


def test_c06_raster_rarefaction():
    # junction layers fall outside the dip window so the comparison isolates
    # the power-drop response
    p = GenParams(layer_range=WINDOW, noise_std=20.0, junction_period=10, seed=42)
    spec = DefectSpec(start_layer=613, n_layers=7, power_reduction_percent=66.0)
    defective = gen_defective(p, spec)
    cfg = replace(get_preset("cpu-pd1-66"), seed=7)
    _, sim = run_filter(defective, cfg)
    ens = build_filter_ensembles(cfg)[0]

    dip_level = p.baseline_level * (1 - spec.dip_depth)
    band = (
        (ens.encoders > 0)
        & (ens.intercepts > dip_level / cfg.radius)
        & (ens.intercepts < p.baseline_level / cfg.radius)
    )
    assert band.sum() > 20

    m = cfg.presentation_steps

    def band_spikes(l0, l1):
        i0 = defective.layer_index(l0)
        i1 = defective.layer_index(l1)
        t0, t1 = i0 * m * cfg.dt, (i1 + 1) * m * cfg.dt
        sel = (sim.raster.times >= t0) & (sim.raster.times < t1) & band[sim.raster.neuron_ids]
        return int(sel.sum())

    defect_count = band_spikes(613, 619)
    healthy_count = band_spikes(606, 612)
    ratio = defect_count / healthy_count
    assert ratio < 0.10
    print(f"\n[acceptance] C6 raster rarefaction: PASS "
          f"({defect_count} vs {healthy_count} spikes, ratio {ratio:.3f})")


def test_c07_cross_entropy_correctness():
    # gradient of the loss with respect to logits vs central differences
    rng = np.random.default_rng(12)
    n, c = 5, 4
    z = rng.normal(0, 2, (n, c))
    y = one_hot(rng.integers(0, c, n), c)
    analytic = (softmax(z, axis=1) - y) / n
    h = 1e-5
    worst = 0.0
    for i in range(n):
        for j in range(c):
            zp, zm = z.copy(), z.copy()
            zp[i, j] += h
            zm[i, j] -= h
            num = (cross_entropy(softmax(zp, axis=1), y)
                   - cross_entropy(softmax(zm, axis=1), y)) / (2 * h)
            denom = max(abs(analytic[i, j]), 1e-8)
            worst = max(worst, abs(num - analytic[i, j]) / denom)
    assert worst <= 1e-5

    probs = np.full((3, 14), 1.0 / 14)
    labels = one_hot([0, 5, 13], 14)
    assert abs(cross_entropy(probs, labels) - math.log(14)) <= 1e-9

    rng = np.random.default_rng(0)
    separable, labels = [], []
    for label in range(3):
        center = np.zeros(8)
        center[label] = 100.0
        for k in range(5):
            separable.append(np.abs(center + rng.normal(0, 1, 8)))
            labels.append(label)
    model = train_classifier(separable, labels, epochs=500, lr=0.05)
    acc = np.mean([np.argmax(predict(model, f)) == l for f, l in zip(separable, labels)])
    assert acc == 1.0

    # 14 one-sample classes built from actual spiking-filter features
    cfg = FilterConfig(neurons=200, tau_in=0.004, tau_out=0.004, seed=7)
    combos = [(nl, red) for red in (33.0, 66.0) for nl in (1, 3, 5, 7, 9)]
    combos += [(nl, 100.0) for nl in (1, 3, 5, 7)]
    features = []
    for label, (n_layers, reduction) in enumerate(combos):
        params = GenParams(layer_range=WINDOW, noise_std=20.0, seed=200 + label)
        spec = DefectSpec(start_layer=613, n_layers=n_layers, power_reduction_percent=reduction)
        features.append(encode_sample([gen_defective(params, spec)], cfg, (613, 621))[0])
    model14 = train_classifier(features, list(range(len(combos))), epochs=500, lr=0.05)
    assert model14.training_history[0] == pytest.approx(math.log(14), abs=1e-9)
    assert model14.training_history[-1] < model14.training_history[0]
    print(f"\n[acceptance] C7 cross-entropy: PASS (grad err {worst:.1e}, "
          f"14-sample loss {model14.training_history[0]:.3f} -> {model14.training_history[-1]:.3f})")


def test_c08_energy_model():
    cfg = replace(get_preset("cpu-pd1-66"), seed=7)
    samples = (("S1V3", 33.0, 3), ("S1V7", 33.0, 7), ("S2V3", 66.0, 3),
               ("S2V7", 66.0, 7), ("S3V3", 100.0, 3), ("S3V7", 100.0, 7))
    counts = {}
    for i, (sample_id, reduction, n_layers) in enumerate(samples):
        params = GenParams(layer_range=WINDOW, noise_std=20.0, seed=100 + i)
        spec = DefectSpec(start_layer=613, n_layers=n_layers, power_reduction_percent=reduction)
        _, sim = run_filter(gen_defective(params, spec), cfg)
        counts[sample_id] = count_ops(sim.spike_counts(), cfg.stage_sizes(), steps=len(sim.decoded))

    profiles = reference_profiles(counts["S2V7"])
    reference_row = [estimate_energy(counts["S2V7"], profiles[n]) for n in HARDWARE_ORDER]
    # three significant figures against the shipped reference energies
    assert reference_row == pytest.approx([17.2, 0.6, 1.8, 0.821, 22.1], rel=5e-4)

    loihi = []
    dense = {n: set() for n in ("CPU", "GPU", "FPGA")}
    for sample_id in counts:
        row = {n: estimate_energy(counts[sample_id], profiles[n]) for n in HARDWARE_ORDER}
        assert row["GPU"] < row["Loihi"] < row["FPGA"] < row["CPU"] < row["SpiNNaker2"]
        for n in dense:
            dense[n].add(row[n])
        loihi.append(row["Loihi"])
    assert all(len(vals) == 1 for vals in dense.values())  # dense hardware stays flat
    assert len(set(loihi)) > 1  # event-driven estimates move with the sample
    print(f"\n[acceptance] C8 energy model: PASS (S2V7 row {np.round(reference_row, 3).tolist()}, "
          f"loihi spread {min(loihi):.3f}..{max(loihi):.3f})")


def test_c09_cli_determinism(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "neurons": 200, "radius": 1100.0, "dt": 0.001, "presentation_time": 0.01,
        "tau_in": 0.004, "tau_out": 0.004, "seed": 7, "stages": 1,
    }))

    def run_all(out):
        out.mkdir()
        data = out / "data"
        assert main(["gen-data", "--outdir", str(data), "--seed", "42",
                     "--window", "600:640", "--defect-start", "620",
                     "--defect-layers", "5"]) == 0
        common = ["--defective", str(data / "defective.csv"),
                  "--healthy", str(data / "healthy.csv"),
                  "--truth", str(data / "truth.json"),
                  "--config", str(config)]
        assert main(["detect", *common, "--outdir", str(out / "det")]) == 0
        assert main(["sweep", *common, "--taus", "0.002,0.004,0.008",
                     "--outdir", str(out / "sw")]) == 0
        assert main(["compare", *common, "--outdir", str(out / "cmp")]) == 0
        assert main(["raster", "--input", str(data / "defective.csv"),
                     "--config", str(config), "--outdir", str(out / "ras")]) == 0
        assert main(["energy", "--config", str(config), "--window", "600:640",
                     "--defect-start", "620", "--outdir", str(out / "en")]) == 0
        manifest = out / "manifest.json"
        manifest.write_text(json.dumps({
            "window": [620, 628],
            "samples": [{"path": "data/defective.csv", "label": 0, "sample_id": "A"},
                        {"path": "data/healthy.csv", "label": 1, "sample_id": "B"}],
        }))
        assert main(["classify", "--manifest", str(manifest), "--config", str(config),
                     "--epochs", "100", "--outdir", str(out / "cls")]) == 0
        return {
            str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file() and p.name != "manifest.json"
        }

    first = run_all(tmp_path / "run1")
    second = run_all(tmp_path / "run2")
    assert first == second
    assert len(first) >= 12
    print(f"\n[acceptance] C9 determinism: PASS ({len(first)} artifacts byte-identical)")


def test_c10_baseline_filters(case_pd1_66):
    from snndetect.pipeline import SignalSeries

    constant = SignalSeries(layers=np.arange(600, 641), values=np.full(41, 321.5))
    for spec in default_specs():
        out = apply_baseline_filter(constant, spec)
        np.testing.assert_allclose(out.values, 321.5, rtol=1e-9)

    ma = apply_baseline_filter(
        SignalSeries(layers=np.arange(5), values=np.array([0.0, 0.0, 3.0, 0.0, 0.0])),
        BaselineFilterSpec(kind="moving_average", window=3),
    )
    assert ma.values[2] == pytest.approx(1.0)

    layers = np.arange(31)
    quad = 5.0 + 1.5 * layers + 0.5 * layers**2
    sg = apply_baseline_filter(
        SignalSeries(layers=layers, values=quad),
        BaselineFilterSpec(kind="savitzky_golay", window=5, polyorder=2),
    )
    np.testing.assert_allclose(sg.values[2:-2], quad[2:-2], rtol=1e-10)

    pulse = np.zeros(41)
    pulse[17:24] = 1.0
    bw = apply_baseline_filter(
        SignalSeries(layers=np.arange(41), values=pulse),
        BaselineFilterSpec(kind="butterworth", cutoff=0.5, order=2),
    )
    np.testing.assert_allclose(bw.values, bw.values[::-1], atol=1e-9)

    defective, healthy, truth = case_pd1_66
    cfg = replace(get_preset("cpu-pd1-66"), seed=7)
    rows = compare_filters(defective, healthy, default_specs(), cfg, truth, truth.default_policy())
    assert len(rows) == 5
    for row in rows:
        assert row.f1 >= 0.7, row
    summary = ", ".join(f"{r.key}={r.f1:.3f}" for r in rows)
    print(f"\n[acceptance] C10 baseline filters: PASS ({summary})")
