import hashlib
import json

import pytest

from snndetect import __version__
from snndetect.cli import main

FAST_CONFIG = {
    "neurons": 200,
    "radius": 1100.0,
    "dt": 0.001,
    "presentation_time": 0.01,
    "tau_in": 0.004,
    "tau_out": 0.004,
    "seed": 7,
    "stages": 1,
}


@pytest.fixture()
def workdir(tmp_path):
    (tmp_path / "config.json").write_text(json.dumps(FAST_CONFIG))
    code = main([
        "gen-data", "--outdir", str(tmp_path / "data"), "--seed", "42",
        "--window", "600:640", "--defect-start", "620", "--defect-layers", "5",
    ])
    assert code == 0
    return tmp_path


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_gen_data_outputs(workdir):
    data = workdir / "data"
    for name in ("defective.csv", "healthy.csv", "truth.json"):
        assert (data / name).exists()
    truth = json.loads((data / "truth.json").read_text())
    assert truth["defect_layers"] == list(range(620, 625))
    assert truth["window"] == [600, 640]
    assert truth["seed"] == 42
    assert truth["version"] == __version__
    header = (data / "defective.csv").read_text().splitlines()[0]
    assert header.startswith("#") and "seed=42" in header and "version=" in header


def test_detect_writes_report_and_deviations(workdir):
    data = workdir / "data"
    out = workdir / "out"
    code = main([
        "detect", "--defective", str(data / "defective.csv"),
        "--healthy", str(data / "healthy.csv"),
        "--truth", str(data / "truth.json"),
        "--config", str(workdir / "config.json"),
        "--outdir", str(out),
    ])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["seed"] == 7
    assert report["preset"] == "custom"
    assert "metrics" in report
    assert set(report["flagged_layers"]) >= set(range(620, 625))
    lines = (out / "deviations.csv").read_text().splitlines()
    assert lines[1] == "layer,deviation_pct"
    assert len(lines) == 2 + 41


def test_detect_without_truth_has_no_metrics(workdir):
    data = workdir / "data"
    out = workdir / "out2"
    code = main([
        "detect", "--defective", str(data / "defective.csv"),
        "--healthy", str(data / "healthy.csv"),
        "--config", str(workdir / "config.json"),
        "--outdir", str(out),
        "--calibration", "600:615",
    ])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert "metrics" not in report


def test_detect_does_not_mutate_inputs(workdir):
    data = workdir / "data"
    before = {p.name: sha(p) for p in data.iterdir()}
    main([
        "detect", "--defective", str(data / "defective.csv"),
        "--healthy", str(data / "healthy.csv"),
        "--config", str(workdir / "config.json"),
        "--outdir", str(workdir / "out3"),
        "--calibration", "600:615",
    ])
    after = {p.name: sha(p) for p in data.iterdir()}
    assert before == after


def test_seed_flag_overrides_config(workdir):
    data = workdir / "data"
    out = workdir / "out4"
    main([
        "detect", "--defective", str(data / "defective.csv"),
        "--healthy", str(data / "healthy.csv"),
        "--config", str(workdir / "config.json"),
        "--seed", "99", "--outdir", str(out),
        "--calibration", "600:615",
    ])
    report = json.loads((out / "report.json").read_text())
    assert report["seed"] == 99
    assert report["config"]["seed"] == 99


def test_sweep_csv_shape(workdir):
    data = workdir / "data"
    out = workdir / "sweep"
    code = main([
        "sweep", "--defective", str(data / "defective.csv"),
        "--healthy", str(data / "healthy.csv"),
        "--truth", str(data / "truth.json"),
        "--taus", "0.0005,0.001,0.002,0.004,0.008",
        "--config", str(workdir / "config.json"),
        "--outdir", str(out),
    ])
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[1] == "tau,precision,recall,f1,flagged"
    assert len(lines) == 2 + 5


def test_compare_table_shape(workdir):
    data = workdir / "data"
    out = workdir / "cmp"
    code = main([
        "compare", "--defective", str(data / "defective.csv"),
        "--healthy", str(data / "healthy.csv"),
        "--truth", str(data / "truth.json"),
        "--config", str(workdir / "config.json"),
        "--outdir", str(out),
    ])
    assert code == 0
    lines = (out / "compare.csv").read_text().splitlines()
    assert lines[1] == "filter,precision,recall,f1"
    assert len(lines) == 2 + 5
    assert lines[-1].startswith("snn,")


def test_raster_export(workdir):
    data = workdir / "data"
    out = workdir / "raster"
    code = main([
        "raster", "--input", str(data / "defective.csv"),
        "--config", str(workdir / "config.json"),
        "--outdir", str(out),
    ])
    assert code == 0
    lines = (out / "raster.csv").read_text().splitlines()
    assert lines[1] == "neuron,time"
    assert len(lines) > 100
    neuron, time = lines[2].split(",")
    assert 0 <= int(neuron) < FAST_CONFIG["neurons"]
    assert float(time) >= 0.0


def test_classify_outputs(workdir):
    data_dirs = []
    for i, reduction in enumerate((33, 66, 100)):
        d = workdir / f"cls{i}"
        main([
            "gen-data", "--outdir", str(d), "--seed", str(60 + i),
            "--window", "600:640", "--defect-start", "620", "--defect-layers", "5",
            "--reduction", str(reduction),
        ])
        data_dirs.append(d)
    manifest = workdir / "manifest.json"
    manifest.write_text(json.dumps({
        "window": [620, 628],
        "samples": [
            {"path": f"cls{i}/defective.csv", "label": i, "sample_id": f"S{i}"}
            for i in range(3)
        ],
    }))
    out = workdir / "clsout"
    code = main([
        "classify", "--manifest", str(manifest),
        "--config", str(workdir / "config.json"),
        "--epochs", "150", "--outdir", str(out),
    ])
    assert code == 0
    loss_lines = (out / "loss.csv").read_text().splitlines()
    assert loss_lines[1] == "epoch,loss"
    assert len(loss_lines) == 2 + 150
    pred_lines = (out / "predictions.csv").read_text().splitlines()
    assert pred_lines[1] == "sample_id,target,predicted"
    assert len(pred_lines) == 2 + 3
    losses = [float(l.split(",")[1]) for l in loss_lines[2:]]
    assert losses[-1] < losses[0]


def test_energy_table(workdir):
    out = workdir / "energy"
    code = main([
        "energy", "--outdir", str(out),
        "--config", str(workdir / "config.json"),
        "--window", "600:640", "--defect-start", "620",
    ])
    assert code == 0
    lines = (out / "energy.csv").read_text().splitlines()
    assert lines[1] == "sample,CPU,GPU,FPGA,Loihi,SpiNNaker2"
    assert len(lines) == 2 + 6
    ref_row = [l for l in lines if l.startswith("S2V7,")][0]
    cells = [float(c) for c in ref_row.split(",")[1:]]
    assert cells == pytest.approx([17.2, 0.6, 1.8, 0.821, 22.1], rel=1e-9)
    doc = json.loads((out / "profiles.json").read_text())
    assert doc["seed"] == 7 and doc["version"] == __version__
    assert set(doc["profiles"]) == {"CPU", "GPU", "FPGA", "Loihi", "SpiNNaker2"}


def test_energy_with_custom_profiles(workdir):
    out = workdir / "energy_custom"
    profiles = workdir / "profiles.json"
    profiles.write_text(json.dumps({
        "Widget": {"e_synop": 1e-12, "e_update": 0.0, "e_static_per_inference": 0.0},
    }))
    code = main([
        "energy", "--outdir", str(out), "--profiles", str(profiles),
        "--config", str(workdir / "config.json"),
        "--window", "600:640", "--defect-start", "620",
    ])
    assert code == 0
    lines = (out / "energy.csv").read_text().splitlines()
    assert lines[1] == "sample,Widget"


def test_outdir_env_override(workdir, monkeypatch):
    target = workdir / "envout"
    monkeypatch.setenv("SNNDETECT_OUTDIR", str(target))
    code = main([
        "gen-data", "--seed", "1", "--window", "600:610",
        "--defect-start", "605", "--defect-layers", "1",
    ])
    assert code == 0
    assert (target / "truth.json").exists()


def test_exit_codes(workdir, capsys):
    assert main(["bogus-command"]) == 1
    assert main(["detect", "--unknown-flag"]) == 1
    assert main([]) == 1
    assert main(["--version"]) == 0
    code = main([
        "detect", "--defective", "/nonexistent.csv", "--healthy", "/nonexistent.csv",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "error" in err
    # fixed policy without a threshold is a configuration error
    data = workdir / "data"
    code = main([
        "detect", "--defective", str(data / "defective.csv"),
        "--healthy", str(data / "healthy.csv"), "--policy", "fixed",
        "--config", str(workdir / "config.json"),
        "--outdir", str(workdir / "x"),
    ])
    assert code == 2


def test_unknown_preset_is_config_error(workdir):
    data = workdir / "data"
    code = main([
        "detect", "--defective", str(data / "defective.csv"),
        "--healthy", str(data / "healthy.csv"), "--preset", "tpu-pd1-66",
        "--outdir", str(workdir / "y"),
    ])
    assert code == 2


def test_config_with_unknown_keys_rejected(workdir, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**FAST_CONFIG, "bogus": 1}))
    data = workdir / "data"
    code = main([
        "detect", "--defective", str(data / "defective.csv"),
        "--healthy", str(data / "healthy.csv"), "--config", str(bad),
        "--outdir", str(workdir / "z"),
    ])
    assert code == 2


@pytest.mark.parametrize("fragment", [
    '"neurons": "500"',
    '"neurons": 2.5',
    '"seed": -1',
    '"presentation_time": 1e400',
    '"stages": true',
])
def test_config_rejected_by_type(workdir, tmp_path, capsys, fragment):
    bad = tmp_path / "bad.json"
    bad.write_text("{" + fragment + "}")
    data = workdir / "data"
    code = main([
        "detect", "--defective", str(data / "defective.csv"),
        "--healthy", str(data / "healthy.csv"), "--config", str(bad),
        "--outdir", str(workdir / "typed"),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (workdir / "typed" / "report.json").exists()


def test_defect_at_window_start_fails_at_policy(workdir, capsys):
    data = workdir / "edge"
    assert main(["gen-data", "--outdir", str(data), "--seed", "3",
                 "--defect-start", "573"]) == 0
    code = main([
        "detect", "--defective", str(data / "defective.csv"),
        "--healthy", str(data / "healthy.csv"), "--truth", str(data / "truth.json"),
        "--config", str(workdir / "config.json"), "--outdir", str(workdir / "edge-out"),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert "layer 573" in err and "5-layer margin" in err and "(570, 650)" in err


def test_populations_built_once_per_command(workdir, monkeypatch):
    import snndetect.pipeline as pipeline

    calls = []
    real = pipeline.build_ensemble

    def counting(n_neurons, radius, seed):
        calls.append(seed)
        return real(n_neurons, radius, seed)

    monkeypatch.setattr(pipeline, "build_ensemble", counting)
    data = workdir / "data"
    assert main([
        "sweep", "--defective", str(data / "defective.csv"),
        "--healthy", str(data / "healthy.csv"), "--truth", str(data / "truth.json"),
        "--taus", "0.001,0.002,0.004", "--config", str(workdir / "config.json"),
        "--outdir", str(workdir / "once"),
    ]) == 0
    assert calls == [7]
    calls.clear()
    assert main(["energy", "--preset", "fpga-pd1-66", "--seed", "3",
                 "--outdir", str(workdir / "once")]) == 0
    assert calls == [3, 4]  # one population per cascade stage


def test_no_subcommand_loads_scipy(workdir):
    # scipy is a test-only oracle: every subcommand, run in one process, leaves it unloaded
    import os
    import subprocess
    import sys

    import snndetect

    data = workdir / "data"
    pair = ["--defective", str(data / "defective.csv"), "--healthy", str(data / "healthy.csv")]
    cfg = ["--config", str(workdir / "config.json")]
    truth = ["--truth", str(data / "truth.json")]
    manifest = workdir / "manifest.json"
    manifest.write_text(json.dumps({"window": [605, 635], "samples": [
        {"path": str(data / "healthy.csv"), "label": 0, "sample_id": "h"},
        {"path": str(data / "defective.csv"), "label": 1, "sample_id": "d"},
    ]}))
    out = workdir / "all"
    commands = [
        ["gen-data", "--outdir", str(out / "gen"), "--seed", "3",
         "--window", "600:640", "--defect-start", "620", "--defect-layers", "5"],
        ["detect", *pair, *truth, *cfg, "--outdir", str(out / "detect")],
        ["sweep", *pair, *truth, *cfg, "--taus", "0.002,0.004", "--outdir", str(out / "sweep")],
        ["compare", *pair, *truth, *cfg, "--outdir", str(out / "compare")],
        ["raster", "--input", str(data / "defective.csv"), *cfg, "--outdir", str(out / "raster")],
        ["energy", "--preset", "cpu-pd1-66", "--seed", "3", "--outdir", str(out / "energy")],
        ["classify", "--manifest", str(manifest), *cfg, "--epochs", "2",
         "--outdir", str(out / "classify")],
    ]
    script = (
        "import json, sys\n"
        "from snndetect.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert main(argv) == 0, argv\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "assert not loaded, loaded\n"
    )
    src = os.path.dirname(os.path.dirname(snndetect.__file__))
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows = [l for l in (out / "compare" / "compare.csv").read_text().splitlines()[2:] if l]
    assert [r.split(",")[0] for r in rows] == [
        "savitzky_golay", "butterworth", "moving_average", "gaussian", "snn"]


def test_cold_detect_loads_neither_numpy_ma_nor_scipy(workdir):
    # np.median imports numpy.ma on first use, about 20 ms of a cold run;
    # the pipeline's own median keeps a fresh detect process clear of it
    import os
    import subprocess
    import sys

    import snndetect

    data = workdir / "data"
    argv = ["detect", "--defective", str(data / "defective.csv"),
            "--healthy", str(data / "healthy.csv"), "--truth", str(data / "truth.json"),
            "--config", str(workdir / "config.json"), "--outdir", str(workdir / "cold")]
    script = (
        "import json, sys\n"
        "from snndetect.cli import main\n"
        "assert main(json.loads(sys.argv[1])) == 0\n"
        "loaded = sorted(m for m in sys.modules\n"
        "                if m == 'numpy.ma' or m.startswith(('numpy.ma.', 'scipy')))\n"
        "assert not loaded, loaded\n"
    )
    src = os.path.dirname(os.path.dirname(snndetect.__file__))
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argv)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert (workdir / "cold" / "report.json").exists()


@pytest.mark.parametrize("baseline", [
    {"kind": "gaussian", "sigma": 1e308},
    {"kind": "gaussian", "sigma": True},
    {"kind": "moving_average", "window": 5.0},
    {"kind": "savitzky_golay", "window": 5, "polyorder": 2.5},
    {"kind": "butterworth", "cutoff": 0.5, "order": 2.5},
    {"kind": "butterworth", "cutoff": 0.5, "order": True},
], ids=["sigma-1e308", "sigma-true", "window-5.0", "polyorder-2.5", "order-2.5", "order-true"])
def test_baseline_spec_rejected_by_type(workdir, tmp_path, capsys, baseline):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({**FAST_CONFIG, "baseline": baseline}))
    data = workdir / "data"
    code = main([
        "compare", "--defective", str(data / "defective.csv"),
        "--healthy", str(data / "healthy.csv"), "--truth", str(data / "truth.json"),
        "--config", str(path), "--outdir", str(workdir / "typed-baseline"),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (workdir / "typed-baseline" / "compare.csv").exists()


@pytest.mark.parametrize("order,code", [(12, 0), (16, 2), (20, 2), (40, 2)])
def test_unstable_butterworth_config_exits_2(workdir, tmp_path, capsys, order, code):
    path = tmp_path / "butter.json"
    path.write_text(json.dumps({**FAST_CONFIG, "baseline": {
        "kind": "butterworth", "cutoff": 0.05, "order": order}}))
    data = workdir / "data"
    out = workdir / f"butter-{order}"
    assert main([
        "compare", "--defective", str(data / "defective.csv"),
        "--healthy", str(data / "healthy.csv"), "--truth", str(data / "truth.json"),
        "--config", str(path), "--outdir", str(out),
    ]) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("error: ") and "Traceback" not in err
        assert f"order {order} at cutoff 0.05" in err
        assert not (out / "compare.csv").exists()
    else:
        assert err == ""
        rows = (out / "compare.csv").read_text().splitlines()
        assert rows[2].startswith("butterworth,") and "nan" not in rows[2]


@pytest.mark.parametrize("truth", [
    {"defect_layers": ["x"], "window": [600, 640]},
    {"defect_layers": [620.7], "window": [600, 640]},
    {"defect_layers": [620], "window": [600, "640"]},
])
def test_truth_rejected_by_type(workdir, tmp_path, capsys, truth):
    path = tmp_path / "truth.json"
    path.write_text(json.dumps(truth))
    data = workdir / "data"
    code = main([
        "detect", "--defective", str(data / "defective.csv"),
        "--healthy", str(data / "healthy.csv"), "--truth", str(path),
        "--config", str(workdir / "config.json"), "--outdir", str(workdir / "typed-truth"),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "must be an integer" in err and "Traceback" not in err
    assert not (workdir / "typed-truth" / "report.json").exists()


@pytest.mark.parametrize("label, window", [("x", [620, 628]), (1, ["a", 628]), (1.0, [620, 628])])
def test_manifest_rejected_by_type(workdir, capsys, label, window):
    manifest = workdir / "typed-manifest.json"
    manifest.write_text(json.dumps({"window": window, "samples": [
        {"path": "data/healthy.csv", "label": 0},
        {"path": "data/defective.csv", "label": label},
    ]}))
    code = main([
        "classify", "--manifest", str(manifest), "--config", str(workdir / "config.json"),
        "--epochs", "5", "--outdir", str(workdir / "typed-cls"),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "must be an integer" in err and "Traceback" not in err
    assert not (workdir / "typed-cls" / "loss.csv").exists()


def test_sweep_with_every_point_failing_names_the_reason(workdir, capsys):
    data = workdir / "data"
    code = main([
        "sweep", "--defective", str(data / "defective.csv"),
        "--healthy", str(data / "healthy.csv"), "--truth", str(data / "truth.json"),
        "--taus", "0.001,0.002", "--calibration", "1:5",
        "--config", str(workdir / "config.json"), "--outdir", str(workdir / "failed-sweep"),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: every sweep point failed")
    assert "calibration range (1, 5) contains no deviation layers" in err


@pytest.mark.parametrize("flag", ["--config", "--truth", "--defective"])
def test_undecodable_input_exits_2(workdir, tmp_path, capsys, flag):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    data = workdir / "data"
    paths = {"--defective": data / "defective.csv", "--healthy": data / "healthy.csv",
             "--truth": data / "truth.json", "--config": workdir / "config.json", flag: bad}
    code = main(["detect", *(str(a) for kv in paths.items() for a in kv),
                 "--outdir", str(workdir / "undecodable")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("cell", ["1e400", "1e20"])
def test_layer_outside_int64_names_the_row(workdir, tmp_path, capsys, cell):
    csv = tmp_path / "huge.csv"
    csv.write_text(f"layer,value\n600,5\n{cell},6\n")
    code = main(["raster", "--input", str(csv), "--config", str(workdir / "config.json"),
                 "--outdir", str(workdir / "huge")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: row 3: layer '{cell}'") and "Traceback" not in err


@pytest.mark.parametrize("policy", [("--k", "inf"), ("--k", "1e308"),
                                    ("--policy", "fixed", "--threshold", "inf")])
def test_non_finite_threshold_exits_2(workdir, capsys, policy):
    # noise 60 puts the calibration MAD near 4%, so 1e308 x MAD overflows
    data = workdir / "noisy"
    assert main(["gen-data", "--outdir", str(data), "--seed", "42", "--window", "600:640",
                 "--defect-start", "620", "--defect-layers", "5", "--noise-std", "60"]) == 0
    out = workdir / "inf-threshold"
    code = main(["detect", "--defective", str(data / "defective.csv"),
                 "--healthy", str(data / "healthy.csv"), "--config", str(workdir / "config.json"),
                 *policy, "--outdir", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "finite" in err and "Traceback" not in err
    assert not (out / "report.json").exists()


def _float_flag_argv(workdir, command, flag, value):
    """A command line of `command` with `flag` set to `value`, over the workdir fixtures."""
    data = workdir / "data"
    pair = ["--defective", str(data / "defective.csv"), "--healthy", str(data / "healthy.csv")]
    config = ["--config", str(workdir / "config.json")]
    if command == "classify":
        manifest = workdir / "lr-manifest.json"
        manifest.write_text(json.dumps({"window": [620, 628], "samples": [
            {"path": "data/healthy.csv", "label": 0},
            {"path": "data/defective.csv", "label": 1},
        ]}))
        rest = ["--manifest", str(manifest), "--epochs", "3", *config]
    elif command == "sweep":
        rest = [*pair, "--truth", str(data / "truth.json"), *config]
    elif command == "detect":
        rest = [*pair, *config] + (["--policy", "fixed"] if flag == "--threshold" else [])
    else:  # gen-data and energy build their own inputs
        rest = []
    return [command, *rest, flag, value, "--outdir", str(workdir / "non-finite")]


FLOAT_FLAGS = [
    ("detect", "--k"), ("detect", "--threshold"), ("sweep", "--taus"),
    ("gen-data", "--reduction"), ("gen-data", "--noise-std"),
    ("gen-data", "--junction-amplitude"), ("gen-data", "--baseline-level"),
    ("gen-data", "--dip-fraction"), ("energy", "--noise-std"), ("classify", "--lr"),
]


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command, flag", FLOAT_FLAGS, ids=[" ".join(f) for f in FLOAT_FLAGS])
def test_float_flags_reject_non_finite(workdir, capsys, command, flag, value):
    # every float flag is checked for finiteness before anything is written;
    # classify --lr nan/inf used to train to NaN losses and exit 0
    code = main(_float_flag_argv(workdir, command, flag, value))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    out = workdir / "non-finite"
    assert not out.exists() or not any(out.iterdir())

