import gc
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from snndetect import __version__, baselines, classifier, cli, evaluation, pipeline
from snndetect.cli import build_parser, main
from snndetect.datagen import GenParams, gen_healthy

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
HUGE_INT = "1" + "0" * 400  # a JSON integer beyond the float range
ENERGY_ARGS = ("--window", "600:640", "--defect-start", "620")


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



def test_gen_data_baseline_seed(tmp_path):
    # the healthy reference is the series of its own seed, and both files
    # say so; the defective build keeps --seed
    out = tmp_path / "seeded"
    assert main(["gen-data", "--outdir", str(out), "--seed", "42", "--baseline-seed", "99"]) == 0
    assert "seed=99" in (out / "healthy.csv").read_text().splitlines()[0].split()
    assert "seed=42" in (out / "defective.csv").read_text().splitlines()[0].split()
    truth = json.loads((out / "truth.json").read_text())
    assert truth["baseline_seed"] == 99 and truth["seed"] == 42
    healthy = pipeline.load_layer_series(out / "healthy.csv")
    expected = gen_healthy(GenParams(seed=99))
    np.testing.assert_array_equal(healthy.layers, expected.layers)
    np.testing.assert_array_equal(healthy.values, expected.values)


def test_gen_data_junction_period(tmp_path):
    # without noise, a layer rises above the baseline only at a junction,
    # and the default defect layers (613-619) hold none
    out = tmp_path / "junctions"
    assert main(["gen-data", "--outdir", str(out), "--junction-period", "10",
                 "--noise-std", "0"]) == 0
    for name in ("healthy.csv", "defective.csv"):
        series = pipeline.load_layer_series(out / name)
        junctions = series.layers[series.values > GenParams.baseline_level]
        assert junctions.tolist() == list(range(570, 651, 10)), name

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


@pytest.mark.parametrize("dt", [0.001, 0.0005])
@pytest.mark.parametrize("stages", [1, 2, 3])
def test_raster_rows_equal_the_event_raster(workdir, tmp_path, capsys, stages, dt):
    # the command writes its rows from SimResult.spike_events; the oracle
    # is the formatting of SimResult.raster's events, one str(id) and
    # repr(time) per spike. 200 neurons in 3 stages put both stage
    # boundaries inside a packed byte, and at dt 0.0005 the times print as
    # long reprs such as 0.0045000000000000005
    config = {**FAST_CONFIG, "stages": stages, "dt": dt}
    path = tmp_path / "raster-config.json"
    path.write_text(json.dumps(config))
    data = workdir / "data"
    out = workdir / f"raster-{stages}-{dt}"
    capsys.readouterr()
    assert main(["raster", "--input", str(data / "defective.csv"), "--config", str(path),
                 "--outdir", str(out)]) == 0
    _, sim = pipeline.run_filter(pipeline.load_layer_series(data / "defective.csv"),
                                 pipeline.FilterConfig.from_dict(config), decode=False)
    raster = sim.raster
    rows = [f"{i},{t!r}" for i, t in zip(raster.neuron_ids.tolist(), raster.times.tolist())]
    assert (out / "raster.csv").read_text().splitlines()[2:] == rows
    assert capsys.readouterr().out == (
        f"{len(raster.neuron_ids)} spikes from {raster.n_neurons} neurons "
        f"over {raster.duration:.3g} s\n")


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


def _fresh_cli(*argv):
    """`python -m snndetect.cli ARGV` in a fresh interpreter on this package."""
    import snndetect

    src = os.path.dirname(os.path.dirname(snndetect.__file__))
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    return subprocess.run([sys.executable, "-m", "snndetect.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=300)


def test_module_entry_point_matches_main(workdir, capsys):
    # run() ends the process after main() returns: the exit code, every
    # output line and the artifacts are those of the same main() call in-process
    data = workdir / "data"
    pair = ["--defective", str(data / "defective.csv"), "--healthy", str(data / "healthy.csv")]
    good = ["detect", *pair, "--truth", str(data / "truth.json"),
            "--config", str(workdir / "config.json")]
    cases = [
        (good, 0),
        (["detect", "--unknown-flag"], 1),
        (["detect", "--defective", str(workdir / "missing.csv"), pair[2], pair[3]], 2),
    ]
    for argv, code in cases:
        proc = _fresh_cli(*argv, "--outdir", str(workdir / "fresh"))
        assert main([*argv, "--outdir", str(workdir / "inproc")]) == code
        captured = capsys.readouterr()
        assert proc.returncode == code, proc.stderr
        assert (proc.stdout, proc.stderr) == (captured.out, captured.err)
        assert proc.stdout.endswith("\n") if code == 0 else proc.stderr.endswith("\n")
    names = sorted(p.name for p in (workdir / "fresh").iterdir())
    assert names == ["deviations.csv", "report.json"]
    for name in names:
        assert sha(workdir / "fresh" / name) == sha(workdir / "inproc" / name)


def test_only_run_freezes_the_heap(workdir, monkeypatch):
    frozen = gc.get_freeze_count()
    data = workdir / "data"
    assert main(["detect", "--defective", str(data / "defective.csv"),
                 "--healthy", str(data / "healthy.csv"), "--config", str(workdir / "config.json"),
                 "--outdir", str(workdir / "out")]) == 0
    assert gc.get_freeze_count() == frozen
    calls = []
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 2)
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    with pytest.raises(SystemExit) as exc:
        cli.run()
    assert exc.value.code == 2
    assert calls == ["main", "freeze"]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask-022", "umask-077"])
def test_artifacts_take_the_umask_mode(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        assert main(["gen-data", "--outdir", str(tmp_path), "--window", "600:610",
                     "--defect-start", "605", "--defect-layers", "1"]) == 0
        with pytest.raises(UnicodeEncodeError):
            cli._atomic_write(tmp_path / "bad.txt", "\udcff")
    finally:
        os.umask(old)
    # the failed write left no temp file behind
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "defective.csv", "healthy.csv", "truth.json"]
    for p in tmp_path.iterdir():
        assert p.stat().st_mode & 0o777 == mode


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
    5, True, 1.5, None, "moving_average", [5],
], ids=["sigma-1e308", "sigma-true", "window-5.0", "polyorder-2.5", "order-2.5", "order-true",
        "baseline-int", "baseline-true", "baseline-float", "baseline-null", "baseline-string",
        "baseline-list-of-int"])
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


@pytest.mark.parametrize("cutoff,order,code", [
    pytest.param(0.05, 12, 0, id="12-0"),
    pytest.param(0.05, 16, 2, id="16-2"),
    pytest.param(0.05, 20, 2, id="20-2"),
    pytest.param(0.05, 40, 2, id="40-2"),
    # the gain overflows (warped ** order, or the poles' product) before the
    # denominator's roots are sought; numpy warns on the way
    pytest.param(0.95, 200, 2, id="0.95-200-2"),
    pytest.param(0.1, 2000, 2, id="0.1-2000-2"),
    pytest.param(0.5, 400, 2, id="0.5-400-2"),
])
def test_unstable_butterworth_config_exits_2(workdir, tmp_path, capsys, recwarn,
                                             cutoff, order, code):
    path = tmp_path / "butter.json"
    path.write_text(json.dumps({**FAST_CONFIG, "baseline": {
        "kind": "butterworth", "cutoff": cutoff, "order": order}}))
    data = workdir / "data"
    out = workdir / f"butter-{order}"
    inputs = ["--defective", str(data / "defective.csv"), "--healthy", str(data / "healthy.csv"),
              "--truth", str(data / "truth.json"), "--config", str(path), "--outdir", str(out)]
    assert main(["compare", *inputs]) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("error: ") and "Traceback" not in err
        assert f"order {order} at cutoff {cutoff}" in err
        assert len(err.splitlines()) == 1
        assert not (out / "compare.csv").exists()
        # only compare designs the baseline; detect does not run it, so the
        # same config detects
        assert main(["detect", *inputs]) == 0
        assert capsys.readouterr().err == ""
        assert (out / "report.json").exists()
    else:
        assert err == ""
        rows = (out / "compare.csv").read_text().splitlines()
        assert rows[2].startswith("butterworth,") and "nan" not in rows[2]
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("cutoff,order,code", [
    pytest.param(0.05, 12, 0, id="12-0"),
    # unstable, so rejected when the spec is read: one design, 1.2 s of it
    pytest.param(0.02, 500, 2, id="0.02-500-2"),
])
def test_compare_designs_each_butterworth_once(workdir, tmp_path, capsys, monkeypatch,
                                               cutoff, order, code):
    # the spec check and the filter of both series share one design, and
    # the design's eigenvalue solve is its one np.roots call
    calls = []
    roots = np.roots

    def counting(p):
        calls.append(len(p))
        return roots(p)

    monkeypatch.setattr(np, "roots", counting)
    baselines._butter.cache_clear()
    path = tmp_path / "butter.json"
    path.write_text(json.dumps({**FAST_CONFIG, "baseline": {
        "kind": "butterworth", "cutoff": cutoff, "order": order}}))
    data = workdir / "data"
    assert main(["compare", "--defective", str(data / "defective.csv"),
                 "--healthy", str(data / "healthy.csv"), "--truth", str(data / "truth.json"),
                 "--config", str(path), "--outdir", str(workdir / "butter-once")]) == code
    assert calls == [order + 1]
    assert len(capsys.readouterr().err.splitlines()) == (1 if code else 0)


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


@pytest.mark.parametrize("window, message", [
    (5, "layer windows must be (first, last) pairs: 'int' object is not iterable"),
    (True, "layer windows must be (first, last) pairs: 'bool' object is not iterable"),
    ([620, 624, 628], "a layer window is (first, last), got (620, 624, 628)"),
    ({}, "a layer window is (first, last), got ()"),
    ("ab", "layer window bound must be an integer, got 'a'"),
    ([620, 2**53], "layer window bound must lie within"),
], ids=["int", "bool", "triple", "object", "string", "huge-bound"])
def test_manifest_window_is_checked_by_run_filter(workdir, capsys, monkeypatch, window, message):
    # classify hands the manifest's window to run_filter as it is, which
    # rejects it before a population is built; a scalar window used to be
    # reported as a missing 'samples' list
    def unreachable(cfg):
        raise AssertionError("a population was built for a bad window")

    monkeypatch.setattr(pipeline, "build_filter_ensembles", unreachable)
    manifest = workdir / "window-manifest.json"
    manifest.write_text(json.dumps({"window": window, "samples": [
        {"path": "data/healthy.csv", "label": 0},
        {"path": "data/defective.csv", "label": 1},
    ]}))
    out = workdir / "bad-window"
    code = main(["classify", "--manifest", str(manifest), "--config", str(workdir / "config.json"),
                 "--epochs", "5", "--outdir", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and message in err and len(err.splitlines()) == 1
    assert not any(out.iterdir())


def test_null_manifest_window_is_no_window(workdir):
    # null averages each sample over its own layers, as a manifest without
    # a window does
    outputs = []
    for name, extra in (("null", {"window": None}), ("absent", {})):
        manifest = workdir / f"{name}-manifest.json"
        manifest.write_text(json.dumps({**extra, "samples": [
            {"path": "data/healthy.csv", "label": 0},
            {"path": "data/defective.csv", "label": 1},
        ]}))
        out = workdir / f"{name}-window"
        assert main(["classify", "--manifest", str(manifest), "--config",
                     str(workdir / "config.json"), "--epochs", "5", "--outdir", str(out)]) == 0
        outputs.append([sha(out / "loss.csv"), sha(out / "predictions.csv")])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("sample_id", ["a,b", "a\rb", "a\nb", "#a", '"a'],
                         ids=["comma", "cr", "lf", "hash", "quote"])
def test_sample_id_that_breaks_a_csv_row_exits_2_before_the_filter(workdir, capsys, monkeypatch,
                                                                  sample_id):
    # "a,b" used to write the row a,b,0,0 under a 3-column header and exit 0;
    # a row that starts with # is a comment to the CSV readers here, and a
    # cell that starts with " made csv.DictReader read the rest of the file
    # as one cell
    def no_run(*args, **kwargs):
        raise AssertionError("the filter ran before the sample ids were checked")

    monkeypatch.setattr(classifier, "run_filter", no_run)
    manifest = workdir / "id-manifest.json"
    manifest.write_text(json.dumps({"samples": [
        {"path": "data/healthy.csv", "label": 0, "sample_id": "h"},
        {"path": "data/defective.csv", "label": 1, "sample_id": sample_id},
    ]}))
    out = workdir / "bad-id"
    code = main(["classify", "--manifest", str(manifest), "--config", str(workdir / "config.json"),
                 "--epochs", "5", "--outdir", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: sample_id of sample entry 1 {sample_id!r} ")
    assert len(err.splitlines()) == 1
    assert not any(out.iterdir())


@pytest.mark.parametrize("name", ["a,b", "x\ry", "x\ny", '"x'], ids=["comma", "cr", "lf", "quote"])
def test_profile_name_that_breaks_the_csv_header_exits_2_before_the_filter(
        workdir, capsys, monkeypatch, name):
    # {"a,b": ...} used to write the header sample,a,b and exit 0, and
    # {'"x': ...} a header cell that opens a quoted cell
    def no_run(*args, **kwargs):
        raise AssertionError("the filter ran before the profile names were checked")

    monkeypatch.setattr(cli, "run_filter", no_run)
    profiles = workdir / "named-profiles.json"
    profiles.write_text(json.dumps({"CPU": {"e_synop": 1e-9}, name: {"e_synop": 1e-9}}))
    out = workdir / "bad-profile"
    code = main(["energy", "--profiles", str(profiles), "--config", str(workdir / "config.json"),
                 *ENERGY_ARGS, "--outdir", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    reason = "starts with a double quote" if name.startswith('"') else "holds a comma or a line break"
    assert err.startswith(f"error: profile name {name!r} {reason}")
    assert len(err.splitlines()) == 1
    assert not any(out.iterdir())


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


def test_tiny_radius_runs_without_a_numpy_warning(workdir, tmp_path, capsys):
    # every input lies beyond a radius of 1e-310, so each clips to 1.0 and
    # nothing overflows the divide by the radius
    (tmp_path / "tiny.json").write_text(json.dumps({**FAST_CONFIG, "radius": 1e-310}))
    data = workdir / "data"
    code = main(["detect", "--defective", str(data / "defective.csv"),
                 "--healthy", str(data / "healthy.csv"), "--truth", str(data / "truth.json"),
                 "--config", str(tmp_path / "tiny.json"), "--outdir", str(workdir / "tiny")])
    assert (code, capsys.readouterr().err) == (0, "")


def test_gen_data_overflowing_sum_is_a_data_error_alone(tmp_path, capsys):
    code = main(["gen-data", "--baseline-level", "1e308", "--junction-amplitude", "1e308",
                 "--outdir", str(tmp_path / "huge")])
    assert (code, capsys.readouterr().err) == (2, "error: series values must be finite\n")


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


def test_classify_nan_loss_exits_2(workdir, capsys):
    # a finite but huge step overflows the logits, so the loss turns NaN;
    # NaN never compares greater than the divergence bound, and this run
    # used to exit 0 with NaN rows in loss.csv
    code = main(_float_flag_argv(workdir, "classify", "--lr", "1e308"))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: training diverged at epoch 1: loss nan")
    assert "Traceback" not in err
    assert not (workdir / "non-finite" / "loss.csv").exists()


def test_classify_epochs_past_the_integer_bound_exits_2(workdir, capsys):
    argv = _float_flag_argv(workdir, "classify", "--lr", "0.05")
    argv[argv.index("--epochs") + 1] = "10000000000000000"
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: epochs must") and len(err.splitlines()) == 1
    assert not (workdir / "non-finite" / "loss.csv").exists()


def test_the_parser_is_built_once_and_reused(workdir, capsys):
    # a fixed-policy detect and then a plain one in one process: the second
    # parse starts from the defaults, so its report is the adaptive one a
    # fresh process writes, byte for byte
    import os
    import subprocess
    import sys

    import snndetect

    assert build_parser() is build_parser()
    data = workdir / "data"
    inputs = ["detect", "--defective", str(data / "defective.csv"),
              "--healthy", str(data / "healthy.csv"), "--config", str(workdir / "config.json")]
    assert main([*inputs, "--policy", "fixed", "--threshold", "20",
                 "--outdir", str(workdir / "fixed")]) == 0
    assert json.loads((workdir / "fixed" / "report.json").read_text())["policy"].startswith("fixed")
    assert main([*inputs, "--outdir", str(workdir / "reused")]) == 0
    report = (workdir / "reused" / "report.json").read_text()
    assert json.loads(report)["policy"].startswith("adaptive")
    src = os.path.dirname(os.path.dirname(snndetect.__file__))
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    script = "import sys\nfrom snndetect.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    proc = subprocess.run([sys.executable, "-c", script, *inputs, "--outdir", str(workdir / "fresh")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert (workdir / "fresh" / "report.json").read_text() == report
    assert capsys.readouterr().err == ""


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


@pytest.mark.parametrize("constant", [
    "NaN", "Infinity", "-Infinity", "1e400", "true", "-1e-12",
    pytest.param(HUGE_INT, id="int-beyond-float"),
])
def test_energy_profile_constant_must_be_finite_non_negative_number(
        workdir, capsys, constant):
    profiles = workdir / "bad-profiles.json"
    profiles.write_text('{"CPU": {"e_synop": %s}}' % constant)
    out = workdir / "bad-energy"
    code = main([
        "energy", "--outdir", str(out), "--profiles", str(profiles),
        "--config", str(workdir / "config.json"),
        "--window", "600:640", "--defect-start", "620",
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert "e_synop of profile 'CPU'" in err
    assert not (out / "energy.csv").exists()


def test_energy_config_integer_beyond_float_range_is_an_error(workdir, capsys):
    config = workdir / "huge-config.json"
    config.write_text('{"radius": %s}' % HUGE_INT)
    out = workdir / "huge-radius"
    code = main([
        "energy", "--outdir", str(out), "--config", str(config),
        "--window", "600:640", "--defect-start", "620",
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: radius must be a finite number") and "Traceback" not in err
    assert not (out / "energy.csv").exists()


@pytest.mark.parametrize("command", ["detect", "energy", "raster"])
def test_radius_whose_span_overflows_exits_2(workdir, capsys, command):
    # the decode grid spans [-radius, radius]; past about 9e307 its span
    # 2 * radius overflowed, numpy warned, and lif_rate's ValueError ended
    # the run in a traceback
    path = workdir / "huge-span.json"
    path.write_text(json.dumps({**FAST_CONFIG, "radius": 1e308}))
    out = workdir / "huge-span"
    data = workdir / "data"
    args = {
        "detect": ["--defective", str(data / "defective.csv"), "--healthy", str(data / "healthy.csv")],
        "energy": list(ENERGY_ARGS),
        "raster": ["--input", str(data / "defective.csv")],
    }[command]
    code = main([command, *args, "--config", str(path), "--outdir", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: radius must be positive with a finite span") and err.count("\n") == 1
    assert not (out.exists() and any(out.iterdir()))


def test_energy_that_overflows_is_an_error(workdir, capsys):
    # a finite constant whose product with the op counts is not finite
    profiles = workdir / "huge-profiles.json"
    profiles.write_text('{"CPU": {"e_synop": 1e300}}')
    out = workdir / "huge-energy"
    code = main([
        "energy", "--outdir", str(out), "--profiles", str(profiles),
        "--config", str(workdir / "config.json"),
        "--window", "600:640", "--defect-start", "620",
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert "'CPU'" in err and "not finite" in err
    assert not (out / "energy.csv").exists()


@pytest.mark.parametrize("config", [
    '{"neurons": %s}' % HUGE_INT,
    '{"neurons": 4611686018427387904}',  # 2**62, beyond 2**53 - 1
    '{"neurons": 1000000000000}',  # within 2**53 - 1, but no host allocates it
    '{"presentation_time": 1e300, "dt": 1e-300}',  # the step count overflows to inf
    '{"dt": 1e-300}',  # 1e298 steps per layer
], ids=["int-beyond-float", "2**62", "10**12", "inf-steps", "1e298-steps"])
def test_config_of_unusable_size_exits_2(workdir, capsys, config):
    # each ended in a traceback: a numpy dimension or size error, a
    # MemoryError, or an OverflowError from round(inf)
    path = workdir / "huge-size.json"
    path.write_text(config)
    out = workdir / "huge-size"
    code = main(["energy", "--outdir", str(out), "--config", str(path), *ENERGY_ARGS])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert not (out / "energy.csv").exists()


@pytest.mark.parametrize("command, config", [
    # 9e12 steps per layer: each size is in range, but 2 lanes x 81 layers of
    # them overflowed numpy's array size
    ("detect", '{"presentation_time": 9000000000000.0, "dt": 0.001}'),
    # one neuron per stage: listing the stage sizes grew without bound
    ("energy", '{"neurons": 9007199254740991, "stages": 9007199254740991}'),
], ids=["detect-steps", "energy-stages"])
def test_run_beyond_the_size_bound_exits_2_before_building(workdir, capsys, monkeypatch, command, config):
    def unreachable(cfg):
        raise AssertionError("a population was built for a run beyond the size bound")

    monkeypatch.setattr(pipeline, "build_filter_ensembles", unreachable)
    path = workdir / "huge-run.json"
    path.write_text(config)
    out = workdir / "huge-run"
    data = workdir / "data"
    args = {
        "detect": ["--defective", str(data / "defective.csv"), "--healthy", str(data / "healthy.csv")],
        "energy": list(ENERGY_ARGS),
    }[command]
    code = main([command, *args, "--config", str(path), "--outdir", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: a run of ") and err.count("\n") == 1
    assert "exceeds 9007199254740991" in err and "Traceback" not in err
    assert not any(out.iterdir())


def test_gen_data_window_beyond_the_integer_bound_exits_2(workdir, capsys):
    out = workdir / "wide"
    code = main(["gen-data", "--window", f"1:{2**62}", "--outdir", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: layer_range bound must lie within") and "Traceback" not in err
    assert not (out / "defective.csv").exists()


@pytest.mark.parametrize("kind", ["config", "ground-truth", "manifest", "profiles"])
def test_missing_document_exits_2(workdir, capsys, kind):
    data = workdir / "data"
    missing = str(workdir / "missing.json")
    config = ("--config", str(workdir / "config.json"))
    pair = ("--defective", str(data / "defective.csv"), "--healthy", str(data / "healthy.csv"))
    argv = {
        "config": ["detect", *pair, "--config", missing],
        "ground-truth": ["detect", *pair, *config, "--truth", missing],
        "manifest": ["classify", "--manifest", missing, *config],
        "profiles": ["energy", "--profiles", missing, *config, *ENERGY_ARGS],
    }[kind]
    code = main([*argv, "--outdir", str(workdir / "missing-out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: {kind} file does not exist: {missing}\n"


UNSTABLE_BUTTERWORTH = json.dumps({**FAST_CONFIG, "baseline": {
    "kind": "butterworth", "cutoff": 0.05, "order": 16}})


@pytest.mark.parametrize("command, flags, document, message", [
    pytest.param("classify", ["--epochs", "0"], None, "epochs must be >= 1, got 0",
                 id="epochs-0"),
    pytest.param("classify", ["--epochs", str(2**52)], None, "epochs x samples must be at most",
                 id="epochs-x-samples"),
    pytest.param("classify", ["--lr", "-0.5"], None, "lr must be >= 0, got -0.5",
                 id="lr-negative"),
    pytest.param("classify", ["--lr", "nan"], None, "lr must be a finite number, got nan",
                 id="lr-nan"),
    pytest.param("energy", [], None, "profiles file does not exist", id="profiles-missing"),
    pytest.param("energy", [], "{not json", "invalid JSON", id="profiles-not-json"),
    pytest.param("energy", [], '{"CPU": {"e_synop": -1.0}}', "e_synop of profile 'CPU'",
                 id="profiles-negative"),
    pytest.param("compare", [], UNSTABLE_BUTTERWORTH,
                 "butterworth of order 16 at cutoff 0.05 is unstable", id="butterworth-unstable"),
])
def test_invocation_checks_run_before_the_filter(workdir, capsys, monkeypatch, command, flags,
                                                 document, message):
    # the filter run raises something no subcommand catches, so each case
    # exits 2 with its own message only if its check runs first. `document`
    # is the text of the --profiles file (energy) or of the --config file
    # (compare)
    def no_run(*args, **kwargs):
        raise AssertionError("the filter ran before the invocation was checked")

    for module in (cli, classifier, evaluation):
        monkeypatch.setattr(module, "run_filter", no_run)
    data = workdir / "data"
    path = workdir / "early.json"
    if document is not None:
        path.write_text(document)
    config = ["--config", str(workdir / "config.json")]
    if command == "classify":
        manifest = workdir / "early-manifest.json"
        manifest.write_text(json.dumps({"window": [620, 628], "samples": [
            {"path": "data/healthy.csv", "label": 0},
            {"path": "data/defective.csv", "label": 1},
        ]}))
        argv = ["classify", "--manifest", str(manifest), *config, *flags]
    elif command == "energy":
        argv = ["energy", *config, *ENERGY_ARGS, "--profiles", str(path)]
    else:
        argv = ["compare", "--defective", str(data / "defective.csv"),
                "--healthy", str(data / "healthy.csv"), "--truth", str(data / "truth.json"),
                "--config", str(path)]
    out = workdir / "early"
    assert main([*argv, "--outdir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and len(err.splitlines()) == 1
    assert not out.exists() or not any(out.iterdir())


def test_only_compare_designs_the_baseline(workdir, capsys, monkeypatch):
    # a design that would take seconds (order 500) is never made by the
    # subcommands that do not run the baseline filters
    def no_design(*args):
        raise AssertionError("designed a baseline filter")

    monkeypatch.setattr(baselines, "_butter", no_design)
    path = workdir / "slow-butter.json"
    path.write_text(json.dumps({**FAST_CONFIG, "baseline": {
        "kind": "butterworth", "cutoff": 0.02, "order": 500}}))
    data = workdir / "data"
    config = ["--config", str(path), "--outdir", str(workdir / "no-design")]
    pair = ["--defective", str(data / "defective.csv"), "--healthy", str(data / "healthy.csv")]
    assert main(["detect", *pair, *config]) == 0
    assert main(["raster", "--input", str(data / "defective.csv"), *config]) == 0
    assert main(["energy", *ENERGY_ARGS, *config]) == 0
    assert capsys.readouterr().err == ""
