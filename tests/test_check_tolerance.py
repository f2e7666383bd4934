"""scripts/check_tolerance.py on small synthetic artifact directories."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "check_tolerance.py"
_spec = importlib.util.spec_from_file_location("check_tolerance", SCRIPT)
check_tolerance = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_tolerance)

DEVIATIONS = {"570": -0.408860806448452, "571": 0.42678595791789653, "572": -60.25}
LOSSES = [0.6931471805599453, 0.1699762584430006, 0.13895724131049977]


def write_run(root, deviations=DEVIATIONS, losses=LOSSES, flagged=(572,), threshold=16.4375,
              predictions="sample_id,target,predicted\nh,0,0\nd,1,1\n"):
    """One detect directory and one classify directory, as the CLI writes them."""
    detect, classify = root / "detect", root / "classify"
    detect.mkdir(parents=True)
    classify.mkdir()
    report = {"deviations": deviations, "flagged_layers": list(flagged), "seed": 7,
              "threshold_used": threshold, "undefined_layers": [],
              "metrics": {"precision": 1.0, "recall": 0.5, "f1": 2 / 3}}
    (detect / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    rows = "".join(f"{l},{v!r}\n" for l, v in deviations.items())
    (detect / "deviations.csv").write_text(f"# seed=7\nlayer,deviation_pct\n{rows}")
    rows = "".join(f"{e},{v!r}\n" for e, v in enumerate(losses))
    (classify / "loss.csv").write_text(f"# seed=7\nepoch,loss\n{rows}")
    (classify / "predictions.csv").write_text(f"# seed=7\n{predictions}")
    return root


def shifted(points):
    return {l: v + points for l, v in DEVIATIONS.items()}


def differs(a, b, name):
    return (a / name).read_bytes() != (b / name).read_bytes()


@pytest.fixture()
def base(tmp_path):
    return write_run(tmp_path / "base")


def test_identical_directories_pass(base, tmp_path):
    assert check_tolerance.compare(base, write_run(tmp_path / "other")) == []


def test_a_deviation_and_threshold_1e_12_points_off_pass(base, tmp_path):
    other = write_run(tmp_path / "other", deviations=shifted(1e-12), threshold=16.4375 + 1e-12)
    assert differs(base, other, "detect/report.json")
    assert differs(base, other, "detect/deviations.csv")
    assert check_tolerance.compare(base, other) == []


@pytest.mark.parametrize("change, failing", [
    ({"deviations": shifted(1e-8)}, ["detect/deviations.csv", "detect/report.json"]),
    ({"threshold": 16.4375 + 1e-8}, ["detect/report.json"]),
    ({"flagged": (571, 572)}, ["detect/report.json"]),
    ({"deviations": {**DEVIATIONS, "573": 1.0}}, ["detect/deviations.csv", "detect/report.json"]),
    ({"losses": [LOSSES[0], LOSSES[1] * (1 + 1e-10), LOSSES[2]]}, ["classify/loss.csv"]),
    ({"predictions": "sample_id,target,predicted\nh,0,0\nd,1,0\n"}, ["classify/predictions.csv"]),
])
def test_a_change_out_of_bounds_fails(base, tmp_path, change, failing):
    problems = check_tolerance.compare(base, write_run(tmp_path / "other", **change))
    assert [p.split(":")[0] for p in problems] == failing


def test_a_loss_1e_14_relative_off_passes(base, tmp_path):
    other = write_run(tmp_path / "other", losses=[LOSSES[0], LOSSES[1] * (1 + 1e-14), LOSSES[2]])
    assert differs(base, other, "classify/loss.csv")
    assert check_tolerance.compare(base, other) == []


def test_a_changed_comment_or_key_fails(base, tmp_path):
    other = write_run(tmp_path / "other")
    path = other / "detect" / "deviations.csv"
    path.write_text(path.read_text().replace("seed=7", "seed=8"))
    path = other / "detect" / "report.json"
    path.write_text(path.read_text().replace('"seed": 7', '"seed": 7.0'))
    assert check_tolerance.compare(base, other) == [
        "detect/deviations.csv: line 1 differs: '# seed=7' against '# seed=8'",
        "detect/report.json: keys ['seed'] differ",
    ]


def test_a_missing_or_extra_file_fails_from_the_command_line(base, tmp_path):
    other = write_run(tmp_path / "other")
    (other / "classify" / "loss.csv").unlink()
    (other / "detect" / "raster.csv").write_text("neuron,time\n")
    proc = subprocess.run([sys.executable, str(SCRIPT), str(base), str(other)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stdout.splitlines() == [f"classify/loss.csv: only in {base}",
                                        f"detect/raster.csv: only in {other}"]
    proc = subprocess.run([sys.executable, str(SCRIPT), str(base), str(base)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout
