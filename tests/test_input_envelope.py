"""Accepted inputs at the ends of the float range, through every subcommand.

A 20-layer pair (an even count, so each median adds two middle values)
has one or both of its series scaled by 10**k, from the subnormals to just
below the float maximum, and runs through gen-data (at that baseline
level), detect (adaptive and fixed), sweep, compare, raster and classify.
A config at the ends of what `FilterConfig` accepts (radius, time
constants, dt and presentation time at 1e+-300 and subnormals, one to
three neurons) runs through detect, sweep, compare, raster, classify and
energy. With every warning an error, as under `python -W error`, each
run exits 0 with nothing on stderr, or exits 2 with one `error:` line.
"""

import io
import json
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest

from snndetect.cli import main

CONFIG = {"neurons": 32, "radius": 1100.0, "dt": 0.001, "presentation_time": 0.002,
          "tau_in": 0.002, "tau_out": 0.002, "seed": 1, "stages": 1}
WINDOW = ("--window", "600:619", "--defect-start", "612", "--defect-layers", "3")
SCALES = (-320, -310, -300, -200, -10, 10, 100, 200, 300, 304, 305)
EXTREMES = [
    {"radius": 1e300}, {"radius": 1e-300}, {"radius": 5e-324},
    {"tau_in": 1e300, "tau_out": 1e300}, {"tau_in": 1e-300, "tau_out": 1e-300},
    {"tau_in": 1e-320, "tau_out": 1e-320}, {"tau_in": 5e-324, "tau_out": 5e-324},
    {"dt": 1e300, "presentation_time": 1e300}, {"dt": 1e-300, "presentation_time": 2e-300},
    {"dt": 5e-324, "presentation_time": 1e-323}, {"presentation_time": 1e300},
    {"neurons": 1}, {"neurons": 2}, {"neurons": 3},
]


def run(*argv) -> None:
    """Run the CLI with every warning an error; assert its exit contract."""
    err = io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(io.StringIO()), redirect_stderr(err):
        warnings.simplefilter("error")
        code = main([str(a) for a in argv])
    err = err.getvalue()
    if code == 0:
        assert err == "", argv
    else:
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1, (code, err, argv)


@pytest.fixture(scope="module")
def pair(tmp_path_factory):
    data = tmp_path_factory.mktemp("envelope")
    assert main(["gen-data", "--seed", "3", *WINDOW, "--outdir", str(data)]) == 0
    (data / "config.json").write_text(json.dumps(CONFIG))
    return data


def scaled(src, dst, k):
    """Write the layer series of `src` to `dst` with every value times 10**k."""
    comment, header, *rows = src.read_text().splitlines()
    cells = (row.split(",") for row in rows)
    lines = (f"{layer},{float(value) * 10.0 ** k!r}" for layer, value in cells)
    dst.write_text("\n".join([comment, header, *lines]) + "\n")


def scoring(out, defective, healthy, truth, config) -> None:
    """Run every subcommand that reads a series, each into its own directory under `out`."""
    pair_args = ("--defective", defective, "--healthy", healthy, "--config", config)
    run("detect", *pair_args, "--truth", truth, "--outdir", out / "detect")
    run("detect", *pair_args, "--policy", "fixed", "--threshold", 20, "--outdir", out / "fixed")
    run("sweep", *pair_args, "--truth", truth, "--taus", "0.001,0.004", "--outdir", out / "sweep")
    run("compare", *pair_args, "--truth", truth, "--outdir", out / "compare")
    run("raster", "--input", defective, "--config", config, "--outdir", out / "raster")
    manifest = out / "manifest.json"
    manifest.write_text(json.dumps({"window": [605, 615], "samples": [
        {"path": str(healthy), "label": 0}, {"path": str(defective), "label": 1}]}))
    run("classify", "--manifest", manifest, "--config", config, "--epochs", 5,
        "--outdir", out / "classify")


@pytest.mark.parametrize("which", ["both", "defective", "healthy"])
@pytest.mark.parametrize("k", SCALES)
def test_a_scaled_series_exits_0_or_2_without_a_warning(pair, tmp_path, k, which):
    files = {kind: pair / f"{kind}.csv" for kind in ("defective", "healthy")}
    for kind in files:
        if which in ("both", kind):
            files[kind] = tmp_path / f"{kind}.csv"
            scaled(pair / f"{kind}.csv", files[kind], k)
    if which == "both":
        run("gen-data", "--seed", 3, *WINDOW, "--baseline-level", 1000.0 * 10.0 ** k,
            "--outdir", tmp_path / "gen")
    scoring(tmp_path, files["defective"], files["healthy"], pair / "truth.json", pair / "config.json")


@pytest.mark.parametrize("extreme", EXTREMES, ids=lambda e: json.dumps(e))
def test_a_config_at_the_ends_of_the_range_exits_0_or_2_without_a_warning(pair, tmp_path, extreme):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**CONFIG, **extreme}))
    scoring(tmp_path, pair / "defective.csv", pair / "healthy.csv", pair / "truth.json", config)
    run("energy", "--config", config, *WINDOW[:4], "--outdir", tmp_path / "energy")
