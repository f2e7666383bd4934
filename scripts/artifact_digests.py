#!/usr/bin/env python3
"""Print the sha256 of every artifact of a fixed set of CLI runs.

    PYTHONPATH=src python scripts/artifact_digests.py OUTDIR

gen-data writes three fixture pairs (33/66/100% reduction) and a classify
manifest over them; detect, sweep, compare, raster, energy and classify
then run under the cpu-pd1-66 and fpga-pd1-66 presets into OUTDIR, and
detect, raster, energy and classify once more under a `--config` of three
stages. Those stages hold 167/167/166 neurons, so two stage boundaries fall
inside a packed spike byte, which the raster's events pin bit for bit. detect runs once more without `--truth` under a fixed
threshold, so its report has no metrics, and compare once more under a
`--config` whose `baseline` list holds a 5-layer and a 101-layer moving
average; the 101-layer window is longer than the 81-layer series, so its
row is an error row of `nan`s. detect and raster run twice more under a
`--config` of `dt` 0.0005 and 0.0025 (20 and 4 steps per layer), so the
neurons' 2 ms refractory time spans four steps and less than one, and the
raster's spike times print as long reprs such as 0.0045000000000000005,
which pin how each step's time is computed. classify runs
once more under fpga-pd1-66 on a manifest whose window lies strictly
inside samples of 81 and 111 layers (a fourth gen-data pair covers layers
590-700), so the lanes average their rates over different steps, and once
more on a manifest with no window over the 81- and 111-layer pairs, so each
lane averages over its own whole series. One
`sha256  relpath` line is printed per file. snndetect is imported from
PYTHONPATH, so pointing it at another checkout's src/ lists that
checkout's digests; `diff` two listings to see which artifacts moved.
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

from snndetect.cli import main

PRESETS = ("cpu-pd1-66", "fpga-pd1-66")
REDUCTIONS = (33, 66, 100)


def run(*argv) -> None:
    argv = [str(a) for a in argv]
    with redirect_stdout(io.StringIO()):
        code = main(argv)
    if code:
        sys.exit(f"snndetect {' '.join(argv)} exited with {code}")


def digests(out: Path) -> None:
    for i, r in enumerate(REDUCTIONS):
        run("gen-data", "--seed", 42 + i, "--reduction", r, "--outdir", out / f"data-{r}")
    samples = [{"path": f"data-{r}/{kind}.csv", "label": int(kind == "defective"),
                "sample_id": f"{kind}-{r}"} for r in REDUCTIONS for kind in ("healthy", "defective")]
    (out / "manifest.json").write_text(json.dumps({"window": [570, 650], "samples": samples}))
    data = out / "data-66"
    pair = ("--defective", data / "defective.csv", "--healthy", data / "healthy.csv",
            "--truth", data / "truth.json")
    for preset in PRESETS:
        net = ("--preset", preset, "--seed", 7, "--outdir", out / preset)
        run("detect", *pair, *net)
        run("sweep", *pair, "--taus", "0.001,0.002,0.004,0.008", *net)
        run("compare", *pair, *net)
        run("raster", "--input", data / "defective.csv", *net)
        run("energy", *net)
        run("classify", "--manifest", out / "manifest.json", *net)
    (out / "stages-3.json").write_text(json.dumps({"stages": 3}))
    net = ("--config", out / "stages-3.json", "--seed", 7, "--outdir", out / "stages-3")
    run("detect", *pair, *net)
    run("raster", "--input", data / "defective.csv", *net)
    run("energy", *net)
    run("classify", "--manifest", out / "manifest.json", *net)
    net = ("--preset", "cpu-pd1-66", "--seed", 7, "--outdir", out / "no-truth")
    run("detect", *pair[:4], "--policy", "fixed", "--threshold", 20, *net)
    (out / "baseline.json").write_text(json.dumps({"baseline": [
        {"kind": "moving_average", "window": 5}, {"kind": "moving_average", "window": 101}]}))
    run("compare", *pair, "--config", out / "baseline.json", "--seed", 7,
        "--outdir", out / "baseline")
    for dt in ("0.0005", "0.0025"):
        (out / f"dt-{dt}.json").write_text(json.dumps({"dt": float(dt)}))
        net = ("--config", out / f"dt-{dt}.json", "--seed", 7, "--outdir", out / f"dt-{dt}")
        run("detect", *pair, *net)
        run("raster", "--input", data / "defective.csv", *net)
    run("gen-data", "--seed", 45, "--window", "590:700", "--outdir", out / "data-long")
    samples = [{"path": f"data-{d}/{kind}.csv", "label": int(kind == "defective"),
                "sample_id": f"{kind}-{d}"} for d in (33, "long", 66) for kind in ("healthy", "defective")]
    (out / "window.json").write_text(json.dumps({"window": [600, 640], "samples": samples}))
    run("classify", "--manifest", out / "window.json", "--preset", "fpga-pd1-66", "--seed", 7,
        "--outdir", out / "window")
    (out / "whole.json").write_text(json.dumps({"samples": samples[:4]}))
    run("classify", "--manifest", out / "whole.json", "--preset", "fpga-pd1-66", "--seed", 7,
        "--outdir", out / "whole")
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        print(hashlib.sha256(path.read_bytes()).hexdigest(), path.relative_to(out), sep="  ")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUTDIR")
    digests(Path(sys.argv[1]))
