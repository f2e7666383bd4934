"""The benchmark workloads: fixtures, op cycles and output checks.

Every input is generated from the workload seed, except the fixed standard
case of acceptance criterion C4 that each run checks once. The program sees
only the generated CSV, JSON and manifest files, through its documented
command line.

- cli-cold: each op is a fresh `python -m snndetect.cli` process over small
  fixtures, so interpreter start, package import and a fresh ensemble build
  dominate; this is what a command-line user pays.
- research-batch: one warm process runs sweep, energy and classify on 81-layer
  pairs. Many short series go through identical populations, so the ensemble
  rebuilt for every filter call is a large share; the simulator runs in all
  three output modes (decoded only, raster for op counts, recorded rates).
- long-build: one warm process runs detect on ~3000-layer builds. The step
  loop is nearly all of the time and each call has two lanes; this is the
  control where ensemble caching should change nothing.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

NAMES = ("cli-cold", "research-batch", "long-build")

STD_LAYERS = 81  # the standard 570..650 window that gen-data writes by default
COLD_TAUS = "0.0005,0.001,0.002,0.004,0.008"
BATCH_TAUS = "0.0005,0.001,0.002,0.003,0.004,0.006,0.008,0.012"
LONG_WINDOW = "1:3000"
LONG_LAYERS = 3000
# 1801..1807 contains no multiple of the junction period (8), so the dip is
# not masked by a junction spike on any defect layer
LONG_DEFECT_START = "1801"
ENERGY_SAMPLES = 6
CLASSIFY_EPOCHS = 1000
# one case per sensor and per reduction (a diagonal of the 3 x 3 grid); the
# noisy-channel 33% case is left out because its F1 swings from 0 to 0.9
# between data seeds, which would make the mean F1 of a run unsteady
BATCH_CASES = (("PD1", 33), ("PD2", 100), ("BD", 66))
# The standard case of acceptance criterion C4: data seed 42, filter seed 7.
# Every run checks it once, untimed, as its warm-up; timed ops use filter
# seeds from 100 up, so the warm-up cannot pre-fill a per-config cache for them.
STANDARD_DATA_SEED = 42
STANDARD_FILTER_SEED = 7
FILTER_SEED_BASE = 100


class CheckError(Exception):
    """An op exited cleanly but its artifacts are missing or wrong."""


@dataclass(frozen=True)
class Op:
    key: str               # ops with equal keys are identical invocations
    kind: str              # the subcommand
    argv: tuple[str, ...]  # the command line without --outdir
    lanes: int             # layer-lanes pushed through the spiking filter
    standard: bool = False  # the standard 81-layer 66% PD1 detect (acceptance C4)


@dataclass(frozen=True)
class Workload:
    name: str
    cold: bool
    fixtures: tuple[tuple[str, ...], ...]  # gen-data command lines
    manifests: dict                         # file name -> classify manifest
    standard: Op  # the C4 check, run untimed before the timed loop
    cycle: tuple[Op, ...]


def _gen(fx: Path, name: str, seed: int, *extra: str) -> tuple[str, ...]:
    return ("gen-data", "--outdir", str(fx / name), "--seed", str(seed), *extra)


def _pair(fx: Path, name: str) -> tuple[str, ...]:
    d = fx / name
    return ("--defective", str(d / "defective.csv"), "--healthy", str(d / "healthy.csv"),
            "--truth", str(d / "truth.json"))


def _manifest(dirs) -> dict:
    samples = []
    for d in dirs:
        samples.append({"path": f"{d}/healthy.csv", "label": 0, "sample_id": f"{d}-healthy"})
        samples.append({"path": f"{d}/defective.csv", "label": 1, "sample_id": f"{d}-defective"})
    return {"window": [570, 650], "samples": samples}


def _taus(argv) -> int:
    return len(argv[argv.index("--taus") + 1].split(","))


def build(name: str, seed: int, fx: Path) -> Workload:
    """The workload `name` for `seed`, with its files under `fx`."""
    fseed = str(seed + FILTER_SEED_BASE)
    standard = Op("standard", "detect", ("detect", *_pair(fx, "c4"), "--preset", "cpu-pd1-66",
                                         "--seed", str(STANDARD_FILTER_SEED)),
                  2 * STD_LAYERS, standard=True)
    c4 = _gen(fx, "c4", STANDARD_DATA_SEED)
    manifest = str(fx / "classify.json")
    n = STD_LAYERS
    if name == "cli-cold":
        fixtures = (c4, _gen(fx, "std", seed), _gen(fx, "r33", seed + 1, "--reduction", "33"),
                    _gen(fx, "r100", seed + 2, "--reduction", "100"))
        net = ("--preset", "cpu-pd1-66", "--seed", fseed)
        cycle = (
            Op("detect", "detect", ("detect", *_pair(fx, "std"), *net), 2 * n),
            Op("sweep", "sweep", ("sweep", *_pair(fx, "std"), "--taus", COLD_TAUS, *net),
               2 * 5 * n),
            Op("compare", "compare", ("compare", *_pair(fx, "std"), *net), 2 * n),
            Op("raster", "raster", ("raster", "--input", str(fx / "std" / "defective.csv"), *net),
               n),
            Op("energy", "energy", ("energy", *net), ENERGY_SAMPLES * n),
            Op("classify", "classify", ("classify", "--manifest", manifest, *net), 6 * n),
        )
        manifests = {"classify.json": _manifest(("std", "r33", "r100"))}
        return Workload(name, True, fixtures, manifests, standard, cycle)
    if name == "research-batch":
        dirs = [f"{s.lower()}-{r}" for s, r in BATCH_CASES]
        fixtures = (c4,) + tuple(_gen(fx, d, seed + i, "--sensor", s, "--reduction", str(r))
                                 for i, (d, (s, r)) in enumerate(zip(dirs, BATCH_CASES)))
        cycle = []
        for d, (s, r) in zip(dirs, BATCH_CASES):
            net = ("--preset", f"cpu-{s.lower()}-{r}", "--seed", fseed)
            cycle += [
                Op(f"sweep/{d}", "sweep", ("sweep", *_pair(fx, d), "--taus", BATCH_TAUS, *net),
                   2 * 8 * n),
                Op(f"energy/{d}", "energy", ("energy", *net), ENERGY_SAMPLES * n),
                Op(f"classify/{d}", "classify", ("classify", "--manifest", manifest, *net), 6 * n),
            ]
        return Workload(name, False, fixtures, {"classify.json": _manifest(dirs)}, standard,
                        tuple(cycle))
    if name == "long-build":
        fixtures = (c4, _gen(fx, "long", seed, "--window", LONG_WINDOW,
                             "--defect-start", LONG_DEFECT_START))
        cycle = tuple(
            Op(f"detect/{p}", "detect", ("detect", *_pair(fx, "long"), "--preset", p,
                                         "--seed", fseed), 2 * LONG_LAYERS)
            for p in ("cpu-pd1-66", "fpga-pd1-66")
        )
        return Workload(name, False, fixtures, {}, standard, cycle)
    raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")


def write_manifests(w: Workload, fx: Path) -> None:
    for fname, doc in w.manifests.items():
        (fx / fname).write_text(json.dumps(doc, indent=2) + "\n")


def _rows(path: Path, expect: int | None = None) -> list[dict]:
    try:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    except OSError as err:
        raise CheckError(f"missing artifact {path.name}: {err}") from None
    if not rows or (expect is not None and len(rows) != expect):
        raise CheckError(f"{path.name}: {len(rows)} rows, expected {expect or 'some'}")
    return rows


def _json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as err:
        raise CheckError(f"unreadable artifact {path.name}: {err}") from None


def _f1(value) -> float:
    f1 = float(value)
    if not 0.0 <= f1 <= 1.0:
        raise CheckError(f"F1 {value!r} out of range")
    return f1


def check(op: Op, out: Path) -> list[float]:
    """Validate the artifacts of one op; return the F1 scores it reports."""
    try:
        if op.kind == "detect":
            report = _json(out / "report.json")
            _rows(out / "deviations.csv")
            if op.standard:
                truth = _json(Path(op.argv[op.argv.index("--truth") + 1]))
                if report["flagged_layers"] != sorted(truth["defect_layers"]):
                    raise CheckError(f"standard case flagged {report['flagged_layers']}, "
                                     f"truth is {sorted(truth['defect_layers'])}")
            return [_f1(report["metrics"]["f1"])]
        if op.kind == "sweep":
            rows = _rows(out / "sweep.csv", _taus(op.argv))
            return [_f1(r["f1"]) for r in rows if not math.isnan(float(r["f1"]))]
        if op.kind == "compare":
            rows = _rows(out / "compare.csv", 5)
            if rows[-1]["filter"] != "snn":
                raise CheckError("compare.csv lacks the snn row")
            return []
        if op.kind == "raster":
            for r in _rows(out / "raster.csv")[:100]:
                int(r["neuron"]), float(r["time"])
            return []
        if op.kind == "energy":
            for r in _rows(out / "energy.csv", ENERGY_SAMPLES):
                [float(v) for k, v in r.items() if k != "sample"]
            _json(out / "profiles.json")["profiles"]
            return []
        if op.kind == "classify":
            _rows(out / "loss.csv", CLASSIFY_EPOCHS)
            _rows(out / "predictions.csv", 6)
            return []
    except (KeyError, TypeError, ValueError) as err:
        raise CheckError(f"{op.kind}: malformed artifact: {err!r}") from None
    raise CheckError(f"no check for {op.kind}")
