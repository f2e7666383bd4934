"""Command-line interface.

Subcommands: gen-data, detect, sweep, compare, raster, classify, energy.
Every output file embeds the seed, preset, and tool version; runs with
identical arguments and seeds produce byte-identical artifacts. Exit
codes: 0 on success, 1 on usage errors, 2 on data or numeric errors.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import BaselineFilterSpec, default_specs
from .classifier import check_training, encode_sample, predict, train_classifier
from .datagen import NOISE_STD, DefectSpec, GenParams, gen_defective, gen_healthy
from .energy import (
    ENERGY_REFERENCE_SAMPLE,
    ENERGY_SAMPLES,
    HARDWARE_ORDER,
    count_ops,
    estimate_energy,
    profiles_from_dict,
    profiles_to_dict,
    reference_profiles,
)
from .errors import ConfigError, DataError, SnnDetectError, check_int
from .evaluation import GroundTruth, compare_filters, evaluate, sweep_tau
from .pipeline import (
    AdaptivePolicy,
    FilterConfig,
    FixedPolicy,
    load_layer_series,
    run_filter,
)
from .presets import get_preset

OUTDIR_ENV = "SNNDETECT_OUTDIR"


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; we reserve 2 for
    data errors and use 1 for usage."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _meta(seed: int, preset: str) -> dict:
    """The seed/preset/version triple stamped into every artifact."""
    return {"seed": seed, "preset": preset, "version": __version__}


def _parse_window(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LO:HI, got {text!r}") from None


def _parse_taus(text: str) -> list[float]:
    try:
        return [float(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}") from None


def _fmt(v) -> str:
    # np.float64 is a float, and str of a numpy integer is its digits
    return repr(float(v)) if isinstance(v, float) else str(v)


def _cells(rows):
    """One CSV line per row, each cell written by _fmt."""
    return (",".join(map(_fmt, row)) for row in rows)


def _check_cell(what: str, name: str, row_start: bool = False) -> None:
    """Raise DataError unless `name` fits in one CSV cell, as the first of
    its row when `row_start`: CSV readers read a cell that starts with a
    double quote up to the next one, and skip a line that starts with #."""
    if any(c in name for c in ",\r\n"):
        raise DataError(f"{what} {name!r} holds a comma or a line break, which would break its CSV row")
    if name.startswith('"'):
        raise DataError(f"{what} {name!r} starts with a double quote, which would open a quoted CSV cell")
    if row_start and name.startswith("#"):
        raise DataError(f"{what} {name!r} starts with #, which would make its CSV row a comment")


def _say(line: str) -> None:
    """Print one console line. A character the console's encoding lacks (a
    profile name under the C locale) is written as a backslash escape, as
    Python writes it to stderr, in place of a UnicodeEncodeError."""
    try:
        print(line)
    except UnicodeEncodeError:
        print(line.encode("ascii", "backslashreplace").decode("ascii"))


def _atomic_write(path: Path, text: str) -> None:
    # mode 0o666 less the umask, as open(path, "w") gives (mkstemp's is 0o600);
    # O_EXCL and the random name keep each writer to a temp file of its own.
    # Every artifact is UTF-8, whatever the locale
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path: Path, meta: dict, columns: list[str], lines) -> None:
    """A CSV artifact: the meta as a # comment, the header, then `lines`."""
    header = ["# " + " ".join(f"{k}={v}" for k, v in meta.items()), ",".join(columns)]
    _atomic_write(path, "\n".join([*header, *lines]) + "\n")


def _write_json(path: Path, doc: dict) -> None:
    _atomic_write(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _read_json(path, what: str):
    """The parsed JSON document in the file at `path`; every JSON input of
    the CLI is read here, as UTF-8 with or without a BOM. A missing file or
    invalid JSON is a DataError."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"{what} file does not exist: {path}")
    text = path.read_text(encoding="utf-8-sig")
    try:
        return json.loads(text)
    except ValueError as err:  # bad JSON, or an integer past Python's digit limit
        raise DataError(f"{path}: invalid JSON: {err}") from err


def _outdir(outdir: str | None) -> Path:
    """The output directory, made if missing: --outdir, else $SNNDETECT_OUTDIR, else ."""
    path = Path(outdir or os.environ.get(OUTDIR_ENV) or ".")
    path.mkdir(parents=True, exist_ok=True)
    return path


def _add_network_args(sp) -> None:
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--preset", help="named preset, e.g. cpu-pd1-66 (see README)")
    group.add_argument("--config", help="filter-config JSON file")
    sp.add_argument("--seed", type=int, default=None, help="override the configured seed")


def _resolve_config(args) -> tuple[FilterConfig, dict, list[BaselineFilterSpec] | None]:
    """The filter config, the artifact meta, and any baseline specs of the config file."""
    baseline_specs = None
    if args.config:
        path = Path(args.config)
        data = _read_json(path, "config")
        if not isinstance(data, dict):
            raise DataError(f"{path}: config must be a JSON object")
        if "baseline" in data:
            raw = data.pop("baseline")
            raw = [raw] if isinstance(raw, dict) else raw
            if not isinstance(raw, list) or not all(isinstance(b, dict) for b in raw):
                raise ConfigError(f"{path}: 'baseline' must be an object or a list of "
                                  f"objects, got {raw!r}")
            baseline_specs = [BaselineFilterSpec.from_dict(b) for b in raw]
        cfg = FilterConfig.from_dict(data)
        label = "custom"
    elif args.preset:
        cfg = get_preset(args.preset)
        label = args.preset
    else:
        cfg = FilterConfig()
        label = "default"
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg, _meta(cfg.seed, label), baseline_specs


def _resolve_scoring(args):
    """The config, meta, baseline specs, (defective, healthy) pair, truth and
    policy of a detect, sweep or compare run."""
    cfg, meta, baseline_specs = _resolve_config(args)
    pair = [load_layer_series(args.defective), load_layer_series(args.healthy)]
    truth = GroundTruth.from_dict(_read_json(args.truth, "ground-truth")) if args.truth else None
    if args.policy == "fixed":
        if args.threshold is None:
            raise ConfigError("--policy fixed requires --threshold")
        policy = FixedPolicy(threshold_pct=args.threshold)
    elif args.calibration is not None:
        policy = AdaptivePolicy(k=args.k, calibration=args.calibration)
    elif truth is not None:
        policy = truth.default_policy(k=args.k)
    else:
        policy = AdaptivePolicy(k=args.k)
    return cfg, meta, baseline_specs, pair, truth, policy


def _add_scoring_args(sp, truth_required: bool) -> None:
    """The inputs, network and policy flags of detect, sweep and compare."""
    sp.add_argument("--defective", required=True)
    sp.add_argument("--healthy", required=True)
    sp.add_argument("--truth", required=truth_required, default=None)
    _add_network_args(sp)
    sp.add_argument("--policy", choices=("adaptive", "fixed"), default="adaptive")
    sp.add_argument("--k", type=float, default=AdaptivePolicy.k, help="adaptive threshold multiplier")
    sp.add_argument("--threshold", type=float, default=None, help="fixed threshold (percent)")
    sp.add_argument("--calibration", type=_parse_window, default=None,
                    help="LO:HI layer range used to calibrate the adaptive threshold")


def _cmd_gen_data(args, out: Path) -> int:
    noise = args.noise_std if args.noise_std is not None else NOISE_STD[args.sensor]
    lo, hi = args.window
    baseline_seed = args.baseline_seed if args.baseline_seed is not None else args.seed + 1
    p_def = GenParams(
        layer_range=(lo, hi), baseline_level=args.baseline_level, noise_std=noise,
        junction_spike_amplitude=args.junction_amplitude, junction_period=args.junction_period,
        seed=args.seed,
    )
    p_heal = replace(p_def, seed=baseline_seed)
    spec = DefectSpec(
        start_layer=args.defect_start, n_layers=args.defect_layers,
        power_reduction_percent=args.reduction, dip_fraction=args.dip_fraction,
    )
    defective = gen_defective(p_def, spec)
    healthy = gen_healthy(p_heal)

    meta = _meta(args.seed, "-")
    for name, series, seed in (("defective", defective, args.seed), ("healthy", healthy, baseline_seed)):
        _write_csv(out / f"{name}.csv", {**meta, "seed": seed}, ["layer", "value"],
                   _cells(zip(series.layers, series.values)))
    truth = {
        **meta,
        "defect_layers": list(spec.layers),
        "window": [lo, hi],
        "sensor": args.sensor,
        "power_reduction_percent": args.reduction,
        "baseline_seed": baseline_seed,
    }
    _write_json(out / "truth.json", truth)
    _say(f"wrote defective.csv, healthy.csv, truth.json to {out}")
    return 0


def _cmd_detect(args, out: Path) -> int:
    cfg, meta, _, pair, truth, policy = _resolve_scoring(args)
    report = evaluate(run_filter(pair, cfg)[0], policy, truth)
    dev = report.deviations
    _write_json(out / "report.json", {**meta, "config": cfg.to_dict(), **report.to_dict()})
    _write_csv(out / "deviations.csv", meta, ["layer", "deviation_pct"],
               _cells(zip(dev.layers, dev.values)))
    flagged = ", ".join(str(l) for l in report.flagged_layers) or "none"
    _say(f"flagged layers: {flagged} (threshold {report.threshold_used:.3g}%)")
    if report.metrics:
        _say(f"precision={report.metrics.precision:.3f} recall={report.metrics.recall:.3f} "
             f"f1={report.metrics.f1:.3f}")
    return 0


def _cmd_sweep(args, out: Path) -> int:
    cfg, meta, _, pair, truth, policy = _resolve_scoring(args)
    result = sweep_tau(*pair, args.taus, cfg, truth, policy)
    rows = [(pt.key, pt.precision, pt.recall, pt.f1, pt.flagged) for pt in result.points]
    _write_csv(out / "sweep.csv", meta, ["tau", "precision", "recall", "f1", "flagged"], _cells(rows))
    _say(f"best tau: {result.best_tau}")
    return 0


def _cmd_compare(args, out: Path) -> int:
    cfg, meta, baseline_specs, pair, truth, policy = _resolve_scoring(args)
    specs = baseline_specs if baseline_specs is not None else default_specs()
    rows = compare_filters(*pair, specs, cfg, truth, policy)
    _write_csv(out / "compare.csv", meta, ["filter", "precision", "recall", "f1"],
               _cells((r.key, r.precision, r.recall, r.f1) for r in rows))
    for r in rows:
        _say(f"{r.key:16s} f1={r.f1:.3f}" + (f"  [{r.error}]" if r.error else ""))
    return 0


def _cmd_raster(args, out: Path) -> int:
    cfg, meta, _ = _resolve_config(args)
    _, sim = run_filter(load_layer_series(args.input), cfg, decode=False)
    # one row per spike, in spike_events' order. The cells are what _fmt
    # writes: str of the neuron id and repr of the step's time k * dt, each
    # made once per id and per step
    k, ids = sim.spike_events()
    names = list(map(str, range(sim.n_neurons)))
    times = ["," + repr(t) for t in (np.arange(sim.n_steps) * sim.dt).tolist()]
    rows = [names[i] + times[t] for t, i in zip(k.tolist(), ids.tolist())]
    _write_csv(out / "raster.csv", meta, ["neuron", "time"], rows)
    _say(f"{k.size} spikes from {sim.n_neurons} neurons over {sim.n_steps * sim.dt:.3g} s")
    return 0


def _cmd_classify(args, out: Path) -> int:
    cfg, meta, _ = _resolve_config(args)
    path = Path(args.manifest)
    manifest = _read_json(path, "manifest")
    try:
        entries = manifest["samples"]
    except (KeyError, TypeError) as err:
        raise DataError(f"{path}: expected a 'samples' list: {err}") from err
    if not isinstance(entries, list):
        raise DataError(f"{path}: 'samples' must be a list, got {entries!r}")
    check_training(args.epochs, args.lr, len(entries))

    series, labels, ids = [], [], []
    for i, entry in enumerate(entries):
        try:
            sample_path = path.parent / entry["path"]
            label = entry["label"]
            ids.append(str(entry.get("sample_id", f"sample{i}")))
        except (KeyError, TypeError) as err:
            raise DataError(f"{path}: bad sample entry {i}: {err}") from err
        _check_cell(f"sample_id of sample entry {i}", ids[-1], row_start=True)
        check_int(f"label of sample entry {i}", label, 0)
        labels.append(label)
        series.append(load_layer_series(sample_path))
    # run_filter checks the window, before it builds a population; null, as
    # no window, averages each sample over its own layers
    features = encode_sample(series, cfg, manifest.get("window"))

    model = train_classifier(features, labels, epochs=args.epochs, lr=args.lr)
    # the losses are Python floats, so each row is the str and repr that
    # _fmt writes, without its per-cell type checks
    _write_csv(out / "loss.csv", meta, ["epoch", "loss"],
               (f"{epoch},{loss!r}" for epoch, loss in enumerate(model.training_history)))
    rows = []
    correct = 0
    for sample_id, label, feature in zip(ids, labels, features):
        predicted = int(np.argmax(predict(model, feature)))
        correct += predicted == label
        rows.append((sample_id, label, predicted))
    _write_csv(out / "predictions.csv", meta, ["sample_id", "target", "predicted"], _cells(rows))
    _say(f"final loss {model.training_history[-1]:.4f}, "
         f"training accuracy {correct / len(features):.4f}")
    return 0


def _cmd_energy(args, out: Path) -> int:
    cfg, meta, _ = _resolve_config(args)
    profiles = profiles_from_dict(_read_json(args.profiles, "profiles")) if args.profiles else None
    for name in profiles or ():
        _check_cell("profile name", name)
        if name == "sample":  # a second `sample` column would hide the sample ids
            raise DataError(f"profile name {name!r} is the name of energy.csv's sample column")
    lo, hi = args.window
    samples = [
        gen_defective(
            GenParams(layer_range=(lo, hi), noise_std=args.noise_std, seed=cfg.seed + i),
            DefectSpec(start_layer=args.defect_start, n_layers=n_layers,
                       power_reduction_percent=reduction),
        )
        for i, (_, reduction, n_layers) in enumerate(ENERGY_SAMPLES)
    ]
    counts = {
        sample_id: count_ops(sim.spike_counts(), cfg.stage_sizes(), steps=sim.n_steps)
        for (sample_id, _, _), sim in zip(ENERGY_SAMPLES, run_filter(samples, cfg, decode=False)[1])
    }

    if profiles is None:
        profiles = reference_profiles(counts[ENERGY_REFERENCE_SAMPLE])

    names = [n for n in HARDWARE_ORDER if n in profiles]
    names += [n for n in profiles if n not in names]
    rows = [
        (sample_id, *(estimate_energy(counts[sample_id], profiles[n]) for n in names))
        for sample_id, _, _ in ENERGY_SAMPLES
    ]
    _write_csv(out / "energy.csv", meta, ["sample"] + names, _cells(rows))
    _write_json(out / "profiles.json", {**meta, "profiles": profiles_to_dict(profiles)})
    for row in rows:
        cells = " ".join(f"{n}={v:.3f}" for n, v in zip(names, row[1:]))
        _say(f"{row[0]}: {cells} (uJ/inference)")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: each parse makes a fresh
    namespace, no argument has a mutable default, and usage errors and
    --version write to sys.stderr and sys.stdout as they are at the call."""
    parser = _Parser(prog="snndetect", description=__doc__)
    parser.add_argument("--version", action="version", version=f"snndetect {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gen-data", help="generate a synthetic healthy/defective pair")
    sp.add_argument("--seed", type=int, default=GenParams.seed)
    sp.add_argument("--baseline-seed", type=int, default=None,
                    help="seed of the healthy reference build (default: seed + 1)")
    sp.add_argument("--sensor", choices=sorted(NOISE_STD), default="PD1")
    sp.add_argument("--reduction", type=float, default=DefectSpec.power_reduction_percent)
    sp.add_argument("--defect-layers", type=int, default=DefectSpec.n_layers)
    sp.add_argument("--defect-start", type=int, default=DefectSpec.start_layer)
    sp.add_argument("--window", type=_parse_window, default=GenParams.layer_range)
    sp.add_argument("--noise-std", type=float, default=None)
    sp.add_argument("--junction-period", type=int, default=GenParams.junction_period)
    sp.add_argument("--junction-amplitude", type=float, default=GenParams.junction_spike_amplitude)
    sp.add_argument("--baseline-level", type=float, default=GenParams.baseline_level)
    sp.add_argument("--dip-fraction", type=float, default=DefectSpec.dip_fraction)
    sp.set_defaults(func=_cmd_gen_data)

    sp = sub.add_parser("detect", help="filter, deviate, and flag anomalous layers")
    _add_scoring_args(sp, truth_required=False)
    sp.set_defaults(func=_cmd_detect)

    sp = sub.add_parser("sweep", help="score detection across synaptic time constants")
    _add_scoring_args(sp, truth_required=True)
    sp.add_argument("--taus", type=_parse_taus, required=True)
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("compare", help="score classical filters against the spiking filter")
    _add_scoring_args(sp, truth_required=True)
    sp.set_defaults(func=_cmd_compare)

    sp = sub.add_parser("raster", help="export the spike raster of a filter run")
    sp.add_argument("--input", required=True)
    _add_network_args(sp)
    sp.set_defaults(func=_cmd_raster)

    sp = sub.add_parser("classify", help="train the per-sample softmax readout")
    sp.add_argument("--manifest", required=True)
    sp.add_argument("--epochs", type=int, default=1000)
    sp.add_argument("--lr", type=float, default=0.05)
    _add_network_args(sp)
    sp.set_defaults(func=_cmd_classify)

    sp = sub.add_parser("energy", help="estimate per-hardware energy per inference")
    sp.add_argument("--profiles", default=None, help="custom hardware profiles JSON")
    sp.add_argument("--noise-std", type=float, default=GenParams.noise_std)
    sp.add_argument("--window", type=_parse_window, default=GenParams.layer_range)
    sp.add_argument("--defect-start", type=int, default=DefectSpec.start_layer)
    _add_network_args(sp)
    sp.set_defaults(func=_cmd_energy)

    for sp in sub.choices.values():
        sp.add_argument("--outdir", default=None,
                        help=f"output directory (default ${OUTDIR_ENV} or .)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return int(args.func(args, _outdir(args.outdir)) or 0)
    except (SnnDetectError, OSError, UnicodeDecodeError, MemoryError) as err:
        print(f"error: {str(err) or 'out of memory'}", file=sys.stderr)
        return 2


def run() -> None:
    code = main()
    # the process is about to exit: spare finalization's full collections the
    # ~23k objects numpy and the package leave behind (about 20 ms a run)
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
