#!/usr/bin/env python3
"""End-to-end detection experiment on synthetic builds.

Generates a defective build (66% power reduction over 7 layers) plus an
independent healthy reference, runs the spiking filter pipeline, sweeps
the synaptic time constant, and compares against the classical filters.
Artifacts land in results/detection/.
"""

from pathlib import Path

from snndetect.baselines import default_specs
from snndetect.datagen import DefectSpec, GenParams, gen_defective, gen_healthy
from snndetect.evaluation import GroundTruth, attach_metrics, compare_filters, sweep_tau
from snndetect.pipeline import FilterConfig, detect
from snndetect.presets import get_preset

OUT = Path("results/detection")
WINDOW = (570, 650)
SEED = 42


def main() -> None:
    OUT.mkdir(parents=True, exist_ok=True)

    spec = DefectSpec(start_layer=613, n_layers=7, power_reduction_percent=66.0)
    defective = gen_defective(GenParams(layer_range=WINDOW, seed=SEED), spec)
    healthy = gen_healthy(GenParams(layer_range=WINDOW, seed=SEED + 1))
    truth = GroundTruth(defect_layers=frozenset(spec.layers), window=WINDOW)

    cfg = get_preset("cpu-pd1-66", seed=7)
    report = attach_metrics(detect(defective, healthy, cfg, truth.default_policy()), truth)
    dev = report.deviations
    print(f"flagged: {report.flagged_layers}")
    print(f"precision={report.metrics.precision:.3f} recall={report.metrics.recall:.3f} "
          f"f1={report.metrics.f1:.3f} (threshold {report.threshold_used:.2f}%)")

    (OUT / "deviations.csv").write_text(
        "layer,deviation_pct\n"
        + "\n".join(f"{l},{v!r}" for l, v in zip(dev.layers, dev.values))
        + "\n"
    )

    taus = [1e-4, 0.001, 0.002, 0.004, 0.008, 0.016, 0.032, 0.1]
    sweep = sweep_tau(defective, healthy, taus, FilterConfig(seed=7), truth)
    print("\ntau sweep:")
    for pt in sweep.points:
        print(f"  tau={pt.tau:<8g} f1={pt.f1:.3f} flagged={pt.flagged_count}")
    print(f"best tau: {sweep.best_tau}")
    (OUT / "sweep.csv").write_text(
        "tau,precision,recall,f1,flagged\n"
        + "\n".join(f"{p.tau!r},{p.precision!r},{p.recall!r},{p.f1!r},{p.flagged_count}"
                    for p in sweep.points)
        + "\n"
    )

    rows = compare_filters(defective, healthy, default_specs(), cfg, truth)
    print("\nfilter comparison:")
    for row in rows:
        print(f"  {row.name:16s} precision={row.precision:.3f} recall={row.recall:.3f} "
              f"f1={row.f1:.3f}")
    (OUT / "compare.csv").write_text(
        "filter,precision,recall,f1\n"
        + "\n".join(f"{r.name},{r.precision!r},{r.recall!r},{r.f1!r}" for r in rows)
        + "\n"
    )
    print(f"\nartifacts in {OUT}/")


if __name__ == "__main__":
    main()
