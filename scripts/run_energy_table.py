#!/usr/bin/env python3
"""Per-hardware energy estimates across the six standard defect samples.

A thin call into `snndetect energy` with the cpu-pd1-66 preset and filter
seed 7, so this table and the CLI's are the same table: the samples and
the 66%/7-layer reference sample come from `snndetect.energy`
(`ENERGY_SAMPLES`), and their seeds (filter seed + sample index) and the
calibration on the reference from the CLI. Prints the
energy-per-inference rows and writes energy.csv and profiles.json under
results/energy/.
"""

import sys

from snndetect.cli import main

if __name__ == "__main__":
    sys.exit(main(["energy", "--preset", "cpu-pd1-66", "--seed", "7",
                   "--outdir", "results/energy"]))
