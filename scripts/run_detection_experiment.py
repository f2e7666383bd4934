#!/usr/bin/env python3
"""End-to-end detection experiment on synthetic builds.

A thin sequence of `snndetect` CLI calls: gen-data writes a defective
build (66% power reduction over layers 613-619 of 570-650) and its
healthy reference (seed 43), detect runs the cpu-pd1-66 preset, sweep
scores the default network across eight synaptic time constants, and
compare scores the classical filters against the spiking one. Every
artifact lands in results/detection/ with the CLI's seed/preset/version
header.
"""

import sys

from snndetect.cli import main

OUT = "results/detection"
PAIR = ("--defective", f"{OUT}/defective.csv", "--healthy", f"{OUT}/healthy.csv",
        "--truth", f"{OUT}/truth.json", "--outdir", OUT)
TAUS = "0.0001,0.001,0.002,0.004,0.008,0.016,0.032,0.1"
STEPS = (
    ("gen-data", "--seed", "42", "--outdir", OUT),
    ("detect", *PAIR, "--preset", "cpu-pd1-66", "--seed", "7"),
    ("sweep", *PAIR, "--taus", TAUS, "--seed", "7"),
    ("compare", *PAIR, "--preset", "cpu-pd1-66", "--seed", "7"),
)

if __name__ == "__main__":
    for argv in STEPS:
        code = main(list(argv))
        if code:
            sys.exit(code)
