"""The README's library sketches run as written and give what they claim."""

import math
import re
from pathlib import Path

from snndetect import reference_profiles

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)


def test_library_sketches_run_as_documented(capsys):
    detect, energy = python_blocks()
    # the energy sketch prices a run of the detect sketch's build and config,
    # so both run in one namespace, in README order
    ns = {}
    exec(detect, ns)
    report = ns["report"]
    assert report.flagged_layers == tuple(range(613, 620))
    assert report.metrics.f1 == 1.0
    capsys.readouterr()

    exec(energy, ns)
    rows = [line.rsplit(" ", 1) for line in capsys.readouterr().out.splitlines()]
    assert [name for name, _ in rows] == list(reference_profiles(ns["counts"]))
    assert all(math.isfinite(float(value)) for _, value in rows)
