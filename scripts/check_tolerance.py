#!/usr/bin/env python3
"""Check that two artifact directories agree, within stated bounds where
BLAS and SIMD may move the last bits.

    python scripts/check_tolerance.py BASE OTHER

BASE and OTHER are output directories of scripts/artifact_digests.py, for
example one run as it is and one under OPENBLAS_NUM_THREADS=1 or at numpy's
baseline SIMD level. Both must hold the same files, and every file must be
byte-equal, except:

- report.json: `threshold_used` and each `deviations` value may differ by
  up to 1e-9 percentage points, over the same layers; every other key,
  `flagged_layers` and `metrics` included, must be equal;
- deviations.csv: each deviation may differ by up to 1e-9 percentage
  points, with the same layers, header and comment lines;
- loss.csv: each loss may differ by up to 1e-12 relative, with the same
  epochs, header and comment lines.

On a 2-vCPU AVX-512 Xeon (numpy 2.4, OpenBLAS 0.3.31) the largest drift
against the default run was 1.5e-12 points under one BLAS thread, and
4.0e-11 points and 2.8e-13 relative at the baseline SIMD level with
OPENBLAS_CORETYPE=Prescott. One line is printed per file that fails; the
exit code is 1 if any does, else 0.
"""

import json
import sys
from pathlib import Path

DEVIATION_PTS = 1e-9
LOSS_RELATIVE = 1e-12


def _points(a: float, b: float) -> bool:
    return abs(a - b) <= DEVIATION_PTS


def _relative(a: float, b: float) -> bool:
    return abs(a - b) <= LOSS_RELATIVE * max(abs(a), abs(b))


def _rows(near):
    """A check of two `key,value` CSV texts: every line equal, except that
    a data row's value may differ within `near` under the same key."""
    def check(a: str, b: str) -> str | None:
        lines_a, lines_b = a.split("\n"), b.split("\n")
        if len(lines_a) != len(lines_b):
            return f"{len(lines_a)} lines against {len(lines_b)}"
        for no, (x, y) in enumerate(zip(lines_a, lines_b), start=1):
            if x == y:
                continue
            key_x, _, value_x = x.rpartition(",")
            key_y, _, value_y = y.rpartition(",")
            try:
                ok = key_x == key_y and not key_x.startswith("#") and near(float(value_x), float(value_y))
            except ValueError:
                ok = False
            if not ok:
                return f"line {no} differs: {x!r} against {y!r}"
        return None
    return check


def _report(a: str, b: str) -> str | None:
    doc_a, doc_b = json.loads(a), json.loads(b)
    dev_a, dev_b = doc_a.pop("deviations", {}), doc_b.pop("deviations", {})
    if list(dev_a) != list(dev_b):
        return "deviations cover different layers"
    far = [k for k in dev_a if not _points(dev_a[k], dev_b[k])]
    if far:
        return f"deviations of layers {far} differ by more than {DEVIATION_PTS}"
    if not _points(doc_a.pop("threshold_used"), doc_b.pop("threshold_used")):
        return f"threshold_used differs by more than {DEVIATION_PTS}"
    # dumped, so that 1, 1.0 and true stay apart
    rest_a, rest_b = (json.dumps(d, sort_keys=True) for d in (doc_a, doc_b))
    if rest_a != rest_b:
        keys = sorted(k for k in doc_a.keys() | doc_b.keys()
                      if json.dumps(doc_a.get(k)) != json.dumps(doc_b.get(k)))
        return f"keys {keys} differ"
    return None


CHECKS = {"report.json": _report, "deviations.csv": _rows(_points), "loss.csv": _rows(_relative)}


def _files(root: Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def compare(base: Path, other: Path) -> list[str]:
    """One line per file that is missing, extra or out of bounds."""
    names_a, names_b = _files(base), _files(other)
    problems = [f"{n}: only in {base}" for n in sorted(names_a - names_b)]
    problems += [f"{n}: only in {other}" for n in sorted(names_b - names_a)]
    for name in sorted(names_a & names_b):
        a, b = (base / name).read_bytes(), (other / name).read_bytes()
        if a == b:
            continue
        check = CHECKS.get(Path(name).name)
        try:
            reason = check(a.decode(), b.decode()) if check else "bytes differ"
        except (AttributeError, KeyError, TypeError, ValueError) as err:
            reason = f"cannot be compared: {err!r}"
        if reason:
            problems.append(f"{name}: {reason}")
    return problems


if __name__ == "__main__":
    if len(sys.argv) != 3 or not all(Path(d).is_dir() for d in sys.argv[1:]):
        sys.exit(f"usage: {sys.argv[0]} BASE OTHER (two directories)")
    problems = compare(Path(sys.argv[1]), Path(sys.argv[2]))
    print("\n".join(problems) or f"every file of {sys.argv[2]} is within bounds of {sys.argv[1]}")
    sys.exit(1 if problems else 0)
