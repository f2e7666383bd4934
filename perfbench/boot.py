"""Child-process entry points of the benchmark.

    boot.py setup WORKLOAD SEED FIXTURE_DIR
        One set-up round: import the package, generate the workload's
        fixtures with `gen-data`, write its manifests, and run the warm-up
        op (the standard detection case).
        Prints one JSON line: the import time and the library versions.

    boot.py op SPANS_FILE -- ARGV...
        One traced cold CLI invocation: time the import, install the span
        wrappers, call `snndetect.cli.main(ARGV)`, write the spans, and exit
        with main's exit code.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path

import spans as spans_mod


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def setup(name: str, seed: int, fx: Path) -> int:
    import workloads

    t0 = time.perf_counter()
    from snndetect.cli import main
    import_s = time.perf_counter() - t0
    import numpy
    import scipy

    w = workloads.build(name, seed, fx)
    fx.mkdir(parents=True, exist_ok=True)
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in w.fixtures:
            if main(list(argv)) != 0:
                print(f"gen-data failed: {argv}", file=sys.stderr)
                return 2
        workloads.write_manifests(w, fx)
        if main([*w.standard.argv, "--outdir", str(fx / "warmup")]) != 0:
            print("warm-up op failed", file=sys.stderr)
            return 2
    print(json.dumps({"import_s": import_s, "numpy": numpy.__version__,
                      "scipy": scipy.__version__, "blas_threads": _blas_threads()}))
    return 0


def op(spans_file: Path, argv: list[str]) -> int:
    tracer = spans_mod.Tracer()
    with tracer.span("cli.import"):
        from snndetect.cli import main
    with tracer.installed(), tracer.span("cli.main"):
        rc = main(argv)
    spans_file.write_text(json.dumps({"spans": [s.to_list() for s in tracer.spans],
                                      "absent": tracer.absent}))
    return rc


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        sys.exit(setup(sys.argv[2], int(sys.argv[3]), Path(sys.argv[4])))
    if mode == "op" and sys.argv[3] == "--":
        sys.exit(op(Path(sys.argv[2]), sys.argv[4:]))
    sys.exit(f"usage: {__doc__}")
