"""Run one benchmark workload against the snndetect source in this checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads and why each was chosen are in workloads.py; metric names, units
and bounds in BENCHMARK.json at the checkout root. Set-up runs three fresh
processes (import, fixture generation, warm-up) and reports their median.
The op loop is a closed loop with one caller: it runs passes over the
workload's op cycle until `--seconds` have passed, and always completes at
least one pass (two when tracing). Each op is checked; a failing op is counted, not
fatal. With `--trace 1`, even passes run with span wrappers and odd passes
without, which gives the per-layer metrics and the tracing overhead.

The last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`. The full run record (machine facts, every op, the
sample count of each metric) goes to .perfbench/runs/, and spans of a
traced run next to it. End-to-end times are scaled by a machine-speed
probe; see PROBE_REF_S. `--inject-bad-input` adds one op whose input CSV has
a non-numeric value; it exists for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans as spans_mod
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_ROUNDS = 3
INTERP_SAMPLES = 5
CHILD_TIMEOUT_S = 150
# Shared machines drift: on a 2-vCPU Xeon host, speed changed by up to ~40%
# from one minute to the next. A fixed probe that uses no snndetect code runs
# after every op and every set-up round, and all end-to-end times of the run
# are scaled by PROBE_REF_S / (median probe time of the run), i.e. reported in
# seconds at the speed where the probe takes PROBE_REF_S. The probe is of the
# ops' kind: a fresh interpreter importing numpy for cli-cold, whose ops are
# fresh processes (an in-process probe did not follow their cost), and an
# in-process numpy step loop for the warm workloads. Set-up rounds are fresh
# processes everywhere, so set-up uses fresh-interpreter probes taken around
# the rounds. Over five seeds this cut the spread of op_s from 19% to 6% on
# cli-cold and from 19-28% to 2-5% on the warm workloads. Raw times and
# every probe stay in the run record.
PROBE_STEPS = 1500
PROBE_REF_S = {True: 0.18, False: 0.045}  # keyed by Workload.cold
KINDS = ("detect", "sweep", "compare", "raster", "energy", "classify")


def _median(xs):
    return statistics.median(xs) if xs else None


def _geomean(xs):
    return math.exp(sum(math.log(x) for x in xs) / len(xs)) if xs else None


def _probe(cold: bool, env: dict) -> float:
    """Wall time of a fixed computation that uses no snndetect code, so only
    the speed of the machine can move it. Cold: a fresh interpreter that
    imports numpy. Warm: a LIF step loop of small numpy operations driven
    from Python, then a decoder-sized linear solve, in this process."""
    if cold:
        t0 = time.perf_counter()
        # capturing output makes run() wait on the pipes, which close at exit;
        # a bare wait with a timeout polls in steps of up to 50 ms
        subprocess.run([sys.executable, "-c", "import numpy"], env=env, check=True,
                       capture_output=True, timeout=CHILD_TIMEOUT_S)
        return time.perf_counter() - t0
    import numpy as np

    rng = np.random.default_rng(0)
    gain, bias = rng.uniform(1.0, 5.0, 500), rng.uniform(-1.0, 1.0, 500)
    decoders = rng.normal(0.0, 1e-3, 500)
    a = rng.random((300, 300))
    v, refr, y = np.zeros(500), np.zeros(500), np.zeros(500)
    t0 = time.perf_counter()
    for k in range(PROBE_STEPS):
        drive = gain * (0.5 + 0.4 * math.sin(k / 20.0)) + bias
        delta = np.clip(0.001 - refr, 0.0, 0.001)
        v = np.maximum(drive + (v - drive) * np.exp(-delta / 0.02), 0.0)
        refr = np.maximum(refr - 0.001, 0.0)
        spiked = v > 1.0
        if spiked.any():
            refr[spiked] = 0.002
            v[spiked] = 0.0
        y = y * 0.6 + spiked * 400.0
        float(decoders @ y)
    np.linalg.solve(a @ a.T + np.eye(300), a.sum(axis=1))
    return time.perf_counter() - t0


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _facts(seed: int, workload: str, lib: dict) -> dict:
    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30).stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload, "seed": seed, "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": lib.get("numpy"),
        "scipy": lib.get("scipy"), "blas_threads": lib.get("blas_threads"),
        "git_commit": commit or None, "src_sha256": digest.hexdigest(),
    }


def _artifacts(out: Path) -> tuple[str, int]:
    digest = hashlib.sha256()
    size = 0
    for path in sorted(out.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            size += len(data)
            digest.update(path.name.encode() + b"\0" + data)
    return digest.hexdigest(), size


def _bad_input_op(fx: Path, w: workloads.Workload) -> workloads.Op:
    bad = fx / "bad"
    bad.mkdir(exist_ok=True)
    lines = (fx / "c4" / "defective.csv").read_text().splitlines()
    # the first data row after the comment and header lines
    row = next(i for i, line in enumerate(lines) if line[:1].isdigit())
    lines[row] = lines[row].split(",")[0] + ",not-a-number"
    (bad / "defective.csv").write_text("\n".join(lines) + "\n")
    argv = ("detect", "--defective", str(bad / "defective.csv"),
            "--healthy", str(fx / "c4" / "healthy.csv"),
            "--truth", str(fx / "c4" / "truth.json"), "--preset", "cpu-pd1-66")
    return workloads.Op("inject/bad-csv", "detect", argv, 0)


class Runner:
    def __init__(self, w: workloads.Workload, work: Path, env: dict):
        self.w = w
        self.work = work
        self.env = env
        self.records: list[dict] = []
        self.digests: dict[str, str] = {}
        self.tracer = spans_mod.Tracer()
        self.cold_spans: list[tuple[int, dict]] = []
        self.main = None
        if not w.cold:
            sys.path.insert(0, str(ROOT / "src"))
            from snndetect.cli import main
            self.main = main

    def _inproc(self, argv, traced):
        sink_out, sink_err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(sink_out), contextlib.redirect_stderr(sink_err):
            if traced:
                with self.tracer.installed(), self.tracer.span("cli.main"):
                    rc = self.main(argv)
            else:
                rc = self.main(argv)
        return rc, sink_err.getvalue()

    def _cold(self, argv, traced, idx):
        if traced:
            spans_file = self.work / f"spans-{idx}.json"
            cmd = [sys.executable, str(HERE / "boot.py"), "op", str(spans_file), "--", *argv]
        else:
            cmd = [sys.executable, "-m", "snndetect.cli", *argv]
        p = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                           timeout=CHILD_TIMEOUT_S)
        if traced and p.returncode == 0:
            self.cold_spans.append((idx, json.loads(spans_file.read_text())))
        return p.returncode, p.stderr

    def run(self, op: workloads.Op, cycle: int, traced: bool, timed: bool = True) -> dict:
        idx = len(self.records)
        out = self.work / "out" / str(idx)
        argv = [*op.argv, "--outdir", str(out)]
        rec = {"i": idx, "key": op.key, "kind": op.kind, "cycle": cycle, "traced": traced,
               "timed": timed, "lanes": op.lanes, "exit": None, "error": None, "f1": [],
               "bytes": 0, "repeat": False}
        self.tracer.op = idx
        t0 = time.perf_counter()
        try:
            if self.w.cold:
                rc, err = self._cold(argv, traced, idx)
            else:
                rc, err = self._inproc(argv, traced)
        except subprocess.TimeoutExpired:
            rc, err = None, f"timed out after {CHILD_TIMEOUT_S} s"
        except Exception:  # the loop must go on; the op is counted as failed
            rc, err = None, traceback.format_exc(limit=3)
        rec["wall_s"] = time.perf_counter() - t0
        rec["probe_s"] = _probe(self.w.cold, self.env)
        rec["exit"] = rc
        if rc != 0:
            rec["error"] = f"exit {rc}: {err.strip()[-500:]}"
        else:
            try:
                rec["f1"] = workloads.check(op, out)
                digest, rec["bytes"] = _artifacts(out)
                rec["repeat"] = op.key in self.digests
                if self.digests.setdefault(op.key, digest) != digest:
                    raise workloads.CheckError("artifacts differ from an identical earlier run")
            except workloads.CheckError as e:
                rec["error"] = f"check: {e}"
        shutil.rmtree(out, ignore_errors=True)
        self.records.append(rec)
        return rec


def _schedule(cycle_ops, first):
    """(cycle, op, whole cycles done after it) forever; `first` opens cycle 0."""
    for cycle in itertools.count():
        ops = (first if cycle == 0 else []) + list(cycle_ops)
        for j, op in enumerate(ops):
            yield cycle, op, cycle + (j == len(ops) - 1)


def _setup(w: workloads.Workload, seed: int, fx: Path, env: dict) -> tuple:
    """Set-up rounds: (walls, fresh-interpreter probes around them, import times,
    library facts). Set-up rounds are fresh processes on every workload."""
    walls, probes, imports, lib = [], [], [], {}
    _probe(True, env)  # the first fresh interpreter meets a cold file cache
    probes.append(_probe(True, env))
    for _ in range(SETUP_ROUNDS):
        shutil.rmtree(fx, ignore_errors=True)
        t0 = time.perf_counter()
        p = subprocess.run([sys.executable, str(HERE / "boot.py"), "setup", w.name, str(seed),
                            str(fx)], env=env, capture_output=True, text=True,
                           timeout=CHILD_TIMEOUT_S)
        walls.append(time.perf_counter() - t0)
        probes.append(_probe(True, env))
        if p.returncode != 0:
            raise RuntimeError(f"set-up failed (exit {p.returncode}): {p.stderr.strip()[-2000:]}")
        lib = json.loads(p.stdout.strip().splitlines()[-1])
        imports.append(lib["import_s"])
    return walls, probes, imports, lib


def _end_to_end(recs: list[dict], setup_walls, setup_probes, cold: bool) -> dict:
    """End-to-end metrics of an untraced run, as (value, sample count)."""
    ok = [r for r in recs if r["timed"] and not r["traced"] and r["error"] is None]
    # per op key, so the result does not depend on where in a cycle the run stopped
    scale = PROBE_REF_S[cold] / _median([r["probe_s"] for r in recs])
    walls, rates = {}, {}
    for r in ok:
        walls.setdefault(r["key"], []).append(r["wall_s"] * scale)
        rates.setdefault(r["key"], []).append(r["lanes"] / (r["wall_s"] * scale))
    first_f1 = {}
    for r in recs:
        if r["error"] is None:
            first_f1.setdefault(r["key"], r["f1"])
    f1s = [f for fs in first_f1.values() for f in fs]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if cold:
        rss_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    failed = sum(r["error"] is not None for r in recs)
    return {
        "setup_s": (_median(setup_walls) * PROBE_REF_S[True] / _median(setup_probes),
                    len(setup_walls)),
        "peak_rss_mb": (rss_kb / 1024.0, 1),
        "success_rate": ((len(recs) - failed) / len(recs), len(recs)),
        "detect_f1": (statistics.fmean(f1s) if f1s else None, len(f1s)),
        "layers_per_s": (_geomean([_median(v) for v in rates.values()]), len(ok)),
        "op_s": (_geomean([_median(v) for v in walls.values()]), len(ok)),
    }


def _per_layer(runner: Runner, n_cycle: int, imports: list[float], env: dict
               ) -> tuple[dict, list]:
    """Per-layer metrics from the traced ops of complete cycles, and their spans."""
    recs = runner.records
    cycles = {}
    for r in recs:
        if r["timed"]:
            cycles.setdefault(r["cycle"], []).append(r)
    traced = [r for c, rs in cycles.items() if len(rs) >= n_cycle
              for r in rs if r["traced"] and r["error"] is None]
    ops = {r["i"] for r in traced}
    if runner.w.cold:
        spans, absent = [], set()
        for idx, doc in runner.cold_spans:
            if idx in ops:
                offset = len(spans)
                spans += [spans_mod.Span.from_list(row, offset, idx) for row in doc["spans"]]
                absent.update(doc["absent"])
        imports = imports + [s.end - s.start for s in spans if s.name == "cli.import"]
    else:
        spans = spans_mod.select(runner.tracer.spans, ops)
        absent = set(runner.tracer.absent)
    S = spans_mod.summarize(spans)
    n = len(traced)
    wall = sum(r["wall_s"] for r in traced)

    def per_op(name, field="self_s"):
        return S[name][field] / n if n else None

    def ratio(a, b):
        return a / b if b else 0.0

    interp = []
    for _ in range(INTERP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, timeout=CHILD_TIMEOUT_S,
                       check=True, capture_output=True)
        interp.append(time.perf_counter() - t0)
    plain = [r for r in recs if r["timed"] and not r["traced"] and r["error"] is None]
    m = {
        "cli.interp_s": (_median(interp), len(interp)),
        "cli.import_s": (_median(imports), len(imports)),
        "cli.artifact_bytes": (statistics.fmean([r["bytes"] for r in recs if r["error"] is None]),
                               len(recs)),
        "cli.main.self_s": (per_op("cli.main"), n),
    }
    for kind in KINDS:
        w = [r["wall_s"] for r in plain if r["kind"] == kind]
        m[f"cli.{kind}_s"] = (_median(w) or 0.0, len(w))
        m[f"cli.{kind}.n"] = (len(w), len(w))
    sim = S["simulator.simulate"]
    build = S["ensembles.build"]
    m.update({
        "ensembles.build.calls": (per_op("ensembles.build", "calls"), n),
        "ensembles.build.self_s": (per_op("ensembles.build"), n),
        "ensembles.build.distinct_ratio": (ratio(spans_mod.distinct_builds(spans),
                                                 build["calls"]), n),
        "ensembles.build.share": (ratio(build["self_s"], wall), n),
        "simulator.simulate.calls": (per_op("simulator.simulate", "calls"), n),
        "simulator.simulate.self_s": (per_op("simulator.simulate"), n),
        "simulator.simulate.incl_s": (per_op("simulator.simulate", "incl_s"), n),
        "simulator.simulate.share": (ratio(sim["incl_s"], wall), n),
        "simulator.lanes_per_call": (ratio(sim["lanes"], sim["calls"]), n),
        "simulator.pop_steps": (per_op("simulator.simulate", "pop_steps"), n),
        "simulator.step_us": (1e6 * ratio(sim["incl_s"], sim["pop_steps"]), n),
        "simulator.spikes": (per_op("simulator.simulate", "spikes"), n),
        "simulator.rates_bytes": (per_op("simulator.simulate", "rates_bytes"), n),
        "neurons.lif_step.calls": (per_op("neurons.lif_step", "calls"), n),
        "neurons.lif_step.self_s": (per_op("neurons.lif_step"), n),
        "synapses.lowpass.calls": (per_op("synapses.lowpass", "calls"), n),
        "synapses.lowpass.self_s": (per_op("synapses.lowpass"), n),
        "pipeline.load.self_s": (per_op("pipeline.load"), n),
        "pipeline.run_filter.calls": (per_op("pipeline.run_filter", "calls"), n),
        "pipeline.run_filter.self_s": (per_op("pipeline.run_filter"), n),
        "pipeline.deviate_flag.self_s": (per_op("pipeline.deviate_flag"), n),
        "evaluation.sweep.self_s": (per_op("evaluation.sweep"), n),
        "evaluation.sweep.point_errors": (per_op("evaluation.sweep", "point_errors"), n),
        "evaluation.score.self_s": (per_op("evaluation.score"), n),
        "energy.count_ops.self_s": (per_op("energy.count_ops"), n),
        "energy.synaptic_ops": (per_op("energy.count_ops", "synaptic_ops"), n),
        "baselines.filter.calls": (per_op("baselines.filter", "calls"), n),
        "baselines.filter.self_s": (per_op("baselines.filter"), n),
        "classifier.encode.self_s": (per_op("classifier.encode"), n),
        "classifier.train.self_s": (per_op("classifier.train"), n),
        "datagen.gen.self_s": (per_op("datagen.gen"), n),
    })
    # a function that a refactor renamed, or whose counters no longer read,
    # is reported absent rather than as zero
    gone = {name for name, mod, attr, _, _ in spans_mod.TARGETS if f"{mod}.{attr}" in absent}
    gone |= {name for name, row in S.items() if row.get("probe_errors")}
    for key in list(m):
        if any(key.startswith(g + ".") or key == g for g in gone) or \
                (key.startswith("simulator.") and "simulator.simulate" in gone):
            m[key] = (None, 0)
    # tracing overhead: each op key run both traced and untraced
    by_key: dict[str, tuple[list, list]] = {}
    for r in recs:
        if r["timed"] and r["error"] is None:
            by_key.setdefault(r["key"], ([], []))[0 if r["traced"] else 1].append(r["wall_s"])
    pairs = [(_median(t), _median(u)) for t, u in by_key.values() if t and u]
    covered = sum(row["self_s"] for row in S.values())
    m.update({
        "trace.overhead_s": (statistics.fmean([t - u for t, u in pairs]) if pairs else None,
                             len(pairs)),
        "trace.overhead_pct": ((_geomean([t / u for t, u in pairs]) - 1.0) * 100.0
                               if pairs else None, len(pairs)),
        "trace.coverage": (ratio(covered, wall), n),
        "trace.ops": (n, n),
        "trace.op_wall_s": (wall / n if n else None, n),
    })
    return m, spans


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-bad-input", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "snndetect" / "cli.py").is_file():
        print(f"error: no snndetect source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    stamp = time.strftime("%Y%m%dT%H%M%S")
    stem = f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}-{os.getpid()}"
    work = OUT / "work" / stem
    runs = OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    env = _child_env()
    fx = work / "fixtures"
    try:
        w = workloads.build(args.workload, args.seed, fx)
        setup_walls, setup_probes, imports, lib = _setup(w, args.seed, fx, env)
        runner = Runner(w, work, env)
        facts = _facts(args.seed, args.workload, lib)
        # warm-up and acceptance check C4: counted, not timed
        runner.run(w.standard, -1, traced=False, timed=False)

        first = [_bad_input_op(fx, w)] if args.inject_bad_input else []
        min_cycles = 2 if args.trace else 1
        deadline = time.perf_counter() + args.seconds
        for cycle, op, complete in _schedule(w.cycle, first):
            runner.run(op, cycle, traced=bool(args.trace) and cycle % 2 == 0)
            if complete >= min_cycles and time.perf_counter() >= deadline:
                break
        if not any(r["repeat"] for r in runner.records):
            # no identical invocation ran twice in time; check determinism once more
            runner.run(w.cycle[0], cycle, traced=False, timed=False)

        if args.trace:
            values, kept_spans = _per_layer(runner, len(w.cycle), imports, env)
            wanted = spec["per_layer"]
        else:
            values = _end_to_end(runner.records, setup_walls, setup_probes, w.cold)
            wanted = spec["end_to_end"]
    except (RuntimeError, OSError, subprocess.SubprocessError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    recs = runner.records
    failed = sum(r["error"] is not None for r in recs)
    metrics, table, absent = {}, [], []
    for spec_m in wanted:
        value, n = values.get(spec_m["name"], (None, 0))
        if value is None:
            absent.append(spec_m["name"])
            continue
        metrics[spec_m["name"]] = {"value": value, "unit": spec_m["unit"]}
        table.append((spec_m["name"], value, spec_m["unit"], n))
    facts["probe_s"] = _median([r["probe_s"] for r in recs])
    record = {"facts": facts, "trace": args.trace, "seconds": args.seconds,
              "setup_walls_s": setup_walls, "setup_probes_s": setup_probes,
              "attempted": len(recs), "failed": failed, "correct": failed == 0,
              "metrics": {k: {"value": v, "unit": u, "n": n} for k, v, u, n in table},
              "absent": absent, "ops": recs}
    (runs / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        with open(runs / f"{stem}.spans.jsonl", "w") as fh:
            for s in kept_spans:
                fh.write(json.dumps(s.to_list()) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"ops={len(recs)} failed={failed} error_rate={failed / len(recs):.4g}")
    print("# facts " + json.dumps(facts, sort_keys=True))
    for name, value, unit, n in table:
        print(f"# {name:34s} {value:>14.6g} {unit:8s} n={n}")
    for r in recs:
        if r["error"]:
            print(f"# failed op {r['i']} {r['key']}: {r['error'].splitlines()[0]}")
    if absent:
        print("# absent: " + ", ".join(absent))
    print(f"# record {runs / f'{stem}.json'}")
    print(json.dumps({"correct": failed == 0, "attempted": len(recs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
