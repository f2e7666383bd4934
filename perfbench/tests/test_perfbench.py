"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench/tests -q

The two end-to-end tests run short benchmark runs (about a minute together).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import spans  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    p = subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                       cwd=cwd, capture_output=True, text=True, timeout=170)
    return p


def _result(p):
    lines = p.stdout.strip().splitlines()
    record = next(l.split(" ", 2)[2] for l in lines if l.startswith("# record "))
    return json.loads(lines[-1]), json.loads(Path(record).read_text())


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_subtracts_children_and_per_step_calls():
    clock = FakeClock()
    tracer = spans.Tracer()
    tracer.clock = clock

    def step():
        clock.t += 0.25

    leaf = tracer._wrap("leaf", step, True, None)
    with tracer.span("outer"):
        clock.t += 1.0
        with tracer.span("inner"):
            clock.t += 2.0
            leaf()
            leaf()
        leaf()
    s = spans.summarize(tracer.spans)
    assert s["inner"]["incl_s"] == pytest.approx(2.5)
    assert s["inner"]["self_s"] == pytest.approx(2.0)
    assert s["outer"]["incl_s"] == pytest.approx(3.75)
    assert s["outer"]["self_s"] == pytest.approx(1.0)
    assert s["leaf"]["calls"] == 3
    assert s["leaf"]["self_s"] == pytest.approx(0.75)


def test_wrappers_trace_package_calls_and_restore_them():
    from snndetect import simulator
    from snndetect.datagen import GenParams, gen_healthy
    from snndetect.pipeline import FilterConfig, run_filter

    original = simulator.lif_step_arrays
    series = gen_healthy(GenParams(layer_range=(1, 5)))
    tracer = spans.Tracer()
    with tracer.installed(), tracer.span("root"):
        assert simulator.lif_step_arrays is not original
        from snndetect import pipeline
        pipeline.run_filter(series, FilterConfig(stages=2))
    assert simulator.lif_step_arrays is original
    assert tracer.absent == []
    s = spans.summarize(tracer.spans)
    assert s["ensembles.build"]["calls"] == 2
    assert s["simulator.simulate"]["pop_steps"] == 5 * 10 * 2
    assert s["neurons.lif_step"]["calls"] == 100
    # the caller's own binding (imported before install) is untouched
    run_filter(series, FilterConfig())


def test_renamed_function_is_reported_absent(monkeypatch):
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (
        ("pipeline.gone", "snndetect.pipeline", "no_such_function", False, None),))
    import snndetect.cli  # noqa: F401
    tracer = spans.Tracer()
    with tracer.installed():
        pass
    assert tracer.absent == ["snndetect.pipeline.no_such_function"]


@pytest.mark.parametrize("base,change,better,bound,expected", [
    ([1.0, 1.01, 0.99, 1.0], [0.8, 0.81, 0.79, 0.8], "lower", 0.1, "better"),
    ([1.0, 1.01, 0.99, 1.0], [1.2, 1.21, 1.19, 1.2], "lower", 0.1, "worse"),
    ([1.0, 1.01, 0.99, 1.0], [1.02, 1.0, 1.01, 0.99], "lower", 0.1, "same"),
    ([1.0, 2.0, 0.5, 1.5], [1.0, 1.1, 0.9, 1.3], "lower", 0.1, "unresolved"),
    ([5.0, 5.0], [5.0, 5.0], "higher", None, "same"),
    ([5.0, 5.1, 4.9], [6.0, 6.1, 5.9], "higher", None, "better"),
])
def test_verdicts(base, change, better, bound, expected):
    assert compare.verdict(base, change, better, bound) == expected


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    p = _run("--workload", "cli-cold", "--seed", "1", "--seconds", "1", "--trace", "0",
             cwd=tmp_path)
    assert p.returncode != 0
    assert not p.stdout.strip()


def test_bad_input_is_counted_and_the_run_completes():
    p = _run("--workload", "cli-cold", "--seed", "3", "--seconds", "1", "--trace", "0",
             "--inject-bad-input")
    assert p.returncode == 0, p.stderr
    result, record = _result(p)
    assert result["failed"] == 1 and not result["correct"]
    assert result["attempted"] >= 7
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert result["metrics"]["success_rate"]["value"] == pytest.approx(
        1 - 1 / result["attempted"])
    bad = [op for op in record["ops"] if op["key"] == "inject/bad-csv"]
    assert [op["exit"] for op in bad] == [2]
    assert all(op["error"] is None for op in record["ops"] if op["key"] != "inject/bad-csv")


def test_traced_run_reports_every_per_layer_metric():
    p = _run("--workload", "research-batch", "--seed", "4", "--seconds", "1", "--trace", "1")
    assert p.returncode == 0, p.stderr
    result, record = _result(p)
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    assert record["absent"] == []
