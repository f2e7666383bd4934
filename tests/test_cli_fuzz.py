"""Fuzz of the CLI error contract over the documents a user hands in.

Valid `--config`, `--truth`, classify-manifest and `--profiles` documents,
and the `baseline` entry of a `--config` that compare reads, get some of
their values, at any depth, swapped for a wrong type, a bool, null, a
list, a negative number or 1e400 (or dropped). Valid layer CSVs get cells
swapped for non-integral, huge, inf/nan, negative or empty ones, rows
duplicated, or cells dropped. Whatever comes in, main() returns 0 or 2,
and a nonzero exit writes a one-line `error: ` message rather than a
traceback. Each document kind also has an example holding an integer
literal of 5000 digits, past the 4300 that Python converts, which the
JSON parser itself rejects. A profiles document with a constant that is
not a finite number >= 0 exits 2, and an integer beyond the float range
is not one, nor is a document that does not parse; a
valid one may also draw huge finite constants, and then it either exits 0
with every energy finite or exits 2 because an energy overflows, without
writing energy.csv. Manifest sample ids and profile names are drawn from
text of commas, CRs, LFs, double quotes and a leading `#`: a run either
exits 2 and writes no artifact, or writes CSVs whose every data row, as
Python's csv reader reads it, has as many cells as the header. Valid sizes stay tiny (32 neurons, 20 layers, 2 steps per
layer), so each example runs in milliseconds.
"""

import copy
import csv
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings, strategies as st

from snndetect.cli import main

HUGE = "<1e400>"  # stands for the literal 1e400 in the written document
LONG_INT = "1" + "0" * 5000  # past Python's 4300-digit limit on int(str)
BAD = st.one_of(
    st.none(), st.booleans(), st.text(max_size=4), st.integers(-10**6, 0),
    st.floats(-1e6, -1e-3), st.just(float("nan")), st.just(HUGE),
    st.lists(st.integers(-3, 3), max_size=3),
)
HUGE_FINITE = st.floats(1e250, 1.7e308)  # valid constants whose energies may overflow
SAFE_CONSTANT = 1e200  # below this, no energy of the tiny runs here can overflow
CONFIG = {"neurons": 32, "radius": 1100.0, "dt": 0.001, "presentation_time": 0.002,
          "tau_in": 0.002, "tau_out": 0.002, "seed": 1, "stages": 1}
TRUTH = {"defect_layers": [612, 613, 614], "window": [600, 619]}
MANIFEST = {"window": [605, 615], "samples": [
    {"path": "data/healthy.csv", "label": 0, "sample_id": "h"},
    {"path": "data/defective.csv", "label": 1, "sample_id": "d"},
]}
BASELINE = [{"kind": "moving_average", "window": 5}, {"kind": "gaussian", "sigma": 1.0}]
PROFILES = {"CPU": {"e_synop": 0.0, "e_update": 0.0, "e_static_per_inference": 1.7e-5},
            "Loihi": {"e_synop": 8e-12, "e_update": 0.0, "e_static_per_inference": 0.0}}
LAYER_ROWS = [[str(layer), "1000.0"] for layer in range(600, 620)]
BAD_CELL = st.one_of(
    st.sampled_from(["", "nan", "inf", "-inf", "1e400", "1e20", "-1e400", "612.5", "x", "-3"]),
    st.floats().map(repr), st.integers(-2**70, 2**70).map(str),
)
FUZZ = settings(max_examples=50, derandomize=True, deadline=None)
NAME = st.text(alphabet='ab#,\r\n"', max_size=4)  # a sample id or a profile name


def _paths(doc, prefix=()):
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


@st.composite
def mutated(draw, doc, drop=True, bad=BAD):
    """JSON text of `doc` with one to three values replaced by `bad` ones (or dropped)."""
    doc = copy.deepcopy(doc)
    for path in draw(st.lists(st.sampled_from(list(_paths(doc))), min_size=1, max_size=3)):
        if not path:
            doc = draw(bad)
            continue
        parent = doc
        try:
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]]
        except (KeyError, IndexError, TypeError):
            continue  # an earlier mutation removed this path
        if drop and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(bad)
    return json.dumps(doc).replace(json.dumps(HUGE), "1e400")


@st.composite
def mutated_csv(draw):
    """A 20-layer layer/value CSV with one to three cells, rows or cells spoiled."""
    rows = copy.deepcopy(LAYER_ROWS)
    for _ in range(draw(st.integers(1, 3))):
        r = draw(st.integers(0, len(rows) - 1))
        kind = draw(st.sampled_from(["cell", "duplicate", "drop"]))
        if kind == "cell":
            rows[r][draw(st.integers(0, len(rows[r]) - 1))] = draw(BAD_CELL)
        elif kind == "duplicate":
            rows.insert(r, list(rows[draw(st.integers(0, len(rows) - 1))]))
        else:
            rows[r] = rows[r][:1]
    return csv_text(rows)


def csv_text(rows):
    return "layer,value\n" + "".join(",".join(row) + "\n" for row in rows)


@pytest.fixture(scope="module")
def fx(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    assert main(["gen-data", "--outdir", str(root / "data"), "--seed", "5", "--window",
                 "600:619", "--defect-start", "612", "--defect-layers", "3"]) == 0
    (root / "config.json").write_text(json.dumps(CONFIG))
    return root


def run_cli(fx, name, text, *argv):
    (fx / name).write_text(text)
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main([*argv, "--outdir", str(fx / "out")])
    err = err.getvalue()
    assert code in (0, 2), err
    if code:
        assert err.startswith("error: ") and "Traceback" not in err, err
    return code


def detect_args(fx, config, truth):
    data = fx / "data"
    return ("detect", "--defective", str(data / "defective.csv"),
            "--healthy", str(data / "healthy.csv"), "--config", str(config),
            "--truth", str(truth))


@FUZZ
@given(text=mutated(CONFIG, drop=False))  # a dropped key falls back to a 500-neuron default
@example(text="not json")
@example(text=json.dumps({**CONFIG, "radius": 10**400}))
@example(text=json.dumps({**CONFIG, "radius": 1e308}))  # 2 * radius overflows
@example(text='{"radius": %s}' % LONG_INT)
def test_config_documents(fx, text):
    run_cli(fx, "fuzz-config.json", text,
            *detect_args(fx, fx / "fuzz-config.json", fx / "data" / "truth.json"))


@FUZZ
@given(text=mutated(TRUTH))
@example(text='{"defect_layers": ["x"], "window": [600, 619]}')
@example(text='{"defect_layers": [%s], "window": [600, 619]}' % LONG_INT)
def test_truth_documents(fx, text):
    run_cli(fx, "fuzz-truth.json", text,
            *detect_args(fx, fx / "config.json", fx / "fuzz-truth.json"))


@FUZZ
@given(text=mutated(MANIFEST))
@example(text='{"samples": 5}')
@example(text='{"window": [%s, 615], "samples": []}' % LONG_INT)
def test_manifest_documents(fx, text):
    run_cli(fx, "fuzz-manifest.json", text, "classify", "--manifest",
            str(fx / "fuzz-manifest.json"), "--config", str(fx / "config.json"),
            "--epochs", "5")


@FUZZ
@given(text=mutated(BASELINE))
@example(text="5")
def test_baseline_documents(fx, text):
    data = fx / "data"
    config = json.dumps(CONFIG)[:-1] + ', "baseline": ' + text + "}"
    run_cli(fx, "fuzz-baseline.json", config, "compare", "--defective",
            str(data / "defective.csv"), "--healthy", str(data / "healthy.csv"),
            "--config", str(fx / "fuzz-baseline.json"), "--truth", str(data / "truth.json"))


def valid_profiles(text):
    """Whether a profiles document parses and maps names to finite energy
    constants >= 0."""
    try:
        doc = json.loads(text)
    except ValueError:  # an integer literal past the digit limit
        return False

    def constant(value):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return False
        try:
            return math.isfinite(value) and value >= 0
        except OverflowError:  # an integer beyond the float range
            return False

    return isinstance(doc, dict) and all(
        isinstance(p, dict) and set(p) <= set(PROFILES["CPU"]) and all(map(constant, p.values()))
        for p in doc.values())


def energies(path):
    """The energy cells of an energy.csv, past its meta and column lines."""
    return [float(cell) for line in path.read_text().splitlines()[2:]
            for cell in line.split(",")[1:]]


def max_constant(text):
    """The largest energy constant of a valid profiles document (0 if none)."""
    return max((v for p in json.loads(text).values() for v in p.values()), default=0)


@FUZZ
@given(text=mutated(PROFILES, bad=st.one_of(BAD, HUGE_FINITE)))
@example(text='{"CPU": {"e_synop": NaN}}')
@example(text='{"CPU": {"e_static_per_inference": true}}')
@example(text='{"CPU": {"e_synop": 1e300}}')
@example(text='{"CPU": {"e_static_per_inference": 1.7e308}}')
@example(text=json.dumps({"CPU": {"e_synop": 10**400}}))
@example(text='{"CPU": {"e_synop": %s}}' % LONG_INT)
def test_profiles_documents(fx, text):
    energy_csv = fx / "out" / "energy.csv"
    energy_csv.unlink(missing_ok=True)
    code = run_cli(fx, "fuzz-profiles.json", text, "energy", "--profiles",
                   str(fx / "fuzz-profiles.json"), "--config", str(fx / "config.json"),
                   "--window", "600:619", "--defect-start", "612")
    if not valid_profiles(text):
        assert code == 2, text
    elif code == 0:
        assert all(map(math.isfinite, energies(energy_csv))), text
    else:
        assert not energy_csv.exists(), text
        assert max_constant(text) >= SAFE_CONSTANT, text


def csv_rows(out):
    """Every CSV artifact in `out`, as the CSV readers here take it: lines
    end at CR, LF or CRLF, `#` lines are skipped, and Python's csv reader
    splits the rest into cells, so a cell that opens with a double quote
    runs on to the next one."""
    rows = {}
    for path in out.glob("*.csv"):
        with open(path) as fh:  # universal newlines
            rows[path.name] = list(csv.reader(line for line in fh if not line.startswith("#")))
    return rows


def run_named(fx, name, doc, rows, *argv):
    """Run a command over a document holding drawn names; on exit 0 every
    CSV artifact has `rows[file]` data rows, each as wide as its header,
    and on exit 2 nothing is written."""
    out = fx / "out"
    for path in out.glob("*"):
        path.unlink()
    code = run_cli(fx, name, json.dumps(doc), *argv)
    if code:
        assert not any(out.iterdir()), doc
        return code
    written = csv_rows(out)
    assert set(written) == set(rows), doc
    for file, (header, *data) in written.items():
        assert len(data) == rows[file] and all(len(r) == len(header) for r in data), (file, doc)
    return code


def breaks_csv(name, row_start):
    return (any(c in name for c in ",\r\n") or name.startswith('"')
            or (row_start and name.startswith("#")))


@FUZZ
@given(ids=st.lists(NAME, min_size=2, max_size=2))
@example(ids=["a,b", "d"])
@example(ids=["h", "#d"])
@example(ids=["h\r", "d"])
@example(ids=['"h', 'd"'])
def test_manifest_sample_ids(fx, ids):
    doc = copy.deepcopy(MANIFEST)
    for sample, sample_id in zip(doc["samples"], ids):
        sample["sample_id"] = sample_id
    code = run_named(fx, "named-manifest.json", doc, {"loss.csv": 5, "predictions.csv": 2},
                     "classify", "--manifest", str(fx / "named-manifest.json"),
                     "--config", str(fx / "config.json"), "--epochs", "5")
    assert code == (2 if any(breaks_csv(i, True) for i in ids) else 0), ids


@FUZZ
@given(names=st.lists(NAME, min_size=1, max_size=3, unique=True))
@example(names=["a,b", "x\ny"])
@example(names=["#a"])
@example(names=['"a', 'b"'])
def test_profile_names(fx, names):
    doc = {name: PROFILES["Loihi"] for name in names}
    code = run_named(fx, "named-profiles.json", doc, {"energy.csv": 6}, "energy", "--profiles",
                     str(fx / "named-profiles.json"), "--config", str(fx / "config.json"),
                     "--window", "600:619", "--defect-start", "612")
    assert code == (2 if any(breaks_csv(n, False) for n in names) else 0), names


@FUZZ
@given(text=mutated_csv())
@example(text="layer,value\n600,5\n1e400,6\n")
@example(text="layer,value\n600,5\n1e20,6\n")
@example(text="layer,value\n")
@example(text="")
def test_layer_csv_documents(fx, text):
    data = fx / "data"
    run_cli(fx, "fuzz-layers.csv", text, "detect", "--defective", str(fx / "fuzz-layers.csv"),
            "--healthy", str(data / "healthy.csv"), "--config", str(fx / "config.json"),
            "--truth", str(data / "truth.json"))
    run_cli(fx, "fuzz-layers.csv", text, "raster", "--input", str(fx / "fuzz-layers.csv"),
            "--config", str(fx / "config.json"))


def test_the_unmutated_documents_run(fx):
    assert run_cli(fx, "ok-config.json", json.dumps(CONFIG),
                   *detect_args(fx, fx / "ok-config.json", fx / "data" / "truth.json")) == 0
    assert run_cli(fx, "ok-truth.json", json.dumps(TRUTH),
                   *detect_args(fx, fx / "config.json", fx / "ok-truth.json")) == 0
    assert run_cli(fx, "ok-manifest.json", json.dumps(MANIFEST), "classify", "--manifest",
                   str(fx / "ok-manifest.json"), "--config", str(fx / "config.json"),
                   "--epochs", "5") == 0
    assert run_cli(fx, "ok-baseline.json", json.dumps({**CONFIG, "baseline": BASELINE}),
                   "compare", "--defective", str(fx / "data" / "defective.csv"),
                   "--healthy", str(fx / "data" / "healthy.csv"),
                   "--config", str(fx / "ok-baseline.json"),
                   "--truth", str(fx / "data" / "truth.json")) == 0
    assert run_cli(fx, "ok-profiles.json", json.dumps(PROFILES), "energy", "--profiles",
                   str(fx / "ok-profiles.json"), "--config", str(fx / "config.json"),
                   "--window", "600:619", "--defect-start", "612") == 0
    assert run_cli(fx, "ok-layers.csv", csv_text(LAYER_ROWS), "raster", "--input",
                   str(fx / "ok-layers.csv"), "--config", str(fx / "config.json")) == 0
